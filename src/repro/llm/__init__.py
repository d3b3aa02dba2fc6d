"""LLM layer: model configs, transformer, KV cache, engine, metrics.

* :mod:`repro.llm.config` — the evaluated Qwen2.5 / Llama3.2 geometries.
* :mod:`repro.llm.model` — the GQA transformer on the NPU simulator.
* :mod:`repro.llm.kv_cache` — the KV storage format (FP16 or INT8) and
  the contiguous batched cache with prompt forking.
* :mod:`repro.llm.block_pool` — paged KV blocks with copy-on-write forks.
* :mod:`repro.llm.engine` — prefill / batched decode orchestration.
* :mod:`repro.llm.scheduler` — continuous-batching (waved Best-of-N) decode.
* :mod:`repro.llm.sampler` / :mod:`repro.llm.tokenizer` — generation glue.
* :mod:`repro.llm.perplexity` — PPL and KL metrics for accuracy tables.
"""

from .. import _lazy

# Bound now: importing the submodule of the same name later would
# rebind the package attribute to the module.
from .perplexity import perplexity  # noqa: F401

__all__, __getattr__, __dir__ = _lazy.attach(globals(), names={
    "block_pool": ("BlockPool", "PagedKVCache", "PagedLayerKVCache"),
    "config": ("MODEL_CONFIGS", "ModelConfig", "get_model_config",
               "tiny_config"),
    "dispatch": ("BackendDecision", "BackendSelector"),
    "engine": ("GenerationResult", "InferenceEngine"),
    "kv_cache": ("KVCache", "LayerKVCache"),
    "model": ("NPUTransformer", "StepCost", "TransformerWeights",
              "reference_forward"),
    "perplexity": ("mean_kl_divergence", "perplexity", "top1_agreement"),
    "sampler": ("Sampler", "softmax_logits"),
    "scheduler": ("ContinuousBatchingScheduler", "PromptAdmission",
                  "ScheduledGeneration", "WavePlan", "plan_waves"),
    "speculative": ("SpeculativeDecoder", "SpeculativeResult"),
    "tokenizer": ("ByteTokenizer",),
})
