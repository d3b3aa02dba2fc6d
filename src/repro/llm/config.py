"""Model configurations for the evaluated LLM families (§7.1).

The paper evaluates Qwen 2.5 (1.5B / 3B / 7B) and Llama 3.2 (1B / 3B)
Instruct models.  The architectural dimensions below are the published
ones; the reproduction instantiates these architectures with synthetic
Gaussian weights (substitution S2 in DESIGN.md), so parameter counts,
layer shapes, GQA ratios and memory footprints are all faithful.

Quantization placement follows §7.1: Q4_0 for attention/FFN projections,
Q8_0 for the FFN down projection, FP16 activations, and the lm_head kept
on the CPU (§7.2.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ..errors import ModelConfigError

__all__ = ["ModelConfig", "MODEL_CONFIGS", "get_model_config", "tiny_config"]


@dataclass(frozen=True)
class ModelConfig:
    """Architecture of one decoder-only transformer."""

    name: str
    hidden_dim: int
    n_layers: int
    n_heads: int
    n_kv_heads: int
    head_dim: int
    intermediate_dim: int
    vocab_size: int
    max_position: int = 32768
    rope_theta: float = 1000000.0
    tie_embeddings: bool = False

    def __post_init__(self) -> None:
        if self.n_heads % self.n_kv_heads != 0:
            raise ModelConfigError(
                f"{self.name}: heads {self.n_heads} not divisible by KV heads "
                f"{self.n_kv_heads}")
        if self.head_dim * self.n_heads <= 0:
            raise ModelConfigError(f"{self.name}: invalid attention geometry")

    # ------------------------------------------------------------------
    # derived geometry
    # ------------------------------------------------------------------
    @property
    def q_dim(self) -> int:
        return self.n_heads * self.head_dim

    @property
    def kv_dim(self) -> int:
        return self.n_kv_heads * self.head_dim

    @property
    def gqa_group(self) -> int:
        return self.n_heads // self.n_kv_heads

    def projection_shapes(self) -> Dict[str, Tuple[int, int]]:
        """(input, output) shapes of every linear layer in one block."""
        return {
            "wq": (self.hidden_dim, self.q_dim),
            "wk": (self.hidden_dim, self.kv_dim),
            "wv": (self.hidden_dim, self.kv_dim),
            "wo": (self.q_dim, self.hidden_dim),
            "w_gate": (self.hidden_dim, self.intermediate_dim),
            "w_up": (self.hidden_dim, self.intermediate_dim),
            "w_down": (self.intermediate_dim, self.hidden_dim),
        }

    def param_count(self) -> int:
        """Total parameters (weights only, incl. embeddings and norms)."""
        per_block = sum(i * o for i, o in self.projection_shapes().values())
        per_block += 2 * self.hidden_dim  # the two RMSNorm weights
        embed = self.vocab_size * self.hidden_dim
        lm_head = 0 if self.tie_embeddings else self.vocab_size * self.hidden_dim
        return self.n_layers * per_block + embed + lm_head + self.hidden_dim

    def npu_weight_bytes(self) -> int:
        """Bytes of NPU-resident weights under the paper's quant placement.

        Q4_0 (4.5 BPW) everywhere except the FFN down projection (Q8_0,
        8.5 BPW); embeddings and the lm_head stay on the CPU.
        """
        shapes = self.projection_shapes()
        q4_params = sum(i * o for name, (i, o) in shapes.items() if name != "w_down")
        q8_params = shapes["w_down"][0] * shapes["w_down"][1]
        per_block = q4_params * 4.5 / 8 + q8_params * 8.5 / 8
        norms = 2 * self.hidden_dim * 2  # FP16 norm weights
        return int(self.n_layers * (per_block + norms))

    def kv_cache_bytes(self, context: int, batch: int = 1) -> int:
        """FP16 KV cache bytes for ``batch`` sequences of ``context`` tokens."""
        if context <= 0 or batch <= 0:
            raise ModelConfigError(
                f"context/batch must be positive, got {context}/{batch}")
        per_token = 2 * self.kv_dim * 2  # K and V, FP16
        return self.n_layers * batch * context * per_token

    def cpu_weight_bytes(self) -> int:
        """Resident CPU-side weight bytes: embeddings plus lm_head.

        llama.cpp keeps the embedding table quantized (Q4-class, 4.5
        BPW); a tied lm_head shares that tensor, an untied one adds its
        Q6_K storage (§7.2.2).
        """
        embed = int(self.vocab_size * self.hidden_dim * 4.5 / 8)
        head = 0 if self.tie_embeddings else self.lm_head_bytes()
        return embed + head

    NPU_WORKSPACE_BYTES = 64 * 2**20  # activation scratch mapped per session

    def npu_session_bytes(self, context: int, batch: int = 1) -> int:
        """Total NPU VA-space footprint of one inference session.

        Weights + the preallocated KV budget + the activation workspace;
        this is what the 2 GiB VA space of Snapdragon 8 Gen 2 must hold,
        and why >=3B models cannot run there (§7.2.1).
        """
        return (self.npu_weight_bytes() + self.kv_cache_bytes(context, batch)
                + self.NPU_WORKSPACE_BYTES)

    def lm_head_bytes(self) -> int:
        """Streamed lm_head bytes per decode step on the CPU.

        llama.cpp quantizes the output projection (Q6_K, 6.5625 BPW in
        Q4_0 models); this is the weight traffic that makes the
        CPU-resident logits computation dominate at batch 16 (§7.2.2).
        """
        return int(self.vocab_size * self.hidden_dim * 6.5625 / 8)


# Published architecture dimensions of the evaluated checkpoints.
MODEL_CONFIGS: Dict[str, ModelConfig] = {
    "qwen2.5-1.5b": ModelConfig(
        name="qwen2.5-1.5b", hidden_dim=1536, n_layers=28, n_heads=12,
        n_kv_heads=2, head_dim=128, intermediate_dim=8960, vocab_size=151936,
        tie_embeddings=True),
    "qwen2.5-3b": ModelConfig(
        name="qwen2.5-3b", hidden_dim=2048, n_layers=36, n_heads=16,
        n_kv_heads=2, head_dim=128, intermediate_dim=11008, vocab_size=151936,
        tie_embeddings=True),
    "qwen2.5-7b": ModelConfig(
        name="qwen2.5-7b", hidden_dim=3584, n_layers=28, n_heads=28,
        n_kv_heads=4, head_dim=128, intermediate_dim=18944, vocab_size=152064),
    "llama3.2-1b": ModelConfig(
        name="llama3.2-1b", hidden_dim=2048, n_layers=16, n_heads=32,
        n_kv_heads=8, head_dim=64, intermediate_dim=8192, vocab_size=128256,
        rope_theta=500000.0, tie_embeddings=True),
    "llama3.2-3b": ModelConfig(
        name="llama3.2-3b", hidden_dim=3072, n_layers=28, n_heads=24,
        n_kv_heads=8, head_dim=128, intermediate_dim=8192, vocab_size=128256,
        rope_theta=500000.0, tie_embeddings=True),
}


def get_model_config(name: str) -> ModelConfig:
    key = name.lower()
    if key not in MODEL_CONFIGS:
        raise ModelConfigError(
            f"unknown model {name!r}; known: {sorted(MODEL_CONFIGS)}")
    return MODEL_CONFIGS[key]


def tiny_config(name: str = "tiny", n_layers: int = 2, hidden_dim: int = 64,
                n_heads: int = 4, n_kv_heads: int = 2, intermediate_dim: int = 128,
                vocab_size: int = 512, max_position: int = 512) -> ModelConfig:
    """A scaled-down config for functional tests and examples.

    Keeps the real architecture (GQA, SwiGLU, RoPE) at dimensions small
    enough to run the full numerical path through the NPU simulator.
    """
    return ModelConfig(
        name=name, hidden_dim=hidden_dim, n_layers=n_layers, n_heads=n_heads,
        n_kv_heads=n_kv_heads, head_dim=hidden_dim // n_heads,
        intermediate_dim=intermediate_dim, vocab_size=vocab_size,
        max_position=max_position, rope_theta=10000.0, tie_embeddings=True)
