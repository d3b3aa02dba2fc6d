"""Trace a batched decode and read engine utilization off the run.

Enables the span tracer and the event log, runs a batch-8 decode on the
OnePlus 12 (V75) profile, exports a Perfetto/Chrome trace with one lane
per simulated engine (HMX / HVX / DMA / CPU), drawn from the run's
energy-ledger charges, and prints the HMX idle fraction the run reports
— the headroom that test-time scaling converts into accuracy (paper §4).

Run:  python examples/profile_decode.py
Then open profile_decode_trace.json in https://ui.perfetto.dev

See also: `python -m repro profile` for the same flow as a CLI command.
"""

from __future__ import annotations

from repro.llm import (
    ByteTokenizer,
    InferenceEngine,
    NPUTransformer,
    Sampler,
    TransformerWeights,
    tiny_config,
)
from repro.npu import get_device
from repro.obs import EventLog, Tracer, scope, write_chrome_trace

TRACE_PATH = "profile_decode_trace.json"


def main() -> None:
    config = tiny_config(vocab_size=512)
    weights = TransformerWeights.generate(config, seed=0, embedding_std=0.1)
    model = NPUTransformer(weights, strategy="ours", attention_method="lut")

    device = get_device("oneplus_12")
    engine_batch = 8
    engine = InferenceEngine(model, batch=engine_batch, max_context=64,
                             device=device)
    print(f"device: {device.name} ({device.soc}, NPU {device.npu.name})")

    # record this run on a fresh tracer and event log (and, since the
    # scope is given none, a fresh metrics registry)
    tracer, log = Tracer(enabled=True), EventLog(enabled=True)
    with scope(tracer=tracer, log=log):
        tokenizer = ByteTokenizer(config.vocab_size)
        prompt = tokenizer.encode("What is 12 * 7?")
        result = engine.generate(prompt, max_new_tokens=12,
                                 sampler=Sampler(temperature=1.0, seed=7))

    print(f"decoded {result.total_generated_tokens} tokens across "
          f"{len(result.sequences)} candidates "
          f"({result.n_decode_steps} batched steps)")

    trace = write_chrome_trace(TRACE_PATH, tracer, events=log)
    print(f"trace: {len(trace['traceEvents'])} events -> {TRACE_PATH} "
          "(open in https://ui.perfetto.dev)")

    # the paper's headline observation, as the run reports it: even at
    # batch 8 the matrix engine spends most of the decode idle.
    util = result.utilization
    print(f"\nengine utilization over the simulated timeline (batch "
          f"{engine_batch}):")
    for lane, fraction in util.items():
        print(f"  {lane.upper():4s} busy {100 * fraction:5.1f}%")
    hmx_idle = 1.0 - util["hmx"]
    print(f"\nHMX idle fraction: {hmx_idle:.1%} — the slack test-time "
          "scaling spends on extra candidates instead of latency.")


if __name__ == "__main__":
    main()
