"""Host-cost guard for the decode step: it counts calls, not seconds.

A decode step of the tiny model is bound by how many numpy and Python
calls it makes, not by its arithmetic, so this guard bounds the calls.
Over a fixed run of paged decode steps it counts, with
:func:`sys.setprofile`:

* numpy calls made from a frame under ``src/repro/``: a numpy C function,
  ``ndarray`` method or ufunc method (a ``c_call`` event), or a
  Python-level numpy function, array-function dispatchers included (a
  ``call`` event whose caller is the ``repro`` frame).  Calling a ufunc
  object or an arithmetic operator raises no profile event, so neither
  is counted;
* Python calls into code under ``src/repro/``, generator steps included.

Only calls made from ``repro`` frames count, so numpy's internals, which
differ between numpy versions, stay out.  A count is deterministic, so
unlike a wall-time guard it cannot flake.  Python 3.12 inlines list
comprehensions, so it counts fewer Python calls than 3.10 and 3.11.
"""

from __future__ import annotations

import os
import sys
import types
from collections import Counter

import numpy as np
import pytest

import repro
from repro.llm import (InferenceEngine, NPUTransformer, TransformerWeights,
                       tiny_config)

#: prompt lengths of the four slots: ragged, and slot 0 crosses a 32-key
#: KV block during the run
PROMPTS = (28, 7, 33, 16)
STEPS = 6

_REPRO = os.path.dirname(repro.__file__) + os.sep
_NUMPY = os.path.dirname(np.__file__) + os.sep


def _prefilled(model: NPUTransformer) -> InferenceEngine:
    engine = InferenceEngine(model, batch=4, max_context=64,
                             kv_backend="paged")
    prompt = list(range(1, max(PROMPTS) + 1))
    for seq, n in enumerate(PROMPTS):
        engine.prefill(prompt[:n], seq=seq)
    return engine


def _decode(engine: InferenceEngine) -> None:
    for step in range(STEPS):
        engine.decode_step([step + 1, step + 2, step + 3, step + 4])


def _is_numpy(function) -> bool:
    owner = getattr(function, "__self__", None)
    module = (getattr(function, "__module__", None)
              if owner is None or isinstance(owner, types.ModuleType)
              else type(owner).__module__)
    return (module or "").split(".")[0] == "numpy"


def count_calls(run) -> Counter:
    """``{"numpy": n, "python": n}`` calls ``run()`` makes, by the rule
    in the module docstring."""
    counts: Counter = Counter()

    def profile(frame, event, arg):
        if event == "c_call":
            if frame.f_code.co_filename.startswith(_REPRO) and _is_numpy(arg):
                counts["numpy"] += 1
        elif event == "call":
            filename = frame.f_code.co_filename
            if filename.startswith(_REPRO):
                counts["python"] += 1
            elif filename.startswith(_NUMPY) and frame.f_back is not None \
                    and frame.f_back.f_code.co_filename.startswith(_REPRO):
                counts["numpy"] += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return counts


@pytest.fixture(scope="module")
def counts() -> Counter:
    """Calls of the run's decode steps once every per-shape table is
    filled: a first run on the same model records each shape's charges."""
    model = NPUTransformer(TransformerWeights.generate(tiny_config(), seed=0))
    _decode(_prefilled(model))
    engine = _prefilled(model)
    return count_calls(lambda: _decode(engine))


def test_numpy_calls_of_the_decode_steps(counts):
    # 1648 (275 a step) once keys and values are gathered once per layer
    # and widened once per call and model constants are built once; 3086
    # (514 a step) before
    assert counts["numpy"] <= 1648 * 1.05


def test_python_calls_of_the_decode_steps(counts):
    # 1478 (246 a step) on Python 3.11 once each call's charges are
    # looked up once per shape and the HMX checks run without generator
    # expressions; 3952 (659 a step) before
    assert counts["python"] <= 1478 * 1.05


def test_the_counts_see_both_kinds_of_call():
    """The hook counts C-level numpy calls, Python-level numpy functions
    with their dispatchers, and Python calls into repro, and nothing
    numpy does internally."""
    from repro.kernels.lut import scale_broadcast_indices
    from repro.npu.hmx import pad_to_tiles

    # asarray and zeros
    assert count_calls(lambda: pad_to_tiles(np.ones((2, 8)))) == {
        "numpy": 2, "python": 1}
    # arange, and np.repeat's dispatcher and function (np.repeat calls
    # ndarray.repeat itself, which is not counted)
    assert count_calls(scale_broadcast_indices) == {"numpy": 3, "python": 1}
