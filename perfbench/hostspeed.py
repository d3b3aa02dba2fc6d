"""Host-speed probes: fixed computations timed beside every operation.

The benchmark host is shared, and its speed drifts by tens of percent
over minutes: a whole run can land in a slow stretch, so no statistic of
one run's operation times is steady across runs.  A probe measures that
drift.  It is a fixed computation shaped like the host work of one kind
of workload, and it never touches the simulator, so a change to the
simulator cannot move it:

* :data:`ARRAY` — small float16 numpy operations (pad, matmul, casts)
  plus a little interpreter work, like the kernels of the model
  workloads;
* :data:`INTERPRETER` — dict updates and heap pushes over a working set
  of tens of thousands of keys, like the fleet's event loop.

An operation's host seconds are rescaled to the nominal host speed with
the probe times taken just before and just after it::

    nominal_seconds = seconds * probe.nominal_s / mean(before, after)
"""

from __future__ import annotations

import heapq
import time
from typing import Callable, NamedTuple

import numpy as np


class Probe(NamedTuple):
    """A probe computation and its typical time on the calibration host.

    ``nominal_s`` was measured on a 2-vCPU Intel Xeon VM at 2.0 GHz; it
    fixes the scale of the reported rates only.
    """

    seconds: Callable[[], float]
    nominal_s: float


_TILE = np.random.default_rng(0).standard_normal((32, 64)).astype(np.float16)
_KEYS = np.random.default_rng(1).integers(0, 1 << 30, 30000).tolist()


def _array_seconds() -> float:
    start = time.perf_counter()
    table = {}
    heap = []
    for i in range(6000):
        key = i % 97
        table[key] = table.get(key, 0.0) + i * 0.5
        heapq.heappush(heap, (table[key], i))
        if len(heap) > 64:
            heapq.heappop(heap)
    x = _TILE
    for _ in range(60):
        padded = np.pad(x, ((0, 0), (0, 32)))
        scores = padded.astype(np.float32) @ padded.T.astype(np.float32)
        x = _TILE + np.float16(1e-3) * (scores.astype(np.float16) @ _TILE)
    return time.perf_counter() - start


def _interpreter_seconds() -> float:
    start = time.perf_counter()
    table = {}
    heap = []
    for i, key in enumerate(_KEYS):
        table[key] = table.get(key, 0.0) + i * 0.5
        heapq.heappush(heap, (key, i))
        if len(heap) > 4096:
            heapq.heappop(heap)
    return time.perf_counter() - start


ARRAY = Probe(_array_seconds, nominal_s=0.04)
INTERPRETER = Probe(_interpreter_seconds, nominal_s=0.04)
