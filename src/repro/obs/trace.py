"""Span-based tracer for the simulator's hot paths.

The paper's analysis lives or dies on *where time goes* — HMX idle
capacity during decode (§4), vgather-dominated softmax (§5.2.1), DMA vs
core-path bandwidth (Table 2).  This module provides the measurement
substrate for *host* time: nested spans opened as context managers
around engine steps, model layers and kernels.  A kernel span carries
the :class:`~repro.npu.timing.KernelCost` it produced, which the text
report (:mod:`repro.obs.export`) prices per kernel.  Simulated engine
occupancy is not derived from spans: ``util_*`` and Perfetto's engine
lanes are folded from the energy ledger's charges
(:mod:`repro.obs.energy`), so they read the same with tracing off.

Design constraints, in order:

1. **Disabled must be nearly free.**  The tracer installed outside
   every :func:`~repro.obs.context.scope` is disabled; ``Tracer.span``
   then returns a shared no-op singleton whose
   ``__enter__``/``__exit__`` do nothing, so instrumented code pays only
   a method call and an attribute check per site.  The benchmark guard
   (``benchmarks/test_obs_overhead.py``) holds this to < 5% of a small
   generation run.
2. **Exception safe.**  A span closes (and is recorded, flagged with
   ``error``) even when its body raises; the exception propagates.
3. **Thread safe.**  The open-span stack is thread-local; the finished
   list is lock-protected, so kernels running on a thread pool can trace
   concurrently.

Span names follow the dotted convention ``<layer>.<operation>``
(``engine.prefill``, ``model.layer``, ``kernel.gemm``); metric names use
``repro.<layer>.<name>`` (see :mod:`repro.obs.metrics`).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

__all__ = ["Span", "Tracer"]


@dataclass
class Span:
    """One finished span: a named interval with attributes and costs.

    ``start``/``end`` are host-clock seconds (``time.perf_counter``
    epoch); ``costs`` holds the kernel cost records attached while the
    span was open, which the text report prices per kernel.  ``parent``
    is the index of the enclosing span in the tracer's finished list, or
    ``None`` for roots.
    """

    name: str
    category: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    depth: int = 0
    thread: str = "main"
    attrs: Dict[str, Any] = field(default_factory=dict)
    costs: List[Any] = field(default_factory=list)
    index: int = -1

    @property
    def duration(self) -> float:
        return self.end - self.start

    def total_cost(self):
        """Sum of attached costs (`None` when none were attached)."""
        if not self.costs:
            return None
        total = self.costs[0] + type(self.costs[0])()
        for cost in self.costs[1:]:
            total = total + cost
        return total


class _NullSpan:
    """Shared no-op span returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attrs: Any) -> "_NullSpan":
        return self

    def add_cost(self, cost: Any) -> "_NullSpan":
        return self


NULL_SPAN = _NullSpan()


class _ActiveSpan:
    """An open span; records itself into the tracer on exit."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def set(self, **attrs: Any) -> "_ActiveSpan":
        self._span.attrs.update(attrs)
        return self

    def add_cost(self, cost: Any) -> "_ActiveSpan":
        self._span.costs.append(cost)
        return self

    def __enter__(self) -> "_ActiveSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self._span.attrs["error"] = exc_type.__name__
        self._tracer._finish(self._span)
        return False  # never swallow the exception


class Tracer:
    """Collects nested spans; cheap no-op when disabled."""

    def __init__(self, enabled: bool = True, clock=time.perf_counter) -> None:
        self.enabled = enabled
        self.clock = clock
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    # ------------------------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def span(self, name: str, category: str = "repro", **attrs: Any):
        """Open a span as a context manager.

        Returns the shared :data:`NULL_SPAN` when disabled, so call
        sites can instrument unconditionally.
        """
        if not self.enabled:
            return NULL_SPAN
        stack = self._stack()
        parent = stack[-1] if stack else None
        record = Span(name=name, category=category, start=self.clock(),
                      parent=None, depth=len(stack),
                      thread=threading.current_thread().name, attrs=attrs)
        # parent is resolved at finish time (parents finish after children,
        # so indices are unknown here); keep the object reference for now
        record.attrs["_parent_obj"] = parent
        stack.append(record)
        return _ActiveSpan(self, record)

    def _finish(self, record: Span) -> None:
        record.end = self.clock()
        stack = self._stack()
        if stack and stack[-1] is record:
            stack.pop()
        with self._lock:
            record.index = len(self.spans)
            self.spans.append(record)

    # ------------------------------------------------------------------
    def finished_spans(self) -> List[Span]:
        """Finished spans with ``parent`` resolved to list indices."""
        with self._lock:
            spans = list(self.spans)
        for record in spans:
            parent = record.attrs.pop("_parent_obj", None)
            if parent is not None:
                record.parent = parent.index if parent.index >= 0 else None
        return spans

    def reset(self) -> None:
        with self._lock:
            self.spans.clear()
        self._local = threading.local()
