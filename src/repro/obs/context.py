"""The observability context: one tracer, registry and event log.

Every instrumented layer reads its sinks through :func:`current`, and
only :func:`scope` changes them: it installs all three for the body of
a ``with`` block and restores the outer ones on exit, also when the
body raises.  A sink a scope is not given is off — a disabled tracer, a
disabled log, a fresh registry — so nothing inside a scope writes to an
outer scope's sinks.  A function that makes its own record (``repro
profile``, ``repro monitor``, a bench scenario, a golden, a fuzz trial,
a fleet capacity probe) runs under its own scope.

Outside every scope the tracer and log are disabled and the registry is
one that no output reads, so a plain run pays only the disabled checks.
The simulator runs on one thread, so one module variable holds the
context.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, NamedTuple, Optional

from .metrics import MetricsRegistry
from .timeline import EventLog
from .trace import Tracer

__all__ = ["Obs", "current", "scope"]


class Obs(NamedTuple):
    """The three sinks a run records into."""

    tracer: Tracer
    metrics: MetricsRegistry
    log: EventLog


_current = Obs(Tracer(enabled=False), MetricsRegistry(),
               EventLog(enabled=False))


def current() -> Obs:
    """The sinks installed now (the innermost scope's)."""
    return _current


@contextmanager
def scope(tracer: Optional[Tracer] = None,
          metrics: Optional[MetricsRegistry] = None,
          log: Optional[EventLog] = None) -> Iterator[Obs]:
    """Install ``tracer``, ``metrics`` and ``log`` for the ``with`` body.

    A sink left ``None`` is off for the body.  Yields the installed
    :class:`Obs`; the outer one is back in place when the body exits.
    """
    global _current
    outer = _current
    _current = Obs(tracer if tracer is not None else Tracer(enabled=False),
                   metrics if metrics is not None else MetricsRegistry(),
                   log if log is not None else EventLog(enabled=False))
    try:
        yield _current
    finally:
        _current = outer
