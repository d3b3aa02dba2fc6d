"""Windowed metric streams over the simulated timeline.

The event log (:mod:`repro.obs.timeline`) is the raw causal record; a
:class:`MetricStream` folds it into **fixed sim-time windows** the way a
production monitoring pipeline folds a firehose into 10-second buckets:
per window it keeps counters (tokens, faults, retries), last-write-wins
gauges (live batch, governor level, KV occupancy) and
:class:`~repro.obs.metrics.Histogram` samples (step latency), so a
controller — or the anomaly layer (:mod:`repro.obs.anomaly`) — sees
tokens/s, p95 token latency, fault rate and governor state *as series*,
window by window, instead of one run-level aggregate.

Windows are half-open ``[start, start + window_seconds)`` intervals of
**simulated** time and gap-filled: a window with no events still
appears (zero counters, carried-forward gauges), so series have one
point per window and rate math never divides by a missing interval.
Cross-window aggregation uses :meth:`Histogram.merge`, the satellite
primitive this stream exists to exercise.

Everything here is pure arithmetic over an already-recorded log — no
RNG, no host clock — so two replays of the same scenario produce
byte-identical streams.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..errors import ObservabilityError
from .energy import CHARGE_PHASES
from .metrics import Histogram, labeled_name
from .slo import hdr_buckets
from .timeline import EventLog

__all__ = ["MetricWindow", "MetricStream", "stream_from_log",
           "DEFAULT_WINDOW_SECONDS"]

#: Default fold width.  Chaos/greedy scenario runs span a few hundred
#: milliseconds of simulated time; 25 ms windows give them ~8-20 points
#: per series — enough for the MAD detector's rolling window.
DEFAULT_WINDOW_SECONDS = 0.025


def _default_sample_buckets() -> List[float]:
    """1 microsecond .. ~134 simulated seconds, 4 sub-buckets/octave."""
    return hdr_buckets(1e-6, 134.0, precision_bits=2)


class MetricWindow:
    """One fixed sim-time window of folded metrics.

    ``counters`` accumulate within the window; ``gauges`` are
    last-write-wins (the value the quantity had at window close);
    ``samples`` are histograms of per-event observations.
    """

    def __init__(self, index: int, start: float, end: float) -> None:
        self.index = index
        self.start = start
        self.end = end
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        self.samples: Dict[str, Histogram] = {}

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def value(self, name: str, stat: str = "value") -> float:
        """One scalar for ``name`` in this window.

        ``stat`` selects the reduction: ``value`` (counter sum or gauge
        level; counters win on a name collision), ``rate`` (counter sum
        divided by window seconds), or a histogram statistic
        (``mean``/``p50``/``p95``/``p99``/``max``/``count``) for sample
        series.  Missing names read as 0.0 so series stay total.
        """
        if stat == "value":
            if name in self.counters:
                return self.counters[name]
            return self.gauges.get(name, 0.0)
        if stat == "rate":
            if self.seconds <= 0.0:
                return 0.0
            return self.counters.get(name, 0.0) / self.seconds
        hist = self.samples.get(name)
        if hist is None:
            return 0.0
        if stat == "mean":
            return hist.mean
        if stat == "count":
            return float(hist.count)
        if stat == "max":
            return hist.max if hist.count else 0.0
        if stat.startswith("p"):
            try:
                q = float(stat[1:])
            except ValueError:
                raise ObservabilityError(f"unknown window stat {stat!r}")
            return hist.percentile(q)
        raise ObservabilityError(f"unknown window stat {stat!r}")

    def to_json(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "start": self.start,
            "end": self.end,
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
            "gauges": {k: self.gauges[k] for k in sorted(self.gauges)},
            "samples": {k: self.samples[k].summary()
                        for k in sorted(self.samples)},
        }


class MetricStream:
    """Folds timestamped observations into contiguous sim-time windows."""

    def __init__(self, window_seconds: float = DEFAULT_WINDOW_SECONDS,
                 start_time: float = 0.0,
                 sample_buckets: Optional[Sequence[float]] = None) -> None:
        if not window_seconds > 0.0:
            raise ObservabilityError(
                f"window_seconds must be positive, got {window_seconds}")
        if start_time < 0.0:
            raise ObservabilityError(
                f"start_time must be >= 0, got {start_time}")
        self.window_seconds = float(window_seconds)
        self.start_time = float(start_time)
        self._buckets = (list(sample_buckets) if sample_buckets is not None
                         else _default_sample_buckets())
        self._windows: Dict[int, MetricWindow] = {}
        self._max_index = -1

    # ------------------------------------------------------------------
    def _window_for(self, sim_time: float) -> MetricWindow:
        if sim_time < self.start_time:
            raise ObservabilityError(
                f"observation at t={sim_time} precedes stream start "
                f"{self.start_time}")
        index = int((sim_time - self.start_time) / self.window_seconds)
        window = self._windows.get(index)
        if window is None:
            start = self.start_time + index * self.window_seconds
            window = MetricWindow(index, start, start + self.window_seconds)
            self._windows[index] = window
            self._max_index = max(self._max_index, index)
        return window

    def record_counter(self, name: str, sim_time: float,
                       amount: float = 1.0) -> None:
        if amount < 0:
            raise ObservabilityError(
                f"stream counter {name} cannot decrease (got {amount})")
        window = self._window_for(sim_time)
        window.counters[name] = window.counters.get(name, 0.0) + amount

    def record_gauge(self, name: str, sim_time: float, value: float) -> None:
        self._window_for(sim_time).gauges[name] = float(value)

    def record_sample(self, name: str, sim_time: float, value: float) -> None:
        window = self._window_for(sim_time)
        hist = window.samples.get(name)
        if hist is None:
            hist = Histogram(name, buckets=self._buckets)
            window.samples[name] = hist
        hist.observe(value)

    # ------------------------------------------------------------------
    def windows(self) -> List[MetricWindow]:
        """All windows, contiguous from index 0 to the last observed.

        Gap windows are materialized with zero counters and gauges
        carried forward from the nearest earlier window (a quantity like
        governor level keeps its value while nothing reports it).
        """
        out: List[MetricWindow] = []
        carried: Dict[str, float] = {}
        for index in range(self._max_index + 1):
            window = self._windows.get(index)
            if window is None:
                start = self.start_time + index * self.window_seconds
                window = MetricWindow(index, start,
                                      start + self.window_seconds)
                window.gauges = dict(carried)
            else:
                merged = dict(carried)
                merged.update(window.gauges)
                window.gauges = merged
            carried = dict(window.gauges)
            out.append(window)
        return out

    def __len__(self) -> int:
        return self._max_index + 1

    def series(self, name: str, stat: str = "value"
               ) -> List[Tuple[int, float]]:
        """(window_index, value) pairs for one metric across all windows."""
        return [(w.index, w.value(name, stat)) for w in self.windows()]

    def merged_histogram(self, name: str) -> Histogram:
        """All windows' ``name`` samples folded into one histogram."""
        merged = Histogram(name, buckets=self._buckets)
        for window in self.windows():
            hist = window.samples.get(name)
            if hist is not None:
                merged.merge(hist)
        return merged

    def to_json(self) -> Dict[str, Any]:
        return {
            "window_seconds": self.window_seconds,
            "start_time": self.start_time,
            "windows": [w.to_json() for w in self.windows()],
        }


# ----------------------------------------------------------------------
# event-log folding
# ----------------------------------------------------------------------
def stream_from_log(log: EventLog,
                    window_seconds: float = DEFAULT_WINDOW_SECONDS,
                    sample_buckets: Optional[Sequence[float]] = None
                    ) -> MetricStream:
    """Fold a recorded event log into a :class:`MetricStream`.

    Mapping (see :data:`~repro.obs.timeline.EVENT_KINDS`):

    * every charging kind (:data:`~repro.obs.energy.CHARGE_PHASES`) ->
      counter ``joules``, so window watts cover prompt processing,
      recovery and backend migrations, not just decode;
    * ``decode_step`` -> sample ``step_latency_seconds``; counter
      ``tokens`` incremented by the step's live batch (one token per
      live candidate per lock step); gauges ``live_batch``,
      ``kv_blocks``, ``governor_level``;
    * ``fault`` -> counter ``faults`` plus a labeled sibling
      ``faults{kind=...}`` via :func:`~repro.obs.metrics.labeled_name`,
      so windows slice by fault kind without string parsing;
    * ``retry``/``evict``/``rebuild`` -> counters ``retries`` /
      ``evictions`` / ``rebuilds``;
    * ``complete`` -> counter ``completions``; sample
      ``candidate_latency_seconds`` when the event carries
      ``latency_seconds``;
    * ``prefill_chunk`` -> counter ``prefill_chunks``, sample
      ``prefill_chunk_seconds``; ``backend_switch`` -> counter
      ``backend_switches``;
    * ``shed`` -> counter ``sheds`` (fleet admission control dropped
      the request); ``dispatch`` -> counter ``dispatches`` plus sample
      ``queue_wait_seconds`` when the event carries ``wait_seconds``;
    * chaos/recovery events -> counters ``failovers``, ``hedges``
      (hedge dispatches only, not the losing leg's cancellation),
      ``device_downs``/``device_ups`` and ``breaker_opens``/
      ``breaker_closes``.
    """
    stream = MetricStream(window_seconds=window_seconds,
                          sample_buckets=sample_buckets)
    for event in log.events():
        t = event.sim_time
        attrs = event.attrs
        if event.kind in CHARGE_PHASES and attrs.get("joules"):
            stream.record_counter("joules", t, float(attrs["joules"]))
        if event.kind == "decode_step":
            seconds = attrs.get("seconds")
            if seconds is not None:
                stream.record_sample("step_latency_seconds", t,
                                     float(seconds))
            live = attrs.get("live_batch")
            if live:
                stream.record_counter("tokens", t, float(live))
                stream.record_gauge("live_batch", t, float(live))
            if "kv_blocks" in attrs:
                stream.record_gauge("kv_blocks", t,
                                    float(attrs["kv_blocks"]))
            if "governor_level" in attrs:
                stream.record_gauge("governor_level", t,
                                    float(attrs["governor_level"]))
        elif event.kind == "fault":
            stream.record_counter("faults", t)
            kind = attrs.get("fault_kind")
            if kind:
                stream.record_counter(
                    labeled_name("faults", {"kind": kind}), t)
        elif event.kind == "retry":
            stream.record_counter("retries", t)
        elif event.kind == "evict":
            stream.record_counter("evictions", t)
        elif event.kind == "rebuild":
            stream.record_counter("rebuilds", t)
        elif event.kind == "prefill_chunk":
            stream.record_counter("prefill_chunks", t)
            seconds = attrs.get("seconds")
            if seconds is not None:
                stream.record_sample("prefill_chunk_seconds", t,
                                     float(seconds))
        elif event.kind == "backend_switch":
            stream.record_counter("backend_switches", t)
        elif event.kind == "complete":
            stream.record_counter("completions", t)
            latency = attrs.get("latency_seconds")
            if latency is not None:
                stream.record_sample("candidate_latency_seconds", t,
                                     float(latency))
        elif event.kind == "shed":
            stream.record_counter("sheds", t)
        elif event.kind == "dispatch":
            stream.record_counter("dispatches", t)
            wait = attrs.get("wait_seconds")
            if wait is not None:
                stream.record_sample("queue_wait_seconds", t, float(wait))
        elif event.kind == "failover":
            stream.record_counter("failovers", t)
        elif event.kind == "hedge":
            if not attrs.get("cancelled"):
                stream.record_counter("hedges", t)
        elif event.kind in ("device_down", "device_up",
                            "breaker_open", "breaker_close"):
            stream.record_counter(f"{event.kind}s", t)
    return stream
