"""Property tests for the shared discrete-event kernel (:mod:`repro.sim`).

Four invariants the fleet (and everything else on the kernel) leans
on, driven by hypothesis:

* events fire in non-decreasing time order, FIFO within a timestamp;
* a cancelled event never fires — not even if cancelled mid-run by an
  earlier callback — and cancellation cannot resurrect a fired event;
* the fire sequence is a pure function of the scheduled events: two
  loops fed the same (seeded) schedule produce identical sequences;
* a schedule given to ``EventLoop.feed`` fires exactly as one ``at``
  call per entry would, ties included.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FleetError, NPUError
from repro.sim import EventLoop, SimClock

# (delay, payload) schedules; delays are non-negative and finite
_delays = st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
                    allow_infinity=False)
_schedules = st.lists(_delays, min_size=0, max_size=60)


def _run_schedule(delays, cancel_mask=None):
    loop = EventLoop()
    fired = []
    handles = []
    for i, delay in enumerate(delays):
        handles.append(loop.at(delay, lambda i=i: fired.append(
            (loop.now, i))))
    if cancel_mask:
        for i in cancel_mask:
            loop.cancel(handles[i])
    loop.run()
    return fired, handles


@given(_schedules)
@settings(max_examples=200, deadline=None)
def test_fire_order_non_decreasing(delays):
    fired, _ = _run_schedule(delays)
    assert len(fired) == len(delays)
    times = [t for t, _ in fired]
    assert times == sorted(times)
    # FIFO within a timestamp: equal-time events keep insertion order
    for (ta, ia), (tb, ib) in zip(fired, fired[1:]):
        if ta == tb:
            assert ia < ib


@given(_schedules, st.sets(st.integers(min_value=0, max_value=59)))
@settings(max_examples=200, deadline=None)
def test_cancellation_never_fires(delays, cancel_indices):
    cancel_mask = {i for i in cancel_indices if i < len(delays)}
    fired, handles = _run_schedule(delays, cancel_mask)
    fired_ids = {i for _, i in fired}
    assert fired_ids.isdisjoint(cancel_mask)
    assert fired_ids == set(range(len(delays))) - cancel_mask
    for i, handle in enumerate(handles):
        assert handle.cancelled == (i in cancel_mask)
        assert handle.fired == (i not in cancel_mask)


@given(_schedules)
@settings(max_examples=100, deadline=None)
def test_cancel_after_fire_does_not_resurrect(delays):
    loop = EventLoop()
    fired = []
    handles = [loop.at(d, lambda i=i: fired.append(i))
               for i, d in enumerate(delays)]
    loop.run()
    n_fired = loop.n_fired
    for handle in handles:
        assert loop.cancel(handle) is False
        assert handle.fired and not handle.cancelled
    loop.run()
    assert loop.n_fired == n_fired
    assert fired == sorted(range(len(delays)),
                           key=lambda i: (delays[i], i))


@given(_schedules, st.sets(st.integers(min_value=0, max_value=59)))
@settings(max_examples=100, deadline=None)
def test_same_schedule_identical_sequence(delays, cancel_indices):
    cancel_mask = {i for i in cancel_indices if i < len(delays)}
    first, _ = _run_schedule(delays, cancel_mask)
    second, _ = _run_schedule(delays, cancel_mask)
    assert first == second


@given(_schedules)
@settings(max_examples=100, deadline=None)
def test_mid_run_cancellation(delays):
    """An event cancelled by an earlier callback never fires."""
    if not delays:
        return
    loop = EventLoop()
    fired = []
    handles = []

    def make_cb(i):
        def cb():
            fired.append(i)
            # every callback cancels the latest still-pending event
            for handle in reversed(handles):
                if handle.pending:
                    loop.cancel(handle)
                    break
        return cb

    for i, delay in enumerate(delays):
        handles.append(loop.at(delay, make_cb(i)))
    loop.run()
    assert len(fired) + loop.n_cancelled == len(delays)
    for i, handle in enumerate(handles):
        assert handle.fired != handle.cancelled
        assert (i in fired) == handle.fired


def test_past_scheduling_rejected():
    loop = EventLoop()
    loop.at(5.0, lambda: None)
    loop.run()
    assert loop.now == 5.0
    with pytest.raises(FleetError):
        loop.at(4.0, lambda: None)
    # scheduling exactly at the current time is allowed
    loop.at(5.0, lambda: None)


def test_run_until_leaves_future_events_pending():
    loop = EventLoop()
    fired = []
    for t in (1.0, 2.0, 3.0):
        loop.at(t, lambda t=t: fired.append(t))
    assert loop.run(until=2.0) == 2
    assert fired == [1.0, 2.0]
    assert len(loop) == 1
    assert loop.run() == 1
    assert fired == [1.0, 2.0, 3.0]


def test_negative_advance_raises():
    clock = SimClock()
    clock.advance(1.5)
    with pytest.raises(NPUError):
        clock.advance(-0.1)
    assert clock.total_seconds == 1.5


def test_advance_to_past_raises_naming_both_times():
    clock = SimClock()
    clock.advance_to(2.5)
    with pytest.raises(NPUError, match=r"to 1\.25 \(already at 2\.5\)"):
        clock.advance_to(1.25)
    assert clock.total_seconds == 2.5
    # advancing to the current time is allowed (simultaneous events)
    assert clock.advance_to(2.5) == 2.5
    assert clock.n_advances == 2


def test_run_rejects_an_entry_behind_the_clock():
    """``run`` advances through ``SimClock.advance_to``, so a heap entry
    earlier than the clock raises instead of firing in the past."""
    loop = EventLoop()
    loop.at(3.0, lambda: None)
    loop.run()
    fired = []
    handle = loop.at(3.0, lambda: fired.append(loop.now))
    # plant the entry behind the clock, bypassing ``at``'s check
    loop._heap[0] = (1.0, handle.seq, handle)
    with pytest.raises(NPUError, match="backwards"):
        loop.run()
    assert fired == [] and loop.now == 3.0


def test_counters_cover_every_handle():
    """``n_fired`` and ``n_cancelled`` together count every handle,
    including handles cancelled while at the head of the heap."""
    loop = EventLoop()
    fired = []
    handles = [loop.at(t, lambda t=t: fired.append(t))
               for t in (1.0, 1.0, 2.0, 3.0, 4.0, 5.0)]
    loop.cancel(handles[0])  # the head of the heap
    loop.cancel(handles[4])
    # a callback cancels the new head (t=3) before the loop pops it
    loop.at(2.0, lambda: loop.cancel(handles[3]))
    assert loop.run() == 4
    assert fired == [1.0, 2.0, 5.0]
    assert (loop.n_fired, loop.n_cancelled) == (4, 3)
    assert loop.n_fired + loop.n_cancelled == len(handles) + 1
    assert len(loop) == 0 and loop._heap == []


# ---------------------------------------------------------------------
# fed schedules: one heap entry at a time, the same order as `at`
# ---------------------------------------------------------------------
# integer-valued times, so fed entries tie with other events often
_tie_times = st.integers(min_value=0, max_value=12).map(float)


def _fire_log(fed_times, others, feed):
    """Fire a sorted schedule plus other events and log every firing.

    Each fed entry schedules a follow-up at the current time and, every
    third one, cancels the latest other event still pending; the fed
    entries go in with ``feed`` or with one ``at`` call each."""
    loop = EventLoop()
    log = []
    handles = []
    for i, t in enumerate(others[:len(others) // 2]):
        handles.append(loop.at(t, lambda i=i: log.append(("other", i,
                                                          loop.now))))

    def arrive(k):
        log.append(("fed", k, loop.now))
        loop.at(loop.now, lambda k=k: log.append(("echo", k, loop.now)))
        if k % 3 == 0:
            for handle in reversed(handles):
                if handle.pending:
                    loop.cancel(handle)
                    break

    times = sorted(fed_times)
    if feed:
        loop.feed(times, arrive, range(len(times)))
    else:
        for k, t in enumerate(times):
            loop.at(t, arrive, k)
    for i, t in enumerate(others[len(others) // 2:], len(others) // 2):
        handles.append(loop.at(t, lambda i=i: log.append(("other", i,
                                                          loop.now))))
    fired = loop.run()
    return log, fired, loop.n_fired, loop.n_cancelled, loop.now


@given(st.lists(_tie_times, max_size=30), st.lists(_tie_times, max_size=30))
@settings(max_examples=200, deadline=None)
def test_feed_fires_like_one_at_per_entry(fed_times, others):
    assert (_fire_log(fed_times, others, feed=True)
            == _fire_log(fed_times, others, feed=False))


def test_feed_holds_one_entry_and_counts_the_rest_pending():
    loop = EventLoop()
    seen = []
    loop.feed([float(t) for t in range(5)], seen.append, range(5))
    assert len(loop._heap) == 1 and len(loop) == 5
    assert loop.run(until=1.5) == 2
    assert seen == [0, 1] and len(loop) == 3
    assert loop.run() == 3 and seen == [0, 1, 2, 3, 4]
    assert len(loop) == 0 and loop.n_fired == 5
    loop.feed([], seen.append, [])
    assert len(loop) == 0


def test_feed_rejects_unsorted_or_past_schedules():
    loop = EventLoop()
    with pytest.raises(FleetError, match="not time-sorted"):
        loop.feed([1.0, 0.5], print, "ab")
    with pytest.raises(FleetError, match="2 times for 1 items"):
        loop.feed([1.0, 2.0], print, "a")
    loop.at(2.0, lambda: None)
    loop.run()
    with pytest.raises(FleetError, match="already at"):
        loop.feed([1.0], print, "a")
    assert len(loop) == 0
