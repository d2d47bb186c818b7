"""Unit tests for the discrete-event scheduler."""

import pytest

from repro.simnet import Scheduler, SimTimeError


def test_events_run_in_time_order():
    s = Scheduler()
    hits = []
    s.schedule(2.0, hits.append, "c")
    s.schedule(1.0, hits.append, "a")
    s.schedule(1.5, hits.append, "b")
    s.run()
    assert hits == ["a", "b", "c"]


def test_ties_run_in_insertion_order():
    s = Scheduler()
    hits = []
    for name in "abcde":
        s.schedule(1.0, hits.append, name)
    s.run()
    assert hits == list("abcde")


def test_now_advances_to_event_time():
    s = Scheduler()
    seen = []
    s.schedule(0.5, lambda: seen.append(s.now))
    s.schedule(1.25, lambda: seen.append(s.now))
    s.run()
    assert seen == [0.5, 1.25]
    assert s.now == 1.25


def test_cancelled_events_are_skipped():
    s = Scheduler()
    hits = []
    ev = s.schedule(1.0, hits.append, "x")
    s.schedule(2.0, hits.append, "y")
    ev.cancel()
    s.run()
    assert hits == ["y"]


def test_negative_delay_rejected():
    s = Scheduler()
    with pytest.raises(SimTimeError):
        s.schedule(-0.1, lambda: None)


def test_at_in_past_rejected():
    s = Scheduler()
    s.schedule(1.0, lambda: None)
    s.run()
    with pytest.raises(SimTimeError):
        s.at(0.5, lambda: None)


def test_run_until_stops_at_deadline():
    s = Scheduler()
    hits = []
    s.schedule(1.0, hits.append, "a")
    s.schedule(2.0, hits.append, "b")
    s.run_until(1.5)
    assert hits == ["a"]
    assert s.now == 1.5
    s.run_until(3.0)
    assert hits == ["a", "b"]


def test_run_until_advances_now_even_with_no_events():
    s = Scheduler()
    s.run_until(5.0)
    assert s.now == 5.0


def test_events_scheduled_during_run_execute():
    s = Scheduler()
    hits = []

    def outer():
        hits.append("outer")
        s.schedule(0.5, hits.append, "inner")

    s.schedule(1.0, outer)
    s.run()
    assert hits == ["outer", "inner"]


def test_step_returns_false_when_empty():
    s = Scheduler()
    assert s.step() is False
    s.schedule(0.1, lambda: None)
    assert s.step() is True
    assert s.step() is False


def test_run_max_events_bound():
    s = Scheduler()

    def rearm():
        s.schedule(1.0, rearm)

    s.schedule(1.0, rearm)
    ran = s.run(max_events=10)
    assert ran == 10


def test_events_processed_counter():
    s = Scheduler()
    for i in range(5):
        s.schedule(float(i), lambda: None)
    s.run()
    assert s.events_processed == 5


def test_pending_excludes_cancelled():
    s = Scheduler()
    ev = s.schedule(1.0, lambda: None)
    s.schedule(2.0, lambda: None)
    assert s.pending == 2
    ev.cancel()
    assert s.pending == 1


def test_pending_counter_tracks_push_pop_cancel():
    s = Scheduler()
    events = [s.schedule(float(i + 1), lambda: None) for i in range(6)]
    assert s.pending == 6
    # double-cancel must decrement exactly once
    events[0].cancel()
    events[0].cancel()
    assert s.pending == 5
    # popping live events decrements; popping cancelled ones must not
    s.run_until(3.0)  # fires events[1], events[2] (events[0] skipped)
    assert s.pending == 3
    # cancelling an event that already fired is a no-op for the counter
    events[1].cancel()
    assert s.pending == 3
    s.run()
    assert s.pending == 0


def test_pending_counter_survives_compaction():
    s = Scheduler()
    threshold = Scheduler._COMPACT_MIN_GARBAGE
    # strand a burst of cancellations beneath one live far-future event
    hits = []
    s.schedule(1000.0, hits.append, "live")
    doomed = [s.schedule(float(i + 1), hits.append, i) for i in range(threshold + 2)]
    for ev in doomed:
        ev.cancel()
    # the burst crossed the compaction threshold; whatever the heap did
    # with the dead entries, exactly the live event is still pending
    assert s.pending == 1
    # cancelling again after the rebuild must not disturb the counter
    doomed[0].cancel()
    assert s.pending == 1
    s.run()
    assert hits == ["live"]  # the live event still fires, the doomed never do
    assert s.now == 1000.0
    assert s.pending == 0
    assert s.events_processed == 1


def test_cancel_inside_callback_may_compact_the_running_heap():
    # a callback that cancels en masse triggers compaction while
    # run_until is iterating: the loop must keep seeing later events
    s = Scheduler()
    hits = []
    doomed = []

    def teardown():
        for ev in doomed:
            ev.cancel()

    s.schedule(1.0, teardown)
    doomed.extend(s.schedule(2.0 + i * 1e-6, hits.append, "dead")
                  for i in range(Scheduler._COMPACT_MIN_GARBAGE + 2))
    s.schedule(5.0, hits.append, "after")
    s.run_until(10.0)
    assert hits == ["after"]
    assert s.pending == 0


def test_cancel_after_fire_is_noop():
    s = Scheduler()
    hits = []
    ev = s.schedule(1.0, hits.append, "a")
    s.schedule(2.0, hits.append, "b")
    s.run_until(1.5)
    ev.cancel()  # already fired: must not disturb remaining events
    assert s.pending == 1
    s.run()
    assert hits == ["a", "b"]
