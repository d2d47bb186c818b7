"""Ordering clock tests (Lamport and synchronized/hybrid modes)."""

import pytest

from repro.core import LamportClock, SynchronizedClock
from repro.core.config import ClockMode
from repro.core.lamport import make_clock


class TestLamportClock:
    def test_tick_strictly_increases(self):
        c = LamportClock()
        values = [c.tick() for _ in range(100)]
        assert values == sorted(values)
        assert len(set(values)) == 100

    def test_observe_advances_past_received(self):
        c = LamportClock()
        c.observe(50)
        assert c.time == 50
        assert c.tick() == 51

    def test_observe_smaller_is_noop(self):
        c = LamportClock()
        c.observe(10)
        c.observe(5)
        assert c.time == 10

    def test_paper_invariant_greater_than_any_received_or_sent(self):
        # §6: "always greater than the timestamp of any message that it has
        # received or sent"
        c = LamportClock()
        sent = c.tick()
        c.observe(sent + 7)
        assert c.tick() > sent + 7


class TestSynchronizedClock:
    def test_tracks_physical_time(self):
        now = [0.0]
        c = SynchronizedClock(lambda: now[0])
        now[0] = 0.5
        assert c.tick() == 500_000

    def test_strictly_monotonic_even_if_time_stalls(self):
        now = [1.0]
        c = SynchronizedClock(lambda: now[0])
        a = c.tick()
        b = c.tick()  # physical time unchanged
        assert b == a + 1

    def test_skew_shifts_timestamps(self):
        # a processor's skew is the offset of its own time source
        now = [1.0]
        a = SynchronizedClock(lambda: now[0])
        b = SynchronizedClock(lambda: now[0] + 0.010)
        assert b.tick() - a.tick() == 10_000

    def test_hybrid_preserves_causality_under_skew(self):
        # A message from a fast clock must not be ordered before a later
        # causally-dependent message from a slow clock.
        now = [1.0]
        fast = SynchronizedClock(lambda: now[0] + 0.100)
        slow = SynchronizedClock(lambda: now[0] - 0.100)
        t_send = fast.tick()
        slow.observe(t_send)  # slow clock receives the message
        t_reply = slow.tick()
        assert t_reply > t_send  # causality preserved despite skew


def test_make_clock_factory():
    lam = make_clock(ClockMode.LAMPORT, lambda: 0.0)
    syn = make_clock(ClockMode.SYNCHRONIZED, lambda: 1.0)
    assert isinstance(lam, LamportClock)
    assert isinstance(syn, SynchronizedClock)
    with pytest.raises(ValueError):
        make_clock("bogus", lambda: 0.0)
