"""Direct unit tests of RMP's NACK / retransmission timer lifecycle.

The cluster tests exercise these paths statistically; here we drive an
isolated RMP against :class:`rmp_fake.FakeContext`, a
:class:`~repro.core.datapath.GroupContext` double with a real scheduler,
so the cancellation edges are deterministic:

* the pending NACK timer is cancelled when the gap fills before the
  randomized delay fires (no spurious RetransmitRequest);
* a holder's scheduled retransmission is suppressed when another
  holder's copy arrives first (paper §5 implosion avoidance);
* a message's answer record leaves with the buffer's copy of it;
* the loss-detection window (``RMP.nack_window``) starts at and never
  exceeds ``nack_delay``, shrinks only on a Karn-clean NACK round trip,
  and widens past the reordering a spurious NACK revealed — and on real
  groups it stays at ``nack_delay`` where nothing is lost or the round
  trip is long.
"""

import pytest
from rmp_fake import FakeContext, feed, nack, regular

from repro.analysis import make_cluster
from repro.core import FTMPConfig
from repro.core.rmp import RMP
from repro.simnet import lan, wan


def test_gap_arms_nack_timer_and_fires():
    ctx = FakeContext()
    rmp = RMP(ctx)
    feed(rmp, regular(1, 1))
    feed(rmp, regular(1, 3))  # gap at seq 2
    assert rmp.stats.gaps_detected == 1
    assert ctx.nacks == []  # not yet: randomized delay pending
    ctx.scheduler.run_until(ctx.config.nack_delay * 2)
    assert ctx.nacks == [(1, 2, 2)]
    assert rmp.stats.nacks_sent == 1


def test_nack_cancelled_when_gap_fills_before_delay():
    ctx = FakeContext()
    rmp = RMP(ctx)
    feed(rmp, regular(1, 1))
    feed(rmp, regular(1, 3))  # gap at seq 2 -> timer armed
    st = rmp.sources()[1]
    assert st.nack_timer is not None
    feed(rmp, regular(1, 2))  # gap fills before nack_delay elapses
    assert st.nack_timer is None  # _cancel_nack ran
    ctx.scheduler.run_until(ctx.config.nack_retry_interval * 3)
    assert ctx.nacks == []  # the armed NACK never fired
    assert rmp.stats.nacks_sent == 0
    assert [m.header.sequence_number for m in ctx.delivered] == [1, 2, 3]


def test_nack_retries_until_gap_fills():
    ctx = FakeContext()
    rmp = RMP(ctx)
    feed(rmp, regular(1, 1))
    feed(rmp, regular(1, 4))
    ctx.scheduler.run_until(
        ctx.config.nack_delay + ctx.config.nack_retry_interval * 2.5
    )
    assert len(ctx.nacks) == 3  # initial + two retries
    assert all(n == (1, 2, 3) for n in ctx.nacks)
    feed(rmp, regular(1, 2))
    feed(rmp, regular(1, 3))
    before = len(ctx.nacks)
    ctx.scheduler.run_until(ctx.scheduler.now + ctx.config.nack_retry_interval * 3)
    assert len(ctx.nacks) == before  # retry timer cancelled on fill


def test_holder_retransmission_suppressed_by_anothers_copy():
    # pid 2 is a *holder* (not the source), so its answer to a NACK gets a
    # randomized backoff; the source's copy arriving first must cancel it.
    ctx = FakeContext(pid=2)
    rmp = RMP(ctx)
    feed(rmp, regular(1, 1))  # retained in ctx.buffer
    feed(rmp, nack(3, 1, 1, 1))  # pid 3 asks for (src 1, seq 1)
    assert ctx.retransmitted == []  # backoff pending
    # the source's retransmitted copy arrives before our backoff expires
    feed(rmp, regular(1, 1, retransmission=True))
    assert rmp.stats.retransmissions_suppressed == 1
    ctx.scheduler.run_until(rmp.RETRANSMIT_BACKOFF * 2)
    assert ctx.retransmitted == []  # our scheduled answer was cancelled
    assert rmp.stats.retransmissions_sent == 0
    assert rmp.stats.duplicates == 1  # the copy itself counted as duplicate


def test_holder_answers_when_no_other_copy_arrives():
    ctx = FakeContext(pid=2)
    rmp = RMP(ctx)
    feed(rmp, regular(1, 1))
    feed(rmp, nack(3, 1, 1, 1))
    ctx.scheduler.run_until(rmp.RETRANSMIT_BACKOFF * 2)
    assert len(ctx.retransmitted) == 1
    assert rmp.stats.retransmissions_sent == 1
    assert rmp.stats.retransmissions_suppressed == 0


def test_source_answers_nack_immediately():
    ctx = FakeContext(pid=1)
    rmp = RMP(ctx)
    feed(rmp, regular(1, 1))  # our own message looped back, retained
    feed(rmp, nack(3, 1, 1, 1))
    # the source schedules with zero delay: fires at the next step
    ctx.scheduler.run_until(0.0)
    assert len(ctx.retransmitted) == 1
    # the dedupe window is off by default: nothing read the clock
    assert ctx.clock_reads == 0


# ----------------------------------------------------------------------
# multi-hole gap recovery (first-hole NACKs walk the stream hole by hole)
# ----------------------------------------------------------------------
def test_missing_range_reports_first_hole_only():
    ctx = FakeContext()
    rmp = RMP(ctx)
    for seq in (1, 3, 6, 7):  # holes at 2 and at 4-5
        feed(rmp, regular(1, seq))
    st = rmp.sources()[1]
    assert rmp._missing_range(st) == (2, 2)
    feed(rmp, regular(1, 2))  # fills the first hole, delivers 2-3
    assert rmp._missing_range(st) == (4, 5)


def test_multi_hole_recovery_walks_hole_by_hole():
    ctx = FakeContext()
    rmp = RMP(ctx)
    for seq in (1, 3, 5):  # two single-message holes: 2 and 4
        feed(rmp, regular(1, seq))
    ctx.scheduler.run_until(ctx.config.nack_delay * 2)
    assert ctx.nacks == [(1, 2, 2)]  # only the first hole is requested
    feed(rmp, regular(1, 2))  # retransmission arrives: 2-3 deliver
    # the still-armed retry timer must now target the *second* hole
    ctx.scheduler.run_until(ctx.scheduler.now + ctx.config.nack_retry_interval * 2)
    assert (1, 4, 4) in ctx.nacks
    feed(rmp, regular(1, 4))
    assert [m.header.sequence_number for m in ctx.delivered] == [1, 2, 3, 4, 5]
    # fully contiguous: the retry timer is gone
    n = len(ctx.nacks)
    ctx.scheduler.run_until(ctx.scheduler.now + ctx.config.nack_retry_interval * 3)
    assert len(ctx.nacks) == n


# ----------------------------------------------------------------------
# answer-record hygiene (purge on membership change, prune on reclaim)
# ----------------------------------------------------------------------
def _nack_round(ctx, rmp, src, seq):
    """One full NACK round: request arrives, backoff elapses, answer sent."""
    feed(rmp, nack(3, src, seq, seq))
    ctx.scheduler.run_until(ctx.scheduler.now + rmp.RETRANSMIT_BACKOFF * 2)


def _requests(rmp):
    return {key: rec.requests for key, rec in rmp._answers.items()}


def test_drop_source_purges_escalation_counts():
    ctx = FakeContext(pid=2)
    rmp = RMP(ctx)
    feed(rmp, regular(1, 1))
    _nack_round(ctx, rmp, 1, 1)
    _nack_round(ctx, rmp, 1, 1)
    assert _requests(rmp) == {(1, 1): 2}
    rmp.drop_source(1)
    assert rmp._answers == {}


def test_set_baseline_purges_escalation_counts():
    ctx = FakeContext(pid=2)
    rmp = RMP(ctx)
    feed(rmp, regular(1, 1))
    _nack_round(ctx, rmp, 1, 1)
    assert _requests(rmp) == {(1, 1): 1}
    rmp.set_baseline(1, 5)  # rejoin: the source restarts its numbering
    assert rmp._answers == {}


def test_rejoined_source_first_nack_is_suppressible_again():
    # Without the purge, a source that leaves and rejoins with reset
    # sequence numbers inherits its old incarnation's >= 3 escalation
    # count, and the very first NACK for a reused (src, seq) triggers an
    # unsuppressed retransmit storm.
    ctx = FakeContext(pid=2)
    rmp = RMP(ctx)
    feed(rmp, regular(1, 1))
    for _ in range(3):  # escalate (1, 1) to count 3
        _nack_round(ctx, rmp, 1, 1)
    assert rmp._answers[(1, 1)].requests >= 3
    rmp.drop_source(1)
    feed(rmp, regular(1, 1))  # new incarnation reuses seq 1
    before = len(ctx.retransmitted)
    feed(rmp, nack(3, 1, 1, 1))
    # first request for the new incarnation: randomized backoff, NOT an
    # immediate unsuppressible answer
    assert len(ctx.retransmitted) == before


def _keys_held(rmp):
    """Every (source, seq) that any per-message table of ``rmp`` names."""
    return {key for table in vars(rmp).values() if isinstance(table, (dict, set))
            for key in table if isinstance(key, tuple)}


def test_a_reclaimed_messages_record_is_pruned():
    ctx = FakeContext(pid=2)
    rmp = RMP(ctx)
    for seq in (1, 2, 3):
        feed(rmp, regular(1, seq))  # timestamp = seq
    _nack_round(ctx, rmp, 1, 1)
    assert (1, 1) in _keys_held(rmp)
    assert ctx.buffer.collect(1) == 1  # every member has message 1 now
    _nack_round(ctx, rmp, 1, 2)
    _nack_round(ctx, rmp, 1, 3)  # the table doubled: it prunes
    assert (1, 1) not in _keys_held(rmp)
    assert set(rmp._answers) == {(1, 2), (1, 3)}


def test_the_table_stays_within_twice_its_live_records():
    # a long lossy run: 10,000 messages NACKed once each, the ten newest
    # still buffered; the table follows the buffer, with no cap
    ctx = FakeContext(pid=2)
    rmp = RMP(ctx)
    for seq in range(1, 10_001):
        feed(rmp, regular(1, seq))
        _nack_round(ctx, rmp, 1, seq)
        pending = sum(rec.timer is not None for rec in rmp._answers.values())
        assert len(rmp._answers) <= 2 * (len(ctx.buffer) + pending)
        ctx.buffer.collect(seq - 10)
    assert rmp.stats.retransmissions_sent == 10_000


# -- SRM-style retry backoff (nack_backoff_factor) ---------------------

def test_nack_backoff_widens_retry_interval():
    ctx = FakeContext(config=FTMPConfig(nack_backoff_factor=2.0))
    rmp = RMP(ctx)
    feed(rmp, regular(1, 1))
    feed(rmp, regular(1, 4))  # hole 2..3
    # initial NACK after nack_delay (2 ms), then retries at 10, 20,
    # 40 ms spacing: fires at 2, 12, 32, 72 ms
    ctx.scheduler.run_until(0.075)
    assert len(ctx.nacks) == 4  # fixed-interval would be 8 by now
    # the interval is capped at NACK_RETRY_MAX (160 ms): after the
    # 80 ms step the spacing stops doubling
    ctx.scheduler.run_until(0.500)
    assert len(ctx.nacks) == 7  # 152, 312, 472 ms — capped at 160 apart


def test_nack_backoff_resets_on_partial_repair():
    ctx = FakeContext(config=FTMPConfig(nack_backoff_factor=2.0))
    rmp = RMP(ctx)
    feed(rmp, regular(1, 1))
    feed(rmp, regular(1, 4))  # hole 2..3
    ctx.scheduler.run_until(0.040)  # fires at 2, 12, 32 ms; next at 72
    assert len(ctx.nacks) == 3
    feed(rmp, regular(1, 2))  # partial repair: hole is now just 3
    # at the 72 ms fire the progress is noticed, the backoff resets and
    # the next retry comes at the base 10 ms again (82 ms), not 80 later
    ctx.scheduler.run_until(0.085)
    assert len(ctx.nacks) == 5
    assert ctx.nacks[-1] == (1, 3, 3)


def test_default_backoff_factor_keeps_fixed_interval():
    ctx = FakeContext()  # nack_backoff_factor = 1.0 (legacy)
    rmp = RMP(ctx)
    feed(rmp, regular(1, 1))
    feed(rmp, regular(1, 4))
    ctx.scheduler.run_until(0.075)
    # 2 ms initial + every 10 ms: 2, 12, 22, ..., 72
    assert len(ctx.nacks) == 8


# -- the loss-detection window (RMP.nack_window) ------------------------

def _wait(ctx, dt):
    ctx.scheduler.run_until(ctx.scheduler.now + dt)


def _gap(ctx, rmp, seq):
    """Source 1's ``seq`` arrives ahead of ``seq - 1``: returns when the
    gap was detected."""
    feed(rmp, regular(1, seq))
    return ctx.scheduler.now


def _round_trip(ctx, rmp, rtt):
    """Source 1's message 2 is lost: NACK it and answer after ``rtt``."""
    feed(rmp, regular(1, 1))
    t0 = _gap(ctx, rmp, 3)
    ctx.scheduler.run_until(t0 + rmp.nack_window)
    assert ctx.nacks == [(1, 2, 2)]
    _wait(ctx, rtt)
    feed(rmp, regular(1, 2, retransmission=True))


def test_the_first_nack_waits_exactly_nack_delay_until_a_round_trip():
    ctx = FakeContext()
    rmp = RMP(ctx)
    delay = ctx.config.nack_delay
    # reordering alone — a gap an original copy fills — does not shrink it
    feed(rmp, regular(1, 1))
    _gap(ctx, rmp, 3)
    _wait(ctx, 0.0001)
    feed(rmp, regular(1, 2))
    assert rmp.nack_window == delay and rmp.stats.nack_window_us == 2000
    t0 = _gap(ctx, rmp, 5)
    ctx.scheduler.run_until(t0 + delay - 1e-9)
    assert ctx.nacks == []
    ctx.scheduler.run_until(t0 + delay)
    assert ctx.nacks == [(1, 4, 4)]


@pytest.mark.parametrize("rtt, window", [(0.0004, 0.0001), (0.009, 0.002)])
def test_a_round_trip_sets_the_next_gaps_window_never_above_nack_delay(rtt, window):
    ctx = FakeContext()
    rmp = RMP(ctx)
    _round_trip(ctx, rmp, rtt)
    # rtt / 4 with no reordering seen, capped at nack_delay
    assert rmp.nack_window == pytest.approx(window)
    assert rmp.stats.nack_window_us == round(window * 1e6)
    t0 = _gap(ctx, rmp, 5)
    ctx.scheduler.run_until(t0 + rmp.nack_window * 0.999)
    assert len(ctx.nacks) == 1
    ctx.scheduler.run_until(t0 + rmp.nack_window)
    assert ctx.nacks[1:] == [(1, 4, 4)]


def test_a_spurious_nack_widens_the_window_past_the_reordering_it_revealed():
    ctx = FakeContext()
    rmp = RMP(ctx)
    _round_trip(ctx, rmp, 0.0004)  # window 100 us
    t0 = _gap(ctx, rmp, 5)
    ctx.scheduler.run_until(t0 + rmp.nack_window)
    assert ctx.nacks[-1] == (1, 4, 4)
    _wait(ctx, 0.0002)
    feed(rmp, regular(1, 4))  # the original copy, 300 us behind 5
    assert rmp.stats.spurious_nacks == 1
    assert rmp.nack_window == pytest.approx(2 * 0.0003)


@pytest.mark.parametrize("ambiguity", ["another member asked too", "we retried"])
def test_an_ambiguous_round_trip_is_not_sampled(ambiguity):
    # Karn's rule: with two requests out for the message, the copy may
    # answer the other one — a retransmission answering another member's
    # earlier request can fill our gap microseconds after our NACK
    ctx = FakeContext()
    rmp = RMP(ctx)
    feed(rmp, regular(1, 1))
    t0 = _gap(ctx, rmp, 3)
    ctx.scheduler.run_until(t0 + rmp.nack_window)
    if ambiguity == "we retried":
        _wait(ctx, ctx.config.nack_retry_interval)
        assert len(ctx.nacks) == 2
    else:
        feed(rmp, nack(3, 1, 2, 2))
    _wait(ctx, 0.000003)
    feed(rmp, regular(1, 2, retransmission=True))
    assert rmp.nack_window == ctx.config.nack_delay


def _multicast_bursts(c, senders, bursts, spacing):
    for i in range(bursts):
        for k, s in enumerate(senders):
            for j in range(4):  # four sends 10 us apart: jitter reorders them
                c.net.scheduler.at(0.01 + i * spacing + k * 0.0001 + j * 0.00001,
                                   c.stacks[s].multicast, 1, b"x")


def _rmp_of(c, pids):
    return [c.stacks[p].group(1).rmp for p in pids]


def test_a_loss_free_group_with_jitter_sends_no_nack():
    # learning from reordering alone is too tight early: without a round
    # trip the window must not leave nack_delay, or jitter alone NACKs
    pids = (1, 2, 3, 4, 5)
    c = make_cluster(pids, topology=lan(), seed=5)
    _multicast_bursts(c, pids, bursts=50, spacing=0.004)
    c.run_for(0.5)
    rmps = _rmp_of(c, pids)
    assert sum(r.stats.out_of_order for r in rmps) > 50
    assert sum(r.stats.nacks_sent for r in rmps) == 0
    assert {r.nack_window for r in rmps} == {FTMPConfig().nack_delay}


def test_on_a_wan_the_window_stays_at_nack_delay():
    # 60-80 ms round trips: a quarter of one is far above nack_delay, so
    # every NACK goes out as with the fixed wait (329 is what a fixed
    # 2 ms wait — ``RMP._set_window`` a no-op — sends on this run; 328
    # before heartbeats followed the last send by one interval)
    pids = (1, 2, 3)
    c = make_cluster(pids, topology=wan(loss=0.05),
                     config=FTMPConfig(suspect_timeout=30.0), seed=3)
    _multicast_bursts(c, pids, bursts=40, spacing=0.01)
    c.run_for(3.0)
    rmps = _rmp_of(c, pids)
    assert {r.nack_window for r in rmps} == {FTMPConfig().nack_delay}
    assert sum(r.stats.nacks_sent for r in rmps) == 329
