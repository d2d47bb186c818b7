"""Direct unit tests of RMP retransmission pacing and duplicate-request
suppression (the flow-control PR's recovery-path half).

Driven against the same :class:`rmp_fake.FakeContext` as
``test_rmp_nack_unit`` — the pacing token bucket and the dedupe window
are the first RMP features that read the clock.  Both default off
(``retransmit_rate_limit=0``, ``nack_dedupe_window=0``), in which case
``now()`` is never called and behaviour is bit-identical to the legacy
stack — ``test_rmp_nack_unit`` asserts that side.
"""

from rmp_fake import FakeContext, feed, nack, regular

from repro.core import FTMPConfig, encode
from repro.core.rmp import RMP


def paced_source(n_msgs: int = 20, rate: float = 100.0, burst: int = 2,
                 dedupe: float = 0.0):
    """pid 1 *is* the source: answers are immediate, only pacing defers."""
    ctx = FakeContext(pid=1, config=FTMPConfig(
        retransmit_rate_limit=rate, nack_dedupe_window=dedupe,
    ))
    rmp = RMP(ctx)
    rmp.RETRANSMIT_BURST = burst
    for seq in range(1, n_msgs + 1):
        feed(rmp, regular(1, seq))
    return ctx, rmp


def paced_holder(burst: int, **knobs):
    """pid 2 *holds* pid 1's messages: its answers back off first, then
    meet a bucket ``burst`` deep refilled at 100 retransmissions/s."""
    ctx = FakeContext(pid=2, config=FTMPConfig(retransmit_rate_limit=100.0, **knobs))
    rmp = RMP(ctx)
    rmp.RETRANSMIT_BURST = burst
    return ctx, rmp


def pending(rmp):
    """Keys with an answer of ours pending."""
    return [key for key, rec in rmp._answers.items() if rec.timer is not None]


# ----------------------------------------------------------------------
# pacing token bucket
# ----------------------------------------------------------------------
def test_pacing_defers_beyond_burst():
    ctx, rmp = paced_source(n_msgs=10, rate=100.0, burst=2)
    feed(rmp, nack(3, 1, 1, 10))  # one NACK asks for all 10 at once
    ctx.scheduler.run_until(0.0)
    # the burst allowance answers immediately; the rest are deferred
    assert len(ctx.retransmitted) <= 3
    assert rmp.stats.retransmissions_paced >= 7
    ctx.scheduler.run_until(1.0)
    # deferred, never dropped: all 10 eventually go out...
    assert len(ctx.retransmitted) == 10
    # ...spaced at the bucket rate, not back-to-back
    late = [t for t in ctx.retransmit_times if t > 0]
    gaps = [b - a for a, b in zip(late, late[1:])]
    assert all(g >= 0.009 for g in gaps), gaps  # 1/rate = 10 ms


def test_pacing_off_by_default_all_immediate():
    ctx, rmp = paced_source(n_msgs=10, rate=0.0)
    feed(rmp, nack(3, 1, 1, 10))
    ctx.scheduler.run_until(0.0)
    assert len(ctx.retransmitted) == 10
    assert rmp.stats.retransmissions_paced == 0


def test_bucket_refills_after_idle():
    ctx, rmp = paced_source(n_msgs=8, rate=100.0, burst=4)
    feed(rmp, nack(3, 1, 1, 4))
    ctx.scheduler.run_until(0.0)
    assert len(ctx.retransmitted) == 4  # within the burst: all immediate
    ctx.scheduler.run_until(1.0)  # a second of idle refills the bucket
    feed(rmp, nack(3, 1, 5, 8))
    ctx.scheduler.run_until(1.0)
    assert len(ctx.retransmitted) == 8
    assert rmp.stats.retransmissions_paced == 0


def test_paced_holder_answer_stays_suppressible():
    # pid 2 is a holder; its backoff answer lands in a dry bucket and is
    # deferred — the deferred answer must still be cancelled by another
    # holder's copy arriving first (pacing must not break §5 suppression).
    ctx, rmp = paced_holder(burst=0)
    feed(rmp, regular(1, 1))
    feed(rmp, nack(3, 1, 1, 1))
    ctx.scheduler.run_until(rmp.RETRANSMIT_BACKOFF * 2)
    assert ctx.retransmitted == []  # paced past the backoff
    assert rmp.stats.retransmissions_paced == 1
    feed(rmp, regular(1, 1, retransmission=True))  # copy arrives
    ctx.scheduler.run_until(1.0)
    assert ctx.retransmitted == []  # the paced answer was suppressed
    assert rmp.stats.retransmissions_suppressed == 1


def test_escalated_answer_survives_pacing_unsuppressed():
    # An escalated (count >= 3) answer must go out even when deferred by
    # the bucket, and a copy from elsewhere must NOT cancel it — the whole
    # point of escalation is that the usual copies are not arriving.
    ctx, rmp = paced_holder(burst=0)
    feed(rmp, regular(1, 1))
    for _ in range(2):
        feed(rmp, nack(3, 1, 1, 1))
        ctx.scheduler.run_until(ctx.scheduler.now + 1.0)
    sent_before = len(ctx.retransmitted)
    feed(rmp, nack(3, 1, 1, 1))  # third request: escalates
    assert len(ctx.retransmitted) == sent_before  # bucket dry: deferred
    feed(rmp, regular(1, 1, retransmission=True))  # copy arrives
    ctx.scheduler.run_until(ctx.scheduler.now + 1.0)
    assert len(ctx.retransmitted) == sent_before + 1  # still answered


def test_repeated_request_for_escalated_answer_not_amplified():
    # Regression: escalated paced answers used to be keyed anonymously,
    # so with pacing on but the dedupe window off, every repeated
    # RetransmitRequest for the same escalated message enqueued another
    # paced copy — amplifying the recovery traffic the pacer bounds.
    # The answer now pends on its message's own record and repeats find
    # it pending.
    ctx, rmp = paced_holder(burst=0, nack_dedupe_window=0.0)
    feed(rmp, regular(1, 1))
    for _ in range(2):
        feed(rmp, nack(3, 1, 1, 1))
        ctx.scheduler.run_until(ctx.scheduler.now + 1.0)
    sent_before = len(ctx.retransmitted)
    feed(rmp, nack(3, 1, 1, 1))  # third request: escalates, deferred
    assert pending(rmp) == [(1, 1)]
    for _ in range(3):  # repeats while the paced answer is still pending
        feed(rmp, nack(3, 1, 1, 1))
    assert pending(rmp) == [(1, 1)]  # deduped, no second copy
    ctx.scheduler.run_until(ctx.scheduler.now + 1.0)
    assert len(ctx.retransmitted) == sent_before + 1  # answered exactly once
    assert pending(rmp) == []


def test_unsuppressible_mark_cleared_after_answer_and_on_drop():
    # The pin must not outlive the paced answer (or the source): a stale
    # pin would shield future ordinary backoff answers for the same key
    # from §5 suppression forever.
    ctx, rmp = paced_holder(burst=0)
    feed(rmp, regular(1, 1))
    for _ in range(3):  # third request escalates; let each answer drain
        feed(rmp, nack(3, 1, 1, 1))
        ctx.scheduler.run_until(ctx.scheduler.now + 1.0)
    assert not rmp._answers[(1, 1)].pinned
    feed(rmp, nack(3, 1, 1, 1))  # escalated again: pending + pinned
    assert rmp._answers[(1, 1)].pinned and pending(rmp) == [(1, 1)]
    rmp.drop_source(1)  # source left: pending answer and pin both go
    assert rmp._answers == {}


def test_ablation_no_suppression_still_paced():
    ctx, rmp = paced_holder(burst=1, retransmit_suppression=False)
    for seq in range(1, 6):
        feed(rmp, regular(1, seq))
    feed(rmp, nack(3, 1, 1, 5))
    assert len(ctx.retransmitted) == 1  # burst of 1, rest deferred
    assert rmp.stats.retransmissions_paced == 4
    ctx.scheduler.run_until(1.0)
    assert len(ctx.retransmitted) == 5


def test_stop_cancels_paced_emissions():
    ctx, rmp = paced_source(n_msgs=10, rate=100.0, burst=0)
    feed(rmp, nack(3, 1, 1, 10))
    assert pending(rmp)  # deferred answers pending
    rmp.stop()
    ctx.scheduler.run_until(1.0)
    assert ctx.retransmitted == []  # nothing fires after shutdown
    assert rmp._answers == {}


# ----------------------------------------------------------------------
# duplicate-request suppression
# ----------------------------------------------------------------------
def test_duplicate_request_suppressed_inside_window():
    ctx, rmp = paced_source(n_msgs=1, rate=0.0, dedupe=0.050)
    feed(rmp, nack(3, 1, 1, 1))
    ctx.scheduler.run_until(0.0)
    assert len(ctx.retransmitted) == 1
    # pid 4's request for the same message lands 10 ms later — the answer
    # is already in flight; answering again would double the repair traffic
    ctx.scheduler.run_until(0.010)
    feed(rmp, nack(4, 1, 1, 1))
    ctx.scheduler.run_until(ctx.scheduler.now + 0.010)
    assert len(ctx.retransmitted) == 1
    assert rmp.stats.duplicate_requests_suppressed == 1


def test_duplicate_request_answered_after_window_expires():
    ctx, rmp = paced_source(n_msgs=1, rate=0.0, dedupe=0.050)
    feed(rmp, nack(3, 1, 1, 1))
    ctx.scheduler.run_until(0.0)
    ctx.scheduler.run_until(0.100)  # well past the window
    feed(rmp, nack(3, 1, 1, 1))
    ctx.scheduler.run_until(ctx.scheduler.now)
    assert len(ctx.retransmitted) == 2
    assert rmp.stats.duplicate_requests_suppressed == 0


def test_dedupe_off_by_default_every_request_answered():
    ctx, rmp = paced_source(n_msgs=1, rate=0.0, dedupe=0.0)
    for _ in range(3):
        feed(rmp, nack(3, 1, 1, 1))
        ctx.scheduler.run_until(ctx.scheduler.now)
    assert len(ctx.retransmitted) == 3
    assert rmp.stats.duplicate_requests_suppressed == 0


def test_dedupe_is_per_message_not_per_requester():
    ctx, rmp = paced_source(n_msgs=2, rate=0.0, dedupe=0.050)
    feed(rmp, nack(3, 1, 1, 1))
    feed(rmp, nack(3, 1, 2, 2))  # different message: answered
    ctx.scheduler.run_until(0.0)
    assert len(ctx.retransmitted) == 2


def test_drop_source_purges_answered_records():
    ctx, rmp = paced_source(n_msgs=1, rate=0.0, dedupe=10.0)
    feed(rmp, nack(3, 1, 1, 1))
    ctx.scheduler.run_until(0.0)
    assert rmp._answers[(1, 1)].answered_at == 0.0
    rmp.drop_source(1)
    assert rmp._answers == {}
    # the rejoined incarnation's first NACK for a reused seq is answered
    feed(rmp, regular(1, 1))
    feed(rmp, nack(3, 1, 1, 1))
    ctx.scheduler.run_until(ctx.scheduler.now)
    assert len(ctx.retransmitted) == 2
    assert rmp.stats.duplicate_requests_suppressed == 0


def test_a_pending_paced_answer_outlives_reclamation_and_goes_once():
    # the buffer lets message 1 go while our paced answer to it pends:
    # the answer carries its own copy and its record survives the prune
    ctx, rmp = paced_holder(burst=0)
    for seq in (1, 2, 3):
        feed(rmp, regular(1, seq))  # timestamp = seq
    feed(rmp, nack(3, 1, 1, 1))
    ctx.scheduler.run_until(rmp.RETRANSMIT_BACKOFF * 2)
    assert ctx.retransmitted == [] and pending(rmp) == [(1, 1)]  # paced
    assert ctx.buffer.collect(1) == 1
    feed(rmp, nack(3, 1, 2, 2))
    feed(rmp, nack(3, 1, 3, 3))  # the table doubled: it prunes
    feed(rmp, nack(4, 1, 1, 1))  # no copy here to answer with any more
    assert (1, 1) in pending(rmp)
    ctx.scheduler.run_until(1.0)
    assert ctx.retransmitted.count(encode(regular(1, 1))) == 1
    assert rmp.stats.retransmissions_sent == 3 and pending(rmp) == []


# ----------------------------------------------------------------------
# any-holder selection under pacing (ablation A2 interaction)
# ----------------------------------------------------------------------
def test_any_holder_off_source_only_still_paced():
    ctx = FakeContext(pid=2, config=FTMPConfig(
        retransmit_any_holder=False, retransmit_rate_limit=100.0,
    ))
    rmp = RMP(ctx)
    feed(rmp, regular(1, 1))
    feed(rmp, nack(3, 1, 1, 1))  # we hold it but are not the source
    ctx.scheduler.run_until(1.0)
    assert ctx.retransmitted == []  # A2: only the source answers


def test_any_holder_on_holder_answers_under_pacing():
    ctx = FakeContext(pid=2, config=FTMPConfig(retransmit_rate_limit=100.0))
    rmp = RMP(ctx)
    feed(rmp, regular(1, 1))
    feed(rmp, nack(3, 1, 1, 1))
    ctx.scheduler.run_until(rmp.RETRANSMIT_BACKOFF * 2)
    assert len(ctx.retransmitted) == 1
    assert rmp.stats.retransmissions_sent == 1
