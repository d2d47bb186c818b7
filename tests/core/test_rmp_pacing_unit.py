"""Direct unit tests of how RMP answers other processors' NACKs: the
holder's pending answer (the §5 randomized backoff), escalation past it,
and duplicate-request suppression.

Driven against the same :class:`rmp_fake.FakeContext` as
``test_rmp_nack_unit``.  The dedupe window is the answer path's one
reader of the clock and defaults off (``nack_dedupe_window=0``), in
which case ``now()`` is never called and behaviour is bit-identical to
the legacy stack — ``test_rmp_nack_unit`` asserts that side.

In the test names, a "paced" answer is one that waits on the holder's
backoff (``RMP.RETRANSMIT_BACKOFF``).
"""

from rmp_fake import FakeContext, feed, nack, regular

from repro.core import FTMPConfig, encode
from repro.core.rmp import RMP


def source(n_msgs: int, dedupe: float):
    """pid 1 *is* the source: its answers are immediate."""
    ctx = FakeContext(pid=1, config=FTMPConfig(nack_dedupe_window=dedupe))
    rmp = RMP(ctx)
    for seq in range(1, n_msgs + 1):
        feed(rmp, regular(1, seq))
    return ctx, rmp


def holder(**knobs):
    """pid 2 *holds* pid 1's messages: its answers back off first."""
    ctx = FakeContext(pid=2, config=FTMPConfig(**knobs))
    return ctx, RMP(ctx)


def pending(rmp):
    """Keys with an answer of ours pending."""
    return [key for key, rec in rmp._answers.items() if rec.timer is not None]


# ----------------------------------------------------------------------
# the holder's pending answer and escalation past it
# ----------------------------------------------------------------------
def test_paced_holder_answer_stays_suppressible():
    # With the campaign's dedupe window on, a holder's backed-off answer
    # is still cancelled by another holder's copy, and a repeat of the
    # request inside the window waits on that copy instead of arming an
    # answer here again.
    ctx, rmp = holder(nack_dedupe_window=0.020)
    feed(rmp, regular(1, 1))
    feed(rmp, nack(3, 1, 1, 1))
    assert ctx.retransmitted == [] and pending(rmp) == [(1, 1)]
    feed(rmp, regular(1, 1, retransmission=True))  # copy arrives
    assert rmp.stats.retransmissions_suppressed == 1 and pending(rmp) == []
    feed(rmp, nack(4, 1, 1, 1))  # inside the window
    ctx.scheduler.run_until(1.0)
    assert ctx.retransmitted == []
    assert rmp.stats.duplicate_requests_suppressed == 1


def test_escalated_answer_survives_pacing_unsuppressed():
    # The third request is answered at once, not after a backoff: the
    # usual copies are not reaching the requester, so a copy arriving
    # here afterwards has nothing to cancel.
    ctx, rmp = holder()
    feed(rmp, regular(1, 1))
    for _ in range(2):
        feed(rmp, nack(3, 1, 1, 1))
        ctx.scheduler.run_until(ctx.scheduler.now + 1.0)
    sent_before = len(ctx.retransmitted)
    feed(rmp, nack(3, 1, 1, 1))  # third request: escalates
    assert len(ctx.retransmitted) == sent_before + 1 and pending(rmp) == []
    feed(rmp, regular(1, 1, retransmission=True))  # copy arrives
    ctx.scheduler.run_until(ctx.scheduler.now + 1.0)
    assert len(ctx.retransmitted) == sent_before + 1
    assert rmp.stats.retransmissions_suppressed == 0


def test_stop_cancels_paced_emissions():
    ctx, rmp = holder()
    for seq in range(1, 11):
        feed(rmp, regular(1, seq))
    feed(rmp, nack(3, 1, 1, 10))
    assert len(pending(rmp)) == 10  # every answer backs off
    rmp.stop()
    ctx.scheduler.run_until(1.0)
    assert ctx.retransmitted == []  # nothing fires after shutdown
    assert rmp._answers == {}


# ----------------------------------------------------------------------
# duplicate-request suppression
# ----------------------------------------------------------------------
def test_duplicate_request_suppressed_inside_window():
    ctx, rmp = source(n_msgs=1, dedupe=0.050)
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
    ctx, rmp = source(n_msgs=1, dedupe=0.050)
    feed(rmp, nack(3, 1, 1, 1))
    ctx.scheduler.run_until(0.0)
    ctx.scheduler.run_until(0.100)  # well past the window
    feed(rmp, nack(3, 1, 1, 1))
    ctx.scheduler.run_until(ctx.scheduler.now)
    assert len(ctx.retransmitted) == 2
    assert rmp.stats.duplicate_requests_suppressed == 0


def test_dedupe_off_by_default_every_request_answered():
    ctx, rmp = source(n_msgs=1, dedupe=0.0)
    for _ in range(3):
        feed(rmp, nack(3, 1, 1, 1))
        ctx.scheduler.run_until(ctx.scheduler.now)
    assert len(ctx.retransmitted) == 3
    assert rmp.stats.duplicate_requests_suppressed == 0


def test_dedupe_is_per_message_not_per_requester():
    ctx, rmp = source(n_msgs=2, dedupe=0.050)
    feed(rmp, nack(3, 1, 1, 1))
    feed(rmp, nack(3, 1, 2, 2))  # different message: answered
    ctx.scheduler.run_until(0.0)
    assert len(ctx.retransmitted) == 2


def test_drop_source_purges_answered_records():
    ctx, rmp = source(n_msgs=1, dedupe=10.0)
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
    # the buffer lets message 1 go while our backed-off answer to it
    # pends: the answer carries its own copy and its record survives the
    # prune
    ctx, rmp = holder()
    for seq in (1, 2, 3):
        feed(rmp, regular(1, seq))  # timestamp = seq
    feed(rmp, nack(3, 1, 1, 1))
    assert ctx.retransmitted == [] and pending(rmp) == [(1, 1)]
    assert ctx.buffer.collect(1) == 1
    feed(rmp, nack(3, 1, 2, 2))
    feed(rmp, nack(3, 1, 3, 3))  # the table doubled: it prunes
    feed(rmp, nack(4, 1, 1, 1))  # no copy here to answer with any more
    assert (1, 1) in pending(rmp)
    ctx.scheduler.run_until(1.0)
    assert [encode(m) for m in ctx.retransmitted].count(encode(regular(1, 1))) == 1
    assert rmp.stats.retransmissions_sent == 3 and pending(rmp) == []


# ----------------------------------------------------------------------
# any-holder selection (ablation A2)
# ----------------------------------------------------------------------
def test_any_holder_off_source_only_still_paced():
    ctx, rmp = holder(retransmit_any_holder=False)
    feed(rmp, regular(1, 1))
    feed(rmp, nack(3, 1, 1, 1))  # we hold it but are not the source
    ctx.scheduler.run_until(1.0)
    assert ctx.retransmitted == []  # A2: only the source answers


def test_any_holder_on_holder_answers_under_pacing():
    ctx, rmp = holder(retransmit_any_holder=True)
    feed(rmp, regular(1, 1))
    feed(rmp, nack(3, 1, 1, 1))
    ctx.scheduler.run_until(rmp.RETRANSMIT_BACKOFF * 2)
    assert len(ctx.retransmitted) == 1
    assert rmp.stats.retransmissions_sent == 1
