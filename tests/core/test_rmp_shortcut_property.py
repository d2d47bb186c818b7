"""Property test of RMP's in-order shortcut against a reference model.

``RMP._on_reliable`` hands an in-order message straight up when nothing
is outstanding for its source, instead of walking ``_advance``'s gap
machinery.  :class:`ReferenceRMP` is the same machine without the
shortcut — every reliable message takes the straightforward path — and
Hypothesis drives both with one arrival sequence: in-order runs,
reordering, duplicates, retransmission-flagged copies, heartbeats ahead
of gaps, time passing so that NACK timers fire and back off, and the
membership-change entry points (a join baseline, a departure).  After
every step the two must agree on the upward call sequence, the NACKs
sent, ``RMPStats``, and per source the expected sequence number, the
highest one heard, the parked set, the armed NACK timer and its retry
count — and the invariant the shortcut leans on must hold.
"""

from dataclasses import asdict

from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_rmp_nack_unit import MockContext, regular

from repro.core import MessageType
from repro.core.messages import FTMPHeader, HeartbeatMessage
from repro.core.rmp import RMP


class RecordingContext(MockContext):
    """GroupContext double keeping one ordered log of the upward calls."""

    def __init__(self):
        super().__init__()
        self.upward = []

    def now(self):
        return self.scheduler.now

    def romp_receive(self, msg):
        h = msg.header
        self.upward.append(("receive", h.source, h.sequence_number, h.retransmission))

    def romp_heartbeat(self, msg):
        h = msg.header
        self.upward.append(("heartbeat", h.source, h.sequence_number, h.timestamp))


class ReferenceRMP(RMP):
    """RMP with every in-order message taking the general ``_advance``."""

    def _on_reliable(self, msg):
        h = msg.header
        src, seq = h.source, h.sequence_number
        if h.retransmission:
            self._suppress_retransmission(src, seq)
        st_ = self._state(src)
        st_.highest_heard = max(st_.highest_heard, seq)
        if seq < st_.next_seq or seq in st_.pending:
            self.stats.duplicates += 1
            return
        self._g.retain(msg)
        if seq == st_.next_seq:
            self._advance(src, st_, first=msg)
        else:
            st_.pending[seq] = msg
            self.stats.out_of_order += 1
            self._note_gap(src, st_)


def heartbeat(src, seq, ts):
    return HeartbeatMessage(FTMPHeader(MessageType.HEARTBEAT, source=src, group=1,
                                       sequence_number=seq, timestamp=ts,
                                       ack_timestamp=0))


SOURCES = st.sampled_from([1, 3])
STEPS = st.lists(st.one_of(
    st.tuples(st.just("next"), SOURCES),                          # in order
    st.tuples(st.just("next"), SOURCES),                          # (twice as likely)
    st.tuples(st.just("ahead"), SOURCES, st.integers(1, 4)),      # leaves a gap
    st.tuples(st.just("again"), SOURCES, st.integers(0, 5), st.booleans()),
    st.tuples(st.just("heartbeat"), SOURCES, st.integers(0, 3)),  # ahead of gaps too
    st.tuples(st.just("wait"), st.sampled_from([0.0005, 0.002, 0.01, 0.05])),
    st.tuples(st.just("baseline"), SOURCES, st.integers(0, 3)),   # §7.1 join
    st.tuples(st.just("drop"), SOURCES),                          # left the group
), max_size=60)


def state_of(rmp, ctx):
    return {
        "upward": ctx.upward,
        "nacks": ctx.nacks,
        "stats": asdict(rmp.stats),
        "sources": {
            src: (s.next_seq, s.highest_heard, sorted(s.pending),
                  s.nack_timer is not None, s.nack_retries,
                  s.deferred_heartbeat is not None)
            for src, s in rmp.sources().items()
        },
        "retained": len(ctx.buffer),
        "pending_events": ctx.scheduler.pending,
    }


@settings(max_examples=300, deadline=None)
@given(STEPS)
# a heartbeat deferred behind a gap that a join baseline then skips over:
# no NACK is left armed, yet the next in-order message must replay it
@example([("heartbeat", 1, 2), ("baseline", 1, 3), ("wait", 0.05), ("next", 1)])
# an in-order arrival while a gap further up is still being NACKed
@example([("next", 3), ("ahead", 3, 2), ("wait", 0.01), ("again", 3, 2, True),
          ("again", 3, 1, True), ("next", 3)])
def test_in_order_shortcut_matches_reference_model(steps):
    fast_ctx, ref_ctx = RecordingContext(), RecordingContext()
    fast, ref = RMP(fast_ctx), ReferenceRMP(ref_ctx)
    sent = {1: 0, 3: 0}  # highest seq each source has "sent" so far
    for step in steps:
        if step[0] == "wait":
            for ctx in (fast_ctx, ref_ctx):
                ctx.scheduler.run_until(ctx.scheduler.now + step[1])
        elif step[0] == "baseline":
            sent[step[1]] += step[2]
            for rmp in (fast, ref):
                rmp.set_baseline(step[1], sent[step[1]])
        elif step[0] == "drop":
            sent[step[1]] = 0  # a rejoining processor numbers from 1 again
            for rmp in (fast, ref):
                rmp.drop_source(step[1])
        else:
            src = step[1]
            if step[0] == "next":
                sent[src] += 1
                build = lambda: regular(src, sent[src])  # noqa: E731
            elif step[0] == "ahead":
                sent[src] += 1 + step[2]  # the skipped ones are lost, for now
                build = lambda: regular(src, sent[src])  # noqa: E731
            elif step[0] == "again":
                seq = max(1, sent[src] - step[2])
                build = lambda: regular(src, seq, retransmission=step[3])  # noqa: E731
            else:
                build = lambda: heartbeat(src, sent[src] + step[2], 1000 + sent[src])  # noqa: E731
            fast.on_message(build())
            ref.on_message(build())
        assert state_of(fast, fast_ctx) == state_of(ref, ref_ctx), step
        for s in fast.sources().values():
            # what lets the shortcut skip ``_cancel_nack``'s reset
            assert s.nack_timer is not None or s.nack_retries == 0
