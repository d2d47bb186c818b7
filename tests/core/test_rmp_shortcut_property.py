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
count, the open gap's measurement, and the loss-detection window with
what it learned from — and the invariant the shortcut leans on must
hold.

BATCH arrivals take the same test further: ``RMP.on_run`` is handed the
batch's messages as the receive path hands them (what it does not take
goes through ``on_message`` one by one), the reference gets every message
one by one, and the ordering layer's double enters its gate after chosen
messages — where it records where RMP stands, and may drop or re-base
the source or stop the group, as a delivered membership change would.
Gaps and earlier numbers inside the run, a batch delivered twice,
heartbeats ahead, parked messages and armed NACK timers between batches
all have to come out the same, and a run that is declined must have
touched nothing.  A run holds no retransmitted copy: a BATCH carries
first transmissions only, and a copy arrives on its own.
"""

from dataclasses import asdict

from hypothesis import example, given, settings
from hypothesis import strategies as st
from rmp_fake import FakeContext, feed, nack, regular

from repro.core import MessageType, encode
from repro.core.messages import FTMPHeader, HeartbeatMessage
from repro.core.rmp import RMP


class RecordingContext(FakeContext):
    """GroupContext double keeping one ordered log of the upward calls.

    As its own ordering layer (``romp``), :meth:`receive_run` takes a
    run as ``ROMP.receive_run`` does — retaining each message, handing
    back before the gate — and the gate, entered after the messages
    named in :attr:`gates`, logs where RMP stands at that moment and
    runs the action planned for it.  One by one, the same gate is what
    :meth:`receive` ends in.
    """

    stopped = False

    def __init__(self):
        super().__init__()
        self.upward = []
        self.rmp = None
        #: (source, seq) -> action(rmp, ctx) or None: enter the gate
        #: after this message is handed up
        self.gates = {}
        self._gate_at = None

    def receive(self, msg):
        h = msg.header
        self.upward.append(("receive", h.source, h.sequence_number, h.retransmission))
        self._gate((h.source, h.sequence_number))

    def receive_run(self, run, start, stop):
        for i in range(start, stop):
            h = run[i].header
            self.buffer.add(h.source, h.sequence_number, run[i])
            self.upward.append(("receive", h.source, h.sequence_number, h.retransmission))
            if (h.source, h.sequence_number) in self.gates:
                self._gate_at = (h.source, h.sequence_number)
                return i + 1 - start, True
        return stop - start, False

    def evaluate(self):
        self._gate(self._gate_at)

    def _gate(self, at):
        if at not in self.gates:
            return
        action = self.gates.pop(at)
        st_ = self.rmp.sources().get(at[0])
        self.upward.append(("gate", at, st_ and (st_.next_seq, st_.highest_heard),
                            self.rmp.stats.delivered, sorted(self.buffer._store)))
        if action is not None:
            action(self.rmp, self)

    def receive_heartbeat(self, msg):
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
        self._g.buffer.add(src, seq, msg)
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
#: one message of a batch: the next in sequence, one that skips ahead
#: (a gap inside the run), or an earlier one again
BATCH_ITEMS = st.one_of(
    st.just(("next",)), st.just(("next",)), st.just(("next",)), st.just(("next",)),
    st.tuples(st.just("skip"), st.integers(1, 2)),
    st.tuples(st.just("again"), st.integers(0, 3)),
)
#: what a delivery out of the gate may do to RMP in mid-run
GATE_ACTIONS = {
    None: None,
    "drop": lambda rmp, ctx, src: rmp.drop_source(src),
    "baseline": lambda rmp, ctx, src: rmp.set_baseline(src, rmp.contiguous_top(src) + 2),
    "stop": lambda rmp, ctx, src: setattr(ctx, "stopped", True),
}
BATCHES = st.tuples(
    st.just("batch"), SOURCES, st.lists(BATCH_ITEMS, min_size=1, max_size=7),
    st.sets(st.integers(0, 6), max_size=3),                       # gate after these
    st.sampled_from([None, None, None, "drop", "baseline", "stop"]),
)
STEPS = st.lists(st.one_of(
    BATCHES, BATCHES,
    st.tuples(st.just("rebatch"), SOURCES),                       # delivered twice
    st.tuples(st.just("next"), SOURCES),                          # in order
    st.tuples(st.just("next"), SOURCES),                          # (twice as likely)
    st.tuples(st.just("ahead"), SOURCES, st.integers(1, 4)),      # leaves a gap
    st.tuples(st.just("again"), SOURCES, st.integers(0, 5), st.booleans()),
    st.tuples(st.just("heartbeat"), SOURCES, st.integers(0, 3)),  # ahead of gaps too
    st.tuples(st.just("wait"), st.sampled_from([0.0005, 0.002, 0.01, 0.05])),
    st.tuples(st.just("baseline"), SOURCES, st.integers(0, 3)),   # §7.1 join
    st.tuples(st.just("drop"), SOURCES),                          # left the group
    # someone asks for the source's messages around its latest: an answer
    # we schedule is what a retransmitted copy arriving first suppresses
    st.tuples(st.just("request"), SOURCES, st.integers(0, 3), st.integers(0, 2)),
), max_size=60)


def state_of(rmp, ctx):
    return {
        "upward": ctx.upward,
        "nacks": ctx.nacks,
        "stats": asdict(rmp.stats),
        "sources": {
            src: (s.next_seq, s.highest_heard, sorted(s.pending),
                  s.nack_timer is not None, s.nack_retries,
                  s.deferred_heartbeat is not None,
                  s.gap_seq, s.gap_at, s.nack_at, s.gap_requests)
            for src, s in rmp.sources().items()
        },
        "window": (rmp.nack_window, list(rmp._rtts), rmp._reorder),
        "retained": sorted(ctx.buffer._store),
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
# a departure delivered out of the gate two messages into a run of five:
# the other three must meet a fresh source, as they would one by one
@example([("next", 1), ("batch", 1, [("next",)] * 5, {1}, "drop")])
# the group stopped in mid-run: nothing after that message is taken
@example([("next", 3), ("batch", 3, [("next",)] * 4, {0, 2}, "stop"), ("next", 3)])
# a rejoined source's in-sequence message 2 arrives in a batch while our
# answer to a request for its old message 2 is pending
@example([("next", 1), ("next", 1), ("drop", 1), ("next", 1), ("request", 1, 0, 1),
          ("batch", 1, [("next",)], set(), None)])
# a gap and an earlier number inside the run, then the batch again
@example([("next", 1), ("batch", 1, [("next",), ("next",), ("skip", 1), ("again", 0)], {0}, None),
          ("rebatch", 1), ("wait", 0.01)])
def test_in_order_shortcut_matches_reference_model(steps):
    fast_ctx, ref_ctx = RecordingContext(), RecordingContext()
    fast, ref = RMP(fast_ctx), ReferenceRMP(ref_ctx)
    fast_ctx.rmp, ref_ctx.rmp = fast, ref
    sent = {1: 0, 3: 0}  # highest seq each source has "sent" so far
    last_batch = {1: [], 3: []}  # the seqs of its latest batch
    for step in steps:
        fast_ctx.stopped = ref_ctx.stopped = False
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
        elif step[0] == "request":
            latest = sent[step[1]]
            for rmp in (fast, ref):
                feed(rmp, nack(9, step[1], max(1, latest - step[2]), latest + step[3]))
        elif step[0] in ("batch", "rebatch"):
            src = step[1]
            if step[0] == "batch":
                last_batch[src] = shape = batch_shape(sent, src, step[2])
                gates = {(src, shape[i]): GATE_ACTIONS[step[4] if n == 0 else None]
                         for n, i in enumerate(sorted(k for k in step[3] if k < len(shape)))}
            else:
                shape, gates = last_batch[src], {}
            if not shape:
                continue
            for ctx in (fast_ctx, ref_ctx):
                ctx.gates = {at: action and (lambda rmp, ctx, a=action: a(rmp, ctx, src))
                             for at, action in gates.items()}
            deliver_batch(fast, fast_ctx, src, shape, as_run=True)
            deliver_batch(ref, ref_ctx, src, shape, as_run=False)
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
            feed(fast, build())
            feed(ref, build())
        assert state_of(fast, fast_ctx) == state_of(ref, ref_ctx), step
        for s in fast.sources().values():
            # what lets the shortcut skip ``_cancel_nack``'s reset and the
            # gap measurement
            assert s.nack_timer is not None or s.nack_retries == s.gap_seq == 0


def batch_shape(sent, src, items):
    """The seq of each message of a batch, the sender's counter moved on
    past the new ones."""
    shape = []
    for item in items:
        if item[0] == "again":
            shape.append(max(1, sent[src] - item[1]))
            continue
        sent[src] += 1 + (item[1] if item[0] == "skip" else 0)
        shape.append(sent[src])
    return shape


def deliver_batch(rmp, ctx, src, shape, as_run):
    """One BATCH datagram as ``ReceivePath`` routes it: the run entry
    first (``as_run``), whatever it left part by part — unless the group
    was stopped on the way."""
    run = [regular(src, seq) for seq in shape]
    taken = 0
    if as_run:
        before = repr(state_of(rmp, ctx))
        for m in run:
            encode(m)  # the message_size a BATCH decode gives it
        taken = rmp.on_run(run)
        assert taken or repr(state_of(rmp, ctx)) == before, "a declined run touched RMP"
    for msg in run[taken:]:
        if ctx.stopped:
            return
        feed(rmp, msg)
