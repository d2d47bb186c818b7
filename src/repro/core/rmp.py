"""RMP — the Reliable Multicast Protocol layer (paper §5).

RMP provides reliable *source-ordered* delivery to the ROMP/PGMP layers:

* per-(source, group) sequence numbers detect missing messages;
* a receiver multicasts a ``RetransmitRequest`` (negative ack) for each gap
  and re-sends it periodically until the gap fills;
* *any* processor holding a requested message may retransmit it; we add a
  randomized backoff with suppression so one copy usually answers a NACK
  (the paper says only "may retransmit"), and keep what we know of each
  message's repair in one :class:`Answer` that lives as long as the
  retransmission buffer holds the message (§6 decides how long);
* Heartbeats and ConnectRequests are passed through unreliably as they
  arrive (Figure 3); a heartbeat's sequence number also reveals gaps,
  because it repeats the sender's latest reliable sequence number;
* the first RetransmitRequest for a gap waits out one loss-detection
  window per group (:attr:`RMP.nack_window`), in the manner of RACK's
  time-based loss detection (RFC 8985): it starts at ``nack_delay``,
  never exceeds it, and shrinks only to what the group has measured —
  the NACK round trip and the reordering shown by gaps that an original
  copy fills.

RMP is deliberately membership-agnostic: per-source state is created on
demand for any source heard on the group address, and the group purges it
when a processor leaves the membership.  This closes the race where a
freshly added member's first messages arrive before the ``AddProcessor``
has been ordered locally.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Deque, Dict, Optional, Sequence

from .constants import RELIABLE_TYPES, MessageType
from .messages import FTMPMessage, HeartbeatMessage, RetransmitRequestMessage

if TYPE_CHECKING:  # pragma: no cover
    from .datapath import GroupContext

__all__ = ["RMP", "RMPStats", "SourceState"]


@dataclass
class RMPStats:
    """Counters surfaced to experiments (E3 reads these)."""

    delivered: int = 0
    duplicates: int = 0
    out_of_order: int = 0
    gaps_detected: int = 0
    nacks_sent: int = 0
    retransmissions_sent: int = 0
    retransmissions_suppressed: int = 0
    retransmit_requests_received: int = 0
    duplicate_requests_suppressed: int = 0  #: NACK repeats inside the dedupe window
    spurious_nacks: int = 0  #: NACKed gaps that an original copy filled after all
    nack_window_us: int = 0  #: gauge: the loss-detection window now, in µs


@dataclass
class SourceState:
    """Receive-side state for one message source within one group."""

    next_seq: int = 1  #: next expected sequence number
    pending: Dict[int, FTMPMessage] = field(default_factory=dict)
    highest_heard: int = 0  #: highest seq advertised (messages or heartbeats)
    nack_timer: Optional[object] = None
    nack_retries: int = 0  #: consecutive NACK retries without progress
    nack_progress: int = 0  #: ``next_seq`` when the last NACK was sent
    #: a Heartbeat (or an AckSummary — same seq/timestamp contract)
    #: that arrived ahead of a gap, replayed once the gap fills
    deferred_heartbeat: Optional[FTMPMessage] = None
    #: the measurement of the open gap: its first missing seq (0 = none
    #: open), when it was detected, when our first NACK for it went out,
    #: and how many RetransmitRequests — ours or another member's —
    #: have named it (Karn's rule: a round trip counts only for one)
    gap_seq: int = 0
    gap_at: float = 0.0
    nack_at: Optional[float] = None
    gap_requests: int = 0

    @property
    def contiguous_top(self) -> int:
        """Highest seq such that every message 1..top has been received."""
        return self.next_seq - 1


@dataclass(slots=True)
class Answer:
    """What we know of one retained message's repair.  Once the buffer no
    longer holds the message and no answer of ours is pending, nothing
    reads the record again: requests reach only buffered messages,
    suppression only pending answers."""

    requests: int = 0  #: RetransmitRequests that have named it
    answered_at: float = float("-inf")  #: when we last committed to answering
    timer: Optional[object] = None  #: our pending answer


class RMP:
    """One RMP instance per (processor, group) pair."""

    #: upper bound (seconds) of the backed-off NACK retry period
    #: (``nack_backoff_factor``)
    NACK_RETRY_MAX = 0.160

    #: base (seconds) of the randomized retransmission backoff: a
    #: non-source holder of a requested message waits U(0,1) * base
    #: before retransmitting and suppresses if it sees another copy first
    #: (NACK-implosion avoidance)
    RETRANSMIT_BACKOFF = 0.002

    #: the window's round trip is the least of this many latest ones: an
    #: ambiguous sample that slipped past Karn's rule ages out
    RTT_SAMPLES = 8

    def __init__(self, group: "GroupContext"):
        self._g = group
        self._sources: Dict[int, SourceState] = {}
        #: the loss-detection window: how long a detected gap waits for
        #: a reordered copy before its first RetransmitRequest
        self.nack_window = group.config.nack_delay
        #: the latest Karn-clean NACK round trips
        self._rtts: Deque[float] = deque(maxlen=self.RTT_SAMPLES)
        #: the largest reordering an original copy filling a gap has shown
        self._reorder = 0.0
        #: (source, seq) -> the repair record of a message someone NACKed
        self._answers: Dict[tuple, Answer] = {}
        #: prune the records nothing reads once the table is twice what
        #: the last prune kept: amortized O(1) per record
        self._prune_at = 0
        self.stats = RMPStats(nack_window_us=round(self.nack_window * 1e6))

    # ------------------------------------------------------------------
    # datagram entry point (called by the stack after decode + group filter)
    # ------------------------------------------------------------------
    def on_message(self, msg: FTMPMessage) -> None:
        """Route one received FTMP message for this group."""
        mtype = msg.header.message_type
        if mtype in RELIABLE_TYPES:
            self._on_reliable(msg)
        elif mtype == MessageType.HEARTBEAT:
            self._on_heartbeat(msg)  # type: ignore[arg-type]
        elif mtype == MessageType.RETRANSMIT_REQUEST:
            self._on_retransmit_request(msg)  # type: ignore[arg-type]
        elif mtype == MessageType.ACK_SUMMARY:
            # a stability summary's header is a Heartbeat's (same gap
            # exposure and deferral); its per-source entries are global
            # facts, taken whether or not the sender's stream is
            # contiguous here
            self._on_heartbeat(msg)  # type: ignore[arg-type]
            self._g.dissemination.on_summary(msg)  # type: ignore[arg-type]
        # unknown types were already rejected by the codec

    # ------------------------------------------------------------------
    # reliable source-ordered path
    # ------------------------------------------------------------------
    def _on_reliable(self, msg: FTMPMessage) -> None:
        h = msg.header
        src = h.source
        # A retransmitted copy we were about to send ourselves: suppress.
        if h.retransmission:
            self._suppress_retransmission(src, h.sequence_number)

        st = self._sources.get(src)
        if st is None:
            st = self._sources[src] = SourceState()
        seq = h.sequence_number
        if seq > st.highest_heard:
            st.highest_heard = seq

        if seq < st.next_seq or seq in st.pending:
            self.stats.duplicates += 1
            return

        # Retain for answering future NACKs ("any processor that has
        # received [the] message ... may retransmit", §5).
        self._g.buffer.add(src, seq, msg)

        if seq == st.next_seq:
            if (not st.pending and st.nack_timer is None
                    and st.deferred_heartbeat is None and st.highest_heard == seq):
                # In order and nothing outstanding for this source: no
                # pending message can become contiguous, no gap remains
                # to re-check, no NACK timer to cancel (and an unarmed
                # timer means ``nack_retries`` is already 0), no deferred
                # heartbeat to replay — all that is left of ``_advance``
                # is the hand-off itself.
                st.next_seq = seq + 1
                self.stats.delivered += 1
                self._g.romp.receive(msg)
            else:
                self._advance(src, st, first=msg)
        else:
            st.pending[seq] = msg
            self.stats.out_of_order += 1
            self._note_gap(src, st)

    def on_run(self, run: Sequence[FTMPMessage]) -> int:
        """The Regulars of one BATCH datagram: take as many leading ones
        as are this source's in-order stream with nothing outstanding —
        :meth:`_on_reliable`'s shortcut, for the run — and return how
        many; the caller routes the rest one by one.  0 has touched
        nothing.

        The ordering layer folds the messages in up to the first one
        after which its gate has to be entered (``receive_run``); this
        layer's own state is then advanced over exactly those before the
        gate is, so a delivery — an ordered membership change, a
        listener reading sequence vectors — finds RMP where the
        one-by-one path would have it.  After every gate entry the
        preconditions are tested again: the gate may have dropped or
        re-based this source, or stopped the group.
        """
        src = run[0].header.source
        st = self._sources.get(src)
        if st is None:
            return 0
        # the in-order prefix: consecutive from the next expected number
        first = seq = st.next_seq
        stop = 0
        for msg in run:
            if msg.header.sequence_number != seq:
                break
            seq += 1
            stop += 1
        g = self._g
        romp = g.romp
        taken = 0
        while (taken < stop and st.next_seq == first + taken and not st.pending
               and st.nack_timer is None and st.deferred_heartbeat is None
               and st.highest_heard <= st.next_seq
               and self._sources.get(src) is st and not g.stopped):
            n, gate_due = romp.receive_run(run, taken, stop)
            if not n:
                break
            taken += n
            st.next_seq = first + taken
            st.highest_heard = st.next_seq - 1
            self.stats.delivered += n
            if gate_due:
                romp.evaluate()
        return taken

    def _advance(self, src: int, st: SourceState, first: Optional[FTMPMessage]) -> None:
        """Deliver ``first`` plus any now-contiguous pending messages upward."""
        if first is not None:
            if st.gap_seq == st.next_seq:
                self._gap_filled(st, first.header.retransmission)
            st.next_seq += 1
            self.stats.delivered += 1
            self._g.romp.receive(first)
        while st.next_seq in st.pending:
            msg = st.pending.pop(st.next_seq)
            st.next_seq += 1
            self.stats.delivered += 1
            self._g.romp.receive(msg)
        if not self._missing_range(st):
            self._cancel_nack(st)
        # A heartbeat that arrived ahead of a gap becomes usable once the
        # gap fills (its seq now refers to messages we hold contiguously).
        hb = st.deferred_heartbeat
        if hb is not None and hb.header.sequence_number <= st.contiguous_top:
            st.deferred_heartbeat = None
            self._g.romp.receive_heartbeat(hb)

    # ------------------------------------------------------------------
    # heartbeats (unreliable, but they expose gaps)
    # ------------------------------------------------------------------
    def _on_heartbeat(self, msg: HeartbeatMessage) -> None:
        src = msg.header.source
        if self.disclose(src, msg.header.sequence_number):
            # The sender has reliable messages we lack: only hand the
            # heartbeat to ROMP once we are contiguous (otherwise its
            # timestamp would let ROMP order past a hole).
            self._sources[src].deferred_heartbeat = msg
        else:
            self._g.romp.receive_heartbeat(msg)

    def disclose(self, src: int, seq: int) -> bool:
        """Expose that reliable messages from ``src`` through ``seq``
        exist (a heartbeat's seq, a relayed progress entry): raise
        ``highest_heard`` and arm NACK recovery for the gap.  True when
        we lack some of them."""
        st = self._state(src)
        if seq > st.highest_heard:
            st.highest_heard = seq
        if seq > st.contiguous_top:
            self._note_gap(src, st)
            return True
        return False

    # ------------------------------------------------------------------
    # gap detection -> negative acknowledgements
    # ------------------------------------------------------------------
    def _missing_range(self, st: SourceState) -> Optional[tuple]:
        """The first contiguous block of missing seqs, or None."""
        if st.highest_heard <= st.contiguous_top:
            return None
        start = st.next_seq
        stop = start
        # walk to the end of the first hole
        while stop + 1 <= st.highest_heard and (stop + 1) not in st.pending:
            stop += 1
        # ensure the start itself is actually missing
        if start in st.pending:
            return None
        return (start, min(stop, st.highest_heard))

    def _note_gap(self, src: int, st: SourceState) -> None:
        if st.nack_timer is not None:
            return
        self.stats.gaps_detected += 1
        self._g.trace("gap", missing_from=src, expected=st.next_seq,
                      highest_heard=st.highest_heard)
        st.gap_seq = st.next_seq
        st.gap_at = self._g.now()
        st.nack_at = None
        st.gap_requests = 0
        st.nack_timer = self._g.schedule(self.nack_window, self._send_nack, src)

    def _gap_filled(self, st: SourceState, retransmitted: bool) -> None:
        """The open gap's first missing message arrived: learn from it.

        A retransmitted copy answering our one request is a NACK round
        trip.  An original copy shows how late the network can deliver
        one — and, if we NACKed it meanwhile, that the NACK was spurious.
        """
        now = self._g.now()
        if not retransmitted:
            self._reorder = max(self._reorder, now - st.gap_at)
            if st.nack_at is not None:
                self.stats.spurious_nacks += 1
        elif st.nack_at is not None and st.gap_requests == 1:
            self._rtts.append(now - st.nack_at)
        st.gap_seq = 0
        self._set_window()

    def _set_window(self) -> None:
        """``min(nack_delay, max(rtt / 4, 2 × largest reorder))``, rtt the
        least of the latest round trips; ``nack_delay`` until one exists.
        A group that never NACKs keeps ``nack_delay``; a spurious NACK
        raises the largest reorder past the window that caused it."""
        window = ceiling = self._g.config.nack_delay
        if self._rtts:
            window = min(ceiling, max(min(self._rtts) / 4, 2 * self._reorder))
        self.nack_window = window
        self.stats.nack_window_us = round(window * 1e6)

    def _send_nack(self, src: int) -> None:
        st = self._sources.get(src)
        if st is None:
            return
        st.nack_timer = None
        rng_missing = self._missing_range(st)
        if rng_missing is None:
            st.nack_retries = 0
            st.gap_seq = 0
            return
        start, stop = rng_missing
        if st.next_seq > st.nack_progress:
            st.nack_retries = 0  # partial repair arrived: back off resets
        st.nack_progress = st.next_seq
        if st.gap_seq == start:
            st.gap_requests += 1
            if st.nack_at is None:
                st.nack_at = self._g.now()
        self.stats.nacks_sent += 1
        self._g.trace("nack", missing_from=src, start=start, stop=stop)
        self._g.send(RetransmitRequestMessage, src, start, stop)
        cfg = self._g.config
        interval = cfg.nack_retry_interval
        if cfg.nack_backoff_factor > 1.0 and st.nack_retries:
            interval = min(interval * cfg.nack_backoff_factor ** st.nack_retries,
                           self.NACK_RETRY_MAX)
        st.nack_retries += 1
        st.nack_timer = self._g.schedule(interval, self._send_nack, src)

    def _cancel_nack(self, st: SourceState) -> None:
        if st.nack_timer is not None:
            st.nack_timer.cancel()
            st.nack_timer = None
        st.nack_retries = 0
        st.gap_seq = 0

    # ------------------------------------------------------------------
    # answering other processors' NACKs
    # ------------------------------------------------------------------
    def _on_retransmit_request(self, msg: RetransmitRequestMessage) -> None:
        self.stats.retransmit_requests_received += 1
        wanted_src = msg.processor_id
        if msg.header.source != self._g.pid:
            st = self._sources.get(wanted_src)
            if st is not None and msg.start_seq <= st.gap_seq <= msg.stop_seq:
                # a copy may now answer this request, not ours
                st.gap_requests += 1
        g = self._g
        if not g.config.retransmit_any_holder and wanted_src != g.pid:
            return  # ablation A2: only the source answers
        answers = self._answers
        for buffered in g.buffer.range_for(wanted_src, msg.start_seq, msg.stop_seq):
            key = (wanted_src, buffered.header.sequence_number)
            rec = answers.get(key)
            if rec is None:
                rec = answers[key] = Answer()
                if len(answers) > self._prune_at:
                    self._prune()
            elif rec.timer is not None:
                continue  # our answer is already pending
            if self._is_duplicate_request(rec):
                continue
            if g.config.retransmit_suppression:
                rec.requests += 1
                if rec.requests < 3 or wanted_src == g.pid:
                    # The original source answers at once; other holders
                    # back off randomly and suppress if a copy shows up
                    # first — avoids a retransmission implosion.
                    delay = 0.0 if wanted_src == g.pid else g.rng.random() * self.RETRANSMIT_BACKOFF
                    rec.timer = g.schedule(delay, self._answer, rec, buffered)
                    continue
                # The requester keeps asking: whatever copy it has been
                # offered is not reaching it (e.g. the source's link to it
                # is down).  Answer unsuppressibly so a different network
                # path carries the message.
            # Ablation A1 answers every request so: no backoff, no
            # suppression.
            self._answer(rec, buffered)

    def _answer(self, rec: Answer, msg: FTMPMessage) -> None:
        """Send ``msg``, the retained message of ``rec``, now, as its
        retransmission: the send path encodes a flagged copy."""
        rec.timer = None
        self.stats.retransmissions_sent += 1
        self._g.retransmit(msg)

    # ------------------------------------------------------------------
    # duplicate-request suppression (extension)
    # ------------------------------------------------------------------
    def _is_duplicate_request(self, rec: Answer) -> bool:
        """True when we committed to answering ``rec``'s message inside
        ``nack_dedupe_window``; otherwise we commit to it now."""
        window = self._g.config.nack_dedupe_window
        if window <= 0.0:
            return False
        now = self._g.now()
        if now - rec.answered_at < window:
            self.stats.duplicate_requests_suppressed += 1
            return True
        rec.answered_at = now
        return False

    def _suppress_retransmission(self, src: int, seq: int) -> None:
        rec = self._answers.get((src, seq))
        if rec is not None and rec.timer is not None:
            rec.timer.cancel()
            rec.timer = None
            self.stats.retransmissions_suppressed += 1

    def _prune(self) -> None:
        """Drop the records nothing reads again: message reclaimed, no
        answer of ours pending."""
        buffer, answers = self._g.buffer, self._answers
        for key in [k for k, r in answers.items() if r.timer is None and k not in buffer]:
            del answers[key]
        self._prune_at = 2 * len(answers)

    # ------------------------------------------------------------------
    # state management
    # ------------------------------------------------------------------
    def _state(self, src: int) -> SourceState:
        st = self._sources.get(src)
        if st is None:
            st = self._sources[src] = SourceState()
        return st

    def contiguous_top(self, src: int) -> int:
        """Highest seq received gap-free from ``src`` (0 if nothing yet)."""
        st = self._sources.get(src)
        return st.contiguous_top if st is not None else 0

    def set_baseline(self, src: int, seq: int) -> None:
        """Start expecting ``src`` from ``seq + 1`` (new-member join, §7.1)."""
        st = self._state(src)
        if st.next_seq <= seq:
            st.next_seq = seq + 1
            st.pending = {s: m for s, m in st.pending.items() if s > seq}
            if seq > st.highest_heard:
                st.highest_heard = seq
        # the source restarts its numbering at seq: what we learnt of the
        # old incarnation's messages is meaningless now
        self._forget_answers(src, keep_pending=True)

    def drop_source(self, src: int) -> None:
        """Forget a source entirely (it left the membership)."""
        st = self._sources.pop(src, None)
        if st is not None:
            self._cancel_nack(st)
        self._forget_answers(src, keep_pending=False)

    def _forget_answers(self, src: int, keep_pending: bool) -> None:
        """Drop ``src``'s records: a source that rejoins with reset
        sequence numbers must not inherit stale >= 3 counts (every first
        NACK for a reused (src, seq) an unsuppressed retransmit) or answer
        times.  A kept pending answer keeps its record, reset, because its
        timer holds it."""
        for key in [k for k in self._answers if k[0] == src]:
            rec = self._answers[key]
            if keep_pending and rec.timer is not None:
                rec.requests, rec.answered_at = 0, float("-inf")
                continue
            if rec.timer is not None:
                rec.timer.cancel()
            del self._answers[key]

    def sources(self) -> Dict[int, SourceState]:
        """Read-only view of per-source state (used by PGMP seq vectors)."""
        return self._sources

    def stop(self) -> None:
        """Cancel all timers (stack shutdown)."""
        for st in self._sources.values():
            self._cancel_nack(st)
        for rec in self._answers.values():
            if rec.timer is not None:
                rec.timer.cancel()
        self._answers.clear()
