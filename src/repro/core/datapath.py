"""The layered FTMP datapath (paper Figure 1, made explicit).

This module is the seam between the protocol machines and the wire:

* :class:`GroupContext` — the narrow protocol the RMP / ROMP / PGMP /
  fault-detector machines are written against.  The machines never import
  a concrete group class; they receive "some GroupContext" and use only
  this surface (timers, tracing, upward delivery, the one stamped-send
  service and clock access).
* :class:`SendPath` — the downward pipeline: header stamping (sequence
  number, clock tick, piggybacked ack timestamp), retransmission
  retention, the heartbeat generator, and the optional coalescing window
  that packs small Regular messages, unencoded, into one Batch datagram.
* :class:`ReceivePath` — the upward pipeline: Batch unpacking, new-member
  join gating, then RMP with the message; no wire bytes.  The layers
  above never see a Batch: at most its Regulars as one in-order run
  (``RMP.on_run``), where today's per-message path would have taken
  each of them through its shortcuts anyway.
* :class:`ProcessorGroup` — the composition root wiring one group's
  machines through the two pipelines; it implements ``GroupContext`` and
  keeps the membership/view state that *is* the group.  Its
  :meth:`~ProcessorGroup.send` is the one way a stamped message leaves:
  Figure 3's two tables decide there what its type entails.  Its constructor
  is the one place that chooses the group's ordering discipline (a
  :class:`~repro.core.romp.ROMP`) and its
  :class:`~repro.core.dissemination.Dissemination`; everything else calls
  their hooks unconditionally (DESIGN.md, "Two seams").

Batching (``FTMPConfig.batch_window``) is off by default, in which case
the send path is bit-identical to the historical unbatched stack: every
message goes out the moment it is stamped.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from typing import (
    TYPE_CHECKING,
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Protocol,
    Set,
    Tuple,
    Type,
)

from ..transport import TimerHandle
from .buffers import RetransmissionBuffer
from .config import FTMPConfig
from .constants import JOIN_GRACE, RELIABLE_TYPES, TOTALLY_ORDERED_TYPES, MessageType
from .dissemination import LOOPBACK, Dissemination
from .events import Delivery, FaultReport, ViewChange
from .fault_detector import FaultDetector
from .llft import LeaderOrdering
from .messages import (
    AddProcessorMessage,
    BatchMessage,
    ConnectionId,
    ConnectMessage,
    FTMPHeader,
    FTMPMessage,
    HeartbeatMessage,
    RegularMessage,
    RetransmitRequestMessage,
)
from .multigroup import SkeenOrdering
from .overlay import OverlayDissemination
from .pgmp import PGMP
from .rmp import RMP
from .romp import DEPARTED, JOINING, LEAVING, LINGERING, MEMBER, ROMP, Peer
from .stats import GroupStats
from .wire import decode, encode, regular_size

if TYPE_CHECKING:  # pragma: no cover
    from random import Random

    from .lamport import OrderingClock
    from .stack import FTMPStack

__all__ = [
    "GroupContext",
    "SendPath",
    "ReceivePath",
    "BatchStats",
    "FlowControlStats",
    "FlowController",
    "FlowControlSaturated",
    "ProcessorGroup",
]

#: Minimum expected messages per window for the adaptive window to
#: engage coalescing: the break-even batch size.
BATCH_MIN_FILL = 4

#: Heartbeat intervals a member that delivered past its last stamp lets
#: pass before it covers what it delivered (:meth:`SendPath.cover_head`)
HEAD_COVER_DELAY = 1 / 8

#: Heartbeat intervals a member lets pass after a Regular outside any
#: connection arrived, unless it stamps something first, before its idle
#: clock covers it (:meth:`SendPath.cover_late`)
LATE_COVER_DELAY = 5 / 8

#: what a batch window counts of a Regular besides its payload, whatever
#: its layout and header form: the 40 B header and 28 B connection block
WINDOW_OVERHEAD = 68

#: the interned connection id of Regulars outside any logical connection
_NO_CONNECTION = ConnectionId.none()

_NEVER = float("inf")


class FlowControlSaturated(RuntimeError):
    """A multicast exceeded ``flow_queue_limit`` held sends.

    Raised instead of queueing so the application gets a synchronous
    load-shedding signal; the send was *not* accepted and will not be
    transmitted later.
    """


class GroupContext(Protocol):
    """The group surface the protocol machines need — and nothing more.

    RMP / ROMP / PGMP / :class:`~repro.core.fault_detector.FaultDetector`
    are typed against this protocol instead of any concrete group class,
    so they can be driven by the real :class:`ProcessorGroup` or by a test
    double without touching the stack.
    """

    group_id: int
    membership: Tuple[int, ...]
    view_timestamp: int
    joining: bool
    #: the group has been shut down (we left, were evicted, or the stack
    #: stopped): nothing further may be delivered into it
    stopped: bool
    #: (timestamp, source) of the AddProcessor admitting this processor
    join_barrier: Optional[Tuple[int, int]]
    buffer: RetransmissionBuffer
    rmp: RMP
    romp: ROMP
    pgmp: PGMP
    fault_detector: FaultDetector
    #: stability-driven credit window; ROMP reports stability advances to it
    flow: FlowController
    dissemination: Dissemination
    #: the member lifecycle table (DESIGN.md, "Member lifecycle")
    peers: Dict[int, Peer]

    # -- identity / environment ----------------------------------------
    @property
    def pid(self) -> int: ...

    @property
    def config(self) -> FTMPConfig: ...

    @property
    def rng(self) -> "Random": ...

    @property
    def clock(self) -> "OrderingClock": ...

    @property
    def last_sent_seq(self) -> int: ...

    def now(self) -> float: ...

    def schedule(self, delay: float, fn: Callable, *args): ...

    def trace(self, kind: str, **detail) -> None: ...

    # -- liveness bookkeeping ------------------------------------------
    def note_alive(self, src: int) -> None: ...

    def has_heard_from(self, src: int) -> bool: ...

    def forget_member(self, pid: int) -> None: ...

    # -- upward delivery ------------------------------------------------
    def pgmp_raise_suspicion(self, pid: int) -> None: ...

    def pgmp_withdraw_suspicion(self, pid: int) -> None: ...

    def pgmp_receive_ordered(self, msg: FTMPMessage) -> None: ...

    def deliver_regular(self, msg: RegularMessage) -> None: ...

    # -- send services --------------------------------------------------
    def send(self, cls: Type[FTMPMessage], *body,
             address: Optional[int] = None) -> FTMPMessage: ...

    def retransmit(self, msg: FTMPMessage, address: Optional[int] = None) -> None: ...

    # -- membership transitions -----------------------------------------
    def install_view(self, membership: Tuple[int, ...], view_timestamp: int,
                     added: Tuple[int, ...], removed: Tuple[int, ...],
                     reason: str) -> None: ...

    def install_fault_view(self, membership: Tuple[int, ...], view_timestamp: int,
                           removed: Tuple[int, ...]) -> None: ...

    def evict_self(self, reason: str, view_timestamp: int) -> None: ...

    def seed_provisional_join(self, membership: Tuple[int, ...], view_timestamp: int,
                              join_barrier: Tuple[int, int]) -> None: ...

    def complete_join(self, membership: Tuple[int, ...], view_timestamp: int,
                      join_barrier: Tuple[int, int]) -> None: ...

    def apply_connect_migration(self, msg: ConnectMessage) -> None: ...


@dataclass
class BatchStats:
    """Batching-efficiency counters of one group's send/receive paths."""

    batches_sent: int = 0
    messages_batched: int = 0
    batches_received: int = 0
    messages_unbatched: int = 0
    flushes_on_timer: int = 0
    flushes_on_size: int = 0
    flushes_on_order: int = 0  #: a non-batchable send forced the flush
    #: adaptive window: sends that skipped the window because the recent
    #: rate would not fill it (low-load latency restored to unbatched)
    adaptive_bypasses: int = 0


@dataclass
class FlowControlStats:
    """Hold-queue counters of one group's sender (flow control and §7)."""

    sends_admitted: int = 0  #: Regulars that consumed a credit and went out
    sends_queued: int = 0  #: sends held with no barrier up (credits spent)
    sends_released: int = 0  #: held sends later released, barrier holds too
    sends_rejected: int = 0  #: multicasts refused at ``flow_queue_limit``
    credit_stalls: int = 0  #: credit holds that found the queue empty
    max_queue_depth: int = 0  #: of the one hold queue, barrier holds too


class FlowController:
    """The sender's one admission gate: §7 quiescence and §6 credits.

    The ROMP layer already computes, from the piggybacked positive
    acknowledgement timestamps, the *stability timestamp* — the highest
    ordering timestamp every member has acknowledged (the same signal
    that bounds the retransmission buffers, §5/§6).  The flow controller
    feeds it back to the sender: at most ``flow_control_window`` of this
    processor's own Regular messages may be in flight (sent but not yet
    stable) at once.  Application sends beyond the window queue here —
    backpressure — and drain as stability advances, so a sender can never
    run further ahead of the group than the window, no matter the offered
    load.  Control traffic (membership, NACKs, heartbeats) is never
    subject to credits: it is exactly what makes stability advance.

    The same FIFO holds application sends while a §7 Connect quiescence
    barrier is up (``romp.can_send_ordered()``), with or without a
    window: one queue, so no send overtakes one accepted before it,
    whichever of the two held it.
    """

    def __init__(self, group: "ProcessorGroup", stats: FlowControlStats):
        self._g = group
        self.stats = stats
        #: ordering timestamps of our own in-flight (unstable) Regulars;
        #: timestamps are per-source monotonic, so this deque is sorted
        self._inflight: Deque[int] = deque()
        self._queue: Deque[Tuple[bytes, ConnectionId, int]] = deque()
        #: true while :meth:`drain` hands a queued send to the send path
        self.releasing = False
        #: a :meth:`_release` is scheduled for the next scheduler turn
        self._release_armed = False

    @property
    def enabled(self) -> bool:
        return self._g.config.flow_control_window > 0

    @property
    def inflight(self) -> int:
        """Own Regulars sent but not yet covered by the stability timestamp."""
        return len(self._inflight)

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    @property
    def credits(self) -> int:
        """Sends the window still allows before backpressure engages."""
        if not self.enabled:
            return 0
        return max(0, self._g.config.flow_control_window - len(self._inflight))

    @property
    def blocked(self) -> bool:
        """True while some send is held (credits spent or a §7 barrier up)."""
        return bool(self._queue)

    def _may_send(self) -> bool:
        """No §7 barrier is up and a credit is free (or there is no window)."""
        window = self._g.config.flow_control_window
        return self._g.romp.can_send_ordered() and (
            not window or len(self._inflight) < window)

    def submit(self, payload: bytes, cid: ConnectionId, request_num: int) -> bool:
        """Admit a send now (True) or hold it (False).

        A send is held behind any held send, while a §7 barrier is up,
        and when the credits are spent.  With ``flow_queue_limit`` set, a
        send beyond the cap raises :class:`FlowControlSaturated` instead.
        """
        queue = self._queue
        if not queue and self._may_send():
            return True
        limit = self._g.config.flow_queue_limit
        if limit > 0 and len(queue) >= limit:
            self.stats.sends_rejected += 1
            raise FlowControlSaturated(
                f"send queue full ({limit} sends already held)"
            )
        if not self._g.romp.can_send_ordered():
            self._g.stats.ordered_sends_deferred += 1
        else:
            if not queue:
                self.stats.credit_stalls += 1
            self.stats.sends_queued += 1
        queue.append((payload, cid, request_num))
        if len(queue) > self.stats.max_queue_depth:
            self.stats.max_queue_depth = len(queue)
        return False

    def withdraw(self, cid: ConnectionId) -> List[Tuple[bytes, ConnectionId, int]]:
        """Take one connection's held sends out of the queue, in order
        (the connection moves to another group before its §7 barrier
        cleared here)."""
        queue = self._queue
        mine = [send for send in queue if send[1] == cid]
        if mine:
            kept = [send for send in queue if send[1] != cid]
            queue.clear()
            queue.extend(kept)
        return mine

    def note_sent(self, timestamp: int) -> None:
        """Record an admitted Regular's ordering timestamp (one credit)."""
        if self.enabled:
            self._inflight.append(timestamp)
            self.stats.sends_admitted += 1

    def on_stability(self, stable: int) -> None:
        """Stability advanced: recycle credits now, release queued sends
        on the next scheduler turn.

        Most advances are read off a datagram's header, before that
        datagram's messages are delivered.  A send released at once
        would carry the acknowledgement from before the deliveries the
        same datagram makes possible, and its peers' stability, and so
        their credits, would wait for the next one.
        """
        inflight = self._inflight
        while inflight and inflight[0] <= stable:
            inflight.popleft()
        if self._queue and self.enabled and not self._release_armed:
            self._release_armed = True
            self._g.schedule(0.0, self._release)

    def _release(self) -> None:
        self._release_armed = False
        if not self._g.stopped:
            self.drain()

    def drain(self) -> None:
        """Release held sends, oldest first, while no §7 barrier is up
        and credits last.

        ROMP calls this when a barrier clears, :meth:`_release` after a
        stability advance.  A released send can run a listener that
        sends (a discipline delivering its own send on the spot): that
        send is held behind the rest, so the FIFO holds.
        """
        queue = self._queue
        while queue and self._may_send():
            payload, cid, request_num = queue.popleft()
            self.stats.sends_released += 1
            # the send takes its credit, growing _inflight again
            self.releasing = True
            try:
                self._g._send_regular(payload, cid, request_num)
            finally:
                self.releasing = False


class SendPath:
    """Downward pipeline of one processor group.

    Owns the reliable sequence counter, header stamping (clock tick plus
    the piggybacked ack timestamp), retention of reliable messages for
    NACK answering, the §5 heartbeat generator, and the batching window.
    Protocol machines never build headers or touch the wire; the group's
    :meth:`ProcessorGroup.send` stamps and transmits everything here.
    """

    def __init__(
        self,
        ctx: "ProcessorGroup",
        transmit: Callable[[int, bytes], None],
    ):
        self._ctx = ctx
        self._transmit = transmit
        #: periodic dissemination traffic stands in for §5 heartbeats
        self._heartbeats_replaced = ctx.dissemination.replaces_heartbeats
        #: received Regulars are covered: a connection one at once
        #: (:meth:`cover`), one we delivered past our last stamp after
        #: :data:`HEAD_COVER_DELAY` intervals (:meth:`cover_head`), any
        #: other after :data:`LATE_COVER_DELAY` intervals (:meth:`cover_late`)
        self.covers = ctx.romp.covers_connections and not self._heartbeats_replaced
        self._seq = 0
        self._last_send_time = -1e9
        #: timestamp of the last stamped reliable message or Heartbeat:
        #: every member hears us past it
        self._stamped = 0
        #: when a cover is due (inf: none asked for since our last stamp,
        #: -inf: on the next scheduler turn)
        self._cover_at = _NEVER
        #: when the first Regular outside a connection arrived that we
        #: have not stamped past (inf: none since our last stamp)
        self.unstamped = _NEVER
        #: when the heartbeat timer fires (inf: not armed, -inf: on the
        #: next scheduler turn, or not started, or stopped: nothing earlier)
        self._beat_at = -_NEVER
        #: the heartbeat timer's arming count: only the firing of the
        #: latest arming is live (:meth:`_fire`)
        self._beat_gen = 0
        #: the batch window: stamped Regulars, not yet encoded
        self._pending: List[RegularMessage] = []
        self._pending_bytes = 0
        #: the window's flush timer, while armed
        self._flush_timer: Optional[TimerHandle] = None
        self._stopped = False
        # adaptive batching: EWMA of the gap between batchable sends —
        # the load signal deciding window vs. immediate transmission
        self._gap_ewma = float("inf")
        self._last_batchable = -1e9

    # ------------------------------------------------------------------
    # header stamping
    # ------------------------------------------------------------------
    @property
    def last_sent_seq(self) -> int:
        return self._seq

    def next_header(self, mtype: MessageType) -> FTMPHeader:
        if mtype in RELIABLE_TYPES:
            self._seq += 1
        return FTMPHeader(
            message_type=mtype,
            source=self._ctx.pid,
            group=self._ctx.group_id,
            sequence_number=self._seq,
            timestamp=self._ctx.clock.tick(),
            ack_timestamp=self._ctx.romp.ack_timestamp,
            little_endian=self._ctx.config.little_endian,
        )

    # ------------------------------------------------------------------
    # transmission
    # ------------------------------------------------------------------
    def send(self, msg: FTMPMessage, address: Optional[int] = None) -> FTMPMessage:
        """Stamp-independent egress: retain, trace, then wire (or window).
        Returns ``msg``."""
        h = msg.header
        mtype = h.message_type
        raw = None if address is None and self._windowed(msg) else encode(msg)
        if mtype in RELIABLE_TYPES:
            self._ctx.buffer.add(h.source, h.sequence_number, msg)
        if mtype in RELIABLE_TYPES or mtype == MessageType.HEARTBEAT:
            # §5: a Heartbeat is due when no *Regular* (ordered-stream)
            # message went out recently; control traffic such as
            # RetransmitRequests must not starve the heartbeat, because
            # receivers need the stream's timestamps to keep ordering.
            self._last_send_time = self._ctx.now()
            self._stamped = h.timestamp
            # our clock has observed every timestamp received so far
            self.unstamped = self._cover_at = _NEVER
        if self._ctx._stack.tracer is not None:
            self._ctx.trace("send", type=mtype.name, seq=h.sequence_number,
                            ts=h.timestamp)
        if raw is None:
            self._append(msg)
        elif address == LOOPBACK:
            # nothing reaches the wire, so the window's order on it is
            # not at stake: it stays closed
            self._ctx.loop_back(raw)
        else:
            self._flush_pending_first()
            self._transmit(self._ctx.address if address is None else address, raw)
        return msg

    def resend(self, msg: FTMPMessage, address: Optional[int] = None) -> None:
        """Re-send a retained message as its retransmission (§3.2): a
        copy whose header has the retransmission flag set, encoded anew —
        the original datagram but for that flag.  ``msg`` stays as it is.

        Deliberately does not touch ``last_send_time``: retransmissions
        are not new ordered-stream traffic and must not defer heartbeats.
        """
        raw = encode(replace(msg, header=replace(msg.header, retransmission=True)))
        self._ctx.trace("resend", bytes=len(raw))
        self._flush_pending_first()
        self._transmit(self._ctx.address if address is None else address, raw)

    def _flush_pending_first(self) -> None:
        """Keep per-source FIFO: drain the window before unbatched sends."""
        if self._pending:
            self._ctx.batch_stats.flushes_on_order += 1
            self.flush()

    # ------------------------------------------------------------------
    # batching window
    # ------------------------------------------------------------------
    def _windowed(self, msg: FTMPMessage) -> bool:
        """The batch window takes ``msg`` — a Regular that fits it, unless
        it bypasses — and sizes it for retention: only its BATCH encodes it."""
        cfg = self._ctx.config
        if (cfg.batch_window > 0.0 and msg.header.message_type is MessageType.REGULAR
                and WINDOW_OVERHEAD + len(msg.payload) <= cfg.batch_max_bytes):
            if not self._adaptive_bypass():
                regular_size(msg)
                return True
            self._ctx.batch_stats.adaptive_bypasses += 1
        return False

    def _adaptive_bypass(self) -> bool:
        """Decide window vs. immediate send for an eligible Regular.

        A window that always waits taxes every low-load send
        ~``batch_window`` of latency for nothing: it closes with one
        message in it.  An EWMA of the gap between eligible sends
        estimates how many messages the *next* window would
        coalesce; below ``BATCH_MIN_FILL`` the send bypasses the window
        (latency returns to unbatched), above it the window engages and
        saturation goodput keeps the full coalescing win.  A send never
        bypasses a non-empty window — that would reorder the sender's
        reliable stream on the wire — and a send released by
        :meth:`FlowController.drain` never bypasses at all: a backlog of
        credit-queued sends is observed load that fills the window.
        """
        cfg = self._ctx.config
        now = self._ctx.now()
        gap = now - self._last_batchable
        self._last_batchable = now
        threshold = cfg.batch_window / BATCH_MIN_FILL
        if gap >= cfg.batch_window * BATCH_MIN_FILL:
            # idle long enough that no plausible rate fills a window: this
            # send goes alone, and the estimate restarts at the engage
            # threshold, so that one stale burst cannot tax a quiet
            # period and the next send that follows within it engages
            # the window
            self._gap_ewma = threshold
            bypass = True
        else:
            ewma = self._gap_ewma
            self._gap_ewma = gap if ewma == float("inf") else 0.75 * ewma + 0.25 * gap
            bypass = self._gap_ewma > threshold
        return bypass and not (self._pending or self._ctx.flow.releasing)

    def _append(self, msg: RegularMessage) -> None:
        self._pending.append(msg)
        self._pending_bytes += WINDOW_OVERHEAD + len(msg.payload)
        if self._pending_bytes >= self._ctx.config.batch_max_bytes:
            self._ctx.batch_stats.flushes_on_size += 1
            self.flush()
        elif self._flush_timer is None:
            self._flush_timer = self._ctx.schedule(self._ctx.config.batch_window,
                                                   self._timer_flush)

    def _timer_flush(self) -> None:
        self._flush_timer = None
        self._ctx.batch_stats.flushes_on_timer += 1
        self.flush()

    @property
    def pending_batch(self) -> int:
        """Messages currently held in the coalescing window."""
        return len(self._pending)

    def flush(self) -> None:
        """Transmit the coalesced window now (no-op when empty)."""
        if self._flush_timer is not None:
            self._flush_timer.cancel()
            self._flush_timer = None
        if not self._pending:
            return
        pending, self._pending = self._pending, []
        self._pending_bytes = 0
        if len(pending) == 1:
            self._transmit(self._ctx.address, encode(pending[0]))
            return
        envelope = BatchMessage(
            header=FTMPHeader(
                message_type=MessageType.BATCH,
                source=self._ctx.pid,
                group=self._ctx.group_id,
                sequence_number=0,
                timestamp=0,
                ack_timestamp=0,
                little_endian=self._ctx.config.little_endian,
            ),
            parts=tuple(pending),
        )
        batch = self._ctx.batch_stats
        batch.batches_sent += 1
        batch.messages_batched += len(pending)
        self._transmit(self._ctx.address, encode(envelope))

    # ------------------------------------------------------------------
    # heartbeats (paper §5)
    # ------------------------------------------------------------------
    def start_heartbeats(self) -> None:
        self._beat_at = _NEVER
        self._deadline(self._ctx.now(), self._ctx.config.heartbeat_interval)

    def _deadline(self, now: float, delay: float) -> None:
        """Move the heartbeat timer to ``delay`` after ``now`` if that is
        earlier than where it stands; it never moves later."""
        at = now + delay
        if at < self._beat_at:
            self._beat_at = at
            self._arm(delay)

    def _arm(self, delay: float) -> None:
        """Arm the heartbeat timer once, cancelling nothing: an earlier
        deadline rides a second event, and the one it supersedes fires
        as a no-op (:meth:`_fire`)."""
        self._beat_gen += 1
        self._ctx.schedule(delay, self._fire, self._beat_gen)

    def _fire(self, gen: int) -> None:
        if gen == self._beat_gen:
            self._tick()

    def _tick(self) -> None:
        """The heartbeat timer fired: send at most one Heartbeat, for the
        rule that is due and not moot (a cover, the late cover, the idle
        clock; DESIGN.md "One heartbeat clock"), then re-arm for the
        earliest rule still live.  Sends never touch the timer: a firing
        that a stamp made moot re-arms, so the idle Heartbeat follows the
        last stamp by exactly one interval.  A Heartbeat flushes the batch
        window first, as every send that does not join it does."""
        if self._heartbeats_replaced and not self._ctx.joining:
            # The dissemination's own periodic traffic is the keepalive,
            # so all-member heartbeat fan-out stops.  A *joining* member
            # keeps heartbeating: the dissemination does not reach it
            # yet, and only its own loopbacked heartbeats advance its
            # stream in the ordering gate so the AddProcessor can reach
            # its position (§7.1).
            self._beat_at = -_NEVER  # the loop ends here
            return
        self._beat_at = _NEVER
        now = self._ctx.now()
        interval = self._ctx.config.heartbeat_interval
        idle = interval - (now - self._last_send_time)
        late = self.unstamped + interval * LATE_COVER_DELAY - now
        cover = self._cover_at - now
        if cover > 0.0 and min(idle, late) > interval * 0.001:
            self._deadline(now, min(idle, late, cover))
            return
        self._ctx.stats.heartbeats_sent += 1
        if cover <= 0.0 or idle > interval * 0.001:  # not the idle clock's own
            self._ctx.stats.cover_heartbeats += 1
        self._ctx.send(HeartbeatMessage)
        self._deadline(now, interval)

    def cover_late(self, ts: int) -> None:
        """A Regular outside any connection, timestamped ``ts``, arrived.

        No member delivers it until every member is heard past it; a
        member with nothing to send says so only when its idle clock
        ticks, up to one interval later, and with two members or more
        behind the head the head cover does not apply.  Unless we stamp
        something first, the heartbeat is due :data:`LATE_COVER_DELAY`
        intervals after the first such arrival instead.  The caller has
        checked that none arrived since our last stamp (``unstamped``).
        """
        if ts <= self._stamped:
            return
        self.unstamped = now = self._ctx.now()
        self._deadline(now, self._ctx.config.heartbeat_interval * LATE_COVER_DELAY)

    def cover(self, msg: RegularMessage) -> None:
        """A Regular on a §4 logical connection arrived.

        Connection traffic is request/reply: whoever receives a Request
        or a Reply has nothing to send until it is delivered, and no
        member delivers it until every member is heard past it — by the
        idle clock, up to one heartbeat interval later.  Unless we have
        stamped something since ``msg``'s timestamp, send the §5 null
        message on the next scheduler turn instead: one for however many
        Regulars arrive in the meantime, none if we send anything first.
        """
        if (msg.header.timestamp > self._stamped and self._cover_at != -_NEVER
                and self.covers and not self._ctx.joining
                and self._ctx._stack.connection_binding(msg.connection_id) is not None):
            self._cover_at = -_NEVER
            if self._beat_at != -_NEVER:
                self._beat_at = -_NEVER
                self._arm(0.0)

    def cover_head(self, ack: int) -> None:
        """Our ack, the timestamp of our last ordered delivery: once it
        passes our last stamp, every member but us has been heard past a
        message that the others still wait on our stream to pass — the
        group waits on us alone.  Unless we stamp something first, send
        the §5 null message after :data:`HEAD_COVER_DELAY` heartbeat
        intervals — time for a send of our own to say it instead.  A cover
        already due is earlier: one Heartbeat covers every Regular
        received before it."""
        if ack > self._stamped and self._cover_at == _NEVER:
            now = self._ctx.now()
            delay = self._ctx.config.heartbeat_interval * HEAD_COVER_DELAY
            self._cover_at = now + delay
            self._deadline(now, delay)

    # ------------------------------------------------------------------
    def stop(self) -> None:
        if self._stopped:
            return
        self._stopped = True
        self._beat_at = -_NEVER
        self._beat_gen += 1
        self.flush()


class ReceivePath:
    """Upward pipeline of one processor group.

    Unpacks Batch envelopes, gates the new-member joining state, and
    feeds RMP — message by message, or a batch's Regulars as one run.
    The protocol machines above never see a Batch, nor wire bytes.
    """

    def __init__(self, group: "ProcessorGroup"):
        self._g = group

    def on_datagram(self, msg: FTMPMessage, raw: bytes) -> None:
        """One datagram, then the head cover's decision on the ack it
        left: once per datagram, so a BATCH taken as a run and one taken
        part by part decide alike.  Nothing here reads ``raw``."""
        g = self._g
        if g.stopped:
            return
        if msg.__class__ is BatchMessage:
            self._on_batch(msg)
        else:
            self._on_message(msg)
        send_path = g.send_path
        if send_path.covers and not g.joining:
            send_path.cover_head(g.romp.ack_timestamp)

    def _on_message(self, msg: FTMPMessage) -> None:
        g = self._g
        if g.stopped:
            return
        cls = msg.__class__
        if g.joining:
            # A new member seeds provisional state from the AddProcessor
            # that names it; the message then flows through RMP/ROMP like
            # any other, and the join completes only when it reaches its
            # position in the total order (§7.1).  Before that seed there
            # is nothing to anchor recovery on, so everything else waits
            # for the initiator's periodic retransmission.
            if msg.__class__ is AddProcessorMessage and msg.new_member == g.pid:
                g.pgmp.prepare_join(msg)
            if g.join_barrier is None:
                return
        elif g._stack.tracer is not None:
            g.trace("recv", type=msg.header.message_type.name,
                    src=msg.header.source, seq=msg.header.sequence_number)
        # every datagram carries usable clock / ack / liveness information
        # (RetransmitRequests included); ordering advancement stays gated
        # on contiguity inside ROMP.  This is the datagram's one header
        # observation: ROMP recognises the header again when RMP hands
        # the message up and does not fold it in twice.
        g.romp.observe_header(msg.header)
        g.rmp.on_message(msg)
        if cls is RegularMessage:
            if msg.connection_id is not _NO_CONNECTION:
                g.send_path.cover(msg)
            else:
                send_path = g.send_path
                if send_path.unstamped == _NEVER and send_path.covers and not g.joining:
                    send_path.cover_late(msg.header.timestamp)

    def _on_batch(self, msg: BatchMessage) -> None:
        """Unpack one envelope: a run of one sender's Regulars, in the
        order it sent them, which RMP takes as one (:meth:`RMP.on_run`)
        as far as it is the in-order stream; the rest goes part by part
        through :meth:`_on_message`, the general path."""
        g = self._g
        batch = g.batch_stats
        batch.batches_received += 1
        run = msg.parts
        batch.messages_unbatched += len(run)
        taken = 0
        # the ``recv`` trace events and the join gate are per part
        if run and not g.joining and g._stack.tracer is None:
            taken = g.rmp.on_run(run)
            late = 0
            for i in range(taken):
                if run[i].connection_id is not _NO_CONNECTION:
                    g.send_path.cover(run[i])
                else:
                    late = run[i].header.timestamp
            send_path = g.send_path
            if late and send_path.unstamped == _NEVER and send_path.covers:
                send_path.cover_late(late)
        for i in range(taken, len(run)):
            self._on_message(run[i])


class ProcessorGroup:
    """One processor's protocol state for one processor group.

    A thin composition root: wires the RMP / ROMP / PGMP machines and the
    fault detector through :class:`SendPath` / :class:`ReceivePath`, and
    implements the :class:`GroupContext` surface they are typed against.
    The membership/view bookkeeping lives here because it *is* the group.
    """

    def __init__(
        self,
        stack: "FTMPStack",
        group_id: int,
        address: int,
        membership: Tuple[int, ...],
        joining: bool = False,
    ):
        self._stack = stack
        # per-group constants, resolved once: the protocol machines read
        # them on every datagram
        self._endpoint = stack.endpoint
        self.pid: int = stack.pid
        self.config: FTMPConfig = stack.config
        self.clock = stack.clock
        self.group_id = group_id
        self.address = address
        self.membership: Tuple[int, ...] = tuple(sorted(membership))
        self.view_timestamp = 0
        self.joining = joining
        #: (timestamp, source) of the AddProcessor that admitted us; ordered
        #: messages strictly before it belong to views we were not part of.
        self.join_barrier: Optional[Tuple[int, int]] = None

        self.stopped = False
        self.buffer = RetransmissionBuffer(gc_enabled=stack.config.buffer_gc_enabled)
        self.stats = GroupStats()
        self.batch_stats = BatchStats()
        self.flow = FlowController(self, FlowControlStats())
        self.rmp = RMP(self)
        # The two seams, chosen here and nowhere else (which pairs are
        # legal is config.REJECTED_CELLS's): how bytes and acks travel,
        # and who decides the order.  The defaults are the paper's — flat
        # fan-out, the symmetric §6 rule.
        cfg = stack.config
        disseminations = {"flat": Dissemination, "tree": OverlayDissemination}
        orderings = {"symmetric": ROMP, "leader": LeaderOrdering,
                     "skeen": SkeenOrdering}
        self.dissemination: Dissemination = disseminations[cfg.dissemination](self)
        self.romp: ROMP = orderings[cfg.ordering](
            self, self.dissemination.stability_floor)
        self.pgmp = PGMP(self)
        self.fault_detector = FaultDetector(self)
        self.send_path = SendPath(
            self, transmit=self.dissemination.egress(stack.transmit))
        self.receive_path = ReceivePath(self)
        self._ingress = self.dissemination.ingress(self.receive_path.on_datagram)

        self._heard: Set[int] = set()
        self.peers: Dict[int, Peer] = {}
        self._linger_timer = None
        self._register_stats()

        if not joining:
            self._activate()

    def _register_stats(self) -> None:
        reg = self._stack.registry
        prefix = f"group.{self.group_id}"
        for section, stats in (
            ("send", self.stats),
            ("batch", self.batch_stats),
            ("flow", self.flow.stats),
            ("rmp", self.rmp.stats),
            ("romp", self.romp.stats),
            ("pgmp", self.pgmp.stats),
            ("fault_detector", self.fault_detector.stats),
            *self.romp.extra_stats,
            *self.dissemination.extra_stats,
        ):
            reg.register(f"{prefix}.{section}", stats)
        reg.register(
            f"{prefix}.gauges",
            lambda: {
                "queue_depth": self.romp.queued(),
                "ack_timestamp": self.romp.ack_timestamp,
                "stability_timestamp": self.romp.stability_timestamp(),
                "buffer_messages": len(self.buffer),
                "buffer_bytes": self.buffer.bytes,
                "last_sent_seq": self.last_sent_seq,
                "pending_batch": self.send_path.pending_batch,
                "fc_credits": self.flow.credits,
                "fc_inflight": self.flow.inflight,
                "fc_queue_depth": self.flow.queue_depth,
            },
        )

    # ------------------------------------------------------------------
    # context surface used by the protocol layers (GroupContext)
    # ------------------------------------------------------------------
    @property
    def rng(self):
        return self._endpoint.random()

    @property
    def last_sent_seq(self) -> int:
        return self.send_path.last_sent_seq

    def now(self) -> float:
        return self._endpoint.now

    def schedule(self, delay: float, fn: Callable, *args):
        return self._endpoint.schedule(delay, fn, *args)

    def trace(self, kind: str, **detail) -> None:
        tracer = self._stack.tracer
        if tracer is not None:
            tracer.emit(self.now(), self.pid, self.group_id, kind, **detail)

    def note_alive(self, src: int) -> None:
        if src not in self._heard:
            self._heard.add(src)
            # a newly heard processor ends any AddProcessor resend loop
            self.pgmp.cancel_add_resend(src)
        self.fault_detector.note_alive(src)

    def has_heard_from(self, src: int) -> bool:
        return src in self._heard

    def forget_member(self, pid: int) -> None:
        # only graceful (ordered) departures route through here; the
        # fault-view path below shares the purge (:meth:`_purge_member`)
        # Only a graceful (§7.1 ordered) departure hands the member's
        # final clock to the dissemination for re-emission: a laggard
        # that has not ordered the RemoveProcessor yet still gates its
        # cover on that clock, and delivering the removal here required
        # our cover — hence this order timestamp — to reach the removal's
        # timestamp, so the snapshot is exactly the evidence the laggard
        # is missing.  A *convicted* (crashed) member's clock must NOT be
        # re-emitted: the entries would keep refreshing the dead member's
        # liveness at laggards, suppressing the very suspicion that lets
        # them join the §7.2 fault round — their only path to the new view.
        self.dissemination.note_departure(pid, self.romp.order_ts(pid))
        self._purge_member(pid)
        # -> departed, unless leaving: it heartbeats on while it lingers,
        # and copies of its messages answer NACKs, either of which would
        # re-create per-source state here (:meth:`_screen`)
        peer = self.peers.get(pid)
        if peer is None or peer.state is not LEAVING:
            peer = self.peers[pid] = Peer(DEPARTED, None)
        peer.heard = self.now()
        self.schedule(self.config.suspect_timeout, self._expire_departed, pid, peer)

    def _purge_member(self, pid: int) -> None:
        """Drop the per-member state of every layer: the one purge of a
        departure, ordered or convicted."""
        self.romp.purge_queue_of(pid)
        self.fault_detector.forget(pid)
        self.rmp.drop_source(pid)
        self.romp.purge_source(pid)
        self._heard.discard(pid)

    def _screen(self, msg: FTMPMessage) -> bool:
        """True for a datagram that stops here, short of the receive path:
        any while we linger, and a leaving or departed peer's — its ack
        heard (what it misses is held while it is leaving), its NACKs
        answered.  An AddProcessor naming such a peer ends its row."""
        peers = self.peers
        h = msg.header
        if self.pid in peers:  # lingering: acks past our removal end rows
            if msg.__class__ is BatchMessage:  # its parts carry them
                if not msg.parts:
                    return True
                h = msg.parts[-1].header
            peer = peers.get(h.source)
            if peer is not None and peer.state is MEMBER and h.ack_timestamp >= peer.key:
                del peers[h.source]
            return True
        peer = peers.get(h.source)
        if peer is not None and peer.state is not JOINING:
            peer.heard = self.now()
            ack = h.ack_timestamp
            if peer.state is LEAVING and ack > peer.ack:
                if ack >= peer.key:  # it ordered its removal
                    peer.state = DEPARTED
                peer.ack = ack
                self.romp.recheck_stability()
            if msg.__class__ is RetransmitRequestMessage:
                self.rmp.on_message(msg)
            return True
        if msg.__class__ is AddProcessorMessage:
            peer = peers.get(msg.new_member)
            if peer is not None and peer.state is not JOINING:
                del peers[msg.new_member]
        return False

    def _expire_departed(self, pid: int, peer: Peer) -> None:
        if self.peers.get(pid) is not peer:
            return  # an AddProcessor named it since
        quiet = self.now() - peer.heard
        timeout = self.config.suspect_timeout
        if quiet >= timeout * 0.999:  # float residue must not re-arm at +0
            del self.peers[pid]
            if peer.state is LEAVING:
                self.romp.recheck_stability()
        else:
            self.schedule(timeout - quiet, self._expire_departed, pid, peer)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _activate(self) -> None:
        """Join the wire address, start heartbeats and the fault detector."""
        self._endpoint.join(self.address)
        for p in self.membership:
            if p != self.pid:
                self.fault_detector.watch(p, grace=JOIN_GRACE)
        self.fault_detector.start()
        self.send_path.start_heartbeats()
        self.dissemination.activate()

    def stop(self) -> None:
        if self._linger_timer is not None:
            self._linger_timer.cancel()
            self._linger_timer = None
            self._endpoint.leave(self.address)
        if self.stopped:
            return
        self._halt()
        self._endpoint.leave(self.address)

    def _halt(self) -> None:
        """Stop every machine and timer; the address stays joined."""
        self.stopped = True
        self.send_path.stop()
        self.dissemination.stop()
        self.fault_detector.stop()
        self.rmp.stop()
        self.pgmp.stop()
        self._stack.registry.unregister_prefix(f"group.{self.group_id}")

    def linger(self, removal_ts: int) -> None:
        """-> lingering: our removal at ``removal_ts`` was delivered here.
        A member yet to order it needs our stream heard past it, and the
        heartbeat that showed it may have been lost; whoever ordered it
        forgot us, so nobody repeats it or convicts us.  Halt, then
        heartbeat — delivering nothing — while a member is awaited (each
        is, unless stability is past the removal) and ``suspect_timeout``
        has not passed; the stack then stops the group."""
        self._halt()
        awaited = self.romp.stability_timestamp() < removal_ts
        self.peers = {p: Peer(MEMBER, removal_ts) for p in self.membership if awaited}
        self.peers[self.pid] = Peer(LINGERING, removal_ts, heard=self.now())
        # our acknowledgement past the removal: whoever ordered it before
        # us holds what we might still have needed until it hears this
        self.send(HeartbeatMessage)
        self._linger_timer = self.schedule(self.config.heartbeat_interval,
                                           self._linger_tick)

    def _linger_tick(self) -> None:
        began = self.peers[self.pid].heard
        if len(self.peers) == 1 or self.now() >= began + self.config.suspect_timeout:
            self._stack.end_leaving(self.group_id)
            return
        self.send(HeartbeatMessage)
        self._linger_timer = self.schedule(self.config.heartbeat_interval,
                                           self._linger_tick)

    # ------------------------------------------------------------------
    # datagram input (from the stack router)
    # ------------------------------------------------------------------
    def on_datagram(self, msg: FTMPMessage, raw: bytes) -> None:
        if self.peers and self._screen(msg):
            return
        self._ingress(msg, raw)

    def loop_back(self, raw: bytes) -> None:
        """Deliver one of our own datagrams through the local receive
        path only — deferred one scheduler turn to keep a loopback's
        event boundary (no re-entrant delivery inside the send call)."""
        self.schedule(0.0, lambda: self.on_datagram(decode(raw), raw))

    # ------------------------------------------------------------------
    # upward delivery plumbing (called by RMP / ROMP)
    # ------------------------------------------------------------------
    def pgmp_raise_suspicion(self, pid: int) -> None:
        self.pgmp.raise_suspicion(pid)
        self.dissemination.on_suspicion_changed()

    def pgmp_withdraw_suspicion(self, pid: int) -> None:
        self.pgmp.withdraw_suspicion(pid)
        self.dissemination.on_suspicion_changed()

    def pgmp_receive_ordered(self, msg: FTMPMessage) -> None:
        if self.stopped:
            return  # the ordering loop runs on past our own removal
        if self.join_barrier is not None:
            key = (msg.header.timestamp, msg.header.source)
            if key < self.join_barrier:
                return  # predates our admission to the group
        self.pgmp.on_ordered(msg)

    def deliver_regular(self, msg: RegularMessage) -> None:
        h = msg.header
        if self.stopped or (self.join_barrier is not None
                            and (h.timestamp, h.source) < self.join_barrier):
            return
        if self._stack.tracer is not None:
            self.trace("deliver", src=h.source, seq=h.sequence_number,
                       ts=h.timestamp, bytes=len(msg.payload))
        self._stack.listener.on_deliver(
            Delivery(self.group_id, h.source, h.sequence_number, h.timestamp,
                     msg.connection_id, msg.request_num, msg.payload,
                     self._endpoint.now, h.ack_timestamp)
        )

    # ------------------------------------------------------------------
    # send paths
    # ------------------------------------------------------------------
    def send(self, cls: Type[FTMPMessage], *body, address: Optional[int] = None,
             credit: bool = False) -> FTMPMessage:
        """The stamped-send service: build a ``cls`` message from ``body``
        (its fields after the header, in order), send it to the group —
        or to ``address``, :data:`~repro.core.dissemination.LOOPBACK`
        included — and return the stamped message.

        Everything the message's type entails is decided here, from the
        two tables of Figure 3: a reliable type takes the next sequence
        number and is retained for NACK answering, a reliable type or a
        Heartbeat restarts the §5 idle clock (both in :class:`SendPath`),
        and the ordering discipline hears of a totally-ordered one once
        it is on the wire.  Every header carries a fresh clock tick and
        the piggybacked ack.  ``credit`` is the one thing the type does
        not decide: an application Regular occupies a flow-control
        credit from the moment it is stamped — before the discipline,
        which may deliver it on the spot, can run a listener that sends.
        """
        mtype = cls.TYPE
        msg = cls(self.send_path.next_header(mtype), *body)
        if credit:
            self.flow.note_sent(msg.header.timestamp)
        self.send_path.send(msg, address)
        if mtype in TOTALLY_ORDERED_TYPES:
            if mtype is MessageType.ADD_PROCESSOR:
                self.romp.hold_for_joiner(msg)
            self.romp.on_own_send(msg)
        return msg

    def multicast(self, payload: bytes, connection_id: Optional[ConnectionId] = None,
                  request_num: int = 0) -> bool:
        """Multicast an application (GIOP) payload as a Regular message.

        Returns True when the send went to the wire immediately, False
        when :class:`FlowController` held it (§7 quiescence barrier or
        spent flow-control credits) for later release.  With
        ``flow_queue_limit`` set, a send beyond the cap raises
        :class:`FlowControlSaturated` instead of queueing.
        """
        if self.joining:
            raise RuntimeError("cannot multicast before the join completes")
        cid = connection_id if connection_id is not None else ConnectionId.none()
        if not self.flow.submit(payload, cid, request_num):
            return False
        self._send_regular(payload, cid, request_num)
        return True

    def _send_regular(self, payload: bytes, cid: ConnectionId, request_num: int) -> None:
        self.stats.regulars_sent += 1
        self.send(RegularMessage, cid, request_num, payload, credit=True)

    def retransmit(self, msg: FTMPMessage, address: Optional[int] = None) -> None:
        """Re-send a retained message unchanged except the retrans flag (§3.2)."""
        self.send_path.resend(msg, address)

    # ------------------------------------------------------------------
    # membership state changes (called by PGMP)
    # ------------------------------------------------------------------
    def install_view(self, membership: Tuple[int, ...], view_timestamp: int,
                     added: Tuple[int, ...], removed: Tuple[int, ...], reason: str) -> None:
        prev_membership = self.membership
        # lets a discipline hold its decisions until on_view_installed
        # below — a send from the view-change listener must not overtake
        # what the discipline does at the install in the delivery order
        self.romp.begin_install()
        self.membership = tuple(sorted(membership))
        self.view_timestamp = view_timestamp
        self.pgmp.reset_after_view()
        self.dissemination.on_view_installed()
        for p in added:
            self.romp.flush_staging(p)
        self.trace("view", reason=reason, membership=self.membership,
                   view_ts=view_timestamp)
        self.announce_view(self.membership, view_timestamp, added, removed, reason)
        self.romp.on_view_installed(prev_membership, reason)
        self.romp.evaluate()
        if removed:  # a connection's last client may have left
            self._stack.connections.on_view(self.group_id, self.membership)

    def announce_view(self, membership: Tuple[int, ...], view_timestamp: int,
                      added: Tuple[int, ...], removed: Tuple[int, ...],
                      reason: str) -> None:
        """The view-change upcall to the application."""
        self._stack.listener.on_view_change(ViewChange(
            group=self.group_id, membership=membership,
            view_timestamp=view_timestamp, added=tuple(added),
            removed=tuple(removed), reason=reason, installed_at=self.now()))

    def install_fault_view(self, membership: Tuple[int, ...], view_timestamp: int,
                           removed: Tuple[int, ...]) -> None:
        """Install a view that excludes convicted processors (§7.2).  The
        drain delivered each one's synchronized prefix: what it left
        queued lies past that prefix, and the purge drops it."""
        for r in removed:
            self._purge_member(r)
        for r in removed:
            self.romp.abort_origin(r)
        self.install_view(membership, view_timestamp, added=(), removed=removed,
                          reason="fault")
        self.trace("fault", convicted=tuple(removed))
        self._stack.listener.on_fault_report(
            FaultReport(group=self.group_id, convicted=tuple(removed),
                        reported_at=self.now())
        )

    def evict_self(self, reason: str, view_timestamp: int) -> None:
        """We were removed (RemoveProcessor or exclusion by survivors).
        An ordered removal lingers (:meth:`linger`): the survivors of an
        exclusion have synchronized without us, nobody waits for us."""
        self.announce_view((), view_timestamp, (), (self.pid,), reason)
        if reason == "remove":
            self._stack.retire_group(self.group_id)
            self.linger(view_timestamp)
        else:
            self._stack.remove_group(self.group_id)

    def seed_provisional_join(self, membership: Tuple[int, ...], view_timestamp: int,
                              join_barrier: Tuple[int, int]) -> None:
        """Adopt an AddProcessor's snapshot while still joining.

        Provisional: :meth:`complete_join` installs the definitive view
        when the AddProcessor is *ordered*.  Heartbeats start here — the
        ordering gate covers our own pid, and only our loopbacked sends
        advance it — but the fault detector and the view upcall wait for
        completion.  A re-seed (fresh AddProcessor after the first one's
        snapshot went stale) drops sources the new snapshot no longer
        lists, so their unfillable gaps stop generating NACKs.
        """
        starting = self.join_barrier is None
        dropped = set(self.membership) - set(membership)
        self.membership = tuple(sorted(membership))
        self.view_timestamp = view_timestamp
        self.join_barrier = join_barrier
        for gone in dropped:
            self.forget_member(gone)
        if starting:
            self.send_path.start_heartbeats()
        self.dissemination.prepare_join()
        self.romp.evaluate()

    def complete_join(self, membership: Tuple[int, ...], view_timestamp: int,
                      join_barrier: Tuple[int, int]) -> None:
        """Finish the new-member bootstrap once our AddProcessor is ordered."""
        if not self.joining:
            return
        self.joining = False
        self.join_barrier = join_barrier
        self.membership = tuple(sorted(membership))
        self.view_timestamp = view_timestamp
        self._activate()
        # Announce ourselves at once so the initiator stops retransmitting
        # the AddProcessor and the others' ordering includes us promptly.
        self.stats.heartbeats_sent += 1
        self.send(HeartbeatMessage)
        self.announce_view(self.membership, view_timestamp, (self.pid,), (), "add")
        self.romp.on_join_completed()

    # ------------------------------------------------------------------
    # connection migration (ordered Connect, §7)
    # ------------------------------------------------------------------
    def apply_connect_migration(self, msg: ConnectMessage) -> None:
        # a Connect may bind a *new* logical connection onto this existing
        # group (shared processor group, §7) rather than migrate it
        self._stack.connections.on_ordered_connect(msg)
        new_addr = msg.ip_multicast_address
        migrated = new_addr != self.address
        if migrated:
            # the window is bound to the old address: drain it first
            self.send_path.flush()
            self._endpoint.leave(self.address)
            self.address = new_addr
            self._endpoint.join(new_addr)
            self.dissemination.on_address_changed()
        self.view_timestamp = max(self.view_timestamp, msg.header.timestamp)
        # §7 quiescence: no ordered transmissions until every member is
        # heard past the Connect's timestamp (their heartbeats get us there).
        self.romp.set_send_barrier(msg.header.timestamp)
        self._stack.connections.apply_migration(msg.connection_id, new_addr)
        binding = self._stack.connections.binding(msg.connection_id)
        if binding is not None and migrated:
            self._stack.notify_connection(binding, migrated=True)
