"""ROMP — the Reliable Ordered Multicast Protocol layer (paper §6).

ROMP receives source-ordered reliable messages from RMP and delivers
Regular / Connect / AddProcessor / RemoveProcessor messages in causal and
total order (Figure 3).  The ordering construction is the classical
Lamport total order the paper cites:

* every message carries a timestamp from the sender's ordering clock,
  strictly increasing per source;
* a receiver may deliver the buffered message with the smallest
  ``(timestamp, source)`` key once it has heard, from *every* member of the
  group, some message (heartbeats included) with timestamp >= that key's
  timestamp — nothing earlier can still arrive, because RMP guarantees
  per-source contiguity and clocks are per-source monotonic.  For its own
  stream a member needs no message: its ordering clock never stamps at or
  below what it has observed, so it is past every queued message but
  those of its own still on their way back (:meth:`ROMP._cover_own`).

Suspect and Membership messages are reliable but *not* totally ordered
(Figure 3): they bypass the ordering queue and go straight to PGMP — they
must keep flowing precisely when ordering is stalled by a faulty member.

ROMP also owns the positive-acknowledgement machinery: the ack timestamp
stamped on every outgoing message is the timestamp of this processor's
latest totally-ordered delivery (by the delivery rule, everything at or
below it has been received from all members), and the minimum ack heard
across members drives retransmission-buffer garbage collection (§6).
A processor on its way into or out of the view may still need messages
the members have all acknowledged, so it counts too, with the ack heard
from it: a row of the group's member lifecycle table (:class:`Peer`).

Hot-path engineering: the delivery gate and the stability rule are both
"min over the membership of a per-member monotonic counter".  Instead of
rescanning the membership on every received message, ROMP keeps two lazy
min-heaps (:attr:`_cover_heap` over ``_order_ts``, :attr:`_ack_heap` over
the advertised acks).  Because the tracked values only ever increase, an
update pushes the new value and the query pops entries that no longer
match the live dict — amortized O(log n) per message instead of O(n)
scans at the queue head.  The heaps are rebuilt wholesale whenever the
membership tuple changes (views are rare; the rebuild is one O(n) pass),
which the query detects by tuple identity.  The ordering queue keeps a
per-source index (``_by_src``) so per-source queries and purges no longer
scan the whole queue.

The common case — an in-order message from a member while no safe hold,
§7 barrier or view change is pending — takes one pass: the header is
folded in once per datagram (:meth:`observe_header` leaves a one-shot
token that :meth:`receive` / :meth:`receive_heartbeat` consume instead
of observing again), the gate peeks the cover heap in line, and the
stability timestamp is computed once per acknowledgement advance and
handed to its three consumers (DESIGN.md, "Receive fast path").

This class is the default ordering discipline.  One that decides the
order differently subclasses it and replaces the methods marked
"discipline hook"; the clock / cover / ack / stability / GC / §7-barrier
bookkeeping is shared (DESIGN.md, "Two seams").
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Deque,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Tuple,
)

from .constants import TOTALLY_ORDERED_TYPES, MessageType
from .messages import FTMPHeader, FTMPMessage, HeartbeatMessage

if TYPE_CHECKING:  # pragma: no cover
    from .datapath import GroupContext

__all__ = ["ROMP", "ROMPStats", "Peer"]

#: member lifecycle states (DESIGN.md, "Member lifecycle")
JOINING, MEMBER, LEAVING, DEPARTED, LINGERING = (
    "joining", "member", "leaving", "departed", "lingering")


@dataclass
class ROMPStats:
    """Ordering-layer counters (read by E1/E2/E4)."""

    ordered_deliveries: int = 0
    bypass_deliveries: int = 0  #: Suspect/Membership handed straight to PGMP
    max_queue_depth: int = 0
    gc_runs: int = 0
    messages_reclaimed: int = 0


@dataclass
class Peer:
    """A row of a group's member lifecycle table (``GroupContext.peers``,
    pid -> row): a processor on its way into or out of the view, or, in a
    group we linger in, ourselves and each member we wait for.  What each
    state counts toward, holds and is ended by: DESIGN.md, "Member
    lifecycle"."""

    state: str
    key: object  #: a joiner's AddProcessor (timestamp, source), else a removal's timestamp
    ack: int = 0  #: a leaver's, heard since its removal
    heard: float = 0.0  #: when a departed peer was last heard, or our linger began


class ROMP:
    """One ROMP instance per (processor, group) pair."""

    #: discipline hook — ``(registry section, stats)`` pairs registered
    #: next to ``romp`` for a discipline's own counters
    extra_stats: Tuple[Tuple[str, object], ...] = ()

    #: discipline hook — a member that receives a connection Regular
    #: heartbeats at once (the datapath's cover heartbeat), because the
    #: §6 gate waits until every member is heard past it
    covers_connections = True

    @staticmethod
    def _release(g: "GroupContext", msg: FTMPMessage) -> None:
        """Discipline hook — hand one message upward at its decided
        position.  The one copy of this dispatch: a discipline that
        decides positions itself still releases through it."""
        if msg.header.message_type == MessageType.REGULAR:
            g.deliver_regular(msg)  # type: ignore[arg-type]
        else:
            # Connect / AddProcessor / RemoveProcessor reach PGMP at their
            # position in the total order, so every member applies the
            # membership change at the same point in the message stream.
            g.pgmp_receive_ordered(msg)

    def __init__(self, group: "GroupContext",
                 stability_floor: Optional[Callable[[], int]] = None):
        self._g = group
        self._pid = group.pid
        #: max timestamp of the contiguous message stream per source
        self._order_ts: Dict[int, int] = {}
        #: latest ack timestamp advertised by each source
        self._peer_ack: Dict[int, int] = {}
        #: ordering queue: (timestamp, source, insertion seq, message)
        self._queue: List[Tuple[int, int, int, FTMPMessage]] = []
        self._queue_keys: set = set()  #: (ts, src) pairs currently queued
        #: per-source queue index: src -> {timestamp: sequence number}
        self._by_src: Dict[int, Dict[int, int]] = {}
        self._insertion = 0
        #: my positive acknowledgment: ts of the latest ordered delivery
        self._ack = 0
        #: quiescence barrier after a Connect (§7): no ordered sends until
        #: every member has been heard past this timestamp
        self._send_barrier: Optional[int] = None
        #: ordered messages from sources not (yet) in the membership,
        #: flushed into the queue when an AddProcessor admits the source
        self._staging: Dict[int, List[FTMPMessage]] = {}
        self._STAGING_CAP = 4096
        #: safe-delivery hold queue: ordered Regulars awaiting stability
        self._unsafe: Deque[FTMPMessage] = deque()
        #: highest stability timestamp already reported upward (the
        #: flow-control credit window recycles on this signal)
        self._stable_notified = 0
        #: fault-view drain (§7.2): (survivor set, cut timestamp, synced
        #: per-source sequence vector) while a synced fault view waits to
        #: be installed
        self._transition: Optional[Tuple[FrozenSet[int], int, Dict[int, int]]] = None
        #: convicted source -> the sequence number our Membership message
        #: reported for it: held past it until the round's drain begins
        self._held: Dict[int, int] = {}
        #: source -> (sequence number, view key): its messages past that
        #: number ordered before that key are dropped (:meth:`cut_old_view`)
        self._cut: Dict[int, Tuple[int, Tuple[int, int]]] = {}
        #: membership tuple the incremental min trackers were built for;
        #: compared by identity (membership tuples are replaced, never
        #: mutated), so the steady-state staleness check is one ``is``
        self._gate_members: Optional[Tuple[int, ...]] = None
        self._gate_set: FrozenSet[int] = frozenset()
        #: lazy min-heap of (order_ts, pid) entries over the membership
        self._cover_heap: List[Tuple[int, int]] = []
        #: lazy min-heap of (ack, pid) entries over the membership
        self._ack_heap: List[Tuple[int, int]] = []
        #: the header :meth:`observe_header` folded in last, until the
        #: receive call for the same datagram consumes it
        self._observed: Optional[FTMPHeader] = None
        #: the min trackers were rebuilt since stability was last reported
        #: upward: it may have jumped without any acknowledgement moving
        self._stability_stale = False
        #: the minimum ack over the membership when stability was last
        #: computed: an ack advance from above it cannot move stability
        self._ack_min = 0
        #: timestamps of our totally-ordered messages, oldest first, sent
        #: but perhaps not yet received back (:meth:`_cover_own`)
        self._own_sent: Deque[int] = deque()
        #: out-of-band lower bound on stability supplied by the
        #: dissemination (a sound underestimate over the same membership),
        #: folded into :meth:`stability_timestamp`; None = acks only
        self._floor = stability_floor
        #: safe delivery: ordered Regulars wait in ``_unsafe`` until stable
        self._safe = group.config.delivery_mode == "safe"
        self.stats = ROMPStats()

    # ------------------------------------------------------------------
    # incremental gate/stability min tracking
    # ------------------------------------------------------------------
    def _sync_gate(self) -> None:
        """Rebuild the min trackers for a replaced membership tuple.

        Callers test ``self._g.membership is not self._gate_members``
        first — one identity comparison in the steady state.
        """
        m = self._g.membership
        self._gate_members = m
        self._gate_set = frozenset(m)
        cover = [(self._order_ts.get(p, 0), p) for p in m]
        heapq.heapify(cover)
        self._cover_heap = cover
        pid = self._pid
        acks = [
            (self._ack if p == pid else self._peer_ack.get(p, 0), p) for p in m
        ]
        heapq.heapify(acks)
        self._ack_heap = acks
        self._stability_stale = True

    def _cover_ts(self) -> Optional[int]:
        """Min of ``_order_ts`` over the membership; None when it is empty.

        Amortized O(1): stale heap entries (superseded by a later advance)
        are popped on sight; every member always has its current value on
        the heap, so the first live entry is the true minimum.
        """
        if self._g.membership is not self._gate_members:
            self._sync_gate()
        if not self._gate_set:
            return None
        heap = self._cover_heap
        order = self._order_ts
        while heap:
            ts, p = heap[0]
            if order.get(p, 0) == ts:
                return ts
            heapq.heappop(heap)
        return 0  # unreachable in practice: every member keeps a live entry

    # ------------------------------------------------------------------
    # observation of every datagram (clock, acks, liveness)
    # ------------------------------------------------------------------
    def observe_header(self, h: FTMPHeader) -> None:
        """Fold in clock/ack/liveness information from any received header."""
        self._g.clock.observe(h.timestamp)
        src = h.source
        ack = h.ack_timestamp
        heard = self._peer_ack.get(src, 0)
        if ack > heard:
            self._peer_ack[src] = ack
            if src in self._gate_set:
                heapq.heappush(self._ack_heap, (ack, src))
            if heard <= self._ack_min or self._collect_forced():
                self._maybe_collect()
        self._g.note_alive(src)
        self._observed = h

    # ------------------------------------------------------------------
    # inputs from RMP
    # ------------------------------------------------------------------
    def receive(self, msg: FTMPMessage) -> None:
        """A reliable message, delivered by RMP in source order.

        The receive path has already observed the header of the datagram
        it is feeding through RMP; a message RMP had parked, or one
        handed in directly, is observed here.
        """
        h = msg.header
        if h is self._observed:
            self._observed = None
        else:
            self.observe_header(h)
        src = h.source
        ts = h.timestamp
        if ts > self._order_ts.get(src, 0):
            self._order_ts[src] = ts
            if src in self._gate_set:
                heapq.heappush(self._cover_heap, (ts, src))
        if self._g.membership is not self._gate_members:
            self._sync_gate()
        if h.message_type in TOTALLY_ORDERED_TYPES:
            if h.message_type is MessageType.ADD_PROCESSOR:
                self.hold_for_joiner(msg)
            if not self._take_ordered(msg):
                return
        else:
            # Suspect / Membership: reliable, source-ordered, NOT total order
            if src not in self._gate_set:
                return  # stale control traffic from an evicted processor
            self.stats.bypass_deliveries += 1
            self._g.pgmp.on_source_ordered(msg)
        self.evaluate()

    def _take_ordered(self, msg: FTMPMessage) -> bool:
        """Discipline hook — take one totally-ordered message from RMP;
        False when that left nothing to evaluate."""
        h = msg.header
        ts = h.timestamp
        src = h.source
        if src not in self._gate_set:
            # A source that is not (yet) a member: stage its ordered
            # messages until an AddProcessor admits it — never let a
            # non-member block the head of the ordering queue.
            stage = self._staging.setdefault(src, [])
            if len(stage) < self._STAGING_CAP:
                stage.append(msg)
            return False
        if self._cut and src in self._cut:
            seq, view = self._cut[src]
            if (ts, src) > view:
                del self._cut[src]  # the new view's: so is all that follows
            elif h.sequence_number > seq:
                return False
        key = (ts, src)
        if key in self._queue_keys:
            return True
        self._queue_keys.add(key)
        index = self._by_src.get(src)
        if index is None:
            index = self._by_src[src] = {}
        index[ts] = h.sequence_number
        queue = self._queue
        heapq.heappush(queue, (ts, src, self._insertion, msg))
        self._insertion += 1
        depth = len(queue)
        if depth > self.stats.max_queue_depth:
            self.stats.max_queue_depth = depth
        return True

    def receive_run(self, run: Sequence[FTMPMessage], start: int,
                    stop: int) -> Tuple[int, bool]:
        """Discipline hook — take ``run[start:stop]``, consecutive in-order
        Regulars of one source out of one datagram, up to the first one
        after which the gate has to be entered.

        Per message exactly what :meth:`observe_header`, RMP's retention
        and :meth:`receive` do, in that order, except :meth:`evaluate`:
        returns ``(taken, due)`` with the gate *not* entered, ``due``
        telling the caller to enter it once its own state covers the
        ``taken`` messages — so
        whatever the gate delivers into sees every layer at the same
        message.  The gate is due when it could do more than look at the
        head and leave: a safe hold, a fault-view drain, stale stability,
        an out-of-band floor or a send barrier exists, or the live cover
        minimum has reached the head's timestamp.  ``note_alive`` once
        per datagram (``start == 0``): its second call at the same
        instant rewrites what the first wrote.  A discipline that
        replaces :meth:`_take_ordered` or :meth:`evaluate` replaces this
        too; ``(0, False)`` has the caller feed the run message by
        message.
        """
        g = self._g
        observe = g.clock.observe
        retain = g.buffer.add
        peer_ack = self._peer_ack
        order = self._order_ts
        src = run[start].header.source
        # what has been heard of ``src``: nothing but this loop writes
        # its two entries before the gate is entered
        heard_ack = peer_ack.get(src, 0)
        heard_ts = order.get(src, 0)
        forced = bool(self._unsafe or self._transition is not None
                      or self._stability_stale or self._floor is not None
                      or self._send_barrier is not None)
        for i in range(start, stop):
            msg = run[i]
            h = msg.header
            ts = h.timestamp
            observe(ts)
            ack = h.ack_timestamp
            if ack > heard_ack:
                held_min = heard_ack <= self._ack_min
                heard_ack = peer_ack[src] = ack
                if src in self._gate_set:
                    heapq.heappush(self._ack_heap, (ack, src))
                if held_min or self._collect_forced():
                    self._maybe_collect()
            if i == 0:
                g.note_alive(src)
            retain(src, h.sequence_number, msg)
            if ts > heard_ts:
                heard_ts = order[src] = ts
                if src in self._gate_set:
                    heapq.heappush(self._cover_heap, (ts, src))
            if g.membership is not self._gate_members:
                self._sync_gate()
                forced = True  # the rebuild left stability stale
            if not self._take_ordered(msg):
                continue  # a non-member's: staged, nothing to evaluate
            if forced:
                return i + 1 - start, True
            # evaluate()'s own first look: the live cover minimum against
            # the head, our own entry raised to the own cover when it is
            # the minimum
            head = self._queue[0][0]
            heap = self._cover_heap
            while heap:
                cover, p = heap[0]
                if order.get(p, 0) != cover:
                    heapq.heappop(heap)
                elif cover >= head:
                    return i + 1 - start, True
                elif p != self._pid or self._cover_own() == cover:
                    break
        return stop - start, False

    def receive_heartbeat(self, msg: HeartbeatMessage) -> None:
        """A heartbeat whose seq is contiguous with its source's stream."""
        h = msg.header
        if h is self._observed:
            self._observed = None
        else:
            self.observe_header(h)
        self.adopt_order_progress(h.source, h.timestamp)
        self.evaluate()

    # ------------------------------------------------------------------
    # the total-order delivery rule
    # ------------------------------------------------------------------
    def evaluate(self) -> None:
        """Discipline hook — the §6 rule: deliver every queue message
        whose timestamp is covered by all members."""
        g = self._g
        if self._unsafe:
            # membership/ack changes may unblock safe holds
            self._release_safe(self.stability_timestamp())
        queue = self._queue
        order = self._order_ts
        safe = self._safe
        delivered_any = False
        while True:
            # a dispatched view change replaces the membership tuple
            if g.membership is not self._gate_members:
                self._sync_gate()
            if not queue:
                break
            ts, src, _ins, msg = queue[0]
            if self._transition is not None:
                # Fault-view drain (§7.2): the old view's messages are
                # delivered gated only on the survivors — the convicted
                # member's stream counts up to its synced prefix only —
                # and nothing of the *new* view is delivered until the
                # view is installed, so every survivor cuts its delivery
                # history at exactly the same timestamp.
                survivors, cut, synced = self._transition
                if ts > cut:
                    break
                if (src not in survivors and src in synced
                        and self._by_src[src][ts] > synced[src]):
                    # past the synced prefix (a convicted member back from
                    # a crash sends on): not every survivor holds it, and
                    # the install purges it
                    self._drop_keys(src, (ts,))
                    queue = self._queue
                    continue
                if src not in self._gate_set:
                    break
                if order.get(self._pid, 0) < ts:
                    self._cover_own()
                if not all(order.get(p, 0) >= ts for p in survivors):
                    break
            else:
                if src not in self._gate_set:
                    # A not-yet-added member's message: it always follows the
                    # AddProcessor (smaller timestamp) in the queue; if the
                    # source will never join, the view change purges it.
                    break
                if self._held and src in self._held and (
                        self._by_src[src][ts] > self._held[src]):
                    break  # past what we reported of a convicted member
                if self._gate_set:
                    # _cover_ts() in line: min of ``_order_ts`` over the
                    # members, superseded heap entries popped on sight
                    heap = self._cover_heap
                    while heap:
                        cover, p = heap[0]
                        if order.get(p, 0) == cover:
                            break
                        heapq.heappop(heap)
                    else:
                        cover, p = 0, None
                    if cover < ts:
                        if p != self._pid or self._cover_own() == cover:
                            break
                        continue  # our own entry was the minimum: raised
            heapq.heappop(queue)
            self._queue_keys.discard((ts, src))
            index = self._by_src.get(src)
            if index is not None:
                index.pop(ts, None)
                if not index:
                    del self._by_src[src]
            if ts > self._ack:
                self._ack = ts
                if self._pid in self._gate_set:
                    heapq.heappush(self._ack_heap, (ts, self._pid))
            self.stats.ordered_deliveries += 1
            delivered_any = True
            if safe and msg.header.message_type == MessageType.REGULAR:
                # hold until the ack timestamps prove every member has it
                self._unsafe.append(msg)
                self._release_safe(self.stability_timestamp())
            else:
                self._release(g, msg)
        if delivered_any:
            self._maybe_collect()
        elif self._stability_stale or self._floor is not None:
            # Stability can jump without an acknowledgement moving — a
            # fault view removing the slowest member, an out-of-band
            # floor — and every acknowledgement advance reports it on the
            # spot.
            self._notify_stability(self.stability_timestamp())
        if self._send_barrier is not None:
            self._check_send_barrier()

    # ------------------------------------------------------------------
    # acknowledgements & buffer management
    # ------------------------------------------------------------------
    @property
    def ack_timestamp(self) -> int:
        """Value stamped into the ack field of every outgoing message."""
        return self._ack

    def stability_timestamp(self) -> int:
        """Everything at/below this timestamp is stable (§6).

        The min over members of their directly heard acks — amortized
        O(1) via the lazy ack min-heap (acks only increase) — raised to
        the dissemination's out-of-band floor where one exists, so
        stability keeps advancing even when most members never hear each
        other's acks directly.
        """
        if self._g.membership is not self._gate_members:
            self._sync_gate()
        stable = 0
        if self._gate_set:
            heap = self._ack_heap
            pid = self._pid
            peer = self._peer_ack
            while heap:  # every member keeps a live entry: ends by break
                ack, p = heap[0]
                if (self._ack if p == pid else peer.get(p, 0)) == ack:
                    stable = ack
                    break
                heapq.heappop(heap)
        self._ack_min = stable
        floor = self._floor
        if floor is not None:
            stable = max(stable, floor())
        if self._g.peers:
            outsiders = self._outsiders_ack()
            if outsiders is not None and outsiders < stable:
                stable = outsiders
        return stable

    def _outsiders_ack(self) -> Optional[int]:
        """The lowest ack of the lifecycle rows counting in stability;
        None when none does.  A joiner the view admitted is a member from
        then on."""
        peers = self._g.peers
        acks = []
        for pid, peer in list(peers.items()):
            if peer.state is LEAVING:
                acks.append(peer.ack)
            elif peer.state is JOINING:
                if pid in self._gate_set:
                    del peers[pid]
                else:
                    acks.append(self._peer_ack.get(pid, 0))
        return min(acks, default=None)

    def hold_for_joiner(self, msg: FTMPMessage) -> None:
        """-> joining: an AddProcessor was sent or received.  Its member
        counts in stability until it is ordered (§6), lest what was in
        flight when it was built, above the baseline it gives the joiner,
        be reclaimed before the view that holds it for the joiner."""
        new = msg.new_member  # type: ignore[attr-defined]
        key = (msg.header.timestamp, msg.header.source)
        peer = self._g.peers.get(new)
        if new != self._pid and (peer is None or peer.state is not JOINING
                                 or key > peer.key):
            self._g.peers[new] = Peer(JOINING, key)

    def settle_joiner(self, new_member: int, key: Tuple[int, int]) -> None:
        """The AddProcessor ``key`` naming ``new_member`` was ordered: the
        view admitted it, or the add was abandoned (re-issued, or nobody
        will)."""
        if self._g.peers.get(new_member) == Peer(JOINING, key):
            del self._g.peers[new_member]

    def hold_for_leaver(self, pid: int, removal_ts: int) -> None:
        """-> leaving: ``pid``'s removal at ``removal_ts`` was ordered here;
        until it acknowledges past it, it has not ordered it and may still
        NACK what it needs to (§6)."""
        ack = self._peer_ack.get(pid, 0)
        if ack < removal_ts:
            self._g.peers[pid] = Peer(LEAVING, removal_ts, ack)

    def cover_timestamp(self) -> int:
        """Public cover accessor: the stream heard contiguously from every
        member (a dissemination's per-member aggregation input)."""
        cover = self._cover_ts()
        return 0 if cover is None else cover

    def _cover_own(self) -> int:
        """Raise our own stream's entry to the own cover; return the entry.

        The §6 gate waits for a message timestamped past the head from
        every member.  For ourselves the ordering clock says it: it never
        stamps at or below what it has observed (``tick() > time``, in
        both clock modes), so all we will still send lies past
        ``clock.time``.  What we sent and have not received back — in the
        batch window or on the loopback — is not queued yet: the own
        cover stays below the earliest such message.  It never decreases.
        A joining member keeps its loopbacked heartbeats (§7.1).
        (Discipline hook: a discipline that orders by another stream
        keeps the loopback.)
        """
        pid = self._pid
        top = self._order_ts.get(pid, 0)
        if self._g.joining:
            return top
        own = self._own_sent
        while own and own[0] <= top:
            own.popleft()  # received back
        cover = own[0] - 1 if own else self._g.clock.time
        if cover <= top:
            return top
        self._order_ts[pid] = cover
        if pid in self._gate_set:
            heapq.heappush(self._cover_heap, (cover, pid))
        return cover

    def on_own_send(self, msg: FTMPMessage) -> None:
        """Discipline hook — one of our totally-ordered messages just went
        to the wire, or into the batch window: the own cover stays below
        it until it is received back."""
        own = self._own_sent
        top = self._order_ts.get(self._pid, 0)
        while own and own[0] <= top:
            own.popleft()
        own.append(msg.header.timestamp)

    def adopt_order_progress(self, src: int, ts: int) -> None:
        """Advance ``src``'s contiguous-stream timestamp to ``ts``.

        Sound only when nothing below ``ts`` can still arrive from
        ``src``: a heartbeat contiguous with the stream, or a relayed §6
        progress entry whose sequence number the caller has verified
        local contiguity through (the entry claims every message from
        ``src`` with timestamp <= ``ts`` has seq <= that number).
        """
        if ts > self._order_ts.get(src, 0):
            self._order_ts[src] = ts
            if src in self._gate_set:
                heapq.heappush(self._cover_heap, (ts, src))

    def recheck_stability(self) -> None:
        """The out-of-band floor may have advanced without new deliveries:
        re-run GC / safe-release / credit notification."""
        self._maybe_collect()

    def _collect_forced(self) -> bool:
        """Stability can move on an ack advance by a member that did not
        hold the minimum ack: a floor, a lifecycle row, a safe hold, a
        rebuild or a new membership tuple may have moved it meanwhile."""
        return bool(self._floor is not None or self._g.peers or self._unsafe
                    or self._stability_stale
                    or self._g.membership is not self._gate_members)

    def _maybe_collect(self) -> None:
        """An acknowledgement advanced: compute stability once and hand it
        to safe release, credit notification and buffer GC."""
        stable = self.stability_timestamp()
        if self._unsafe:
            self._release_safe(stable)
        self._notify_stability(stable)
        if stable > 0 and self._g.config.buffer_gc_enabled:
            reclaimed = self._g.buffer.collect(stable)
            if reclaimed:
                self.stats.gc_runs += 1
                self.stats.messages_reclaimed += reclaimed

    def _notify_stability(self, stable: int) -> None:
        """Report a stability advance upward (flow-control credit releases)."""
        self._stability_stale = False
        if stable > self._stable_notified:
            self._stable_notified = stable
            self._g.flow.on_stability(stable)

    def _release_safe(self, stable: int) -> None:
        while self._unsafe and self._unsafe[0].header.timestamp <= stable:
            msg = self._unsafe.popleft()
            self._g.deliver_regular(msg)  # type: ignore[arg-type]

    def unsafe_held(self) -> int:
        """Messages totally ordered but awaiting stability (safe mode)."""
        return len(self._unsafe)

    # ------------------------------------------------------------------
    # quiescence barrier after Connect (§7)
    # ------------------------------------------------------------------
    def set_send_barrier(self, timestamp: int) -> None:
        """Block ordered sends until all members are heard past ``timestamp``."""
        if self._send_barrier is None or timestamp > self._send_barrier:
            self._send_barrier = timestamp
        self._check_send_barrier()

    def can_send_ordered(self) -> bool:
        """True when no Connect barrier is pending (§7 quiescence rule)."""
        return self._send_barrier is None

    def _check_send_barrier(self) -> None:
        if self._send_barrier is None:
            return
        barrier = self._send_barrier
        if self._order_ts.get(self._pid, 0) <= barrier:
            self._cover_own()
        cover = self._cover_ts()
        if cover is None:
            # an empty membership (e.g. a still-joining group) must NOT
            # clear the §7 quiescence barrier — it holds until real
            # members have actually been heard past it
            return
        if cover > barrier:
            self._send_barrier = None
            self._g.flow.drain()

    # ------------------------------------------------------------------
    # fault-view transition drain (§7.2)
    # ------------------------------------------------------------------
    def hold_past(self, reported: Dict[int, int]) -> None:
        """Hold each convicted source's messages past the sequence number
        our Membership message ``reported`` for it (§7.2).

        The round's targets are at least what we reported, so nothing we
        deliver meanwhile can lie past the synced prefix every survivor
        cuts at; what lies between the two is delivered by the drain.
        :meth:`begin_transition` replaces the hold with the targets, a
        superseding round with its own, :meth:`end_transition` ends it.
        (Discipline hook, with :meth:`begin_transition`: LeaderOrdering
        parks every decision while a fault round is open, which holds
        these too.)
        """
        self._held = dict(reported)

    def begin_transition(self, survivors: FrozenSet[int], cut_ts: int,
                         targets: Optional[Dict[int, int]] = None) -> None:
        """Start draining the old view's messages before a fault view.

        Until :meth:`end_transition`, queued messages with timestamp <=
        ``cut_ts`` are delivered gated only on ``survivors`` (waiting on
        the convicted member would stall forever), and messages of the new
        view (timestamp > ``cut_ts``) are held back.  All survivors agree
        on ``cut_ts``, so their
        delivery histories cut at exactly the same point — the virtual
        synchrony guarantee the oracles check.

        ``targets`` is the synchronized per-source sequence vector of the
        round: a convicted member's messages past it are dropped, not
        drained — it can come back from a crash and send on.  (Discipline
        hook, with :meth:`end_transition` and :meth:`transition_drained`;
        a discipline whose cut is a sequence number cuts at ``targets``.)
        """
        self._transition = (frozenset(survivors), cut_ts, dict(targets or {}))
        self._held = {}
        self.evaluate()

    def end_transition(self) -> None:
        self._transition = None
        self._held = {}

    def cut_old_view(self, synced: Dict[int, int], view: Tuple[int, int]) -> None:
        """The membership change ordered at key ``view`` installed a view
        other than the fault view while a drain was delivering the old
        view past each convicted source's ``synced`` prefix.  What such a
        source sent past it ordered before ``view`` is the old view's —
        it could only be delivered out of order — so it is dropped,
        queued or yet to come.  (Discipline hook.)"""
        for src, seq in synced.items():
            if src in self._g.membership:
                self._cut[src] = (seq, view)
                index = self._by_src.get(src, {})
                self._drop_keys(src, [ts for ts, s in index.items()
                                      if s > seq and (ts, src) < view])

    def transition_drained(self, cut_ts: int) -> bool:
        """True when every old-view message has been delivered — i.e. the
        head of the queue (if any) already belongs to the new view."""
        return not self._queue or self._queue[0][0] > cut_ts

    # ------------------------------------------------------------------
    # membership-change support
    # ------------------------------------------------------------------
    def purge_source(self, src: int) -> None:
        """Forget a departed member; :meth:`purge_queue_of` drops what it
        left queued."""
        self._order_ts.pop(src, None)
        self._peer_ack.pop(src, None)
        self._staging.pop(src, None)
        self._cut.pop(src, None)
        # an add the departed member sponsored and nobody will order
        peers = self._g.peers
        for new, peer in list(peers.items()):
            if peer.state is JOINING and peer.key[1] == src:
                del peers[new]
        # the min trackers may hold entries for the purged source whose
        # live value just vanished; force a rebuild at the next query
        self._gate_members = None

    def flush_staging(self, src: int) -> None:
        """Move a freshly admitted member's staged messages into the queue.

        Deliberately does NOT evaluate: the caller (view installation)
        evaluates after the view-change listener has fired, so state
        captured "at the view change" really precedes the first delivery
        of the new view.
        """
        if self._g.membership is not self._gate_members:
            self._sync_gate()  # the admitted source must queue, not re-stage
        for msg in self._staging.pop(src, ()):  # preserves arrival (seq) order
            self._take_ordered(msg)

    def _drop_keys(self, src: int, timestamps) -> int:
        """Remove the given (timestamp, ``src``) keys from the queue."""
        doomed = set(timestamps)
        if not doomed:
            return 0
        self._queue = [
            e for e in self._queue if not (e[1] == src and e[0] in doomed)
        ]
        heapq.heapify(self._queue)
        for ts in doomed:
            self._queue_keys.discard((ts, src))
        index = self._by_src.get(src)
        if index is not None:
            for ts in doomed:
                index.pop(ts, None)
            if not index:
                del self._by_src[src]
        return len(doomed)

    def purge_queue_of(self, src: int) -> int:
        """Discipline hook — drop queued (undeliverable) messages from a
        departed source."""
        return self._drop_keys(src, list(self._by_src.get(src, ())))

    def order_ts(self, src: int) -> int:
        """Timestamp up to which ``src``'s stream has been heard contiguously."""
        return self._order_ts.get(src, 0)

    def queued(self) -> int:
        """Discipline hook — messages taken from RMP but not yet released."""
        return len(self._queue)

    # ------------------------------------------------------------------
    # discipline hooks: lifecycle notifications, no-ops under the §6 rule
    # ------------------------------------------------------------------
    def leader(self) -> Optional[int]:
        """The processor deciding the order, if the discipline has one."""
        return None

    def begin_install(self) -> None:
        """A view installation started (before the membership changes)."""

    def on_view_installed(self, prev_membership: Tuple[int, ...], reason: str) -> None:
        """A view was installed; the view-change listener has already run."""

    def on_join_completed(self) -> None:
        """Our own ordered join just completed."""

    def abort_origin(self, origin: int) -> None:
        """A fault view convicted ``origin``: what it left undecided stays so."""
