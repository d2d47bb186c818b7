"""Overlay dissemination and aggregated stability (extension).

The paper assumes one LAN with IP multicast: every Regular fans out to
all members, and §6 stability waits for an ack timestamp from *every*
member, so both datagram cost and the stability path grow linearly with
group size.  Overlay-based atomic multicast (cf. FlexCast, arXiv
2309.14074) keeps dissemination genuine while routing through a tree;
``FTMPConfig.dissemination = "tree"`` selects that discipline here:

* **tree derivation.**  The members are arranged into a deterministic
  k-ary tree over the *sorted* current membership: the member at sorted
  index ``i`` has parent ``(i-1)//k`` and children ``k*i+1 .. k*i+k``.
  Every member derives the identical tree from the identical view, and
  the tree is recomputed at every view install — PGMP membership stays
  the single source of truth.  Between views, a member that *suspects* a
  processor provisionally recomputes its tree without the suspect, so a
  crashed interior relay is routed around long before the §7.2 round
  evicts it.

* **dissemination.**  A member's own first-transmission Regular / Batch
  datagrams go to its tree neighbours (and itself) as unicasts instead
  of the flat group fan-out; an interior relay forwards each datagram
  once to every neighbour except the one it arrived from.  The flat
  group address stays joined and everything else — NACKs,
  retransmissions, Suspect/Membership/Add/Remove, the §7.2 drain —
  stays flat multicast, so recovery and reconfiguration are exactly the
  paper's machinery.

* **aggregated stability.**  Instead of every member observing every
  other member's acks, each member periodically sends one compact
  :class:`~.messages.AckSummaryMessage` per tree edge.  The summary to
  neighbour ``n`` carries the minimum ack/cover timestamp over *this*
  side of the ``(self, n)`` edge — own values folded with the latest
  summaries from every other neighbour — so each member learns the
  group-wide stability floor in O(depth) hops and O(k) messages per
  interval.  A floor over an incomplete scope is never guessed: until
  every other neighbour has reported (and whenever the local tree
  excludes a suspect), the edge reports ``0`` ("unknown") and
  :meth:`stability_floor` falls back to the legacy §6 minimum — an
  underestimate is always sound for GC and flow-control credits.

* **progress + liveness entries.**  Each summary also carries per-source
  ``(pid, seq, ts)`` progress entries for the members on the sender's
  side of the edge (see :class:`~.messages.AckSummaryMessage`).  They
  serve double duty: a receiver *adopts* progress (NACK-recover to
  ``seq``, then advance the source's order timestamp to ``ts``, keeping
  the §6 cover gate moving without all-pair heartbeats), and an entry's
  mere presence is transitive liveness evidence — heartbeats are
  suppressed in overlay mode, so a member refreshes its fault-detector
  deadline for distant members from the entries that keep flowing
  toward it.  Evidence is only forwarded while fresh (half the suspect
  timeout), and only *away* from its subject over the tree, so a dead
  member's listings drain hop-by-hop and every member's detector still
  times out — PGMP's majority-conviction rule keeps working.
  Transitively heard members get an extra grace of one suspect timeout
  on top (evidence crosses up to ``depth`` hops of summary intervals).

:class:`OverlayDissemination` is a :class:`~.dissemination.Dissemination`
(DESIGN.md, "Two seams"), constructed only under ``dissemination="tree"``;
under the default ``"flat"`` the group holds the base class.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Deque, Dict, Optional, Set, Tuple

from .constants import MessageType
from .dissemination import LOOPBACK, Dissemination, Receive, Transmit
from .messages import AckSummaryMessage, FTMPMessage

if TYPE_CHECKING:  # pragma: no cover
    from .datapath import ProcessorGroup

__all__ = ["OVERLAY_UNICAST_BASE", "OverlayStats", "OverlayDissemination",
           "unicast_address", "tree_links"]

#: Base of the per-member unicast address space: member ``p`` of the group
#: at flat address ``a`` listens on ``BASE + a * 65536 + p``.  Computed
#: from the *current* group address at send time, so a §7 Connect
#: migration moves the whole unicast family with the group.
OVERLAY_UNICAST_BASE = 0x40000000

# wire-format facts used to classify raw datagrams without decoding
# (offsets fixed by the §3.2 header layout in repro.core.wire)
_TYPE_OFFSET = 7
_FLAGS_OFFSET = 6
_FLAG_RETRANSMISSION = 0x02
_REGULAR = int(MessageType.REGULAR)
_BATCH = int(MessageType.BATCH)

#: relay dedupe LRU depth (suppresses duplicate forwards and transient
#: routing ping-pong while trees are momentarily inconsistent)
_RELAY_SEEN_CAP = 4096


def unicast_address(group_address: int, pid: int) -> int:
    """The overlay unicast address of ``pid`` in the group at ``group_address``."""
    return OVERLAY_UNICAST_BASE + group_address * 65536 + pid


def tree_links(members: Tuple[int, ...], fanout: int, pid: int
               ) -> Tuple[Optional[int], Tuple[int, ...], Dict[int, int]]:
    """Derive ``pid``'s (parent, children, toward) in the k-ary tree.

    ``members`` must be sorted; index ``i`` has parent ``(i-1)//k`` and
    children ``k*i+1 .. k*i+k``.  ``toward`` maps every other member to
    the tree neighbour on the path to it (the routing table for relay
    scoping and directional liveness).
    """
    k = max(1, fanout)
    index = {p: j for j, p in enumerate(members)}
    i = index.get(pid)
    if i is None or len(members) < 2:
        return None, (), {}
    n = len(members)
    parent = members[(i - 1) // k] if i > 0 else None
    first = k * i + 1
    children = tuple(members[j] for j in range(first, min(first + k, n)))
    toward: Dict[int, int] = {}
    for j, p in enumerate(members):
        if j == i:
            continue
        a, prev = j, j
        while a != i and a != 0:
            prev, a = a, (a - 1) // k
        if a == i:
            toward[p] = members[prev]  # p is in our subtree, via that child
        else:
            # climbed to the root without meeting us: p is beyond the parent
            toward[p] = parent  # type: ignore[assignment]  # i > 0 here
    return parent, children, toward


@dataclass
class OverlayStats:
    """Overlay dissemination counters (read by E21 and the oracles)."""

    tree_rebuilds: int = 0  #: view installs + provisional suspect reroutes
    regulars_tree_routed: int = 0  #: own first-transmission unicast copies
    relayed_copies: int = 0  #: datagram copies forwarded as a relay
    relay_skips_unrouted: int = 0  #: arrivals from sources not in our tree
    summaries_sent: int = 0
    summaries_received: int = 0
    entries_received: int = 0  #: progress entries folded in
    progress_adoptions: int = 0  #: order-timestamp advances from entries
    gap_disclosures: int = 0  #: NACK recoveries triggered by entries
    liveness_refreshes: int = 0  #: fault-detector refreshes from entries
    floor_advances: int = 0  #: aggregated stability floor advances


class OverlayDissemination(Dissemination):
    """Per-group overlay engine: tree routing + aggregated stability.

    Holds the tree, the per-edge aggregation scope state, the per-source
    progress vector and the transitive liveness evidence clock.
    """

    #: the periodic per-edge AckSummaries are the keepalive — their
    #: headers carry the same live seq/ts/ack a Heartbeat would
    replaces_heartbeats = True

    def __init__(self, group: "ProcessorGroup"):
        self._g = group
        self.stats = OverlayStats()
        self.extra_stats = (("overlay", self.stats),)
        self._active = False
        self._joined_addr: Optional[int] = None
        #: sorted tree membership (current view minus local suspects)
        self._members: Tuple[int, ...] = ()
        self._member_set: Set[int] = set()
        self._parent: Optional[int] = None
        self._children: Tuple[int, ...] = ()
        #: member pid -> tree neighbour on the path toward it
        self._toward: Dict[int, int] = {}
        #: best known per-source progress, max-merged: pid -> (seq, ts)
        self._best: Dict[int, Tuple[int, int]] = {}
        #: local time we last saw liveness evidence for a member
        self._alive_at: Dict[int, float] = {}
        #: latest scoped ack/cover reported by each current tree neighbour
        self._nbr_ack: Dict[int, int] = {}
        self._nbr_cover: Dict[int, int] = {}
        #: highest aggregated floor returned this view (monotone clamp)
        self._floor_best = 0
        #: relay dedupe LRU over (source, datagram-hash)
        self._relay_seen: Set[Tuple[int, int]] = set()
        self._relay_order: Deque[Tuple[int, int]] = deque()
        self._timer = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def prepare_join(self) -> None:
        """Bind the unicast address before the §7.1 join completes.

        Once the established members install the add view they tree-route
        their Regulars, and the joiner's copies arrive on its *unicast*
        address — which must therefore be joined while the joiner is still
        waiting for the AddProcessor to be ordered, or its cover never
        advances and the join deadlocks.  The engine itself (tree,
        summaries) still starts in :meth:`activate`.
        """
        g = self._g
        if self._joined_addr is None:
            self._joined_addr = unicast_address(g.address, g.pid)
            g._endpoint.join(self._joined_addr)

    def activate(self) -> None:
        """Join our unicast address, build the tree, start summaries."""
        self._active = True
        self.prepare_join()
        self._recompute_tree()
        self._arm()

    def stop(self) -> None:
        self._active = False
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if self._joined_addr is not None:
            self._g._endpoint.leave(self._joined_addr)
            self._joined_addr = None

    def on_view_installed(self) -> None:
        """A new view: rebuild the tree and reset the aggregation scope."""
        if not self._active:
            return  # a joining member's engine starts in activate()
        # the floor clamp must not survive a membership change: new
        # members start at ack 0, exactly like the legacy §6 minimum
        self._floor_best = 0
        self._recompute_tree()

    def on_suspicion_changed(self) -> None:
        """Provisionally route around (or back through) a suspect."""
        if self._active:
            self._recompute_tree()

    def on_address_changed(self) -> None:
        """§7 Connect migration moved the group address: rebind unicast."""
        if not self._active:
            return
        g = self._g
        if self._joined_addr is not None:
            g._endpoint.leave(self._joined_addr)
        self._joined_addr = unicast_address(g.address, g.pid)
        g._endpoint.join(self._joined_addr)

    def _recompute_tree(self) -> None:
        g = self._g
        suspects = g.fault_detector.suspected
        members = tuple(p for p in g.membership
                        if p == g.pid or p not in suspects)
        self._members = members
        self._member_set = set(members)
        self._parent, self._children, self._toward = tree_links(
            members, g.config.overlay_fanout, g.pid
        )
        # scope state binds to the edge set; a new edge set means every
        # neighbour report must be re-earned before the floor is trusted
        self._nbr_ack.clear()
        self._nbr_cover.clear()
        # keep a recently-departed member's progress evidence: after a
        # §7.1 remove is ordered *here*, laggards still gate their cover
        # on the departed clock, and with heartbeats suppressed our
        # entries are their only way to learn its final timestamps and
        # order the Remove themselves.  Evidence past the liveness
        # horizon stops being emitted anyway; this purge is hygiene.
        current = set(g.membership)
        now = g.now()
        keep = g.config.suspect_timeout
        for p in [p for p in self._best
                  if p not in current
                  and now - self._alive_at.get(p, -1.0e18) > keep]:
            del self._best[p]
        for p in [p for p in self._alive_at
                  if p not in current and p not in self._best]:
            del self._alive_at[p]
        self.stats.tree_rebuilds += 1
        g.trace("overlay_tree", parent=self._parent, children=self._children,
                members=len(members))

    def note_departure(self, pid: int, final_ts: int) -> None:
        """Snapshot a gracefully departing member's final order timestamp
        (just before ROMP forgets the source at view installation).

        The removal's delivery required our cover — and hence this
        timestamp — to reach the removal's own timestamp, so re-emitting
        it as a progress entry is exactly what a laggard that has not
        ordered the removal yet needs to advance its gate.  Refreshing
        the evidence clock here keeps the entry inside the emission
        freshness horizon for a full window after the view change."""
        b = self._best.get(pid)
        if b is None:
            self._best[pid] = (0, final_ts)
        elif final_ts > b[1]:
            self._best[pid] = (b[0], final_ts)
        self._alive_at[pid] = self._g.now()

    def _neighbours(self) -> Tuple[int, ...]:
        if self._parent is None:
            return self._children
        return (self._parent,) + self._children

    # ------------------------------------------------------------------
    # egress: route own first-transmission Regulars over the tree
    # ------------------------------------------------------------------
    def egress(self, flat_transmit: Transmit) -> Transmit:
        self._flat = flat_transmit
        return self._transmit

    def _transmit(self, address: int, raw: bytes) -> None:
        """Send-path egress: a group-addressed first-transmission Regular
        or Batch goes to ourselves and every tree neighbour as unicasts;
        everything else — unicasts, control traffic, retransmissions, or
        this member currently outside its own tree — goes out flat."""
        g = self._g
        addr = g.address
        transmit = self._flat
        if (address != addr or not self._active
                or g.pid not in self._member_set
                or raw[_TYPE_OFFSET] not in (_REGULAR, _BATCH)
                or raw[_FLAGS_OFFSET] & _FLAG_RETRANSMISSION):
            transmit(address, raw)
            return
        # The self-copy never touches the NIC, as on the flat path, where
        # the host clones multicast loopback before its device queue: a
        # unicast deployment hands its own copy to the receive path in
        # memory too, and charging the simulated egress a serialization
        # per self-copy would overstate overlay cost.
        g.loop_back(raw)
        copies = 0
        if self._parent is not None:
            transmit(unicast_address(addr, self._parent), raw)
            copies += 1
        for c in self._children:
            transmit(unicast_address(addr, c), raw)
            copies += 1
        self.stats.regulars_tree_routed += copies

    # ------------------------------------------------------------------
    # ingress: relay + direct liveness evidence
    # ------------------------------------------------------------------
    def ingress(self, receive: Receive) -> Receive:
        self._receive = receive
        return self._on_datagram

    def _on_datagram(self, msg: FTMPMessage, raw: bytes) -> None:
        self._relay(msg, raw)
        self._receive(msg, raw)

    def _relay(self, msg: FTMPMessage, raw: bytes) -> None:
        """Observe one arriving datagram; relay Regulars down the tree.

        Sees the *outer* datagram only: a Batch relays whole, its parts
        recurse inside the receive path untouched."""
        h = msg.header
        src = h.source
        g = self._g
        if src != g.pid and not h.retransmission:
            self._alive_at[src] = g.now()
        if not self._active or src == g.pid or h.retransmission:
            return
        t = h.message_type
        if t is not MessageType.REGULAR and t is not MessageType.BATCH:
            return
        arrival = self._toward.get(src)
        if arrival is None:
            self.stats.relay_skips_unrouted += 1
            return
        key = (src, hash(raw))
        if key in self._relay_seen:
            return  # duplicate arrival (or transient routing echo)
        self._relay_seen.add(key)
        self._relay_order.append(key)
        if len(self._relay_order) > _RELAY_SEEN_CAP:
            self._relay_seen.discard(self._relay_order.popleft())
        addr = g.address
        transmit = self._flat
        relayed = 0
        if self._parent is not None and self._parent != arrival:
            transmit(unicast_address(addr, self._parent), raw)
            relayed += 1
        for c in self._children:
            if c != arrival:
                transmit(unicast_address(addr, c), raw)
                relayed += 1
        self.stats.relayed_copies += relayed

    # ------------------------------------------------------------------
    # periodic per-edge summaries
    # ------------------------------------------------------------------
    def _arm(self) -> None:
        self._timer = self._g.schedule(
            self._g.config.overlay_summary_interval, self._tick
        )

    def _tick(self) -> None:
        if not self._active:
            return
        try:
            self._emit_summaries()
        finally:
            self._arm()

    def _emit_summaries(self) -> None:
        g = self._g
        me = g.pid
        addr = g.address
        romp = g.romp
        rmp = g.rmp
        # refresh our own observation of every member's stream into the
        # progress vector (max-merge keeps each entry's claim a fact).
        # Recently-departed members are refreshed too: our cover had to
        # reach the RemoveProcessor's timestamp before we could order it,
        # so order_ts holds the departed member's *final* clock — the
        # exact evidence a laggard still gating on that clock needs.
        membership = set(g.membership)
        departed = tuple(p for p in self._best if p not in membership)
        for p in tuple(g.membership) + departed:
            seq = rmp.contiguous_top(p)
            ts = romp.order_ts(p)
            b = self._best.get(p)
            if b is None:
                self._best[p] = (seq, ts)
            elif seq > b[0] or ts > b[1]:
                self._best[p] = (max(seq, b[0]), max(ts, b[1]))
        # the self-summary replaces the heartbeat loopback: it advances
        # our own stream's order timestamp in our own cover gate.  Pure
        # local bookkeeping, so it never touches the NIC — and it waits
        # while our own messages are still on their way back to us (in
        # the batch window, or a flat send's self-copy): its sequence
        # number ahead of them would be a gap in our own stream
        if rmp.contiguous_top(me) == g.last_sent_seq:
            g.send(AckSummaryMessage, AckSummaryMessage.KIND_DOWN, 0, 0,
                   address=LOOPBACK)
        if me not in self._member_set:
            return
        now = g.now()
        horizon = g.config.suspect_timeout * 0.5
        # a tree that excludes a suspect no longer covers the membership:
        # report "unknown" so nobody builds a floor on a partial scope
        full_scope = len(self._members) == len(g.membership)
        own_ack = romp.ack_timestamp
        own_cover = romp.cover_timestamp()
        neighbours = self._neighbours()
        # recently-departed members (ordered out of our view, evidence
        # still fresh) go to *every* neighbour: a laggard that has not
        # ordered the RemoveProcessor yet still gates its cover on the
        # departed clock, and our entries are its only channel
        for nbr in neighbours:
            ack_out = cover_out = 0
            if full_scope:
                others = [m for m in neighbours if m != nbr]
                if all(m in self._nbr_ack for m in others):
                    ack_out = min([own_ack] + [self._nbr_ack[m] for m in others])
                    cover_out = min(
                        [own_cover] + [self._nbr_cover.get(m, 0) for m in others]
                    )
            entries = []
            for p in self._members + departed:
                if p != me and self._toward.get(p) == nbr:
                    continue  # p lies beyond nbr: evidence must not echo back
                if p == me or now - self._alive_at.get(p, -1.0e18) <= horizon:
                    s, t = self._best.get(p, (0, 0))
                    entries.append((p, s, t))
            kind = (AckSummaryMessage.KIND_UP if nbr == self._parent
                    else AckSummaryMessage.KIND_DOWN)
            self.stats.summaries_sent += 1
            g.send(AckSummaryMessage, kind, cover_out, ack_out, tuple(entries),
                   address=unicast_address(addr, nbr))

    # ------------------------------------------------------------------
    # summary ingestion (called by RMP after its heartbeat-style checks)
    # ------------------------------------------------------------------
    def on_summary(self, msg: AckSummaryMessage) -> None:
        g = self._g
        src = msg.header.source
        if src == g.pid:
            return  # our own loopback keepalive
        self.stats.summaries_received += 1
        if self._active and (src == self._parent or src in self._children):
            # scoped floor reports bind to the edge; 0 means "unknown"
            # (incomplete scope at the sender) and clears the report
            if msg.ack_ts > 0:
                self._nbr_ack[src] = max(msg.ack_ts, self._nbr_ack.get(src, 0))
            else:
                self._nbr_ack.pop(src, None)
            if msg.cover_ts > 0:
                self._nbr_cover[src] = max(msg.cover_ts,
                                           self._nbr_cover.get(src, 0))
            else:
                self._nbr_cover.pop(src, None)
        # entries are adopted even while the engine is inactive (joining):
        # with established members' heartbeats suppressed, the entries are
        # the only way a joiner's cover gate learns distant members'
        # progress — without them the AddProcessor is never ordered
        # locally and the join deadlocks
        membership = self._g.membership
        rmp = g.rmp
        romp = g.romp
        now = g.now()
        grace = g.config.suspect_timeout
        adopted = False
        for pid, seq, ts in msg.entries:
            if pid == g.pid or pid not in membership:
                continue
            self.stats.entries_received += 1
            # transitive liveness: the entry's presence proves somebody
            # heard pid recently; grant transit slack of one timeout
            self._alive_at[pid] = now
            g.note_alive(pid)
            g.fault_detector.watch(pid, grace)
            self.stats.liveness_refreshes += 1
            b = self._best.get(pid)
            if b is None:
                self._best[pid] = (seq, ts)
            elif seq > b[0] or ts > b[1]:
                self._best[pid] = (max(seq, b[0]), max(ts, b[1]))
            if seq > rmp.contiguous_top(pid):
                # the scope holds pid's stream through seq: expose the
                # gap so plain §5 NACK recovery fetches it
                rmp.disclose(pid, seq)
                self.stats.gap_disclosures += 1
            elif ts > romp.order_ts(pid):
                # contiguous through seq already: every message from pid
                # with timestamp <= ts is in hand, so the cover gate may
                # advance past ts for this source
                romp.adopt_order_progress(pid, ts)
                self.stats.progress_adoptions += 1
                adopted = True
        if adopted:
            romp.evaluate()
        else:
            romp.recheck_stability()

    # ------------------------------------------------------------------
    # aggregated stability floor (ROMP's out-of-band ``stability_floor``)
    # ------------------------------------------------------------------
    def stability_floor(self) -> int:
        """Group-wide stability lower bound from the edge aggregation.

        0 while the scope is incomplete (a neighbour has not reported,
        or the local tree excludes a suspect) — the caller then falls
        back to the legacy §6 minimum.  Monotone within a view; reset at
        view install like the legacy minimum (new members ack from 0).
        """
        g = self._g
        floor = 0
        if (self._active
                and g.pid in self._member_set
                and len(self._members) == len(g.membership)):
            neighbours = self._neighbours()
            if all(n in self._nbr_ack for n in neighbours):
                floor = min([g.romp.ack_timestamp]
                            + [self._nbr_ack[n] for n in neighbours])
        if floor > self._floor_best:
            self._floor_best = floor
            self.stats.floor_advances += 1
        return self._floor_best
