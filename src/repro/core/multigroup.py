"""Genuine multi-group atomic multicast (extension; cf. arXiv 1904.07171).

A multicast addressed to a *set* of processor groups must be delivered in
a consistent total order in every addressed group — any two such
multicasts delivered in two common groups appear in the same relative
order in both — while groups that are not addressed exchange no messages
at all (*genuineness*, the property that keeps per-group sharding intact).

The construction is Skeen's classical timestamp-collection algorithm
mapped onto the FTMP stack's existing machinery:

1. **Propose** — the origin (which must be a member of every addressed
   group) multicasts one :class:`MultiGroupProposeMessage` into each
   addressed group's totally-ordered stream.  The copy's own header
   timestamp *is* that group's proposal: it is stamped by the shared
   per-stack Lamport clock, so it exceeds everything the origin has
   observed, and the standard Lamport-order argument makes it a valid
   not-yet-passed position in that group's total order.
2. **Commit** — because one clock stamps all the copies, the origin knows
   every group's proposal the moment it has stamped them; it immediately
   multicasts a :class:`MultiGroupCommitMessage` carrying ``commit_ts =
   max`` of the proposals into each addressed group.  The degenerate
   collection (no round trip) is exactly what the shared clock buys: in
   classical Skeen the groups' clocks are independent and the maximum
   must be gathered remotely.
3. **Deliver** — each group delivers the multicast at ``commit_ts``,
   i.e. at the extended ordering key ``(commit_ts, origin, mg_seq)``.
   Two multicasts delivered in two common groups compare by the same key
   in both, hence the same relative order everywhere (acyclicity of the
   union of the per-group delivery orders — the property the
   cross-group oracle checks).

**Why this is safe with no extra stability wait.**  Both message types
are totally ordered, and the origin's clock ticks between stamping the
proposals and stamping the commits, so every commit's *header* timestamp
exceeds the announced ``commit_ts``.  ROMP releases messages in strict
``(timestamp, source)`` key order; by the time the commit itself is
released, everything with an ordering key below the commit's header key
— in particular everything below ``commit_ts`` — has already been
released.  A committed entry is therefore deliverable the moment its key
is minimal among the stage's backlog, with no additional cover check.

**The delivery stage.**  :class:`SkeenOrdering` — the ordering discipline
``ordering="skeen"`` selects (DESIGN.md, "Two seams") — replaces ROMP's
release-at-decided-position hook: every released totally-ordered
message enters a FIFO ``held`` stage (ordinary Regulars and the ordered
membership messages) or the ``pending`` table (multi-group proposals
awaiting their commit).  The stage drains in
extended-key order — ordinary messages at ``(ts, src, -1)``, pending
entries at ``(commit_ts, origin, mg_seq)`` once committed, and an
uncommitted entry holds everything behind its lower bound ``(propose_ts,
origin, mg_seq)`` (its final key can only be larger, never smaller).
Because the engine consumes the group's release sequence — identical at
every member — and takes no input from local timing, the whole stage is
a deterministic state machine: every member delivers the same messages
in the same order interleaved identically with the ordered membership
changes.  Fault views ride on §7.2 unchanged: the sync round equalises
the release prefix across survivors, so "still uncommitted at view
install" is the same fact everywhere and the install aborts those
entries consistently (the origin is gone; its commit can never arrive).

**Conflict relation (Generic Multicast, arXiv 2410.01901).**  A
multicast declaring a non-zero ``conflict_class`` commutes with
everything: it skips the commit phase entirely and is delivered at its
per-group propose position (still totally ordered *within* each group,
but its cross-group relative order is unconstrained).  Class ``0``
messages pairwise conflict and get the full protocol.

**Failure semantics.**  Commits are ordinary reliable stream traffic, so
an origin crash leaves each addressed group's survivors in agreement:
either the commit made it into the §7.2-synced prefix (everyone
delivers) or it did not (everyone aborts the entry at the fault view).
Cross-group all-or-nothing for a *crashed* origin is deliberately not
guaranteed — that is the uniformity gap White-Box Atomic Multicast
closes with a Paxos per group — but an aborted entry imposes no
ordering, so cross-group acyclicity holds unconditionally.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Deque, Dict, Optional, Tuple

from .constants import MessageType
from .messages import (
    ConnectionId,
    FTMPHeader,
    FTMPMessage,
    MultiGroupCommitMessage,
    MultiGroupProposeMessage,
    RegularMessage,
    RemoveProcessorMessage,
)
from .romp import ROMP

if TYPE_CHECKING:  # pragma: no cover
    from .datapath import GroupContext, ProcessorGroup

__all__ = [
    "MultiGroupEngine",
    "SkeenOrdering",
    "MultiGroupStats",
    "MULTI_GROUP_CID",
    "MULTI_GROUP_COMMUTATIVE_CID",
    "mg_request_num",
    "is_multigroup_delivery",
    "is_total_multigroup_delivery",
]

_MG_MARK = 0xFFFFFFFF

#: Sentinel connection id stamped on delivered total-order multi-group
#: messages, so listeners and oracles can recognise the same multicast
#: across groups (paired with :func:`mg_request_num`).
MULTI_GROUP_CID = ConnectionId(_MG_MARK, _MG_MARK, _MG_MARK, 0)

#: Sentinel for commutative (non-zero conflict class) deliveries — these
#: are excluded from the cross-group acyclicity check by construction.
MULTI_GROUP_COMMUTATIVE_CID = ConnectionId(_MG_MARK, _MG_MARK, _MG_MARK, 1)

#: Ordinary (single-group) messages sort below any multi-group entry that
#: could share their (timestamp, source) prefix — which cannot happen
#: anyway, since one stack clock stamps all of a source's sends.
_ORDINARY = -1


def mg_request_num(origin: int, mg_seq: int) -> int:
    """The request number identifying one multicast across all its groups."""
    return (origin << 32) | (mg_seq & 0xFFFFFFFF)


def is_multigroup_delivery(cid: ConnectionId) -> bool:
    """True when a delivery's connection id is a multi-group sentinel."""
    return (
        cid.client_domain == _MG_MARK
        and cid.client_group == _MG_MARK
        and cid.server_domain == _MG_MARK
    )


def is_total_multigroup_delivery(cid: ConnectionId) -> bool:
    """True for conflict-class-0 (totally ordered) multi-group deliveries."""
    return is_multigroup_delivery(cid) and cid.server_group == 0


@dataclass
class MultiGroupStats:
    """Per-group counters of the multi-group delivery stage."""

    proposes_sent: int = 0
    commits_sent: int = 0
    proposes_ordered: int = 0
    commits_applied: int = 0
    orphan_commits: int = 0  #: commit with no pending entry (aborted / pre-join)
    delivered_total: int = 0
    delivered_commutative: int = 0
    aborted: int = 0  #: uncommitted entries dropped at the origin's eviction
    max_held: int = 0
    max_pending: int = 0


@dataclass
class _Pending:
    """A totally-ordered multi-group proposal awaiting its commit."""

    origin: int
    mg_seq: int
    propose: MultiGroupProposeMessage
    propose_ts: int  #: the copy's header timestamp — this group's proposal
    commit_ts: Optional[int] = None

    def key(self) -> Tuple[int, int, int]:
        """Current extended ordering key (a lower bound until committed:
        the commit is the max over groups of proposals, one of which is
        ``propose_ts`` itself, so it can only be >=)."""
        ts = self.commit_ts if self.commit_ts is not None else self.propose_ts
        return (ts, self.origin, self.mg_seq)


class MultiGroupEngine:
    """Per-group delivery stage for multi-group atomic multicast.

    Held by :class:`SkeenOrdering`.  Fed exclusively by :meth:`on_ordered`
    with the group's release sequence, which makes it deterministic
    across members.
    """

    def __init__(self, group: "GroupContext"):
        self._g = group
        #: released messages awaiting dispatch, FIFO in extended-key order
        self._held: Deque[Tuple[Tuple[int, int, int], FTMPMessage]] = deque()
        #: (origin, mg_seq) -> proposal awaiting its commit
        self._pending: Dict[Tuple[int, int], _Pending] = {}
        self._draining = False
        self.stats = MultiGroupStats()

    # ------------------------------------------------------------------
    # input: the group's totally-ordered release sequence
    # ------------------------------------------------------------------
    def on_ordered(self, msg: FTMPMessage) -> None:
        """One message released by ROMP's total-order rule."""
        if isinstance(msg, MultiGroupCommitMessage):
            # Commits carry no delivery of their own: apply immediately at
            # this (deterministic) position in the release sequence.
            entry = self._pending.get((msg.origin, msg.mg_seq))
            if entry is None:
                self.stats.orphan_commits += 1
            else:
                entry.commit_ts = msg.commit_ts
                self.stats.commits_applied += 1
            self.drain()
            return
        h = msg.header
        if isinstance(msg, MultiGroupProposeMessage):
            self.stats.proposes_ordered += 1
            if msg.conflict_class != 0:
                # Commutative: delivered at the propose position itself,
                # no commit wait (it conflicts with nothing).
                self._held.append(((h.timestamp, h.source, msg.mg_seq), msg))
            else:
                self._pending[(h.source, msg.mg_seq)] = _Pending(
                    origin=h.source,
                    mg_seq=msg.mg_seq,
                    propose=msg,
                    propose_ts=h.timestamp,
                )
                if len(self._pending) > self.stats.max_pending:
                    self.stats.max_pending = len(self._pending)
        else:
            self._held.append(((h.timestamp, h.source, _ORDINARY), msg))
        if len(self._held) > self.stats.max_held:
            self.stats.max_held = len(self._held)
        self.drain()

    # ------------------------------------------------------------------
    # the extended-key drain
    # ------------------------------------------------------------------
    def drain(self) -> None:
        """Dispatch everything whose extended key is proven minimal.

        The held queue is FIFO in key order (ROMP releases in key order
        and commutative proposes keep their release position), so only
        its head competes with the pending table's minimum bound.  An
        uncommitted entry's bound holds back everything behind it: its
        final key can only grow, never shrink.
        """
        if self._draining:
            # Re-entered from a dispatch side effect (e.g. an ordered
            # RemoveProcessor installing a view, whose evaluate() releases
            # more messages into the stage): the outermost loop picks the
            # new arrivals up in key order, so the nested call must not
            # interleave a second cursor over the same queues.
            return
        self._draining = True
        try:
            self._drain_loop()
        finally:
            self._draining = False

    def _drain_loop(self) -> None:
        held = self._held
        pending = self._pending
        while True:
            bound: Optional[Tuple[int, int, int]] = None
            head_entry: Optional[_Pending] = None
            for entry in pending.values():
                k = entry.key()
                if bound is None or k < bound:
                    bound, head_entry = k, entry
            if held and (bound is None or held[0][0] < bound):
                _, msg = held.popleft()
                self._dispatch(msg)
                continue
            if head_entry is not None and head_entry.commit_ts is not None:
                # Minimal and committed: the commit's own release already
                # proved nothing below commit_ts can still arrive (its
                # header timestamp exceeds commit_ts and ROMP releases in
                # key order), so this delivers with no further wait.
                del pending[(head_entry.origin, head_entry.mg_seq)]
                self._deliver(head_entry.propose, head_entry.commit_ts,
                              commutative=False)
                continue
            return

    def _dispatch(self, msg: FTMPMessage) -> None:
        """Release one drained held-stage message."""
        if isinstance(msg, MultiGroupProposeMessage):
            self._deliver(msg, msg.header.timestamp, commutative=True)
            return
        if isinstance(msg, RemoveProcessorMessage):
            # The removed member's commit, if not yet released here, is
            # released after this position at *every* member (release
            # sequences are identical), where the ordinary purge drops
            # it: abort its uncommitted entries at this same position so
            # the decision is deterministic too.
            self.abort_origin(msg.member_to_remove)
        ROMP._release(self._g, msg)

    def _deliver(self, propose: MultiGroupProposeMessage, ts: int,
                 commutative: bool) -> None:
        h = propose.header
        synth = RegularMessage(
            header=FTMPHeader(
                message_type=MessageType.REGULAR,
                source=h.source,
                group=h.group,
                sequence_number=h.sequence_number,
                timestamp=ts,
                ack_timestamp=h.ack_timestamp,
                little_endian=h.little_endian,
            ),
            connection_id=(
                MULTI_GROUP_COMMUTATIVE_CID if commutative else MULTI_GROUP_CID
            ),
            request_num=mg_request_num(h.source, propose.mg_seq),
            payload=propose.payload,
        )
        if commutative:
            self.stats.delivered_commutative += 1
        else:
            self.stats.delivered_total += 1
        self._g.deliver_regular(synth)

    # ------------------------------------------------------------------
    # membership interplay
    # ------------------------------------------------------------------
    def abort_origin(self, origin: int) -> None:
        """Drop uncommitted entries from an evicted origin.

        Graceful path: called when the ordered RemoveProcessor drains —
        a deterministic position in the stage.  Fault path: called at
        fault-view install, after the §7.2 sync equalised the release
        prefix across survivors, so committed-vs-not is the same fact at
        every survivor.  Either way the origin is gone and the missing
        commit can never arrive; a commit that still trickles through is
        counted as an orphan and ignored.
        """
        doomed = [k for k, e in self._pending.items() if e.origin == origin
                  and e.commit_ts is None]
        for k in doomed:
            del self._pending[k]
        self.stats.aborted += len(doomed)
        if doomed:
            self.drain()

    def backlog(self) -> int:
        """Messages staged but not yet dispatched (quiescence gauge)."""
        return len(self._held) + len(self._pending)


class SkeenOrdering(ROMP):
    """The Skeen-commit ordering discipline: the symmetric §6 rule decides
    each group's release sequence, and a :class:`MultiGroupEngine` stage
    decides where in it a multi-group message is delivered."""

    def __init__(self, group: "ProcessorGroup",
                 stability_floor: Optional[Callable[[], int]] = None):
        super().__init__(group, stability_floor)
        self.stage = MultiGroupEngine(group)
        self.extra_stats = (("multigroup", self.stage.stats),)

    def _release(self, g: "GroupContext", msg: FTMPMessage) -> None:
        self.stage.on_ordered(msg)

    def queued(self) -> int:
        return super().queued() + self.stage.backlog()

    def abort_origin(self, origin: int) -> None:
        # The §7.2 sync equalised the release prefix across survivors, so
        # "still uncommitted" is the same fact everywhere: the convicted
        # origin's dangling proposals abort consistently (their commits,
        # if ever sent, did not reach any survivor).
        self.stage.abort_origin(origin)

    def send_propose(self, mg_seq: int, conflict_class: int,
                     group_ids: Tuple[int, ...], payload: bytes) -> int:
        """Multicast one multi-group proposal copy into this group's
        totally-ordered stream; returns the copy's header timestamp —
        this group's proposal in the timestamp-collection protocol."""
        self.stage.stats.proposes_sent += 1
        return self._g.send(MultiGroupProposeMessage, mg_seq, conflict_class,
                            group_ids, payload).header.timestamp

    def send_commit(self, origin: int, mg_seq: int, commit_ts: int) -> None:
        """Announce the committed (max) timestamp into this group's stream."""
        self.stage.stats.commits_sent += 1
        self._g.send(MultiGroupCommitMessage, origin, mg_seq, commit_ts)
