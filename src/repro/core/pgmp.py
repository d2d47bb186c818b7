"""PGMP — the Processor Group Membership Protocol layer (paper §7).

Three mechanisms, exactly as the paper structures them:

**Non-faulty changes (§7.1)** — ``AddProcessor`` / ``RemoveProcessor`` are
totally ordered, so every member applies the change at the same point in
the message stream and "the ordering of messages ... continues unaffected".
The initiator of an AddProcessor periodically retransmits it to the new
member (which cannot NACK what it has never seen) until the new member is
heard from.

**Faulty changes (§7.2)** — the fault detector raises local suspicions;
suspicions are shared via ``Suspect`` messages (reliable, source-ordered,
*not* totally ordered — they must flow while ordering is stalled); a
processor is *convicted* once a majority of the unsuspected members
accuse it; each survivor then multicasts one ``Membership`` message per
proposal carrying its received-sequence-number vector, survivors fetch
whatever messages any of them is missing (virtual synchrony: "all of the
processors ... that survived ... have received exactly the same messages"),
and finally install the new view and issue a fault report.

**Connections (§7)** — handled by :mod:`repro.core.connection`; this module
implements the ordered ``Connect`` delivery used for migrating an existing
connection to a new multicast address, including the §7 quiescence rule
(no ordered transmissions until every member is heard past the Connect's
timestamp).

Under-specified points and our concrete choices are listed in DESIGN.md §2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, FrozenSet, Optional, Set, Tuple

from .constants import HANDSHAKE_RESEND_INTERVAL, JOIN_GRACE
from .messages import (
    AddProcessorMessage,
    ConnectMessage,
    FTMPMessage,
    MembershipMessage,
    RemoveProcessorMessage,
    RetransmitRequestMessage,
    SuspectMessage,
)

if TYPE_CHECKING:  # pragma: no cover
    from .datapath import GroupContext

__all__ = ["PGMP", "PGMPStats"]


@dataclass
class PGMPStats:
    suspects_sent: int = 0
    membership_msgs_sent: int = 0
    convictions: int = 0
    views_installed: int = 0
    sync_nacks: int = 0


@dataclass
class _Round:
    """State of one fault-membership agreement round."""

    proposal: FrozenSet[int]
    #: accepted Membership message per proposal member
    vectors: Dict[int, Dict[int, int]] = field(default_factory=dict)
    max_ts: int = 0
    syncing: bool = False
    targets: Dict[int, int] = field(default_factory=dict)
    #: the new view's timestamp — and the delivery cut of the old view
    view_ts: int = 0
    sync_timer: Optional[object] = None


class PGMP:
    """One PGMP instance per (processor, group) pair."""

    def __init__(self, group: "GroupContext"):
        self._g = group
        #: latest accusation set announced by each accuser in this view
        self._accusations: Dict[int, FrozenSet[int]] = {}
        #: my own current suspicions (mirrors the fault detector)
        self._my_suspects: Set[int] = set()
        #: proposals for which I already multicast my Membership message,
        #: with the sequence vector it reported
        self._sent_proposals: Dict[FrozenSet[int], Dict[int, int]] = {}
        self._round: Optional[_Round] = None
        #: new-member pid -> (the AddProcessor, resend timer)
        self._add_resends: Dict[int, Tuple[AddProcessorMessage, object]] = {}
        #: ordering key of the last membership change ordered
        self._ordered_key = (0, 0)
        #: convicted members ``stats.convictions`` has counted: a round
        #: re-formed after a view or superseded by a larger one convicts
        #: them again
        self._counted: Set[int] = set()
        self.stats = PGMPStats()

    # ==================================================================
    # §7.1 non-faulty membership changes
    # ==================================================================
    def initiate_add(self, new_member: int) -> None:
        """Multicast an AddProcessor and keep retransmitting it to the
        (unreliable) new member until the new member is heard from."""
        if new_member in self._g.membership:
            raise ValueError(f"processor {new_member} is already a member")
        msg = self._g.send(AddProcessorMessage, self._g.view_timestamp,
                           tuple(sorted(self._g.membership)), self._seq_vector(),
                           new_member)
        timer = self._g.schedule(
            HANDSHAKE_RESEND_INTERVAL, self._resend_add, new_member
        )
        self._add_resends[new_member] = (msg, timer)

    def _resend_add(self, new_member: int) -> None:
        entry = self._add_resends.get(new_member)
        if entry is None:
            return
        msg, _old = entry
        if self._g.has_heard_from(new_member):
            del self._add_resends[new_member]
            return
        self._g.retransmit(msg)
        timer = self._g.schedule(
            HANDSHAKE_RESEND_INTERVAL, self._resend_add, new_member
        )
        self._add_resends[new_member] = (msg, timer)

    def initiate_remove(self, member: int) -> None:
        """Multicast a RemoveProcessor (takes effect when ordered)."""
        if member not in self._g.membership:
            raise ValueError(f"processor {member} is not a member")
        self._g.send(RemoveProcessorMessage, member)

    # ------------------------------------------------------------------
    # ordered deliveries from ROMP
    # ------------------------------------------------------------------
    def on_ordered(self, msg: FTMPMessage) -> None:
        # the key of the view a membership change may install
        self._ordered_key = (msg.header.timestamp, msg.header.source)
        if isinstance(msg, AddProcessorMessage):
            self._ordered_add(msg)
        elif isinstance(msg, RemoveProcessorMessage):
            self._ordered_remove(msg)
        elif isinstance(msg, ConnectMessage):
            self._ordered_connect(msg)

    def _ordered_add(self, msg: AddProcessorMessage) -> None:
        new = msg.new_member
        self._g.romp.settle_joiner(new, (msg.header.timestamp, msg.header.source))
        if new == self._g.pid:
            if self._g.joining:
                # Our own AddProcessor reached its position in the total
                # order: complete the join here — the same point at which
                # every existing member installs the new view (§7.1).  A
                # superseded (stale) AddProcessor never gets here: its key
                # is below the re-seeded join barrier.
                self._g.complete_join(
                    membership=tuple(sorted(set(msg.membership) | {new})),
                    view_timestamp=msg.header.timestamp,
                    join_barrier=(msg.header.timestamp, msg.header.source),
                )
            return
        if new in self._g.membership:
            return  # idempotent (duplicate AddProcessor)
        if set(msg.membership) - set(self._g.membership) - {new}:
            # The snapshot names a processor we have since removed: a fault
            # view (or removal) was ordered between this AddProcessor's
            # conception and its position in the total order.  Installing
            # it would fork the group: the joiner seeded its state from
            # the stale snapshot and cannot order past the dead member.
            # Drop it and have one deterministic repairer re-issue a fresh
            # AddProcessor; its higher timestamp supersedes the joiner's
            # stale barrier.
            repairer = (msg.header.source
                        if msg.header.source in self._g.membership
                        else min(self._g.membership))
            if repairer == self._g.pid:
                self.cancel_add_resend(new)
                self.initiate_add(new)
            return
        self._g.install_view(
            membership=tuple(sorted(set(self._g.membership) | {new})),
            view_timestamp=msg.header.timestamp,
            added=(new,),
            removed=(),
            reason="add",
        )
        # the new member's reliable stream starts at sequence number 1
        self._g.rmp.set_baseline(new, 0)
        self._g.fault_detector.watch(new, JOIN_GRACE)

    def _ordered_remove(self, msg: RemoveProcessorMessage) -> None:
        gone = msg.member_to_remove
        if gone == self._g.pid:
            self._g.evict_self(reason="remove", view_timestamp=msg.header.timestamp)
            return
        if gone not in self._g.membership:
            return
        # before the view: what it installs may deliver, and reclaim
        self._g.romp.hold_for_leaver(gone, msg.header.timestamp)
        self._g.install_view(
            membership=tuple(sorted(set(self._g.membership) - {gone})),
            view_timestamp=msg.header.timestamp,
            added=(),
            removed=(gone,),
            reason="remove",
        )
        self._g.forget_member(gone)

    def _ordered_connect(self, msg: ConnectMessage) -> None:
        # Connection migration: switch the group to its new multicast
        # address at this point in the total order, then observe the §7
        # quiescence rule before sending any further ordered message.
        self._g.apply_connect_migration(msg)

    # ------------------------------------------------------------------
    # new-member bootstrap (invoked by the group while in joining state)
    # ------------------------------------------------------------------
    def prepare_join(self, msg: AddProcessorMessage) -> None:
        """Seed provisional new-member state from an AddProcessor naming us.

        The join does *not* complete here: the AddProcessor must first
        reach its position in the total order (see :meth:`_ordered_add`),
        so the joiner installs its first view at exactly the same point in
        the message stream as every existing member.  Until then the
        provisional baselines/membership let RMP recover the stream and
        ROMP order it.  A re-issued AddProcessor — the predecessor's
        membership snapshot went stale under an intervening fault view —
        re-seeds with its higher timestamp.
        """
        g = self._g
        key = (msg.header.timestamp, msg.header.source)
        if g.join_barrier is not None and key <= g.join_barrier:
            return  # duplicate (resend) of the AddProcessor we already hold
        for pid, seq in msg.sequence_numbers.items():
            g.rmp.set_baseline(pid, seq)
        g.seed_provisional_join(
            membership=tuple(sorted(set(msg.membership) | {msg.new_member})),
            view_timestamp=msg.header.timestamp,
            join_barrier=key,
        )

    # ==================================================================
    # §7.2 faulty membership changes
    # ==================================================================
    def raise_suspicion(self, pid: int) -> None:
        """Fault detector noticed silence from ``pid``."""
        if pid not in self._g.membership or pid in self._my_suspects:
            return
        self._my_suspects.add(pid)
        self._g.trace("suspect", suspect=pid, action="raised")
        self._broadcast_suspects()

    def withdraw_suspicion(self, pid: int) -> None:
        """Fault detector heard from a suspect again before conviction."""
        if pid not in self._my_suspects:
            return
        self._my_suspects.discard(pid)
        self._g.trace("suspect", suspect=pid, action="withdrawn")
        self._broadcast_suspects()

    def _broadcast_suspects(self) -> None:
        self.stats.suspects_sent += 1
        self._g.send(SuspectMessage, self._g.view_timestamp,
                     tuple(sorted(self._my_suspects)))
        # record my own accusation locally (my Suspect loops back too, but
        # conviction must not depend on self-delivery timing)
        self._accusations[self._g.pid] = frozenset(self._my_suspects)
        self._check_conviction()

    # ------------------------------------------------------------------
    # source-ordered deliveries from ROMP (Suspect / Membership)
    # ------------------------------------------------------------------
    def on_source_ordered(self, msg: FTMPMessage) -> None:
        if isinstance(msg, SuspectMessage):
            self._on_suspect(msg)
        elif isinstance(msg, MembershipMessage):
            self._on_membership(msg)

    def _on_suspect(self, msg: SuspectMessage) -> None:
        if msg.membership_timestamp != self._g.view_timestamp:
            return  # stale view
        self._accusations[msg.header.source] = frozenset(msg.suspects)
        self._check_conviction()

    def _convicted(self) -> Set[int]:
        """Primary-component conviction rule (DESIGN.md §2).

        A processor is convicted when *more than half of the full current
        membership* (counting only unsuspected voters) accuses it.  A
        network partition therefore lets at most one component — the one
        holding a strict majority — form a new view; minority components
        stall until healed, so the total order can never split-brain.
        Two-member groups cannot muster a strict majority against a dead
        peer, so the single survivor's accusation suffices there (the
        classic 2-node exception; crash vs partition is indistinguishable
        either way).
        """
        membership = self._g.membership
        accused = set()
        for s in self._accusations.values():
            accused |= s
        accused &= set(membership)
        if not accused:
            return set()
        voters = [q for q in membership if q not in accused]
        convicted = set()
        for p in accused:
            votes = sum(1 for q in voters if p in self._accusations.get(q, ()))
            if votes > len(membership) / 2 or (len(membership) == 2 and votes == 1):
                convicted.add(p)
        return convicted

    def _check_conviction(self) -> None:
        convicted = self._convicted()
        if not convicted:
            return
        proposal = frozenset(self._g.membership) - convicted
        if self._g.pid not in proposal:
            # I have been convicted by the others; wait for their
            # Membership messages to evict me (or recover by being heard).
            return
        self._start_round(proposal, convicted)

    def _start_round(self, proposal: FrozenSet[int], convicted: Set[int]) -> None:
        if self._round is not None and self._round.proposal == proposal:
            return
        self.stats.convictions += len(convicted - self._counted)
        self._counted |= convicted
        if self._round is not None and self._round.sync_timer is not None:
            self._round.sync_timer.cancel()
        self._g.romp.end_transition()  # a superseded round may be mid-drain
        self._round = _Round(proposal=proposal)
        vector = self._sent_proposals.get(proposal)
        if vector is None:
            # one Membership message per proposal: RMP's reliability makes
            # a single transmission recoverable by every survivor.
            vector = self._sent_proposals[proposal] = self._seq_vector()
            self.stats.membership_msgs_sent += 1
            self._g.send(MembershipMessage, self._g.view_timestamp,
                         tuple(sorted(self._g.membership)), vector,
                         tuple(sorted(proposal)))
        # Deliver nothing of a convicted member past what we reported: a
        # member back at its conviction sends on, and what we delivered
        # past our report may lie past the round's targets, where every
        # other survivor drops it (virtual synchrony).
        self._g.romp.hold_past({p: vector[p] for p in self._g.membership
                                if p not in proposal})
        self._check_round()

    def _seq_vector(self) -> Dict[int, int]:
        vec = {
            p: self._g.rmp.contiguous_top(p)
            for p in self._g.membership
            if p != self._g.pid
        }
        vec[self._g.pid] = self._g.last_sent_seq
        return vec

    def _on_membership(self, msg: MembershipMessage) -> None:
        if msg.membership_timestamp != self._g.view_timestamp:
            return
        if self._g.pid not in msg.new_membership:
            # the survivors have excluded me: leave the group
            self._g.evict_self(reason="evicted", view_timestamp=msg.header.timestamp)
            return
        proposal = frozenset(msg.new_membership)
        # Seeing a proposal implies its senders convicted the complement;
        # adopt it if it is at least as aggressive as ours.
        if self._round is None or (
            self._round.proposal != proposal and proposal < self._round.proposal
        ):
            convicted = set(self._g.membership) - proposal
            self._start_round(proposal, convicted)
        if self._round is None or self._round.proposal != proposal:
            # A *larger* proposal than ours (we convicted more): ignore;
            # the sender will converge to ours when its detector fires or
            # when it sees our Membership message.
            return
        rnd = self._round
        if msg.header.source not in rnd.vectors:
            rnd.vectors[msg.header.source] = dict(msg.sequence_numbers)
            if msg.header.timestamp > rnd.max_ts:
                rnd.max_ts = msg.header.timestamp
        self._check_round()

    def _check_round(self) -> None:
        rnd = self._round
        if rnd is None or rnd.syncing:
            return
        if not all(p in rnd.vectors for p in rnd.proposal):
            return
        # All survivors reported: compute the union of received messages
        # and fetch what we are missing (virtual synchrony, §7.2).
        targets: Dict[int, int] = {}
        for vec in rnd.vectors.values():
            for pid, seq in vec.items():
                if seq > targets.get(pid, 0):
                    targets[pid] = seq
        rnd.targets = targets
        rnd.syncing = True
        self._sync_step()

    def _sync_step(self) -> None:
        rnd = self._round
        if rnd is None or not rnd.syncing:
            return
        missing = False
        for pid, target in rnd.targets.items():
            if pid == self._g.pid or pid not in self._g.membership:
                # a source dropped by a concurrent view change must not be
                # resurrected by sync NACKs (its RMP state is gone)
                continue
            top = self._g.rmp.contiguous_top(pid)
            if top < target:
                missing = True
                self.stats.sync_nacks += 1
                self._g.trace("nack", missing_from=pid, start=top + 1, stop=target)
                self._g.send(RetransmitRequestMessage, pid, top + 1, target)
        if missing:
            rnd.sync_timer = self._g.schedule(
                self._g.config.nack_retry_interval, self._sync_step
            )
            return
        # Synced: every survivor holds the same message set.  Before the
        # view is installed, drain the *old view's* deliveries to a cut
        # all survivors agree on — the new view's timestamp — so their
        # delivery histories diverge nowhere (virtual synchrony, §7.2).
        rnd.view_ts = max(rnd.max_ts, self._g.view_timestamp + 1)
        self._g.romp.begin_transition(rnd.proposal, rnd.view_ts,
                                      targets=rnd.targets)
        self._drain_step()

    def _drain_step(self) -> None:
        rnd = self._round
        if rnd is None or not rnd.syncing:
            return
        # every old-view message has timestamp <= view_ts (each synced
        # message was held by some survivor before it sent its Membership
        # message), so hearing every survivor past the cut proves the old
        # view's stream is complete and orderable
        self._g.romp.evaluate()
        ready = all(
            self._g.romp.order_ts(p) >= rnd.view_ts
            for p in rnd.proposal
            if p != self._g.pid
        ) and self._g.romp.transition_drained(rnd.view_ts)
        if not ready:
            rnd.sync_timer = self._g.schedule(
                self._g.config.nack_retry_interval, self._drain_step
            )
            return
        self._g.romp.end_transition()
        self._install_fault_view()

    def _install_fault_view(self) -> None:
        rnd = self._round
        assert rnd is not None
        removed = tuple(sorted(set(self._g.membership) - rnd.proposal))
        new_membership = tuple(sorted(rnd.proposal))
        # Deterministic view timestamp: every survivor records the same
        # single Membership message per proposal member, so the max of
        # their header timestamps agrees everywhere.
        view_ts = rnd.view_ts
        self._round = None
        self._accusations.clear()
        self._my_suspects.clear()
        self._sent_proposals.clear()
        self.stats.views_installed += 1
        self._g.install_fault_view(
            membership=new_membership,
            view_timestamp=view_ts,
            removed=removed,
        )

    # ------------------------------------------------------------------
    def reset_after_view(self) -> None:
        """Clear suspicion state after any view installation.

        Accusations are relative to a view, so they cannot survive it —
        but the *facts* behind them can: an AddProcessor ordered while a
        fault round is draining installs a view and lands here, and the
        faulty member is still dead.  Re-raise whatever the fault
        detector still holds against members of the new view, so the
        round re-forms instead of silently never convicting.
        """
        self._accusations.clear()
        self._my_suspects.clear()
        self._sent_proposals.clear()
        rnd = self._round
        if rnd is not None and rnd.sync_timer is not None:
            rnd.sync_timer.cancel()
        self._round = None
        self._g.romp.end_transition()
        if rnd is not None and rnd.view_ts:
            # The view ended the round's drain, which delivered the old
            # view past each convicted member's synced prefix, gated on
            # the survivors alone: what it sent past the prefix before
            # this view is the old view's, and never delivered
            self._g.romp.cut_old_view(
                {p: seq for p, seq in rnd.targets.items() if p not in rnd.proposal},
                self._ordered_key)
        still = self._g.fault_detector.suspected & set(self._g.membership)
        self._counted &= still  # a conviction ends with its suspicion
        if still:
            self._my_suspects |= still
            self._broadcast_suspects()

    def cancel_add_resend(self, new_member: int) -> None:
        entry = self._add_resends.pop(new_member, None)
        if entry is not None:
            entry[1].cancel()

    def stop(self) -> None:
        for _msg, timer in self._add_resends.values():
            timer.cancel()
        self._add_resends.clear()
        if self._round is not None and self._round.sync_timer is not None:
            self._round.sync_timer.cancel()

    @property
    def removing(self) -> FrozenSet[int]:
        """Members the unresolved fault round removes (empty if none)."""
        if self._round is None:
            return frozenset()
        return frozenset(self._g.membership) - self._round.proposal

    @property
    def in_fault_round(self) -> bool:
        """True while a fault-membership round is unresolved."""
        return self._round is not None
