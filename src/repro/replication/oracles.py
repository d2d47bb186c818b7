"""Protocol-invariant oracles over recorded FTMP histories (chaos campaign).

Each oracle is a pure function over the per-processor histories collected
by :class:`~repro.core.events.RecordingListener` (and, for the live-state
oracles, the stacks themselves) that returns a list of
:class:`Violation` records — empty when the invariant holds.  They encode
the paper's §5–§7 guarantees as checkable properties:

* **total order** — processors deliver the messages they have in common
  in the same relative order, and agree on each message's content;
* **per-source FIFO** — each source's messages are delivered in strictly
  increasing sequence-number order;
* **no duplicates** — no ``(source, seq)`` is delivered twice, and no
  GIOP ``(connection id, request number)`` is delivered twice from the
  same source;
* **virtual synchrony** — processors that transition through the same
  pair of views deliver the same message set in the earlier view;
* **convergence** — once quiescent, every final member holds every
  message another final member delivered after it started delivering;
* **buffer-GC safety** — a message some accepted member still lacks is
  retained in at least one live member's retransmission buffer (checked
  *during* the run, not just at the end);
* **quiescence** — after faults heal and traffic stops, no gaps, empty
  ordering queues, and no stuck safe-delivery holds.

The chaos campaign runner (``repro.analysis.chaos``) drives these across
seeded fault scenarios; the soak test reuses them directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.events import Delivery, RecordingListener, ViewChange
from ..core.multigroup import is_multigroup_delivery, is_total_multigroup_delivery

__all__ = [
    "Violation",
    "check_total_order",
    "check_fifo",
    "check_no_duplicates",
    "check_virtual_synchrony",
    "check_convergence",
    "check_membership_agreement",
    "check_buffer_gc_safety",
    "check_quiescence",
    "check_multigroup_acyclicity",
    "run_history_oracles",
]

#: message identity independent of the ordering timestamp
MessageId = Tuple[int, int]  # (source, sequence_number)


@dataclass(frozen=True)
class Violation:
    """One invariant breach, with enough detail to read the repro artifact."""

    oracle: str
    detail: str
    members: Tuple[int, ...] = ()
    #: machine-readable equivalence key: ``(oracle, stable discriminators)``.
    #: Two violations with the same key are "the same bug" for the schedule
    #: shrinker — it only accepts a reduction if the reduced run still
    #: raises a violation whose key matches the original's, so a shrink
    #: can never silently swap the target bug for an unrelated one.  Keys
    #: deliberately exclude run-size-dependent detail (counts, indices,
    #: timestamps) that legitimate reductions would perturb.
    key: Tuple[object, ...] = ()
    #: for the acyclicity oracle: the offending cycle as a closed walk of
    #: ``(origin, mg_seq)`` multicast ids (first id repeated at the end)
    cycle: Tuple[Tuple[int, int], ...] = ()

    @property
    def signature(self) -> Tuple[object, ...]:
        """The equivalence key, falling back to the oracle name alone."""
        return self.key if self.key else (self.oracle,)

    def as_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {"oracle": self.oracle, "detail": self.detail,
                                  "members": list(self.members),
                                  "key": list(self.signature)}
        if self.cycle:
            out["cycle"] = [list(m) for m in self.cycle]
        return out


def _ids(listener: RecordingListener, group: int) -> List[MessageId]:
    return [(d.source, d.sequence_number)
            for d in listener.deliveries if d.group == group]


# ----------------------------------------------------------------------
# total order
# ----------------------------------------------------------------------
def check_total_order(listeners: Dict[int, RecordingListener],
                      group: int) -> List[Violation]:
    """Pairwise agreement on the relative order (and content) of common
    messages, plus per-member monotonicity of the ordering key."""
    violations: List[Violation] = []
    ids: Dict[int, List[MessageId]] = {}
    content: Dict[MessageId, Tuple[int, bytes]] = {}  # id -> (ts, payload)
    for pid, lst in sorted(listeners.items()):
        ids[pid] = _ids(lst, group)
        prev_key = None
        for d in lst.deliveries:
            if d.group != group:
                continue
            mid = (d.source, d.sequence_number)
            seen = content.get(mid)
            if seen is None:
                content[mid] = (d.timestamp, d.payload)
            elif seen != (d.timestamp, d.payload):
                violations.append(Violation(
                    "total-order",
                    f"message {mid} has diverging (timestamp, payload) "
                    f"across members: {seen} vs {(d.timestamp, d.payload)}",
                    (pid,),
                    key=("total-order", "content"),
                ))
            key = (d.timestamp, d.source)
            if prev_key is not None and key <= prev_key:
                violations.append(Violation(
                    "total-order",
                    f"member {pid} delivered non-monotonic ordering keys "
                    f"{prev_key} then {key}",
                    (pid,),
                    key=("total-order", "monotonic"),
                ))
            prev_key = key
    pids = sorted(ids)
    for i, a in enumerate(pids):
        set_a = set(ids[a])
        for b in pids[i + 1:]:
            common = set_a & set(ids[b])
            seq_a = [m for m in ids[a] if m in common]
            seq_b = [m for m in ids[b] if m in common]
            if seq_a != seq_b:
                at = next(
                    (k for k, (x, y) in enumerate(zip(seq_a, seq_b)) if x != y),
                    min(len(seq_a), len(seq_b)),
                )
                violations.append(Violation(
                    "total-order",
                    f"members {a} and {b} deliver common messages in "
                    f"different orders; first divergence at common index "
                    f"{at}: {seq_a[at:at + 3]} vs {seq_b[at:at + 3]}",
                    (a, b),
                    key=("total-order", "pair-order"),
                ))
    return violations


# ----------------------------------------------------------------------
# per-source FIFO
# ----------------------------------------------------------------------
def check_fifo(listeners: Dict[int, RecordingListener],
               group: int) -> List[Violation]:
    """Sequence numbers (and timestamps) strictly increase per source."""
    violations: List[Violation] = []
    for pid, lst in sorted(listeners.items()):
        last: Dict[int, Tuple[int, int]] = {}  # source -> (seq, ts)
        for d in lst.deliveries:
            if d.group != group:
                continue
            prev = last.get(d.source)
            if prev is not None and (d.sequence_number <= prev[0]
                                     or d.timestamp <= prev[1]):
                violations.append(Violation(
                    "fifo",
                    f"member {pid} delivered source {d.source} out of FIFO "
                    f"order: (seq {prev[0]}, ts {prev[1]}) then "
                    f"(seq {d.sequence_number}, ts {d.timestamp})",
                    (pid,),
                    key=("fifo", d.source),
                ))
            last[d.source] = (d.sequence_number, d.timestamp)
    return violations


# ----------------------------------------------------------------------
# duplicate suppression
# ----------------------------------------------------------------------
def check_no_duplicates(listeners: Dict[int, RecordingListener],
                        group: int) -> List[Violation]:
    """No (source, seq) delivered twice; no GIOP (cid, request) repeated."""
    violations: List[Violation] = []
    for pid, lst in sorted(listeners.items()):
        seen_ids: set = set()
        seen_requests: set = set()
        for d in lst.deliveries:
            if d.group != group:
                continue
            mid = (d.source, d.sequence_number)
            if mid in seen_ids:
                violations.append(Violation(
                    "no-duplicates",
                    f"member {pid} delivered message {mid} more than once",
                    (pid,),
                    key=("no-duplicates", "message"),
                ))
            seen_ids.add(mid)
            cid = d.connection_id
            if cid is not None and cid != cid.none():
                rid = (d.source, cid, d.request_num)
                if rid in seen_requests:
                    violations.append(Violation(
                        "no-duplicates",
                        f"member {pid} delivered GIOP request "
                        f"(cid={cid}, request={d.request_num}) from source "
                        f"{d.source} more than once",
                        (pid,),
                        key=("no-duplicates", "giop"),
                    ))
                seen_requests.add(rid)
    return violations


# ----------------------------------------------------------------------
# virtual synchrony
# ----------------------------------------------------------------------
def _view_epochs(listener: RecordingListener, group: int):
    """Segment one member's deliveries by the view they arrived in.

    Returns a list of dicts ``{key, succ_ts, succ_members, ids}`` in view
    order; ``succ_ts``/``succ_members`` are ``None`` for the final (open)
    epoch.
    """
    current_key: Optional[Tuple[int, Tuple[int, ...]]] = None
    current: List[MessageId] = []
    epochs: List[dict] = []
    for ev in listener.events:
        if isinstance(ev, ViewChange) and ev.group == group:
            if current_key is not None:
                epochs.append({"key": current_key, "succ_ts": ev.view_timestamp,
                               "succ_members": ev.membership, "ids": current})
            # an eviction (empty membership) ends this member's history
            current_key = (ev.view_timestamp, ev.membership) if ev.membership else None
            current = []
        elif isinstance(ev, Delivery) and ev.group == group:
            current.append((ev.source, ev.sequence_number))
    if current_key is not None:
        epochs.append({"key": current_key, "succ_ts": None,
                       "succ_members": None, "ids": current})
    return epochs


def check_virtual_synchrony(listeners: Dict[int, RecordingListener],
                            group: int) -> List[Violation]:
    """Members that pass through the same (view, successor) transition
    must have delivered the same message set in the earlier view, and no
    member delivers a message in a view its source is not in: the §7.2
    drain delivers a convicted member's prefix before the fault view.

    Multi-group deliveries get one relaxation: a member in its *first*
    epoch of the group may be missing multi-group sentinel deliveries
    that incumbents made.  A multicast whose Propose was ordered before
    the joiner's AddProcessor but whose Commit landed after it is
    delivered by every incumbent yet never by the joiner — its replay of
    the group's stream starts at the join barrier, so the Propose (and
    hence the pending entry the Commit completes) does not exist there.
    That is the documented non-uniform window of the multi-group
    protocol, not an ordering bug, so it must not trip the oracle.
    """
    mg_ids = {
        (d.source, d.sequence_number)
        for lst in listeners.values()
        for d in lst.deliveries
        if d.group == group and d.connection_id is not None
        and is_multigroup_delivery(d.connection_id)
    }
    transitions: Dict[
        tuple, List[Tuple[int, Tuple[int, ...], frozenset, bool]]
    ] = {}
    violations: List[Violation] = []
    for pid, lst in sorted(listeners.items()):
        for index, epoch in enumerate(_view_epochs(lst, group)):
            outside = sorted({m for m in epoch["ids"] if m[0] not in epoch["key"][1]})
            if outside:
                violations.append(Violation(
                    "virtual-synchrony",
                    f"member {pid} delivered {outside[:5]} in view "
                    f"{epoch['key']}, whose sources are outside it",
                    (pid,), key=("virtual-synchrony", "outside-view"),
                ))
            if epoch["succ_ts"] is None:
                continue  # open epoch: no virtual-synchrony obligation
            transitions.setdefault((epoch["key"], epoch["succ_ts"]), []).append(
                (pid, epoch["succ_members"], frozenset(epoch["ids"]),
                 index == 0)
            )
    for (key, succ_ts), entries in sorted(transitions.items()):
        # an evicted member reports successor membership (); every other
        # member must name the same successor view for sets to be comparable
        real_succs = {m for _p, m, _s, _f in entries if m != ()}
        if len(real_succs) > 1:
            continue  # concurrent successor views (split): no obligation
        # virtual synchrony binds only processors that *survive* into the
        # successor view; a member evicted at this transition (successor
        # membership ()) failed, and a failed processor's delivery set is
        # allowed to be a prefix of the survivors'
        entries = [e for e in entries if e[1] != ()]
        if len(entries) < 2:
            continue
        sets = {s for _p, _m, s, _f in entries}
        if len(sets) > 1:
            reference = max(sets, key=len)
            diffs = []
            for pid, _m, s, first in entries:
                missing = reference - s
                if first:
                    missing -= mg_ids  # join-window gap, see docstring
                extra = s - reference
                if missing or extra:
                    diffs.append(f"member {pid} "
                                 f"missing={sorted(missing)[:5]} "
                                 f"extra={sorted(extra)[:5]}")
            if diffs:
                violations.append(Violation(
                    "virtual-synchrony",
                    f"view {key} -> ts {succ_ts}: delivery sets diverge "
                    f"({'; '.join(diffs)})",
                    tuple(p for p, _m, _s, _f in entries),
                    key=("virtual-synchrony",),
                ))
    return violations


# ----------------------------------------------------------------------
# convergence among final members
# ----------------------------------------------------------------------
def check_convergence(listeners: Dict[int, RecordingListener], group: int,
                      pids: Iterable[int]) -> List[Violation]:
    """Every final member delivered every message another final member
    delivered after its own first delivery (joiners hold a suffix).

    Messages originated by processors *outside* the final membership are
    exempt: a member removed by a fault view has its prefix delivered
    only at the members of that view — a joiner admitted afterwards
    legitimately never sees it (virtual synchrony covers those epochs).
    """
    pids = sorted(pids)
    final = set(pids)
    keyed: Dict[int, List[Tuple[Tuple[int, int], MessageId]]] = {}
    for pid in pids:
        keyed[pid] = [((d.timestamp, d.source), (d.source, d.sequence_number))
                      for d in listeners[pid].deliveries if d.group == group]
    violations: List[Violation] = []
    for a in pids:
        for b in pids:
            if a == b or not keyed[b]:
                continue
            low_b = keyed[b][0][0]
            have_b = {mid for _k, mid in keyed[b]}
            missing = [mid for k, mid in keyed[a]
                       if k > low_b and mid not in have_b and mid[0] in final]
            if missing:
                violations.append(Violation(
                    "convergence",
                    f"member {b} never delivered {len(missing)} message(s) "
                    f"that member {a} delivered after {b}'s first delivery, "
                    f"e.g. {missing[:5]}",
                    (a, b),
                    key=("convergence",),
                ))
    return violations


def check_membership_agreement(listeners: Dict[int, RecordingListener],
                               group: int, pids: Iterable[int],
                               expected: Optional[Tuple[int, ...]] = None,
                               ) -> List[Violation]:
    """All given members report the same current membership."""
    violations: List[Violation] = []
    views = {p: listeners[p].current_membership(group) for p in sorted(pids)}
    reference = expected
    for pid, membership in views.items():
        if reference is None:
            reference = membership
        if membership != reference:
            violations.append(Violation(
                "membership-agreement",
                f"member {pid} reports membership {membership}, "
                f"expected {reference}",
                (pid,),
                key=("membership-agreement",),
            ))
    return violations


# ----------------------------------------------------------------------
# live-state oracles (fed from the stacks, not the listeners)
# ----------------------------------------------------------------------
def check_buffer_gc_safety(stacks: Dict[int, object], group: int,
                           crashed: Iterable[int] = ()) -> List[Violation]:
    """Nothing was reclaimed below a peer's ack: any message an accepted
    member still lacks is retained by at least one live member."""
    crashed = set(crashed)
    groups = {}
    for pid, st in stacks.items():
        if pid in crashed:
            continue
        g = st.group(group)
        if g is not None and not g.joining:
            groups[pid] = g
    if not groups:
        return []
    # only members every live stack currently counts in the membership —
    # an evicted-but-unaware processor has no retention claim on the rest
    accepted = [p for p in groups
                if all(p in g.membership for g in groups.values())]
    accepted_set = set(accepted)
    violations: List[Violation] = []
    for pid in accepted:
        for src, state in groups[pid].rmp.sources().items():
            if src not in accepted_set:
                # messages from a crashed or evicted source carry no
                # retention promise: the source may have advertised a seq
                # nobody ever received, and virtual synchrony (not NACK
                # recovery) governs its synchronized prefix
                continue
            for seq in range(state.next_seq, state.highest_heard + 1):
                if seq in state.pending:
                    continue
                if not any((src, seq) in g.buffer for g in groups.values()):
                    violations.append(Violation(
                        "buffer-gc-safety",
                        f"member {pid} still needs ({src}, {seq}) but no "
                        f"live member retains it (reclaimed below a "
                        f"peer's ack)",
                        (pid,),
                        key=("buffer-gc-safety", src),
                    ))
    return violations


def check_quiescence(stacks: Dict[int, object], group: int,
                     pids: Iterable[int]) -> List[Violation]:
    """After cool-down: no RMP gaps, drained ordering/safe queues."""
    members = set(pids)
    violations: List[Violation] = []
    for pid in sorted(pids):
        st = stacks.get(pid)
        g = st.group(group) if st is not None else None
        if g is None:
            violations.append(Violation(
                "quiescence", f"final member {pid} no longer has the group",
                (pid,),
                key=("quiescence", "group-gone"),
            ))
            continue
        # only gaps in *member* sources matter: an evicted processor that
        # resumed sending leaves an unfillable (and irrelevant) gap
        gappy = [src for src, state in g.rmp.sources().items()
                 if src in members and state.highest_heard > state.contiguous_top]
        if gappy:
            violations.append(Violation(
                "quiescence",
                f"member {pid} has unrecovered sequence gaps from "
                f"source(s) {sorted(gappy)}",
                (pid,),
                key=("quiescence", "gaps"),
            ))
        if g.romp.queued():
            violations.append(Violation(
                "quiescence",
                f"member {pid} has {g.romp.queued()} messages stuck in the "
                f"ordering queue",
                (pid,),
                key=("quiescence", "ordering-queue"),
            ))
        if g.romp.unsafe_held():
            violations.append(Violation(
                "quiescence",
                f"member {pid} holds {g.romp.unsafe_held()} undelivered "
                f"safe-mode messages",
                (pid,),
                key=("quiescence", "safe-hold"),
            ))
    return violations


# ----------------------------------------------------------------------
# cross-group acyclicity (multi-group atomic multicast)
# ----------------------------------------------------------------------
def check_multigroup_acyclicity(
    listeners: Dict[int, RecordingListener],
    groups: Dict[int, Iterable[int]],
) -> List[Violation]:
    """The union of per-group delivery orders of totally ordered
    multi-group multicasts contains no cycle.

    Within one group every member delivers the same sequence (the
    total-order oracle checks that), but two multicasts addressed to
    overlapping group sets could in principle be delivered as A<B in one
    group and B<A in another — the classic non-atomic interleaving the
    timestamp-commit protocol exists to rule out.  We build the directed
    graph whose nodes are multicast ids ``(origin, mg_seq)`` and whose
    edges are the consecutive-delivery pairs observed at every
    ``(member, group)`` projection restricted to conflict-class-0
    (sentinel-CID) deliveries, then look for a cycle.  Commutative
    (non-zero conflict class) deliveries are excluded: they carry no
    cross-group ordering promise.  The returned violation carries the
    offending cycle in its ``cycle`` field, with edge provenance in the
    detail text.

    ``groups`` maps each group id to the member pids whose histories
    should be projected (typically the group's final membership).
    """
    edges: Dict[int, set] = {}
    provenance: Dict[Tuple[int, int], Tuple[int, int]] = {}
    for gid in sorted(groups):
        for pid in sorted(groups[gid]):
            lst = listeners.get(pid)
            if lst is None:
                continue
            seq = [d.request_num for d in lst.deliveries
                   if d.group == gid and d.connection_id is not None
                   and is_total_multigroup_delivery(d.connection_id)]
            for a, b in zip(seq, seq[1:]):
                edges.setdefault(a, set())
                edges.setdefault(b, set())
                if b not in edges[a]:
                    edges[a].add(b)
                    provenance.setdefault((a, b), (pid, gid))
    # iterative coloured DFS; report the first cycle found
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {n: WHITE for n in edges}
    for root in sorted(edges):
        if color[root] != WHITE:
            continue
        color[root] = GRAY
        path = [root]
        stack = [(root, iter(sorted(edges[root])))]
        while stack:
            node, it = stack[-1]
            nxt = next(it, None)
            if nxt is None:
                stack.pop()
                path.pop()
                color[node] = BLACK
                continue
            if color[nxt] == GRAY:
                walk = path[path.index(nxt):] + [nxt]
                cycle = tuple((r >> 32, r & 0xFFFFFFFF) for r in walk)
                hops = []
                pids = set()
                for a, b in zip(walk, walk[1:]):
                    wpid, wgid = provenance[(a, b)]
                    pids.add(wpid)
                    hops.append(
                        f"({a >> 32},{a & 0xFFFFFFFF})<"
                        f"({b >> 32},{b & 0xFFFFFFFF}) at member {wpid} "
                        f"in group {wgid}"
                    )
                return [Violation(
                    "multigroup-acyclicity",
                    "cross-group delivery orders form a cycle: "
                    + "; ".join(hops),
                    tuple(sorted(pids)),
                    key=("multigroup-acyclicity",),
                    cycle=cycle,
                )]
            if color[nxt] == WHITE:
                color[nxt] = GRAY
                path.append(nxt)
                stack.append((nxt, iter(sorted(edges[nxt]))))
    return []


def run_history_oracles(listeners: Dict[int, RecordingListener],
                        group: int,
                        final_members: Optional[Sequence[int]] = None,
                        ) -> List[Violation]:
    """The full post-run battery over recorded histories."""
    violations = []
    violations += check_total_order(listeners, group)
    violations += check_fifo(listeners, group)
    violations += check_no_duplicates(listeners, group)
    violations += check_virtual_synchrony(listeners, group)
    if final_members:
        violations += check_convergence(listeners, group, final_members)
        violations += check_membership_agreement(
            listeners, group, final_members,
            expected=tuple(sorted(final_members)),
        )
    return violations
