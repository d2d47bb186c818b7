"""The verification runner: seeded chaos plans × explored schedules ×
protocol oracles, in every replication mode.

One sweep over (mode, scenario class, plan seed, schedule).  Each run
executes a :class:`~repro.replication.chaos.ChaosPlan` against a
simulated FTMP cluster and checks every invariant in
:mod:`repro.replication.oracles` — the history oracles after the run,
buffer-GC safety periodically *during* it.  The defaults are the seeded
*campaign*: policy ``fifo``, one schedule, no policy object installed,
so the scheduler's plain heap path runs::

    python -m repro.analysis.chaos run --seeds 5

``--policy pct|random --schedules N`` is the *schedule explorer*: the
same plans under N resolutions of every contested same-time choice (a
:class:`~repro.simnet.SchedulePolicy` installed in the scheduler), which
is what reaches interleaving bugs that need one particular timer /
delivery order::

    python -m repro.analysis.chaos run --policy pct --schedules 10

Either way a violation is delta-debugged (:mod:`.explore`: decisions,
then plan events, then the traffic timeline, each step re-validated
against the violation's machine-readable key) into one self-contained
minimized JSON artifact — config, plan, schedule, shrink provenance,
injection log, the involved transcripts — that replays byte-exactly::

    python -m repro.analysis.chaos replay ARTIFACT.json

and doubles as a one-file regression test under ``tests/data/explore/``.
Which classes a mode sweeps, explores by default or leaves out, and why,
is :data:`MODE_TABLE`; ``python -m repro.analysis.chaos matrix`` prints
it (EXPERIMENTS.md E15 embeds that output).  ``--inject-ordering-bug``
is the end-to-end self-test: a forced transcript corruption must be
caught, shrunk, written and replayed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core import FlowControlSaturated, FTMPConfig
from ..core.config import REJECTED_CELLS
from ..core.multigroup import is_total_multigroup_delivery
from ..replication.chaos import (
    PROTECTED_PID,
    SCENARIOS,
    ChaosPlan,
    survivor_aware_overlap_groups,
)
from ..replication.fault_injection import FaultInjector
from ..replication.oracles import (
    Violation,
    check_buffer_gc_safety,
    check_multigroup_acyclicity,
    check_quiescence,
    run_history_oracles,
)
from ..simnet import (
    LinkModel,
    ReplayPolicy,
    Schedule,
    SchedulePolicy,
    Scheduler,
    Topology,
)
from .explore import ShrinkStats, shrink_failure
from .harness import Cluster, make_multigroup_cluster

__all__ = ["MODE_TABLE", "Cell", "ModeSpec", "ChaosResult",
           "default_chaos_config", "chaos_config_for", "chaos_plan_for",
           "execute_plan", "run_plan", "sweep", "load_artifact", "replay",
           "render_matrix", "main", "LLFT_LEADER_PID", "OVERLAY_FANOUT"]

#: the processor ``llft`` designates as leader for the ``leader_crash``
#: class (must not be the protected sponsor, or the plan could never
#: crash it)
LLFT_LEADER_PID = 2

#: ``overlay`` tree fan-out.  k=2 over the default 5-member roster yields
#: ``1 -> (2, 3)``, ``2 -> (4, 5)``: pid 2 — the ``relay_crash`` victim —
#: is an *interior* relay with a real subtree, and the protected sponsor
#: is the root (never harmed).
OVERLAY_FANOUT = 2

#: buffer-GC safety is checked this often (simulated s) during a run
GC_CHECK_INTERVAL = 0.05


@dataclass(frozen=True)
class Cell:
    """What one (mode, class) run changes against the mode's row, and why."""

    why: str
    config: Dict[str, object] = field(default_factory=dict)
    cooldown: float = 0.0  #: extra fault-free tail (simulated s)


@dataclass(frozen=True)
class ModeSpec:
    """One row of the mode × scenario table."""

    about: str
    #: FTMPConfig overrides, every class; names the row's ordering and
    #: dissemination, the two axes ``matrix`` crosses
    config: Dict[str, object]
    explored: Tuple[str, ...]  #: default classes under --policy pct|random
    cells: Dict[str, Cell] = field(default_factory=dict)
    excluded: Dict[str, str] = field(default_factory=dict)  #: class -> why

    @property
    def swept(self) -> Tuple[str, ...]:
        """The classes ``run`` sweeps when none is named."""
        return tuple(s for s in SCENARIOS if s not in self.excluded)


_OTHER_MODES = ("several groups per stack: per-group leader streams / overlay "
                "trees are not what this mode targets (active and multigroup "
                "sweep it)")
_CRASH_AGAIN = ("the designated victim means nothing to Skeen ordering: the "
                "crash class again")

#: mode -> what it configures, sweeps, explores and leaves out.  The
#: explored mix is the classes whose timer / recovery races §6 stability
#: and §7 virtual synchrony must survive — membership churn, transient
#: partitions, crash faults, overload backpressure — plus the mode's own
#: handoff class, exactly the same-time orders a policy exists to permute.
#: The llft and multigroup rows also explore ``combo``: a join during a
#: fault round, the joiner's replay racing the §7.2 drain.
MODE_TABLE: Dict[str, ModeSpec] = {
    "active": ModeSpec(
        about="symmetric §6 Lamport order, all-member stability",
        config={"ordering": "symmetric", "dissemination": "flat"},
        explored=("churn", "partition", "crash", "overload"),
    ),
    "llft": ModeSpec(
        about="leader-follower fast path, leader = the protected sponsor; "
              "history oracles bind over the final members only (virtual "
              "synchrony excuses a crashed member's speculative suffix)",
        config={"ordering": "leader", "dissemination": "flat",
                "llft_leader_pid": 0},  # 0: smallest member
        explored=("churn", "partition", "crash", "combo", "overload", "leader_crash"),
        cells={"leader_crash": Cell(
            "the leader is pinned to the crash victim: a takeover with "
            "parked messages and OrderInfo gaps in flight",
            config={"llft_leader_pid": LLFT_LEADER_PID})},
        excluded={"overlap": _OTHER_MODES},
    ),
    "overlay": ModeSpec(
        about="tree dissemination with aggregated stability",
        # 40 ms summaries: still inside the campaign's liveness horizon
        # (half the 150 ms suspect timeout), while an interior relay's
        # summary egress stays a small fraction of the overload class's
        # capped NIC drain — at the 5 ms default the summary stream alone
        # saturates the NIC and starves Regular/NACK traffic.  NACK
        # backoff matters here: dropped tree copies are repaired by flat
        # NACK recovery, and fixed-interval re-requests for holes a
        # congested relay cannot answer yet would sustain the congestion
        config={"ordering": "symmetric", "dissemination": "tree",
                "overlay_fanout": OVERLAY_FANOUT,
                "overlay_summary_interval": 0.040, "nack_backoff_factor": 2.0},
        explored=("churn", "partition", "crash", "overload", "relay_crash"),
        cells={
            "relay_crash": Cell(
                "the victim is an interior relay of the tree 1->(2,3), "
                "2->(4,5): its subtree loses dissemination and aggregated "
                "stability at once"),
            # an unbounded send queue would keep releasing fresh first
            # transmissions far past traffic stop and the tail never
            # converge by run end; the class's own premise is that the
            # credit loop, not a queue, absorbs the excess.  The repair of
            # tail-dropped copies is deduplicated and backed off, and
            # that detour needs more time than flat dissemination
            "overload": Cell(
                "an interior relay serializes ~2x the offered load: a "
                "bounded send queue sheds synchronously, and tail-dropped "
                "tree copies need a longer cool-down for backed-off NACK "
                "repair",
                config={"flow_queue_limit": 32}, cooldown=0.8),
        },
        excluded={"overlap": _OTHER_MODES},
    ),
    "multigroup": ModeSpec(
        about="Skeen multi-group multicast over three overlapping groups, "
              "plus the cross-group acyclicity oracle",
        config={"ordering": "skeen", "dissemination": "flat"},
        explored=("churn", "partition", "crash", "combo", "overlap"),
        excluded={
            "overload": "multi-group sends bypass the flow controller: the "
                        "credit loop cannot absorb the offered load",
            "leader_crash": _CRASH_AGAIN,
            "relay_crash": _CRASH_AGAIN,
        },
    ),
}


def default_chaos_config() -> FTMPConfig:
    """The campaign's stack configuration.

    ``suspect_timeout`` must exceed the longest partition window a
    :class:`ChaosPlan` generates (transient partitions heal without
    convictions; only real crashes are convicted).

    Every scenario class runs the full closed-loop datapath — adaptive
    batching, stability-driven flow control, deduplicated
    retransmissions — so the legacy fault classes double as regression
    coverage for the flow-control machinery, not just the protocol core.
    """
    # the dedupe window spans two NACK retry periods so one multicast
    # retransmission answers every member chasing the same gap.  It is
    # the campaign's one repair-rate limit: without it the llft and
    # overlay rows' overload class fails on some of seeds 0-19
    return FTMPConfig(heartbeat_interval=0.010, suspect_timeout=0.150,
                      batch_window=0.001, flow_control_window=24,
                      nack_dedupe_window=0.020)


def _mode(mode: str) -> ModeSpec:
    if mode not in MODE_TABLE:
        raise ValueError(f"unknown mode {mode!r} (choose from {tuple(MODE_TABLE)})")
    return MODE_TABLE[mode]


def chaos_config_for(mode: str, scenario: str) -> FTMPConfig:
    """The stack configuration of one (mode, class) cell."""
    spec = _mode(mode)
    cell = spec.cells.get(scenario)
    return dataclasses.replace(
        default_chaos_config(),
        **{**spec.config, **(cell.config if cell else {})})


def chaos_plan_for(mode: str, scenario: str, seed: int) -> ChaosPlan:
    """The plan of one (mode, class, seed) run: the generated one plus
    what the cell's row asks for."""
    spec = _mode(mode)
    plan = ChaosPlan.generate(seed, scenario)
    cell = spec.cells.get(scenario)
    if cell:
        plan.duration += cell.cooldown
    if spec.config["ordering"] == "skeen" and not plan.groups:
        # every class hosts an overlapping three-group layout (overlap
        # carries its own) so multi-group multicasts mix into the
        # traffic.  Generic classes budget crashes/leaves against the
        # *full* roster only, so the subset groups are drawn around the
        # plan's permanent losses — each must keep two live members or
        # it wedges (the membership protocol cannot form a singleton view)
        lost = {p for ev in plan.events if ev.kind in ("crash", "leave")
                for p in ev.pids}
        plan.groups = survivor_aware_overlap_groups(
            plan.initial_members, lost)
    return plan


@dataclass
class ChaosResult:
    """Outcome of one (scenario, plan seed) of the sweep: its last
    schedule, or the first that violated."""

    seed: int
    scenario: str
    violations: List[Violation] = field(default_factory=list)
    final_members: Tuple[int, ...] = ()
    deliveries: int = 0  #: total ordered deliveries across all members
    #: index log of every contested same-time choice (empty with no
    #: policy installed); replays byte-exactly through ReplayPolicy
    decisions: List[int] = field(default_factory=list)
    schedule_seed: int = 0
    schedules_run: int = 1
    artifact_path: Optional[str] = None
    shrink: Optional[ShrinkStats] = None

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def contested_choices(self) -> int:
        return len(self.decisions)


def _mg_target_sets(plan: ChaosPlan) -> Dict[int, List[Tuple[int, ...]]]:
    """Per sender: the group-sets it may address with a multi-group send
    (every combination of >= 2 of the groups it belongs to)."""
    from itertools import combinations

    targets: Dict[int, List[Tuple[int, ...]]] = {}
    for pid in plan.senders:
        mine = sorted(g for g, members in plan.groups.items() if pid in members)
        combos = [c for r in range(2, len(mine) + 1)
                  for c in combinations(mine, r)]
        if combos:
            targets[pid] = combos
    return targets


def _schedule_traffic(cluster: Cluster, plan: ChaosPlan,
                      cfg: Optional[FTMPConfig] = None) -> None:
    counters: Dict[int, int] = {}
    # multi-group traffic: every 4th send from a multi-homed sender is a
    # multi-group multicast, cycling through its addressable group-sets;
    # one in three of those is commutative (non-zero conflict class)
    mg_targets = (_mg_target_sets(plan)
                  if plan.groups and cfg is not None and cfg.ordering == "skeen"
                  else {})

    def send(pid: int) -> None:
        st = cluster.stacks.get(pid)
        if st is None:
            return
        n = counters.get(pid, 0)
        counters[pid] = n + 1
        targets = mg_targets.get(pid)
        try:
            if targets and n % 4 == 3:
                k = n // 4
                st.multicast_groups(targets[k % len(targets)],
                                    f"mg:{pid}:{n}".encode(),
                                    conflict_class=0 if k % 3 else 7)
            else:
                st.multicast(cluster.group, f"{pid}:{n}".encode())
        except FlowControlSaturated:
            pass  # bounded send queue shed the load (overload premise)
        except (KeyError, ValueError, RuntimeError):
            pass  # sender left, was evicted, or is still joining mid-run

    t = plan.traffic_start
    jitter = 0
    while t < plan.traffic_stop:
        for pid in plan.senders:
            cluster.net.scheduler.at(t + jitter * 1e-6, send, pid)
            jitter += 1
        t += plan.send_interval

    # overload bursts: dense extra traffic inside the planned windows,
    # offered above the egress drain rate so backpressure must engage
    for ev in plan.events:
        if ev.kind != "burst":
            continue
        t = ev.at
        while t < ev.stop:
            for pid in plan.senders:
                cluster.net.scheduler.at(t + jitter * 1e-6, send, pid)
                jitter += 1
            t += ev.value


def _inject_ordering_bug(cluster: Cluster,
                         final: Tuple[int, ...] = ()) -> None:
    """Test-only corruption: swap two adjacent different-source deliveries
    at one non-anchor member, in both its transcript and its event log.

    Final members come first: a crashed member's transcript is excluded
    from the llft-mode battery, so corrupting it would prove nothing.
    """
    candidates = sorted(cluster.listeners,
                        key=lambda p: (p not in final, p))
    for pid in candidates:
        if pid == PROTECTED_PID:
            continue
        lst = cluster.listeners[pid]
        dels = lst.deliveries
        for i in range(len(dels) - 1):
            if dels[i].source != dels[i + 1].source:
                a, b = dels[i], dels[i + 1]
                dels[i], dels[i + 1] = b, a
                ia, ib = lst.events.index(a), lst.events.index(b)
                lst.events[ia], lst.events[ib] = lst.events[ib], lst.events[ia]
                return
    raise RuntimeError("no adjacent different-source deliveries to swap")


def _inject_crossgroup_bug(cluster: Cluster, plan: ChaosPlan) -> None:
    """Test-only corruption for multi-group runs: invert the relative
    order of two multi-group multicasts in ONE group, consistently at
    every one of its members.

    Because the inversion is applied group-wide (positions *and*
    timestamps swapped), per-group agreement, key monotonicity and
    duplicate suppression all stay intact — the breach is visible only
    to the cross-group acyclicity oracle, which is exactly the invariant
    this injection exists to prove armed.
    """
    # per group: the reference member's delivery order of total
    # multi-group multicasts, as (request number, delivered timestamp)
    proj: Dict[int, List[Tuple[int, int]]] = {}
    for gid in sorted(plan.groups):
        live = [p for p in plan.groups[gid]
                if p in cluster.listeners and not cluster.net.is_crashed(p)]
        if not live:
            continue
        lst = cluster.listeners[min(live)]
        proj[gid] = [(d.request_num, d.timestamp) for d in lst.deliveries
                     if d.group == gid and d.connection_id is not None
                     and is_total_multigroup_delivery(d.connection_id)]
    # choose an adjacent pair: different origins, distinct commit
    # timestamps (equal-timestamp pairs are ordered by the origin
    # tie-break, which a timestamp swap would visibly invert), both
    # delivered in some other group too (the inversion must close a
    # cycle), key-clean (the swap moves each multicast's *source* to the
    # other slot, so neither slot may share its timestamp with a third
    # delivery — a same-timestamp neighbour would see its source
    # tie-break invert), and ideally no same-origin traffic between the
    # two slots so the per-source FIFO oracle stays quiet as well
    fallback = None
    for gid in sorted(proj):
        seq = proj[gid]
        elsewhere = [{r for r, _t in s} for g, s in proj.items() if g != gid]
        for (a, ts_a), (b, ts_b) in zip(seq, seq[1:]):
            if a >> 32 == b >> 32 or ts_a == ts_b:
                continue
            if not any(a in s and b in s for s in elsewhere):
                continue
            if not _swap_is_key_clean(cluster, plan, gid, a, b,
                                      ts_a, ts_b):
                continue
            if _swap_is_fifo_clean(cluster, plan, gid, a, b):
                _swap_mg_pair(cluster, plan, gid, a, b)
                return
            if fallback is None:
                fallback = (gid, a, b)
    if fallback is None:
        raise RuntimeError("no cross-group multicast pair to invert")
    _swap_mg_pair(cluster, plan, *fallback)


def _mg_slots(lst, gid: int, a: int, b: int):
    """Indices (into deliveries) of multicasts ``a`` and ``b`` in ``gid``."""
    ia = ib = None
    for i, d in enumerate(lst.deliveries):
        if d.group != gid or d.connection_id is None:
            continue
        if not is_total_multigroup_delivery(d.connection_id):
            continue
        if d.request_num == a:
            ia = i
        elif d.request_num == b:
            ib = i
    return ia, ib


def _swap_is_key_clean(cluster: Cluster, plan: ChaosPlan, gid: int,
                       a: int, b: int, ts_a: int, ts_b: int) -> bool:
    """True when the pair's timestamps are unique within ``gid`` at every
    member, so moving each multicast's source to the other slot cannot
    invert a same-timestamp (ts, src) tie-break against a neighbour."""
    for pid in plan.groups[gid]:
        lst = cluster.listeners.get(pid)
        if lst is None:
            continue
        for ts in (ts_a, ts_b):
            hits = sum(1 for d in lst.deliveries
                       if d.group == gid and d.timestamp == ts)
            if hits > 1:
                return False
    return True


def _swap_is_fifo_clean(cluster: Cluster, plan: ChaosPlan, gid: int,
                        a: int, b: int) -> bool:
    for pid in plan.groups[gid]:
        lst = cluster.listeners.get(pid)
        if lst is None:
            continue
        ia, ib = _mg_slots(lst, gid, a, b)
        if ia is None or ib is None:
            continue
        lo, hi = min(ia, ib), max(ia, ib)
        origins = {a >> 32, b >> 32}
        for d in lst.deliveries[lo:hi + 1]:
            if d.group == gid and d.source in origins \
                    and d.request_num not in (a, b):
                return False
    return True


def _swap_mg_pair(cluster: Cluster, plan: ChaosPlan, gid: int,
                  a: int, b: int) -> None:
    for pid in plan.groups[gid]:
        lst = cluster.listeners.get(pid)
        if lst is None:
            continue
        ia, ib = _mg_slots(lst, gid, a, b)
        if ia is None or ib is None:
            continue
        da, db = lst.deliveries[ia], lst.deliveries[ib]
        # swap positions and timestamps: each slot keeps its timestamp
        # (sources move with the content, which is why selection insists
        # on key-clean pairs), so only the *cross-group* relative order
        # of a and b changes
        na = dataclasses.replace(da, timestamp=db.timestamp)
        nb = dataclasses.replace(db, timestamp=da.timestamp)
        lst.deliveries[ia], lst.deliveries[ib] = nb, na
        ea, eb = lst.events.index(da), lst.events.index(db)
        lst.events[ea], lst.events[eb] = nb, na



def _transcript(cluster: Cluster, pid: int, gid: int) -> List[dict]:
    return [
        {
            "source": d.source,
            "seq": d.sequence_number,
            "timestamp": d.timestamp,
            "payload": d.payload.decode("latin-1"),
        }
        for d in cluster.listeners[pid].deliveries
        if d.group == gid
    ]


def build_artifact(result: ChaosResult, plan: ChaosPlan,
                   config: FTMPConfig, injector: FaultInjector,
                   cluster: Cluster, inject_ordering_bug: bool,
                   extra: dict) -> dict:
    """The self-contained violation-artifact dict.

    Transcripts and memberships cover the members the violations name
    plus a reference copy (the anchor's; in a subset group, its smallest
    live member's).  A plan with ``groups`` records them per group
    (``{group: {member: ...}}``): a cross-group violation is about
    deliveries outside the cluster's default group.
    """
    involved = {m for v in result.violations for m in v.members}
    scopes = plan.groups or {cluster.group: tuple(cluster.listeners)}

    def recorded(members) -> List[int]:
        present = sorted(p for p in members if p in cluster.listeners)
        live = [p for p in present if not cluster.net.is_crashed(p)]
        return sorted(involved.intersection(present).union(live[:1]))

    transcripts = {
        str(gid): {str(p): _transcript(cluster, p, gid) for p in recorded(m)}
        for gid, m in sorted(scopes.items())}
    memberships = {
        str(gid): {str(p): list(cluster.listeners[p].current_membership(gid) or ())
                   for p in recorded(m)}
        for gid, m in sorted(scopes.items())}
    if not plan.groups:  # one group: the flat form, as always
        (transcripts,), (memberships,) = transcripts.values(), memberships.values()
    return {
        "seed": plan.seed,
        "scenario": plan.scenario,
        "inject_ordering_bug": inject_ordering_bug,
        "config": dataclasses.asdict(config),
        "plan": plan.as_dict(),
        "injections": [dataclasses.asdict(i) for i in injector.injected],
        "violations": [v.as_dict() for v in result.violations],
        "final_members": list(result.final_members),
        "transcripts": transcripts,
        "memberships": memberships,
        **extra,
    }


def plan_topology(plan: ChaosPlan) -> Optional[Topology]:
    """The network topology a plan calls for (None = default LAN)."""
    if plan.egress_bandwidth > 0.0:
        # overload plans model a constrained NIC: offered load beyond the
        # egress bandwidth must queue behind the credit window, not grow
        # an unbounded in-network queue.  The queue bound never triggers
        # under flow-controlled flat sends (peak backlog stays under
        # ~70 ms), but overlay relays carry other members' credit windows
        # through one NIC — a real NIC tail-drops that excess, and the
        # drops feed ordinary NACK recovery instead of accumulating as
        # seconds of stale queueing no retransmission can outrun
        return Topology(
            default=LinkModel(latency=0.0001, jitter=0.00005),
            egress_bandwidth=plan.egress_bandwidth,
            packet_overhead=plan.packet_overhead,
            egress_queue_limit=0.25,
        )
    return None


def execute_plan(
    plan: ChaosPlan,
    config: Optional[FTMPConfig] = None,
    scheduler: Optional[Scheduler] = None,
    inject_ordering_bug: bool = False,
) -> Tuple[ChaosResult, Cluster, FaultInjector]:
    """Run one :class:`ChaosPlan` to completion and check every oracle.

    A ``scheduler`` carrying a :class:`~repro.simnet.SchedulePolicy`
    permutes same-time event orders and records them into
    ``result.decisions``.  The cluster is returned *running* so the
    caller can read it; callers own ``cluster.stop()``
    (:func:`run_plan` is the wrapper that does).
    """
    cfg = config if config is not None else default_chaos_config()
    cluster = make_multigroup_cluster(
        plan.initial_members, plan.groups or {1: plan.initial_members},
        config=cfg, seed=plan.seed, topology=plan_topology(plan),
        scheduler=scheduler,
    )
    injector = FaultInjector(cluster.net)
    plan.apply(cluster, injector, cfg)
    _schedule_traffic(cluster, plan, cfg)
    group_ids = sorted(cluster.addresses)

    # buffer-GC safety is a *live* invariant: check it while faults and
    # traffic are still in flight, not just at the end
    live_violations: List[Violation] = []

    def gc_check() -> None:
        crashed = [p for p in cluster.stacks if cluster.net.is_crashed(p)]
        for gid in group_ids:
            live_violations.extend(
                check_buffer_gc_safety(cluster.stacks, gid, crashed=crashed)
            )

    t = plan.traffic_start
    while t < plan.duration:
        cluster.net.scheduler.at(t, gc_check)
        t += GC_CHECK_INTERVAL

    cluster.run_for(plan.duration)

    # the surviving membership is scenario-dependent (convictions, churn):
    # take the anchor's view and require everyone in it to agree
    final = cluster.listeners[PROTECTED_PID].current_membership(cluster.group) or ()

    if inject_ordering_bug:
        if plan.groups:
            _inject_crossgroup_bug(cluster, plan)
        else:
            _inject_ordering_bug(cluster, final)
    result = ChaosResult(seed=plan.seed, scenario=plan.scenario,
                         final_members=final)
    if scheduler is not None:
        result.decisions = list(scheduler.decision_log)
    result.deliveries = sum(
        len(lst.payloads(gid))
        for lst in cluster.listeners.values() for gid in group_ids
    )
    result.violations += live_violations
    history = cluster.listeners
    if cfg.ordering == "leader":
        # a crashed LLFT member's transcript can end in a speculative
        # suffix the survivors legitimately reorder: a dead leader
        # fast-path-delivered sends whose OrderInfos reached nobody, and
        # a dead follower may have adopted announcements every survivor
        # lost (the takeover batch re-sorts that parked set).  Virtual
        # synchrony excuses failed processors, so the history battery
        # binds over the final membership only under leader ordering.
        history = {p: lst for p, lst in cluster.listeners.items()
                   if p in final}
    for gid in group_ids:
        final_g = final if gid == cluster.group else _final_members_of(
            cluster, plan, gid)
        result.violations += run_history_oracles(
            history, gid, final_members=final_g
        )
        result.violations += check_quiescence(cluster.stacks, gid, final_g)
    if plan.groups:
        result.violations += check_multigroup_acyclicity(
            cluster.listeners,
            {gid: [p for p in plan.groups[gid] if p in cluster.listeners]
             for gid in plan.groups},
        )
    return result, cluster, injector


def _final_members_of(cluster: Cluster, plan: ChaosPlan,
                      gid: int) -> Tuple[int, ...]:
    """A subset group's surviving membership (its smallest live member's
    view — the anchor may not belong to every group)."""
    live = [p for p in plan.groups.get(gid, ())
            if p in cluster.listeners and not cluster.net.is_crashed(p)]
    if not live:
        return ()
    return cluster.listeners[min(live)].current_membership(gid) or ()


def run_plan(plan: ChaosPlan, cfg: FTMPConfig,
             policy: Optional[SchedulePolicy] = None,
             inject_ordering_bug: bool = False,
             artifact_path: Optional[str] = None,
             extra: Optional[dict] = None) -> ChaosResult:
    """Execute ``plan`` under ``policy`` (None: none installed, the
    scheduler's plain heap path — FIFO) and stop the cluster; on a
    violation write the artifact, ``extra`` sections included, to
    ``artifact_path`` if one is given."""
    result, cluster, injector = execute_plan(
        plan, cfg, Scheduler(policy) if policy is not None else None,
        inject_ordering_bug)
    if result.violations and artifact_path:
        os.makedirs(os.path.dirname(artifact_path) or ".", exist_ok=True)
        with open(artifact_path, "w", encoding="utf-8") as fh:
            json.dump(build_artifact(result, plan, cfg, injector, cluster,
                                     inject_ordering_bug, extra or {}),
                      fh, indent=2)
        result.artifact_path = artifact_path
    cluster.stop()
    return result


def _minimize(result: ChaosResult, plan: ChaosPlan, cfg: FTMPConfig,
              schedule: Schedule, inject_ordering_bug: bool,
              shrink_budget: int, artifact_path: Optional[str]) -> None:
    """Shrink the catch and write the minimized replayable artifact."""
    target = {v.signature for v in result.violations}

    def still_fails(d: Sequence[int], p: ChaosPlan) -> bool:
        r = run_plan(p, cfg, ReplayPolicy(d), inject_ordering_bug)
        return any(v.signature in target for v in r.violations)

    min_plan, schedule.decisions, result.shrink = shrink_failure(
        plan, result.decisions, still_fails, budget=shrink_budget)
    if artifact_path is None:
        return
    # one final run of the minimized schedule, so the artifact's
    # transcripts and injections describe exactly what it replays
    final = run_plan(
        min_plan, cfg, schedule.replay_policy(), inject_ordering_bug,
        artifact_path, extra={
            "schedule": schedule.as_dict(),
            "shrink": dataclasses.asdict(result.shrink),
            "replay": "python -m repro.analysis.chaos replay "
                      + os.path.basename(artifact_path),
        })
    result.artifact_path = final.artifact_path
    # the minimized run must still show the target violation — if the
    # final re-run went green the shrink result is unsound, say so loudly
    if not target & {v.signature for v in final.violations}:
        raise RuntimeError(f"shrunk schedule no longer reproduces the "
                           f"violation (artifact {artifact_path})")


def sweep(
    mode: str = "active",
    scenarios: Optional[Sequence[str]] = None,
    seeds: Sequence[int] = (0,),
    policy: str = "fifo",
    schedules: int = 1,
    depth: int = 3,
    artifact_dir: Optional[str] = None,
    inject_ordering_bug: bool = False,
    shrink_budget: int = 80,
    verbose: bool = True,
) -> List[ChaosResult]:
    """Sweep scenario classes × plan seeds × ``schedules`` explored
    schedules of one mode; one result per (class, plan seed).

    ``scenarios=None`` takes the mode's row of :data:`MODE_TABLE`: every
    swept class under ``fifo``, the explored mix under ``pct`` /
    ``random``.  The schedule seed advances with every schedule of a
    (class, plan seed); its exploration stops at the first violation,
    which is shrunk to a minimized replayable artifact.
    """
    spec = _mode(mode)
    if scenarios is None:
        scenarios = spec.swept if policy == "fifo" else spec.explored
    if verbose:
        print(f"chaos sweep: mode={mode} scenarios={list(scenarios)} "
              f"seeds={list(seeds)} policy={policy} schedules={schedules} "
              f"depth={depth}")
    results: List[ChaosResult] = []
    for scenario in scenarios:
        cfg = chaos_config_for(mode, scenario)
        for seed in seeds:
            plan = chaos_plan_for(mode, scenario, seed)
            for k in range(schedules):
                sseed = seed * 1000 + k
                result = run_plan(
                    plan, cfg,
                    None if policy == "fifo"
                    else Schedule.make_policy(policy, sseed, depth),
                    inject_ordering_bug)
                result.schedule_seed, result.schedules_run = sseed, k + 1
                if result.violations:
                    _minimize(
                        result, plan, cfg, Schedule(policy, sseed, depth),
                        inject_ordering_bug, shrink_budget,
                        artifact_dir and os.path.join(
                            artifact_dir,
                            f"{mode}-{scenario}-{seed}-s{sseed}.json"))
                    break
            results.append(result)
            if verbose:
                print(_report_line(result))
    return results


def _report_line(r: ChaosResult) -> str:
    status = "ok" if r.ok else f"{len(r.violations)} VIOLATION(S)"
    line = (f"  {r.scenario:<12} seed={r.seed:<3} "
            f"schedules={r.schedules_run:<3} "
            f"contested={r.contested_choices:<5} "
            f"deliveries={r.deliveries:<6} "
            f"members={len(r.final_members)}  {status}")
    if r.artifact_path:
        s = r.shrink
        line += (f"  -> {r.artifact_path} (shrunk {s.original_decisions}->"
                 f"{s.final_decisions} decisions, {s.original_events}->"
                 f"{s.final_events} events in {s.runs} runs)")
    return line


def load_artifact(path: str) -> Tuple[ChaosPlan, FTMPConfig, Schedule, bool]:
    """The ``(plan, config, schedule, inject_ordering_bug)`` an artifact
    recorded.

    The plan is the recorded one, never regenerated from ``(seed,
    scenario)``: the shrinker edits it, and an artifact must keep
    replaying what it recorded when :meth:`ChaosPlan.generate` changes.
    An artifact without a ``schedule`` section (campaign artifacts
    before the runners merged) reads as the empty decision list: FIFO.
    A config field :class:`FTMPConfig` no longer has is a ValueError
    naming it.
    """
    with open(path, encoding="utf-8") as fh:
        artifact = json.load(fh)
    known = {f.name for f in dataclasses.fields(FTMPConfig)}
    for name in artifact["config"]:
        if name not in known:
            raise ValueError(f"config field {name!r} is not an FTMPConfig "
                             "field (recorded by another version)")
    return (ChaosPlan.from_dict(artifact["plan"]),
            FTMPConfig(**artifact["config"]),
            Schedule.from_dict(artifact.get("schedule", {})),
            artifact.get("inject_ordering_bug", False))


def replay(path: str, without_injection: bool = False) -> ChaosResult:
    """Re-run the exact (plan, schedule) an artifact recorded.

    ``result.decisions`` is the re-recorded log: the artifact's, extended
    by FIFO choices only.  ``without_injection`` replays a self-test
    artifact as if against fixed code.
    """
    plan, cfg, schedule, inject = load_artifact(path)
    return run_plan(plan, cfg, schedule.replay_policy(),
                    inject and not without_injection)


def render_matrix() -> str:
    """The mode × scenario table as text (``matrix``; EXPERIMENTS.md E15)."""
    notes: List[str] = []

    def mark(spec: ModeSpec, scenario: str) -> str:
        cell = spec.cells.get(scenario)
        if scenario in spec.excluded:
            sign, note = "-", spec.excluded[scenario]
        else:
            sign = "E" if scenario in spec.explored else "s"
            if cell is None:
                return sign
            changes = [f"{k}={v}" for k, v in cell.config.items()]
            if cell.cooldown:
                changes.append(f"cool-down +{cell.cooldown} s")
            note = cell.why + (f" [{', '.join(changes)}]" if changes else "")
        if note not in notes:
            notes.append(note)
        return f"{sign}{notes.index(note) + 1}"

    axes = ("ordering", "dissemination")
    rows = [["mode", *axes, *SCENARIOS, "swept", "explored"]] + [
        [mode, *(spec.config[axis] for axis in axes),
         *(mark(spec, s) for s in SCENARIOS),
         str(len(spec.swept)), str(len(spec.explored))]
        for mode, spec in MODE_TABLE.items()]
    widths = [max(map(len, column)) for column in zip(*rows)]
    # the rest of the cross product: pairs FTMPConfig refuses, and why
    rows += [["", *(dict(cell)[axis] for axis in axes), f"rejected: {reason}"]
             for cell, reason in REJECTED_CELLS.items()
             if {knob for knob, _ in cell} == set(axes)]
    lines = ["  ".join(f"{c:<{w}}" for c, w in zip(row, widths)).rstrip()
             for row in rows]
    lines += ["", "s = swept by `run`; E = swept, and explored by default "
                  "under --policy pct|random;", "- = not swept; N = note N; "
                  "rejected = FTMPConfig refuses the pair"]
    lines += [f"[{i}] {note}" for i, note in enumerate(notes, 1)]
    lines += [f"{mode}: {spec.about}" for mode, spec in MODE_TABLE.items()]
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.chaos",
        description="Seeded chaos plans x explored schedules x protocol "
                    "oracles, with minimized replayable violation artifacts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser(
        "run", help="sweep scenario classes x plan seeds x schedules")
    run_p.add_argument("--mode", choices=list(MODE_TABLE), default="active",
                       help="replication mode, see `matrix` (default: %(default)s)")
    run_p.add_argument("--scenarios", nargs="+", choices=list(SCENARIOS),
                       metavar="SCENARIO",
                       help="scenario classes; default: the mode's row of "
                            "`matrix` (swept under fifo, else explored)")
    run_p.add_argument("--seeds", type=int, default=5,
                       help="plan seeds per scenario, 0..N-1 (default: %(default)s)")
    run_p.add_argument("--seed", type=int, action="append",
                       help="explicit plan seed (repeatable; overrides --seeds)")
    run_p.add_argument("--policy", default="fifo",
                       choices=("fifo", "pct", "random"),
                       help="schedule policy; fifo installs none (default: %(default)s)")
    run_p.add_argument("--schedules", type=int, default=1,
                       help="explored schedules per (scenario, plan seed) "
                            "(default: %(default)s)")
    run_p.add_argument("--depth", type=int, default=3,
                       help="PCT depth: max against-priority steps per schedule "
                            "(default: %(default)s)")
    run_p.add_argument("--shrink-budget", type=int, default=80,
                       help="max re-runs the shrinker may spend per violation "
                            "(default: %(default)s)")
    run_p.add_argument("--artifact-dir", default="chaos-artifacts",
                       help="where minimized violation artifacts are written "
                            "(default: %(default)s)")
    run_p.add_argument("--inject-ordering-bug", action="store_true",
                       help="self-test: the forced transcript corruption must "
                            "be caught, shrunk and replayed (exit 0 on catch)")

    replay_p = sub.add_parser("replay", help="re-run a violation artifact")
    replay_p.add_argument("artifact", help="path to a JSON artifact")
    replay_p.add_argument("--without-injection", action="store_true",
                          help="replay a self-test artifact with the injected "
                               "corruption disabled (as against fixed code)")

    sub.add_parser("matrix", help="print the mode x scenario table")

    args = parser.parse_args(argv)
    if args.command == "matrix":
        print(render_matrix())
        return 0
    if args.command == "replay":
        try:
            plan, cfg, schedule, inject = load_artifact(args.artifact)
        except ValueError as exc:  # an artifact this version cannot load
            print(f"cannot replay {args.artifact}: {exc}")
            return 2
        result = run_plan(plan, cfg, schedule.replay_policy(),
                          inject and not args.without_injection)
        print(f"replay of {args.artifact}: "
              f"{len(result.violations) or 'no'} violation(s) "
              f"({result.contested_choices} contested choices)")
        for v in result.violations:
            print(f"  [{v.oracle}] key={list(v.signature)} {v.detail}")
        return 1 if result.violations else 0

    results = sweep(
        args.mode, args.scenarios, args.seed or list(range(args.seeds)),
        args.policy, args.schedules, args.depth, args.artifact_dir,
        args.inject_ordering_bug, args.shrink_budget)
    bad = [r for r in results if not r.ok]
    print(f"{len(results)} runs, {sum(r.schedules_run for r in results)} "
          f"schedules, {len(results) - len(bad)} clean, "
          f"{len(bad)} with violations")
    if args.inject_ordering_bug:
        # self-test: every (scenario, plan seed) must catch the
        # corruption and write a minimized artifact
        missed = [r for r in results if not r.artifact_path]
        if missed:
            print("SELF-TEST FAILED: injected ordering bug not caught for "
                  + ", ".join(f"{r.scenario}/{r.seed}" for r in missed))
            return 2
        print("self-test ok: injected bug caught, shrunk and replayed")
        return 0
    return 1 if bad else 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    sys.exit(main())
