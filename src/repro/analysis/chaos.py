"""Chaos campaign runner: seeded fault scenarios × protocol oracles.

Executes :class:`~repro.replication.chaos.ChaosPlan` scenarios against
simulated FTMP clusters and checks every protocol invariant in
:mod:`repro.replication.oracles` — the history oracles after the run and
the buffer-GC safety oracle periodically *during* it.  On a violation it
writes a self-contained JSON artifact (seed, scenario, config, injection
log, plan timeline, divergent transcripts) that replays with::

    python -m repro.analysis.chaos replay ARTIFACT.json

Campaigns sweep N seeds across the scenario classes::

    python -m repro.analysis.chaos run --seeds 5 --artifact-dir artifacts/

``--inject-ordering-bug`` flips a test-only corruption that swaps two
adjacent deliveries at one member, proving the oracles (and the artifact
pipeline) actually fire.
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
from ..core.multigroup import is_total_multigroup_delivery
from ..replication.chaos import (
    PROTECTED_PID,
    SCENARIOS,
    ChaosPlan,
    default_overlap_groups,
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
from ..simnet import LinkModel, Schedule, Scheduler, Topology
from .harness import Cluster, make_cluster, make_multigroup_cluster

__all__ = ["ChaosResult", "default_chaos_config", "chaos_config_for",
           "execute_plan", "build_artifact", "write_artifact",
           "adjust_plan_for", "plan_topology", "run_chaos_scenario",
           "run_campaign", "default_scenarios_for",
           "load_artifact", "replay_artifact", "main", "MODES", "LLFT_SCENARIOS",
           "OVERLAY_SCENARIOS", "MULTIGROUP_SCENARIOS",
           "LLFT_LEADER_PID", "OVERLAY_FANOUT"]

#: replication modes the campaign can drive the stack in
MODES = ("active", "llft", "overlay", "multigroup")

#: the processor ``--mode llft`` designates as leader for the
#: ``leader_crash`` class (must not be the protected sponsor, or the
#: plan could never crash it)
LLFT_LEADER_PID = 2

#: ``combo`` joins a member *during* an active fault round — a corner
#: the LLFT takeover protocol documents as out of scope (the joiner's
#: sponsor-stream replay races the §7.2 drain), so the llft sweep runs
#: every other class.  ``overlap`` (several groups per stack) stays in
#: the active and multigroup sweeps only: per-group leader streams and
#: per-group overlay trees are not what those modes' classes target.
LLFT_SCENARIOS = tuple(s for s in SCENARIOS if s not in ("combo", "overlap"))

#: the overlay sweep: every class but the multi-group one (see above)
OVERLAY_SCENARIOS = tuple(s for s in SCENARIOS if s != "overlap")

#: the ``--mode multigroup`` sweep: the overlapping-membership class
#: plus the environment classes, each run with multi-group multicasts
#: mixed into the traffic.  ``overload`` is out — multi-group sends
#: bypass the flow controller (they are control-like), which breaks that
#: scenario's premise that the credit loop absorbs all offered load.
MULTIGROUP_SCENARIOS = ("loss", "reorder", "partition", "crash", "churn",
                        "overlap")


def default_scenarios_for(mode: str) -> Tuple[str, ...]:
    """The scenario sweep a mode runs when none is given explicitly."""
    return {
        "llft": LLFT_SCENARIOS,
        "overlay": OVERLAY_SCENARIOS,
        "multigroup": MULTIGROUP_SCENARIOS,
    }.get(mode, SCENARIOS)

#: ``--mode overlay`` tree fan-out.  k=2 over the default 5-member
#: roster yields ``1 -> (2, 3)``, ``2 -> (4, 5)``: pid 2 — the
#: ``relay_crash`` victim — is an *interior* relay with a real subtree,
#: and the protected sponsor is the root (never harmed).
OVERLAY_FANOUT = 2


def default_chaos_config() -> FTMPConfig:
    """The campaign's stack configuration.

    ``suspect_timeout`` must exceed the longest partition window a
    :class:`ChaosPlan` generates (transient partitions heal without
    convictions; only real crashes are convicted).

    Every scenario class runs the full closed-loop datapath — adaptive
    batching, stability-driven flow control, paced + deduplicated
    retransmissions — so the legacy fault classes double as regression
    coverage for the flow-control machinery, not just the protocol core.
    """
    # pacing must sit *below* the overload scenario's NIC capacity
    # (~300 datagrams/s at the smallest sampled bandwidth) or recovery
    # traffic congests the very link it is repairing; the dedupe window
    # spans two NACK retry periods so one multicast retransmission
    # answers every member chasing the same gap
    return FTMPConfig(heartbeat_interval=0.010, suspect_timeout=0.150,
                      batch_window=0.001, batch_adaptive=True,
                      flow_control_window=24,
                      retransmit_rate_limit=150.0, nack_dedupe_window=0.020)


def chaos_config_for(mode: str, scenario: str) -> FTMPConfig:
    """The campaign config for one (mode, scenario) run.

    ``active`` is the legacy all-member-stability stack.  ``llft`` turns
    on the leader-follower fast path; the designated leader is the
    protected sponsor (``llft_leader_pid=0`` → smallest member) for every
    class except ``leader_crash``, which pins the leader to the crash
    victim (:data:`LLFT_LEADER_PID`) so the takeover path is exercised.
    ``overlay`` turns on tree dissemination with aggregated stability
    (:data:`OVERLAY_FANOUT` makes the ``relay_crash`` victim an interior
    relay); every class then also exercises summary-driven recovery.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r} (choose from {MODES})")
    cfg = default_chaos_config()
    if mode == "llft":
        leader = LLFT_LEADER_PID if scenario == "leader_crash" else 0
        cfg = dataclasses.replace(cfg, llft_mode=True, llft_leader_pid=leader)
    elif mode == "overlay":
        # 40 ms summaries: still inside the campaign's liveness horizon
        # (half the 150 ms suspect timeout), while an interior relay's
        # summary egress stays a small fraction of the overload
        # scenario's capped NIC drain — at the 5 ms default the summary
        # stream alone saturates the NIC and starves Regular/NACK traffic
        # NACK backoff matters here: dropped tree copies are repaired by
        # flat NACK recovery, and fixed-interval re-requests for holes a
        # congested relay cannot answer yet would sustain the congestion
        cfg = dataclasses.replace(cfg, overlay_mode=True,
                                  overlay_fanout=OVERLAY_FANOUT,
                                  overlay_summary_interval=0.040,
                                  nack_backoff_factor=2.0)
        if scenario == "overload":
            # an interior relay serializes ~2x the aggregate offered load,
            # so an unbounded send queue keeps releasing fresh first
            # transmissions far past traffic stop and the tail never
            # converges by run end.  Shed load synchronously instead —
            # the scenario's own premise is that the credit loop, not a
            # queue, absorbs the excess.
            cfg = dataclasses.replace(cfg, flow_queue_limit=32)
    elif mode == "multigroup":
        cfg = dataclasses.replace(cfg, multigroup_mode=True)
    return cfg


@dataclass
class ChaosResult:
    """Outcome of one seeded scenario run."""

    seed: int
    scenario: str
    violations: List[Violation] = field(default_factory=list)
    final_members: Tuple[int, ...] = ()
    deliveries: int = 0  #: total ordered deliveries across all members
    artifact_path: Optional[str] = None

    @property
    def ok(self) -> bool:
        return not self.violations


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
                  if plan.groups and cfg is not None and cfg.multigroup_mode
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


def _transcript(cluster: Cluster, pid: int) -> List[dict]:
    return [
        {
            "source": d.source,
            "seq": d.sequence_number,
            "timestamp": d.timestamp,
            "payload": d.payload.decode("latin-1"),
        }
        for d in cluster.listeners[pid].deliveries
        if d.group == cluster.group
    ]


def build_artifact(result: ChaosResult, plan: ChaosPlan,
                   config: FTMPConfig, injector: FaultInjector,
                   cluster: Cluster, inject_ordering_bug: bool,
                   extra: Optional[dict] = None) -> dict:
    """The shared self-contained violation-artifact dict.

    Both the chaos campaign and the schedule explorer emit this format;
    the explorer adds a ``schedule`` section (decision log) and shrink
    provenance through ``extra``.
    """
    involved = sorted({m for v in result.violations for m in v.members})
    if PROTECTED_PID not in involved:
        involved.append(PROTECTED_PID)  # reference transcript
    artifact = {
        "seed": plan.seed,
        "scenario": plan.scenario,
        "inject_ordering_bug": inject_ordering_bug,
        "config": dataclasses.asdict(config),
        "plan": plan.as_dict(),
        "injections": [dataclasses.asdict(i) for i in injector.injected],
        "violations": [v.as_dict() for v in result.violations],
        "final_members": list(result.final_members),
        "transcripts": {str(p): _transcript(cluster, p) for p in sorted(involved)},
        "memberships": {
            str(p): list(cluster.listeners[p].current_membership(cluster.group) or ())
            for p in sorted(involved)
        },
    }
    if extra:
        artifact.update(extra)
    return artifact


def write_artifact(directory: str, filename: str, artifact: dict) -> str:
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, filename)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(artifact, fh, indent=2)
    return path


def adjust_plan_for(plan: ChaosPlan, cfg: FTMPConfig) -> ChaosPlan:
    """Mode-aware plan tweaks (shared by the campaign and the explorer).

    Overlay overload runs get a longer cool-down: tree copies
    tail-dropped at the saturated interior relay are repaired through
    rate-limited, backed-off NACK recovery rather than the first
    serialization, and that repair detour needs more time than flat
    dissemination to converge.
    """
    if cfg.overlay_mode and plan.scenario == "overload":
        plan.duration += 0.8
    if cfg.multigroup_mode and not plan.groups:
        # any scenario class run in --mode multigroup hosts an
        # overlapping layout (the "overlap" class carries its own).
        # Generic scenarios budget crashes/leaves against the *full*
        # roster only, so the subset groups are drawn around the plan's
        # permanent losses — each must keep two live members or it
        # wedges (the membership protocol cannot form a singleton view)
        lost = {p for ev in plan.events if ev.kind in ("crash", "leave")
                for p in ev.pids}
        plan.groups = survivor_aware_overlap_groups(
            plan.initial_members, lost)
    return plan


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
    scheduler=None,
    inject_ordering_bug: bool = False,
    gc_check_interval: float = 0.05,
) -> Tuple[ChaosResult, Cluster, FaultInjector]:
    """Run one :class:`ChaosPlan` to completion and check every oracle.

    The execution core shared by the chaos campaign and the schedule
    explorer (which passes a ``scheduler`` carrying a
    :class:`~repro.simnet.SchedulePolicy` to permute same-time event
    orders).  The cluster is returned *running* so the caller can write
    artifacts from it; callers own ``cluster.stop()``.
    """
    cfg = config if config is not None else default_chaos_config()
    if plan.groups:
        cluster = make_multigroup_cluster(
            plan.initial_members, plan.groups, config=cfg, seed=plan.seed,
            topology=plan_topology(plan), scheduler=scheduler,
        )
    else:
        cluster = make_cluster(plan.initial_members, config=cfg,
                               seed=plan.seed, topology=plan_topology(plan),
                               scheduler=scheduler)
    injector = FaultInjector(cluster.net)
    plan.apply(cluster, injector, cfg)
    _schedule_traffic(cluster, plan, cfg)
    group_ids = sorted(plan.groups) if plan.groups else [cluster.group]

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
        t += gc_check_interval

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
    result.deliveries = sum(
        len(lst.payloads(gid))
        for lst in cluster.listeners.values() for gid in group_ids
    )
    result.violations += live_violations
    history = cluster.listeners
    if cfg.llft_mode:
        # a crashed LLFT member's transcript can end in a speculative
        # suffix the survivors legitimately reorder: a dead leader
        # fast-path-delivered sends whose OrderInfos reached nobody, and
        # a dead follower may have adopted announcements every survivor
        # lost (the takeover batch re-sorts that parked set).  Virtual
        # synchrony excuses failed processors, so the history battery
        # binds over the final membership only in llft mode.
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


def run_chaos_scenario(
    seed: int,
    scenario: str,
    pids: Tuple[int, ...] = (1, 2, 3, 4, 5),
    config: Optional[FTMPConfig] = None,
    artifact_dir: Optional[str] = None,
    inject_ordering_bug: bool = False,
    gc_check_interval: float = 0.05,
    mode: str = "active",
) -> ChaosResult:
    """Run one seeded scenario and check every oracle against it.

    An explicit ``config`` wins over ``mode`` (artifact replays pass the
    recorded config, which already carries ``llft_mode``).
    """
    plan = ChaosPlan.generate(seed, scenario, pids)
    cfg = config if config is not None else chaos_config_for(mode, scenario)
    adjust_plan_for(plan, cfg)
    return _run_recording(plan, cfg, artifact_dir, inject_ordering_bug,
                          gc_check_interval=gc_check_interval)


def _run_recording(plan: ChaosPlan, cfg: FTMPConfig,
                   artifact_dir: Optional[str], inject_ordering_bug: bool,
                   scheduler: Optional[Scheduler] = None,
                   gc_check_interval: float = 0.05) -> ChaosResult:
    """Execute ``plan`` and, on a violation, write its artifact."""
    result, cluster, injector = execute_plan(
        plan, cfg, scheduler=scheduler,
        inject_ordering_bug=inject_ordering_bug,
        gc_check_interval=gc_check_interval,
    )
    if result.violations and artifact_dir:
        filename = f"{plan.scenario}-{plan.seed}.json"
        artifact = build_artifact(
            result, plan, cfg, injector, cluster, inject_ordering_bug,
            extra={"replay": f"python -m repro.analysis.chaos replay {filename}"},
        )
        result.artifact_path = write_artifact(artifact_dir, filename, artifact)
    cluster.stop()
    return result


def run_campaign(
    seeds: Sequence[int],
    scenarios: Optional[Sequence[str]] = None,
    pids: Tuple[int, ...] = (1, 2, 3, 4, 5),
    config: Optional[FTMPConfig] = None,
    artifact_dir: Optional[str] = None,
    inject_ordering_bug: bool = False,
    verbose: bool = True,
    mode: str = "active",
) -> List[ChaosResult]:
    """Sweep seeds × scenario classes; return one result per run.

    ``scenarios=None`` selects the mode's full sweep
    (:func:`default_scenarios_for`).
    """
    if scenarios is None:
        scenarios = default_scenarios_for(mode)
    results: List[ChaosResult] = []
    for scenario in scenarios:
        for seed in seeds:
            r = run_chaos_scenario(
                seed, scenario, pids=pids, config=config,
                artifact_dir=artifact_dir,
                inject_ordering_bug=inject_ordering_bug,
                mode=mode,
            )
            results.append(r)
            if verbose:
                status = "ok" if r.ok else f"{len(r.violations)} VIOLATION(S)"
                line = (f"  {scenario:<10} seed={seed:<4} "
                        f"deliveries={r.deliveries:<6} "
                        f"members={len(r.final_members)}  {status}")
                if r.artifact_path:
                    line += f"  -> {r.artifact_path}"
                print(line)
    return results


def load_artifact(path: str) -> Tuple[ChaosPlan, FTMPConfig, Schedule, bool]:
    """The ``(plan, config, schedule, inject_ordering_bug)`` an artifact
    recorded — the one loader of the campaign's and the explorer's replay.

    The plan is the recorded one, never regenerated from ``(seed,
    scenario)``: an artifact must keep replaying what it recorded when
    :meth:`ChaosPlan.generate` changes.  A campaign artifact has no
    ``schedule`` section, which reads as the empty decision list: FIFO,
    the order the campaign ran under.
    """
    with open(path, encoding="utf-8") as fh:
        artifact = json.load(fh)
    return (ChaosPlan.from_dict(artifact["plan"]),
            FTMPConfig(**artifact["config"]),
            Schedule.from_dict(artifact.get("schedule", {})),
            artifact.get("inject_ordering_bug", False))


def replay_artifact(path: str, artifact_dir: Optional[str] = None) -> ChaosResult:
    """Re-run the exact plan recorded in a violation artifact."""
    plan, cfg, schedule, inject = load_artifact(path)
    return _run_recording(plan, cfg, artifact_dir, inject,
                          scheduler=Scheduler(schedule.replay_policy()))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.chaos",
        description="Seeded chaos campaign with protocol-invariant oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a seed × scenario campaign")
    run_p.add_argument("--seeds", type=int, default=5,
                       help="number of seeds per scenario (0..N-1)")
    run_p.add_argument("--seed", type=int, action="append", default=None,
                       help="explicit seed (repeatable; overrides --seeds)")
    run_p.add_argument("--scenarios", nargs="+", default=None,
                       choices=list(SCENARIOS), metavar="SCENARIO",
                       help=f"scenario classes (default: all of "
                            f"{', '.join(SCENARIOS)}; in --mode llft the "
                            f"default drops 'combo')")
    run_p.add_argument("--mode", choices=list(MODES), default="active",
                       help="replication mode: legacy active stability "
                            "(default), the LLFT leader-follower fast "
                            "path, overlay tree dissemination with "
                            "aggregated stability, or genuine multi-group "
                            "atomic multicast over overlapping groups")
    run_p.add_argument("--artifact-dir", default="chaos-artifacts",
                       help="where violation artifacts are written")
    run_p.add_argument("--inject-ordering-bug", action="store_true",
                       help="test-only: corrupt one transcript to prove the "
                            "oracles and artifact pipeline fire")

    replay_p = sub.add_parser("replay", help="re-run a violation artifact")
    replay_p.add_argument("artifact", help="path to a JSON artifact")
    replay_p.add_argument("--artifact-dir", default=None,
                          help="write a fresh artifact if it violates again")

    args = parser.parse_args(argv)
    if args.command == "run":
        seeds = args.seed if args.seed else list(range(args.seeds))
        scenarios = args.scenarios or default_scenarios_for(args.mode)
        print(f"chaos campaign: mode={args.mode} seeds={seeds} "
              f"scenarios={list(scenarios)}")
        results = run_campaign(
            seeds, scenarios=scenarios, artifact_dir=args.artifact_dir,
            inject_ordering_bug=args.inject_ordering_bug, mode=args.mode,
        )
        bad = [r for r in results if not r.ok]
        print(f"{len(results)} runs, {len(results) - len(bad)} clean, "
              f"{len(bad)} with violations")
        return 1 if bad else 0

    result = replay_artifact(args.artifact, artifact_dir=args.artifact_dir)
    if result.ok:
        print(f"replay of {args.artifact}: no violations reproduced")
        return 0
    print(f"replay of {args.artifact}: {len(result.violations)} violation(s)")
    for v in result.violations:
        print(f"  [{v.oracle}] {v.detail}")
    return 1


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    sys.exit(main())
