"""Schedule explorer: deterministic-simulation testing with shrinking.

The chaos campaign (``repro.analysis.chaos``) perturbs the *environment*
— loss, partitions, crashes — but every run still uses the scheduler's
single FIFO tie-break among same-time events, so interleaving bugs that
need a particular timer/delivery order are never exercised.  This module
closes that gap:

1. it runs small named scenarios (reusing
   :class:`~repro.replication.chaos.ChaosPlan` timelines) under N
   *explored schedules* — each a different resolution of every contested
   same-time choice, driven by a
   :class:`~repro.simnet.schedules.PCTPolicy` or
   :class:`~repro.simnet.schedules.RandomPolicy`;
2. after every run it checks the full protocol-oracle battery
   (:mod:`repro.replication.oracles`);
3. on a violation it *shrinks* the failing schedule with delta debugging
   — dropping recorded decisions (an exhausted decision log falls back
   to FIFO, so any cut is a valid schedule), dropping chaos-plan events,
   and shortening the traffic timeline — re-validating after every step
   that a violation with the **same machine-readable key** still fires,
   then writes a minimized artifact that replays byte-exactly::

       python -m repro.analysis.explore replay ARTIFACT.json

Minimized artifacts double as one-file regression tests: check one in
under ``tests/data/explore/`` and the regression suite replays it
(``tests/integration/test_explore_regression.py``).

``--inject-ordering-bug`` is the end-to-end self-test: the forced
transcript corruption must be caught, shrunk and replayed, proving the
explorer, the oracles and the artifact pipeline all fire.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from ..core import FTMPConfig
from ..replication.chaos import SCENARIOS, ChaosPlan
from ..simnet import ReplayPolicy, Schedule, SchedulePolicy, Scheduler
from .chaos import (
    MODES,
    ChaosResult,
    adjust_plan_for,
    build_artifact,
    chaos_config_for,
    execute_plan,
    load_artifact,
    write_artifact,
)

__all__ = [
    "DEFAULT_SCENARIOS",
    "DEFAULT_LLFT_SCENARIOS",
    "DEFAULT_OVERLAY_SCENARIOS",
    "DEFAULT_MULTIGROUP_SCENARIOS",
    "ExploreOutcome",
    "ShrinkStats",
    "run_schedule",
    "shrink_failure",
    "explore",
    "replay_explore_artifact",
    "main",
]

#: the default scenario mix: membership churn (joins + leaves), transient
#: partitions, crash faults and overload backpressure — the plans whose
#: timer/recovery races §6 stability and §7 virtual synchrony must survive
DEFAULT_SCENARIOS = ("churn", "partition", "crash", "overload")

#: the ``--mode llft`` mix adds the leader-crash class: the handoff —
#: takeover batch vs in-flight OrderInfos vs the §7.2 drain — is exactly
#: the kind of same-time race PCT schedules are built to permute
DEFAULT_LLFT_SCENARIOS = ("churn", "partition", "crash", "overload",
                          "leader_crash")

#: the ``--mode overlay`` mix adds the relay-crash class: losing an
#: interior tree node races provisional reroutes, summary-scope resets
#: and the §7.2 drain against in-flight tree-routed Regulars — the
#: same-time orders a schedule policy exists to permute
DEFAULT_OVERLAY_SCENARIOS = ("churn", "partition", "crash", "overload",
                             "relay_crash")

#: the ``--mode multigroup`` mix: the overlapping-membership class plus
#: the classes whose faults interleave proposes, commits and membership
#: actions — a commit racing the RemoveProcessor of its origin, or a
#: join barrier landing between a propose and its commit, is precisely a
#: same-time order worth permuting (no ``overload``: multi-group sends
#: bypass the flow controller, breaking that scenario's premise)
DEFAULT_MULTIGROUP_SCENARIOS = ("churn", "partition", "crash", "overlap")


# ----------------------------------------------------------------------
# one explored run
# ----------------------------------------------------------------------
def run_schedule(
    plan: ChaosPlan,
    config: Optional[FTMPConfig] = None,
    policy: Optional[SchedulePolicy] = None,
    inject_ordering_bug: bool = False,
    keep_cluster: bool = False,
):
    """Execute ``plan`` under ``policy`` and return
    ``(result, decisions, cluster, injector)``.

    ``decisions`` is the recorded index log of every contested same-time
    choice — replaying it through :class:`ReplayPolicy` reproduces the
    run byte-exactly.  Unless ``keep_cluster`` the cluster is stopped
    (pass True when an artifact must be written from it).
    """
    scheduler = Scheduler(policy) if policy is not None else None
    result, cluster, injector = execute_plan(
        plan, config, scheduler=scheduler,
        inject_ordering_bug=inject_ordering_bug,
    )
    decisions = list(scheduler.decision_log) if scheduler is not None else []
    if not keep_cluster:
        cluster.stop()
        cluster = None
    return result, decisions, cluster, injector


# ----------------------------------------------------------------------
# delta-debugging shrinker
# ----------------------------------------------------------------------
@dataclass
class ShrinkStats:
    """Provenance of a minimization (serialized into the artifact)."""

    runs: int = 0
    replayed: bool = True  #: did the unshrunk schedule reproduce at all?
    original_decisions: int = 0
    final_decisions: int = 0
    original_events: int = 0
    final_events: int = 0
    timeline_scale: float = 1.0

    def as_dict(self) -> dict:
        return {
            "runs": self.runs,
            "replayed": self.replayed,
            "original_decisions": self.original_decisions,
            "final_decisions": self.final_decisions,
            "original_events": self.original_events,
            "final_events": self.final_events,
            "timeline_scale": self.timeline_scale,
        }


def _with_events(plan: ChaosPlan, events: Sequence) -> ChaosPlan:
    d = plan.as_dict()
    d["events"] = [e.as_dict() for e in events]
    return ChaosPlan.from_dict(d)


def _with_timeline(plan: ChaosPlan, scale: float) -> ChaosPlan:
    """Scale the traffic window, preserving the convergence cool-down.

    Events that would fall outside the shortened window (or whose burst
    window would straddle its edge) are dropped — the shrinker
    re-validates the result, so an over-aggressive cut is simply
    rejected.
    """
    cooldown = plan.duration - plan.traffic_stop
    new_stop = plan.traffic_start + (plan.traffic_stop - plan.traffic_start) * scale
    d = plan.as_dict()
    d["traffic_stop"] = new_stop
    d["duration"] = new_stop + cooldown
    d["events"] = [e.as_dict() for e in plan.events
                   if e.at < new_stop and e.stop <= new_stop]
    return ChaosPlan.from_dict(d)


def _ddmin(items: List, fails: Callable[[List], bool]) -> List:
    """Complement-only delta debugging: greedily remove ever-smaller
    chunks while ``fails`` keeps holding.  ``fails`` must hold for
    ``items`` on entry (and is budget-capped by the caller)."""
    items = list(items)
    chunk = max(1, len(items) // 2)
    while items:
        i = 0
        reduced = False
        while i < len(items):
            candidate = items[:i] + items[i + chunk:]
            if fails(candidate):
                items = candidate
                reduced = True
            else:
                i += chunk
        if chunk == 1 and not reduced:
            break
        chunk = max(1, chunk // 2)
    return items


def shrink_failure(
    plan: ChaosPlan,
    decisions: Sequence[int],
    still_fails: Callable[[Sequence[int], ChaosPlan], bool],
    budget: int = 80,
) -> Tuple[ChaosPlan, List[int], ShrinkStats]:
    """Minimize a failing ``(decisions, plan)`` pair under ``still_fails``.

    ``still_fails(decisions, plan)`` re-runs the scenario under a
    :class:`ReplayPolicy` and reports whether a violation with the
    original's key still fires.  The shrinker is monotone — it only ever
    accepts candidates that are no larger than the current best — and
    bounded: at most ``budget`` re-runs, whatever the input size.

    Phases (each skipped once the budget is spent):

    1. replay check — if the unshrunk schedule does not reproduce, give
       up immediately (``stats.replayed = False``);
    2. decision log: try the empty log first (pure-FIFO: the failure is
       environment-driven), else delta-debug chunks away; a truncated
       log falls back to FIFO for the tail, so every cut is valid;
    3. plan events: try the empty timeline first, else delta-debug;
    4. traffic timeline: the strongest scale cut in {1/4, 1/2, 3/4} that
       still fails (cool-down preserved so convergence oracles still
       bind);
    5. decision polish: zero out surviving non-FIFO decisions one by one
       (only when few remain — each zero is one re-run).
    """
    stats = ShrinkStats(original_decisions=len(decisions),
                        original_events=len(plan.events))
    best_decisions = list(decisions)
    best_plan = plan
    spent = 0

    def attempt(d: Sequence[int], p: ChaosPlan) -> bool:
        nonlocal spent
        if spent >= budget:
            return False
        spent += 1
        try:
            return still_fails(d, p)
        except Exception:
            # a reduction can make the run degenerate (e.g. too little
            # traffic to even apply the failure probe): just reject it
            return False

    # 1. the unshrunk schedule must reproduce, or shrinking is meaningless
    if not attempt(best_decisions, best_plan):
        stats.replayed = False
        stats.runs = spent
        stats.final_decisions = len(best_decisions)
        stats.final_events = len(best_plan.events)
        return best_plan, best_decisions, stats

    # 2. decisions
    if best_decisions and attempt([], best_plan):
        best_decisions = []
    elif best_decisions:
        best_decisions = _ddmin(best_decisions,
                                lambda d: attempt(d, best_plan))

    # 3. plan events
    if best_plan.events and attempt(best_decisions, _with_events(best_plan, [])):
        best_plan = _with_events(best_plan, [])
    elif best_plan.events:
        kept = _ddmin(list(best_plan.events),
                      lambda evs: attempt(best_decisions,
                                          _with_events(best_plan, evs)))
        best_plan = _with_events(best_plan, kept)

    # 4. timeline
    for scale in (0.25, 0.5, 0.75):
        candidate = _with_timeline(best_plan, scale)
        if attempt(best_decisions, candidate):
            best_plan = candidate
            stats.timeline_scale = scale
            break

    # 5. polish: prefer FIFO (0) at each surviving choice point
    if len(best_decisions) <= 32:
        for i, d in enumerate(best_decisions):
            if d == 0:
                continue
            candidate = list(best_decisions)
            candidate[i] = 0
            if attempt(candidate, best_plan):
                best_decisions = candidate

    stats.runs = spent
    stats.final_decisions = len(best_decisions)
    stats.final_events = len(best_plan.events)
    return best_plan, best_decisions, stats


# ----------------------------------------------------------------------
# exploration campaign
# ----------------------------------------------------------------------
@dataclass
class ExploreOutcome:
    """What exploring one (scenario, plan seed) produced."""

    scenario: str
    plan_seed: int
    policy: str
    schedules_run: int = 0
    contested_choices: int = 0  #: decision-log length of the last run
    deliveries: int = 0
    violations: List = field(default_factory=list)
    schedule_seed: Optional[int] = None  #: seed of the violating schedule
    artifact_path: Optional[str] = None
    shrink: Optional[ShrinkStats] = None

    @property
    def ok(self) -> bool:
        return not self.violations


def _default_scenarios(mode: str) -> Tuple[str, ...]:
    return {
        "llft": DEFAULT_LLFT_SCENARIOS,
        "overlay": DEFAULT_OVERLAY_SCENARIOS,
        "multigroup": DEFAULT_MULTIGROUP_SCENARIOS,
    }.get(mode, DEFAULT_SCENARIOS)


def _schedule_seed(plan_seed: int, k: int) -> int:
    return plan_seed * 1000 + k


def explore(
    scenarios: Optional[Sequence[str]] = None,
    plan_seeds: Sequence[int] = (0,),
    n_schedules: int = 10,
    policy_kind: str = "pct",
    depth: int = 3,
    config: Optional[FTMPConfig] = None,
    artifact_dir: Optional[str] = None,
    inject_ordering_bug: bool = False,
    shrink_budget: int = 80,
    verbose: bool = True,
    mode: str = "active",
) -> List[ExploreOutcome]:
    """Sweep scenarios × plan seeds × N explored schedules.

    For each (scenario, plan seed) the schedule seed advances with every
    explored schedule; exploration of that pair stops at the first
    violation, which is shrunk to a minimized replayable artifact.
    ``scenarios=None`` selects the mode's default mix; an explicit
    ``config`` wins over ``mode`` (as in the chaos campaign).
    """
    if scenarios is None:
        scenarios = _default_scenarios(mode)
    outcomes: List[ExploreOutcome] = []
    for scenario in scenarios:
        cfg = (config if config is not None
               else chaos_config_for(mode, scenario))
        for plan_seed in plan_seeds:
            plan = adjust_plan_for(ChaosPlan.generate(plan_seed, scenario),
                                   cfg)
            outcome = ExploreOutcome(scenario=scenario, plan_seed=plan_seed,
                                     policy=policy_kind)
            for k in range(n_schedules):
                sseed = _schedule_seed(plan_seed, k)
                policy = Schedule.make_policy(policy_kind, sseed, depth)
                result, decisions, _cl, _inj = run_schedule(
                    plan, cfg, policy,
                    inject_ordering_bug=inject_ordering_bug,
                )
                outcome.schedules_run = k + 1
                outcome.contested_choices = len(decisions)
                outcome.deliveries = result.deliveries
                if result.violations:
                    outcome.violations = result.violations
                    outcome.schedule_seed = sseed
                    _shrink_and_write(
                        outcome, plan, cfg, decisions, result,
                        policy_kind=policy_kind, depth=depth,
                        inject_ordering_bug=inject_ordering_bug,
                        shrink_budget=shrink_budget,
                        artifact_dir=artifact_dir,
                    )
                    break
            outcomes.append(outcome)
            if verbose:
                status = ("ok" if outcome.ok
                          else f"{len(outcome.violations)} VIOLATION(S)")
                line = (f"  {scenario:<10} plan_seed={plan_seed:<3} "
                        f"policy={policy_kind:<6} "
                        f"schedules={outcome.schedules_run:<3} "
                        f"contested={outcome.contested_choices:<5} "
                        f"deliveries={outcome.deliveries:<6} {status}")
                if outcome.artifact_path:
                    s = outcome.shrink
                    line += (f"  -> {outcome.artifact_path} "
                             f"(shrunk {s.original_decisions}->"
                             f"{s.final_decisions} decisions, "
                             f"{s.original_events}->{s.final_events} events "
                             f"in {s.runs} runs)")
                print(line)
    return outcomes


def _shrink_and_write(
    outcome: ExploreOutcome,
    plan: ChaosPlan,
    cfg: FTMPConfig,
    decisions: List[int],
    result: ChaosResult,
    policy_kind: str,
    depth: int,
    inject_ordering_bug: bool,
    shrink_budget: int,
    artifact_dir: Optional[str],
) -> None:
    """Shrink the catch and write the minimized replayable artifact."""
    target = {tuple(v.signature) for v in result.violations}

    def still_fails(d: Sequence[int], p: ChaosPlan) -> bool:
        r, _dec, _cl, _in = run_schedule(
            p, cfg, ReplayPolicy(d),
            inject_ordering_bug=inject_ordering_bug,
        )
        return any(tuple(v.signature) in target for v in r.violations)

    min_plan, min_decisions, stats = shrink_failure(
        plan, decisions, still_fails, budget=shrink_budget,
    )
    outcome.shrink = stats

    if artifact_dir is None:
        return
    # one final run of the minimized schedule, keeping the cluster so the
    # artifact's transcripts/injections describe exactly what it replays
    final_result, final_decisions, cluster, injector = run_schedule(
        min_plan, cfg, ReplayPolicy(min_decisions),
        inject_ordering_bug=inject_ordering_bug, keep_cluster=True,
    )
    filename = (f"explore-{outcome.scenario}-{outcome.plan_seed}"
                f"-s{outcome.schedule_seed}.json")
    schedule = Schedule(policy=policy_kind, seed=outcome.schedule_seed or 0,
                        depth=depth, decisions=min_decisions)
    artifact = build_artifact(
        final_result, min_plan, cfg, injector, cluster,
        inject_ordering_bug,
        extra={
            "kind": "explore",
            "schedule": schedule.as_dict(),
            "shrink": stats.as_dict(),
            "replay": f"python -m repro.analysis.explore replay {filename}",
        },
    )
    cluster.stop()
    outcome.artifact_path = write_artifact(artifact_dir, filename, artifact)
    # the minimized run must still show the target violation — if the
    # final re-run went green the shrink result is unsound, say so loudly
    final_sigs = {tuple(v.signature) for v in final_result.violations}
    if not (final_sigs & {tuple(v.signature) for v in result.violations}):
        raise RuntimeError(
            f"shrunk schedule no longer reproduces the violation "
            f"(artifact {outcome.artifact_path})"
        )


# ----------------------------------------------------------------------
# artifact replay
# ----------------------------------------------------------------------
def replay_explore_artifact(
    path: str,
    inject_override: Optional[bool] = None,
):
    """Re-run the exact (plan, schedule) recorded in an explore artifact.

    Returns ``(result, decisions)`` — ``decisions`` is the re-recorded
    log, which must equal the artifact's (byte-exact replay).
    ``inject_override`` replays a self-test artifact as if against fixed
    code (``False``) or forces the corruption back on (``True``).
    """
    plan, cfg, schedule, inject = load_artifact(path)
    if inject_override is not None:
        inject = inject_override
    result, decisions, _cl, _inj = run_schedule(
        plan, cfg, schedule.replay_policy(), inject_ordering_bug=inject,
    )
    return result, decisions


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.explore",
        description="Schedule-exploring deterministic simulation tester "
                    "with minimized-repro shrinking.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="explore N schedules per scenario")
    run_p.add_argument("--scenarios", nargs="+", default=None,
                       choices=list(SCENARIOS), metavar="SCENARIO",
                       help=f"scenario classes (default: "
                            f"{', '.join(DEFAULT_SCENARIOS)}; --mode llft "
                            f"adds leader_crash, --mode overlay adds "
                            f"relay_crash, --mode multigroup swaps in the "
                            f"overlap class)")
    run_p.add_argument("--mode", choices=list(MODES), default="active",
                       help="replication mode: legacy active stability "
                            "(default), the LLFT leader-follower fast "
                            "path, overlay tree dissemination, or genuine "
                            "multi-group atomic multicast")
    run_p.add_argument("--plan-seeds", type=int, default=1,
                       help="chaos-plan seeds per scenario (0..N-1)")
    run_p.add_argument("--plan-seed", type=int, action="append", default=None,
                       help="explicit plan seed (repeatable; overrides --plan-seeds)")
    run_p.add_argument("--schedules", type=int, default=10,
                       help="explored schedules per (scenario, plan seed)")
    run_p.add_argument("--policy", default="pct",
                       choices=("pct", "random", "fifo"),
                       help="schedule policy (default: pct)")
    run_p.add_argument("--depth", type=int, default=3,
                       help="PCT depth: max against-priority steps per schedule")
    run_p.add_argument("--shrink-budget", type=int, default=80,
                       help="max re-runs the shrinker may spend per violation")
    run_p.add_argument("--artifact-dir", default="explore-artifacts",
                       help="where minimized violation artifacts are written")
    run_p.add_argument("--inject-ordering-bug", action="store_true",
                       help="self-test: the forced transcript corruption must "
                            "be caught, shrunk and replayed (exit 0 on catch)")

    replay_p = sub.add_parser("replay", help="re-run a minimized artifact")
    replay_p.add_argument("artifact", help="path to an explore JSON artifact")
    replay_p.add_argument("--without-injection", action="store_true",
                          help="replay a self-test artifact with the injected "
                               "corruption disabled (as against fixed code)")

    args = parser.parse_args(argv)
    if args.command == "run":
        plan_seeds = (args.plan_seed if args.plan_seed
                      else list(range(args.plan_seeds)))
        scenarios = args.scenarios or _default_scenarios(args.mode)
        print(f"schedule exploration: mode={args.mode} "
              f"scenarios={list(scenarios)} "
              f"plan_seeds={plan_seeds} schedules={args.schedules} "
              f"policy={args.policy} depth={args.depth}")
        outcomes = explore(
            scenarios=scenarios, plan_seeds=plan_seeds,
            n_schedules=args.schedules, policy_kind=args.policy,
            depth=args.depth, artifact_dir=args.artifact_dir,
            inject_ordering_bug=args.inject_ordering_bug,
            shrink_budget=args.shrink_budget, mode=args.mode,
        )
        caught = [o for o in outcomes if not o.ok]
        schedules = sum(o.schedules_run for o in outcomes)
        print(f"{len(outcomes)} scenario runs, {schedules} schedules explored, "
              f"{len(caught)} violation(s)")
        if args.inject_ordering_bug:
            # self-test: every (scenario, plan seed) must catch the
            # corruption and write a minimized artifact
            missed = [o for o in outcomes
                      if o.ok or (args.artifact_dir and not o.artifact_path)]
            if missed:
                print("SELF-TEST FAILED: injected ordering bug not caught for "
                      + ", ".join(f"{o.scenario}/{o.plan_seed}" for o in missed))
                return 2
            print("self-test ok: injected bug caught, shrunk and replayed")
            return 0
        return 1 if caught else 0

    result, decisions = replay_explore_artifact(
        args.artifact,
        inject_override=False if args.without_injection else None,
    )
    if result.violations:
        print(f"replay of {args.artifact}: {len(result.violations)} violation(s) "
              f"({len(decisions)} contested choices)")
        for v in result.violations:
            print(f"  [{v.oracle}] key={list(v.signature)} {v.detail}")
        return 1
    print(f"replay of {args.artifact}: no violations "
          f"({len(decisions)} contested choices)")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    sys.exit(main())
