"""Explored schedules end to end: record→replay, shrinking, self-test.

Cluster-level guarantees of the DST subsystem:

* ``FifoPolicy`` runs are byte-identical to policy-free runs — same
  delivery orders, same stats counters, same packet trace;
* any decision list is a valid schedule and replays deterministically
  (hypothesis, over a scaled-down churn plan for speed);
* the shrinker is monotone, bounded, and never accepts a reduction that
  loses the target violation key (unit-tested against fake runners —
  no simulation needed);
* the injected-ordering-bug self-test catches, shrinks to a minimal
  artifact, and that artifact replays red with the corruption and green
  without it.
"""

from __future__ import annotations

import json
import os

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.chaos import (
    default_chaos_config,
    execute_plan,
    replay,
    sweep,
)
from repro.analysis.explore import _with_timeline, shrink_failure
from repro.replication.chaos import ChaosPlan
from repro.simnet import FifoPolicy, PCTPolicy, ReplayPolicy, Scheduler


def _small_plan(scenario="churn", seed=0):
    """A chaos plan with the traffic window scaled down for test speed."""
    return _with_timeline(ChaosPlan.generate(seed, scenario), 0.25)


def _fingerprint(plan, policy):
    """Everything the oracles can see, plus the stats counters."""
    result, cluster, _inj = execute_plan(
        plan, default_chaos_config(), Scheduler(policy))
    orders = {pid: tuple(lst.delivery_order(cluster.group))
              for pid, lst in cluster.listeners.items()}
    snapshots = {pid: cluster.stacks[pid].snapshot() for pid in cluster.stacks}
    trace = (cluster.net.trace.sends, cluster.net.trace.deliveries,
             cluster.net.trace.drops)
    cluster.stop()
    return result.ok, orders, snapshots, trace, result.decisions


# ----------------------------------------------------------------------
# FIFO identity + record→replay at cluster level
# ----------------------------------------------------------------------
def test_fifo_policy_run_is_byte_identical_to_policy_free_run():
    plan = _small_plan()
    cfg = default_chaos_config()
    base_result, base_cluster, _ = execute_plan(plan, cfg)
    base = ({pid: tuple(lst.delivery_order(base_cluster.group))
             for pid, lst in base_cluster.listeners.items()},
            {pid: base_cluster.stacks[pid].snapshot()
             for pid in base_cluster.stacks},
            (base_cluster.net.trace.sends, base_cluster.net.trace.deliveries,
             base_cluster.net.trace.drops))
    base_cluster.stop()

    ok, orders, snapshots, trace, decisions = _fingerprint(plan, FifoPolicy())
    assert base == (orders, snapshots, trace)
    assert ok and decisions and all(d == 0 for d in decisions)


def test_recorded_pct_schedule_replays_byte_exactly():
    plan = _small_plan()
    a = _fingerprint(plan, PCTPolicy(5, depth=3))
    b = _fingerprint(plan, ReplayPolicy(a[4]))
    assert a == b  # orders, snapshots, trace AND the re-recorded log


def test_pct_schedule_actually_permutes_the_run():
    plan = _small_plan()
    fifo = _fingerprint(plan, FifoPolicy())
    pct = _fingerprint(plan, PCTPolicy(5, depth=3))
    assert pct[4] != fifo[4]  # non-FIFO choices were actually taken
    assert pct[0] and fifo[0]  # and the protocol survived both


@settings(max_examples=6, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=8), max_size=60))
def test_any_schedule_is_deterministic_at_cluster_level(decisions):
    plan = _small_plan()
    a = _fingerprint(plan, ReplayPolicy(decisions))
    b = _fingerprint(plan, ReplayPolicy(decisions))
    assert a == b


def test_same_scenario_seed_schedule_runs_twice_identically():
    # satellite: every nondeterminism source is seed-derived — two runs of
    # the same (scenario, plan seed, schedule) triple diff clean, traces
    # and recovery counters included
    for scenario in ("churn", "partition"):
        plan = _small_plan(scenario)
        a = _fingerprint(plan, PCTPolicy(9, depth=3))
        b = _fingerprint(plan, PCTPolicy(9, depth=3))
        assert a == b


# ----------------------------------------------------------------------
# shrinker (fake runners: no simulation involved)
# ----------------------------------------------------------------------
def _plan_with_events(n=6):
    plan = ChaosPlan.generate(0, "combo")
    assert len(plan.events) >= 2
    return plan


def test_shrinker_minimizes_and_stays_monotone():
    plan = _plan_with_events()
    loss_kinds = [e.kind for e in plan.events]
    assert "loss" in loss_kinds

    def still_fails(decisions, p):
        # "bug" needs a 3 somewhere in the schedule and at least one loss
        # event in the timeline
        return 3 in decisions and any(e.kind == "loss" for e in p.events)

    decisions = [0, 1, 3, 0, 2, 3, 1]
    min_plan, min_decisions, stats = shrink_failure(
        plan, decisions, still_fails, budget=100)
    assert min_decisions == [3]
    assert [e.kind for e in min_plan.events] == ["loss"]
    assert stats.replayed
    assert stats.final_decisions <= stats.original_decisions
    assert stats.final_events <= stats.original_events
    assert still_fails(min_decisions, min_plan)


def test_shrinker_respects_budget_and_terminates():
    plan = _plan_with_events()
    calls = 0

    def still_fails(decisions, p):
        nonlocal calls
        calls += 1
        return True  # everything "fails": worst case for the search

    budget = 17
    min_plan, min_decisions, stats = shrink_failure(
        plan, list(range(50)), still_fails, budget=budget)
    assert calls <= budget
    assert stats.runs <= budget
    assert min_decisions == []  # all-failing shrinks to the empty schedule


def test_shrinker_gives_up_on_unreproducible_failures():
    plan = _plan_with_events()
    calls = 0

    def never_fails(decisions, p):
        nonlocal calls
        calls += 1
        return False

    min_plan, min_decisions, stats = shrink_failure(
        plan, [1, 2, 3], never_fails, budget=50)
    assert not stats.replayed
    assert calls == 1  # one replay check, then give up
    assert min_decisions == [1, 2, 3]  # returned unshrunk
    assert len(min_plan.events) == len(plan.events)


def test_shrinker_treats_runner_exceptions_as_not_failing():
    plan = _plan_with_events()

    def touchy(decisions, p):
        if not p.events:
            raise RuntimeError("degenerate run")
        return 2 in decisions

    min_plan, min_decisions, stats = shrink_failure(
        plan, [2, 0, 2], touchy, budget=60)
    assert min_decisions == [2]
    assert len(min_plan.events) >= 1  # the raising reduction was rejected


def test_timeline_shrink_preserves_cooldown():
    plan = ChaosPlan.generate(0, "churn")
    scaled = _with_timeline(plan, 0.5)
    assert scaled.traffic_stop < plan.traffic_stop
    cooldown = plan.duration - plan.traffic_stop
    assert abs((scaled.duration - scaled.traffic_stop) - cooldown) < 1e-9
    assert all(e.at < scaled.traffic_stop and e.stop <= scaled.traffic_stop
               for e in scaled.events)


# ----------------------------------------------------------------------
# explorer self-test: catch, shrink, write, replay
# ----------------------------------------------------------------------
def test_injected_bug_is_caught_shrunk_and_replayable(tmp_path):
    (outcome,) = sweep(
        "active", ("churn",), seeds=(0,), policy="pct", schedules=1, depth=3,
        artifact_dir=str(tmp_path), inject_ordering_bug=True,
        shrink_budget=30, verbose=False,
    )
    assert not outcome.ok
    assert any(v.oracle == "total-order" for v in outcome.violations)
    assert outcome.artifact_path and os.path.exists(outcome.artifact_path)
    assert outcome.shrink is not None and outcome.shrink.replayed
    # the injected corruption is schedule-independent, so the shrinker
    # must drive the schedule all the way down to pure FIFO
    assert outcome.shrink.final_decisions == 0
    assert outcome.shrink.final_events <= outcome.shrink.original_events
    assert outcome.shrink.runs <= 30

    with open(outcome.artifact_path, encoding="utf-8") as fh:
        artifact = json.load(fh)
    assert artifact["schedule"] == {"policy": "pct", "seed": 0, "depth": 3,
                                    "decisions": []}
    assert artifact["inject_ordering_bug"] is True
    assert any(v["key"][0] == "total-order" for v in artifact["violations"])

    # red with the corruption, green against "fixed" code
    red = replay(outcome.artifact_path)
    assert any(v.oracle == "total-order" for v in red.violations)
    assert replay(outcome.artifact_path, without_injection=True).ok


def test_clean_exploration_smoke(tmp_path):
    (outcome,) = sweep(
        "active", ("churn",), seeds=(0,), policy="random", schedules=2,
        artifact_dir=str(tmp_path), verbose=False,
    )
    assert outcome.ok, outcome.violations
    assert outcome.schedules_run == 2
    assert outcome.contested_choices > 0
    assert outcome.deliveries > 0
    assert not os.listdir(tmp_path)  # no artifacts for clean runs
