"""The seeded chaos campaign end to end: plans, oracles, artifacts.

Covers the three acceptance properties of the harness itself:

* plan generation is a pure function of ``(scenario, seed)`` and honours
  the protections that keep runs convergent (anchor untouched, survivor
  floor, faults confined to the fault window);
* a smoke matrix of seeds x scenario classes runs with zero violations;
* a forced transcript corruption (``inject_ordering_bug``) makes the
  oracles fire and produces a self-contained, minimized artifact that
  *replays*.
"""

import dataclasses
import json
import os

import pytest

from repro.analysis.chaos import (
    LLFT_LEADER_PID,
    MODE_TABLE,
    chaos_config_for,
    chaos_plan_for,
    execute_plan,
    replay,
    sweep,
)
from repro.replication.chaos import PROTECTED_PID, SCENARIOS, ChaosPlan

SMOKE_SCENARIOS = ("loss", "reorder", "crash", "churn")
LLFT_SMOKE_SCENARIOS = ("loss", "leader_crash")
MULTIGROUP_SMOKE_SCENARIOS = ("loss", "overlap")


def run_one(seed, scenario, mode="active", **kwargs):
    """One campaign run: the sweep at its defaults (FIFO, one schedule)."""
    (result,) = sweep(mode, (scenario,), (seed,), verbose=False, **kwargs)
    return result


def test_plan_generation_is_deterministic():
    for scenario in SCENARIOS:
        a = ChaosPlan.generate(7, scenario)
        b = ChaosPlan.generate(7, scenario)
        assert a.as_dict() == b.as_dict()
    # different seeds diverge (the timeline actually depends on the seed)
    assert (ChaosPlan.generate(7, "combo").as_dict()
            != ChaosPlan.generate(8, "combo").as_dict())


def test_plans_honour_protections():
    for scenario in SCENARIOS:
        for seed in range(5):
            plan = ChaosPlan.generate(seed, scenario)
            permanent_losses = 0
            for ev in plan.events:
                # the anchor is never crashed, partitioned away, or removed
                assert PROTECTED_PID not in ev.pids
                assert 0.0 < ev.at < plan.duration
                if ev.kind in ("crash", "leave"):
                    permanent_losses += 1
            assert len(plan.initial_members) - permanent_losses >= 3


def test_smoke_matrix_runs_clean():
    results = sweep("active", SMOKE_SCENARIOS, seeds=(0, 1), verbose=False)
    assert len(results) == len(SMOKE_SCENARIOS) * 2
    for r in results:
        assert r.ok, f"{r.scenario} seed={r.seed}: {r.violations}"
        assert r.deliveries > 0
        assert PROTECTED_PID in r.final_members


def test_the_overload_class_receives_batch_datagrams():
    # Its credit queues drain in bursts after lulls, and each burst used
    # to open with ~10 sends the adaptive window let bypass it: in seeds
    # 0-9 no receiver saw a single BATCH datagram (12,465 bypasses).  A
    # send released by the flow controller now always takes the window
    batches = bypasses = 0
    for seed in range(10):
        result, cluster, _ = execute_plan(chaos_plan_for("active", "overload", seed),
                                          chaos_config_for("active", "overload"))
        snap = cluster.aggregate_snapshot()
        cluster.stop()
        assert result.ok, (seed, result.violations)
        assert snap["group.1.batch.batches_received"] > 0, seed
        assert snap["group.1.flow.sends_released"] > 0, seed
        batches += snap["group.1.batch.batches_sent"]
        bypasses += snap["group.1.batch.adaptive_bypasses"]
    assert batches > 2000  # 2,415
    assert bypasses < 4000  # 3,170


def test_same_seed_reruns_identically():
    a = run_one(3, "crash")
    b = run_one(3, "crash")
    assert (a.ok, a.deliveries, a.final_members) == (
        b.ok, b.deliveries, b.final_members)


def test_forced_violation_writes_replayable_artifact(tmp_path):
    result = run_one(0, "loss", artifact_dir=str(tmp_path),
                     inject_ordering_bug=True)
    assert not result.ok
    assert result.artifact_path and os.path.exists(result.artifact_path)
    with open(result.artifact_path, encoding="utf-8") as fh:
        artifact = json.load(fh)
    # self-contained: everything needed to reproduce and to read the breach
    assert artifact["seed"] == 0
    assert artifact["scenario"] == "loss"
    assert artifact["inject_ordering_bug"] is True
    assert artifact["config"]["suspect_timeout"] > 0
    assert artifact["violations"]
    assert any(v["oracle"] == "total-order" for v in artifact["violations"])
    # a campaign catch is minimized like an explorer's: no decisions to
    # drop (FIFO, no policy installed), so events, then the timeline.
    # The corruption needs no fault, so every loss burst goes
    assert ChaosPlan.generate(0, "loss").events
    assert artifact["schedule"] == {"policy": "fifo", "seed": 0, "depth": 3,
                                    "decisions": []}
    shrink = artifact["shrink"]
    assert shrink["replayed"] and shrink["original_decisions"] == 0
    assert shrink["final_events"] == 0 < shrink["original_events"]
    assert artifact["plan"]["events"] == [] == artifact["injections"]
    assert shrink == dataclasses.asdict(result.shrink)
    # the corrupted member's transcript and the anchor's reference one
    involved = {m for v in artifact["violations"] for m in v["members"]}
    for pid in involved | {PROTECTED_PID}:
        assert artifact["transcripts"][str(pid)]
    # and the artifact replays to the same verdict; green when fixed
    replayed = replay(result.artifact_path)
    assert not replayed.ok
    assert any(v.oracle == "total-order" for v in replayed.violations)
    assert replay(result.artifact_path, without_injection=True).ok


def test_replay_runs_the_recorded_plan_not_a_regenerated_one(tmp_path):
    # an artifact must keep replaying what it recorded, not
    # generate(seed, scenario): the shrinker has edited the plan (and
    # ChaosPlan.generate may change under a checked-in artifact)
    result = run_one(0, "crash", artifact_dir=str(tmp_path),
                     inject_ordering_bug=True)
    assert len(result.final_members) < 5  # the generated plan crashes members
    with open(result.artifact_path, encoding="utf-8") as fh:
        artifact = json.load(fh)
    generated = ChaosPlan.generate(0, "crash").as_dict()
    assert any(ev["kind"] == "crash" for ev in generated["events"])
    assert not any(ev["kind"] == "crash" for ev in artifact["plan"]["events"])
    replayed = replay(result.artifact_path)
    assert replayed.final_members == (1, 2, 3, 4, 5)  # nobody crashed
    assert list(replayed.final_members) == artifact["final_members"]
    assert not replayed.ok  # the recorded injection still fires
    # an artifact with no schedule section (a campaign artifact from
    # before the runners merged) reads as FIFO and replays the same
    del artifact["schedule"], artifact["shrink"]
    legacy = tmp_path / "legacy.json"
    legacy.write_text(json.dumps(artifact))
    same = replay(str(legacy))
    assert (same.final_members, same.deliveries, same.decisions) == (
        replayed.final_members, replayed.deliveries, replayed.decisions)


def test_chaos_config_for_selects_mode_and_leader():
    active = chaos_config_for("active", "crash")
    assert active.ordering == "symmetric"
    llft = chaos_config_for("llft", "crash")
    assert llft.ordering == "leader" and llft.llft_leader_pid == 0
    # leader_crash pins the leader to a crashable (non-anchor) pid
    lc = chaos_config_for("llft", "leader_crash")
    assert lc.ordering == "leader" and lc.llft_leader_pid == LLFT_LEADER_PID
    assert LLFT_LEADER_PID != PROTECTED_PID
    with pytest.raises(ValueError):
        chaos_config_for("paxos", "crash")
    # combo (a join during an active fault round) is in the llft mix
    assert "combo" in MODE_TABLE["llft"].swept
    assert "leader_crash" in MODE_TABLE["llft"].swept


def test_llft_smoke_matrix_runs_clean():
    results = sweep("llft", LLFT_SMOKE_SCENARIOS, seeds=(0,), verbose=False)
    assert len(results) == len(LLFT_SMOKE_SCENARIOS)
    for r in results:
        assert r.ok, f"llft {r.scenario} seed={r.seed}: {r.violations}"
        assert r.deliveries > 0
        assert PROTECTED_PID in r.final_members


def test_llft_forced_violation_artifact_replays(tmp_path):
    # the artifact must carry the llft config so a replay needs no mode
    result = run_one(0, "leader_crash", mode="llft",
                                artifact_dir=str(tmp_path),
                                inject_ordering_bug=True)
    assert not result.ok
    assert result.artifact_path and os.path.exists(result.artifact_path)
    with open(result.artifact_path, encoding="utf-8") as fh:
        artifact = json.load(fh)
    assert artifact["config"]["ordering"] == "leader"
    assert artifact["config"]["llft_leader_pid"] == LLFT_LEADER_PID
    replayed = replay(result.artifact_path)
    assert not replayed.ok


def test_multigroup_smoke_matrix_runs_clean():
    results = sweep("multigroup", MULTIGROUP_SMOKE_SCENARIOS, seeds=(0,),
                    verbose=False)
    assert len(results) == len(MULTIGROUP_SMOKE_SCENARIOS)
    for r in results:
        assert r.ok, f"multigroup {r.scenario} seed={r.seed}: {r.violations}"
        assert r.deliveries > 0
        assert PROTECTED_PID in r.final_members


def test_multigroup_forced_violation_artifact_replays(tmp_path):
    # the targeted cross-group inversion must trip exactly the acyclicity
    # oracle, and the artifact must carry the multigroup config plus the
    # overlapping-group topology so a replay needs no mode
    result = run_one(0, "overlap", mode="multigroup",
                                artifact_dir=str(tmp_path),
                                inject_ordering_bug=True)
    assert not result.ok
    assert [v.oracle for v in result.violations] == ["multigroup-acyclicity"]
    (v,) = result.violations
    assert v.cycle and v.cycle[0] == v.cycle[-1]
    assert result.artifact_path and os.path.exists(result.artifact_path)
    with open(result.artifact_path, encoding="utf-8") as fh:
        artifact = json.load(fh)
    assert artifact["config"]["ordering"] == "skeen"
    assert artifact["plan"]["groups"]
    replayed = replay(result.artifact_path)
    assert not replayed.ok
    assert any(v.oracle == "multigroup-acyclicity"
               for v in replayed.violations)


def test_multigroup_artifact_records_the_inverted_groups_transcripts(tmp_path):
    # the forged breach is two multi-group multicasts delivered a<b in one
    # group and b<a in another: an artifact with the default group's
    # transcripts only (every artifact before PR 23) omits one side of it
    # whenever the inverted group is not group 1
    result = run_one(0, "overlap", mode="multigroup",
                     artifact_dir=str(tmp_path), inject_ordering_bug=True)
    with open(result.artifact_path, encoding="utf-8") as fh:
        artifact = json.load(fh)
    groups = artifact["plan"]["groups"]
    assert set(artifact["transcripts"]) == set(groups) == set(artifact["memberships"])
    order = {}  # group -> its members' (agreeing) order of multi-group payloads
    for gid, per_member in artifact["transcripts"].items():
        assert per_member and set(per_member) <= {str(p) for p in groups[gid]}
        seqs = {tuple(d["payload"] for d in t if d["payload"].startswith("mg:"))
                for t in per_member.values()}
        (order[gid],) = seqs
    inverted = [
        (a, b, g, h) for g in order for h in order if g < h
        for i, a in enumerate(order[g]) for b in order[g][i + 1:]
        if a in order[h] and b in order[h]
        and order[h].index(b) < order[h].index(a)]
    assert inverted, "no transcript pair shows the cycle the artifact reports"


def test_clean_run_writes_no_artifact(tmp_path):
    result = run_one(1, "reorder", artifact_dir=str(tmp_path))
    assert result.ok
    assert result.artifact_path is None
    assert os.listdir(str(tmp_path)) == []
