"""The seeded chaos campaign end to end: plans, oracles, artifacts.

Covers the three acceptance properties of the harness itself:

* plan generation is a pure function of ``(scenario, seed)`` and honours
  the protections that keep runs convergent (anchor untouched, survivor
  floor, faults confined to the fault window);
* a smoke matrix of seeds x scenario classes runs with zero violations;
* a forced transcript corruption (``inject_ordering_bug``) makes the
  oracles fire and produces a self-contained artifact that *replays*.
"""

import json
import os

import pytest

from repro.analysis.chaos import (
    LLFT_LEADER_PID,
    LLFT_SCENARIOS,
    chaos_config_for,
    replay_artifact,
    run_campaign,
    run_chaos_scenario,
)
from repro.replication.chaos import PROTECTED_PID, SCENARIOS, ChaosPlan

SMOKE_SCENARIOS = ("loss", "reorder", "crash", "churn")
LLFT_SMOKE_SCENARIOS = ("loss", "leader_crash")
MULTIGROUP_SMOKE_SCENARIOS = ("loss", "overlap")


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
    results = run_campaign(seeds=(0, 1), scenarios=SMOKE_SCENARIOS,
                           verbose=False)
    assert len(results) == len(SMOKE_SCENARIOS) * 2
    for r in results:
        assert r.ok, f"{r.scenario} seed={r.seed}: {r.violations}"
        assert r.deliveries > 0
        assert PROTECTED_PID in r.final_members


def test_same_seed_reruns_identically():
    a = run_chaos_scenario(3, "crash")
    b = run_chaos_scenario(3, "crash")
    assert (a.ok, a.deliveries, a.final_members) == (
        b.ok, b.deliveries, b.final_members)


def test_forced_violation_writes_replayable_artifact(tmp_path):
    result = run_chaos_scenario(0, "loss", artifact_dir=str(tmp_path),
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
    assert artifact["plan"]["events"]
    assert artifact["injections"]
    assert artifact["violations"]
    assert any(v["oracle"] == "total-order" for v in artifact["violations"])
    # the corrupted member's transcript and the anchor's reference one
    involved = {m for v in artifact["violations"] for m in v["members"]}
    for pid in involved | {PROTECTED_PID}:
        assert artifact["transcripts"][str(pid)]
    # and the artifact replays to the same verdict
    replayed = replay_artifact(result.artifact_path)
    assert not replayed.ok
    assert any(v.oracle == "total-order" for v in replayed.violations)


def test_replay_runs_the_recorded_plan_not_a_regenerated_one(tmp_path):
    # an artifact must keep replaying what it recorded when
    # ChaosPlan.generate changes: stand in for such a change by editing
    # the recorded plan so it differs from generate(seed, scenario)
    result = run_chaos_scenario(0, "crash", artifact_dir=str(tmp_path),
                                inject_ordering_bug=True)
    assert len(result.final_members) < 5  # the generated plan crashes members
    with open(result.artifact_path, encoding="utf-8") as fh:
        artifact = json.load(fh)
    assert any(ev["kind"] == "crash" for ev in artifact["plan"]["events"])
    artifact["plan"]["events"] = [ev for ev in artifact["plan"]["events"]
                                  if not ev["kind"].startswith("crash")]
    assert artifact["plan"] != ChaosPlan.generate(0, "crash").as_dict()
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(artifact))
    replayed = replay_artifact(str(edited))
    assert replayed.final_members == (1, 2, 3, 4, 5)  # nobody crashed
    assert not replayed.ok  # the recorded injection still fires
    # and an unedited campaign artifact (no schedule section: FIFO)
    # replays to the run that wrote it
    same = replay_artifact(result.artifact_path)
    assert (same.final_members, same.deliveries) == (
        result.final_members, result.deliveries)


def test_chaos_config_for_selects_mode_and_leader():
    active = chaos_config_for("active", "crash")
    assert not active.llft_mode
    llft = chaos_config_for("llft", "crash")
    assert llft.llft_mode and llft.llft_leader_pid == 0
    # leader_crash pins the leader to a crashable (non-anchor) pid
    lc = chaos_config_for("llft", "leader_crash")
    assert lc.llft_mode and lc.llft_leader_pid == LLFT_LEADER_PID
    assert LLFT_LEADER_PID != PROTECTED_PID
    with pytest.raises(ValueError):
        chaos_config_for("paxos", "crash")
    # combo (join during an active fault round) stays out of the llft mix
    assert "combo" not in LLFT_SCENARIOS
    assert "leader_crash" in LLFT_SCENARIOS


def test_llft_smoke_matrix_runs_clean():
    results = run_campaign(seeds=(0,), scenarios=LLFT_SMOKE_SCENARIOS,
                           mode="llft", verbose=False)
    assert len(results) == len(LLFT_SMOKE_SCENARIOS)
    for r in results:
        assert r.ok, f"llft {r.scenario} seed={r.seed}: {r.violations}"
        assert r.deliveries > 0
        assert PROTECTED_PID in r.final_members


def test_llft_forced_violation_artifact_replays(tmp_path):
    # the artifact must carry the llft config so a replay needs no mode
    result = run_chaos_scenario(0, "leader_crash", mode="llft",
                                artifact_dir=str(tmp_path),
                                inject_ordering_bug=True)
    assert not result.ok
    assert result.artifact_path and os.path.exists(result.artifact_path)
    with open(result.artifact_path, encoding="utf-8") as fh:
        artifact = json.load(fh)
    assert artifact["config"]["llft_mode"] is True
    assert artifact["config"]["llft_leader_pid"] == LLFT_LEADER_PID
    replayed = replay_artifact(result.artifact_path)
    assert not replayed.ok


def test_multigroup_smoke_matrix_runs_clean():
    results = run_campaign(seeds=(0,), scenarios=MULTIGROUP_SMOKE_SCENARIOS,
                           mode="multigroup", verbose=False)
    assert len(results) == len(MULTIGROUP_SMOKE_SCENARIOS)
    for r in results:
        assert r.ok, f"multigroup {r.scenario} seed={r.seed}: {r.violations}"
        assert r.deliveries > 0
        assert PROTECTED_PID in r.final_members


def test_multigroup_forced_violation_artifact_replays(tmp_path):
    # the targeted cross-group inversion must trip exactly the acyclicity
    # oracle, and the artifact must carry the multigroup config plus the
    # overlapping-group topology so a replay needs no mode
    result = run_chaos_scenario(0, "overlap", mode="multigroup",
                                artifact_dir=str(tmp_path),
                                inject_ordering_bug=True)
    assert not result.ok
    assert [v.oracle for v in result.violations] == ["multigroup-acyclicity"]
    (v,) = result.violations
    assert v.cycle and v.cycle[0] == v.cycle[-1]
    assert result.artifact_path and os.path.exists(result.artifact_path)
    with open(result.artifact_path, encoding="utf-8") as fh:
        artifact = json.load(fh)
    assert artifact["config"]["multigroup_mode"] is True
    assert artifact["plan"]["groups"]
    replayed = replay_artifact(result.artifact_path)
    assert not replayed.ok
    assert any(v.oracle == "multigroup-acyclicity"
               for v in replayed.violations)


def test_clean_run_writes_no_artifact(tmp_path):
    result = run_chaos_scenario(1, "reorder", artifact_dir=str(tmp_path))
    assert result.ok
    assert result.artifact_path is None
    assert os.listdir(str(tmp_path)) == []
