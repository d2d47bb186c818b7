"""Checked-in minimized explore artifacts replay as regression tests.

``tests/data/explore/`` holds minimized violation artifacts produced by
the chaos runner's shrinker (``make explore`` /
``python -m repro.analysis.chaos run --policy pct``).  Each one is a complete
(plan, schedule, config) triple:

* replayed as recorded — with its ``inject_ordering_bug`` self-test
  corruption on — it must still go red with the violation key it was
  minimized against, proving the artifact is alive (the explorer,
  oracles and replay pipeline still fire on it);
* replayed with the injection forced off it must go green against the
  current code, which is the regression guarantee: if a real ordering
  bug ever re-appears on this exact minimized scenario, this test fails.

An artifact recorded without the injection is a real defect.  Until its
fix lands it is in ``KNOWN_RED``: it replays red as recorded, and its
green replay is a strict xfail (then the xfail fails, and the mark comes
off).  Once fixed it is a regression pin: it replays green, and red only
against the code it was recorded on.

New artifacts dropped into the directory are picked up automatically.
"""

from __future__ import annotations

import glob
import json
import os

import pytest

from repro.analysis.chaos import MODE_TABLE, main, replay, sweep
from repro.simnet import Schedule

_DATA_DIR = os.path.join(os.path.dirname(__file__), "..", "data", "explore")
ARTIFACTS = sorted(glob.glob(os.path.join(_DATA_DIR, "*.json")))
#: artifact -> the unfixed defect it pins (recorded without the injection)
KNOWN_RED: dict = {}


def _green(path):
    name = os.path.basename(path)
    marks = [pytest.mark.xfail(strict=True, reason=KNOWN_RED[name])] if name in KNOWN_RED else []
    return pytest.param(path, id=name, marks=marks)


def test_at_least_one_minimized_artifact_is_checked_in():
    assert ARTIFACTS, f"no explore artifacts under {_DATA_DIR}"


@pytest.mark.parametrize("path", ARTIFACTS, ids=[os.path.basename(p) for p in ARTIFACTS])
def test_artifact_is_minimized_and_well_formed(path):
    with open(path, encoding="utf-8") as fh:
        artifact = json.load(fh)
    assert artifact["violations"], "artifact with no recorded violations"
    assert all(v.get("key") for v in artifact["violations"])
    shrink = artifact["shrink"]
    assert shrink["replayed"]
    assert shrink["final_decisions"] <= shrink["original_decisions"]
    assert shrink["final_events"] <= shrink["original_events"]
    # the schedule section must round-trip (it is what replay runs)
    schedule = Schedule.from_dict(artifact["schedule"])
    assert schedule.as_dict() == artifact["schedule"]


def _red(path):
    """Recorded with the self-test injection, or a defect not fixed yet."""
    with open(path, encoding="utf-8") as fh:
        injected = json.load(fh)["inject_ordering_bug"]
    return injected or os.path.basename(path) in KNOWN_RED


RED = [p for p in ARTIFACTS if _red(p)]


@pytest.mark.parametrize("path", RED, ids=[os.path.basename(p) for p in RED])
def test_artifact_replays_red_as_recorded(path):
    with open(path, encoding="utf-8") as fh:
        artifact = json.load(fh)
    recorded = {tuple(v["key"]) for v in artifact["violations"]}
    result = replay(path)
    decisions = result.decisions
    replayed = {tuple(v.signature) for v in result.violations}
    assert replayed & recorded, (
        f"{os.path.basename(path)} no longer reproduces its violation "
        f"(recorded {recorded}, replay produced {replayed})"
    )
    # byte-exact replay: the re-recorded contested choices extend the
    # minimized decision log with pure-FIFO (0) tail choices only
    minimized = artifact["schedule"]["decisions"]
    assert decisions[:len(minimized)] == minimized
    assert all(d == 0 for d in decisions[len(minimized):])


def test_known_red_artifacts_are_real_defects():
    for name in KNOWN_RED:
        with open(os.path.join(_DATA_DIR, name), encoding="utf-8") as fh:
            assert not json.load(fh)["inject_ordering_bug"], name


@pytest.mark.parametrize("path", [_green(p) for p in ARTIFACTS])
def test_artifact_replays_green_against_fixed_code(path):
    # the self-test corruption off: the same minimized (plan, schedule)
    # must satisfy the full oracle battery on the current protocol code
    result = replay(path, without_injection=True)
    assert result.ok, [v.as_dict() for v in result.violations]


@pytest.mark.parametrize("retired, value", [
    # recorded while the ordering was three booleans
    ("llft" + "_mode", True),
    # recorded while a token bucket paced retransmissions
    ("retransmit" + "_rate_limit", 150.0),
])
def test_an_artifact_naming_a_retired_config_field_exits_2(
        retired, value, tmp_path, capsys):
    # an artifact carrying a field FTMPConfig no longer has: one line
    # naming it, not a traceback (each name is spelled in two parts so a
    # search for it finds no code)
    with open(os.path.join(_DATA_DIR, "explore-churn-0-s0.json"),
              encoding="utf-8") as fh:
        artifact = json.load(fh)
    artifact["config"][retired] = value
    old = tmp_path / "old.json"
    old.write_text(json.dumps(artifact))
    assert main(["replay", str(old)]) == 2
    (line,) = capsys.readouterr().out.splitlines()
    assert repr(retired) in line


def test_llft_explore_smoke():
    # the explorer drives the leader-follower stack too: leader-handoff
    # interleavings on the leader_crash class stay clean under a couple
    # of adversarial PCT schedules
    assert "leader_crash" in MODE_TABLE["llft"].explored
    outcomes = sweep("llft", ("leader_crash",), seeds=(0,), policy="pct",
                     schedules=2, verbose=False)
    assert outcomes
    for out in outcomes:
        assert out.ok, [v.as_dict() for v in out.violations]
        assert out.schedules_run == 2
        assert out.deliveries > 0


def test_multigroup_explore_smoke():
    # the explorer drives the multi-group stack on the overlapping-
    # membership class: propose/commit interleavings across three
    # overlapping groups stay clean under adversarial PCT schedules
    assert "overlap" in MODE_TABLE["multigroup"].explored
    outcomes = sweep("multigroup", ("overlap",), seeds=(0,), policy="pct",
                     schedules=2, verbose=False)
    assert outcomes
    for out in outcomes:
        assert out.ok, [v.as_dict() for v in out.violations]
        assert out.schedules_run == 2
        assert out.deliveries > 0
