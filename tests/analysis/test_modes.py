"""The mode × scenario table, and the one runner around it.

``repro.analysis.chaos.MODE_TABLE`` is the single statement of which
scenario classes a replication mode sweeps, explores by default or
leaves out (and why), and what a cell changes in the configuration or
the plan.  These tests hold the table to itself, to EXPERIMENTS.md E15
(which embeds ``chaos matrix``), and hold the merged runner to the
campaign it replaced: the sweep at its defaults — FIFO, one schedule, no
policy installed — gives the parent campaign's numbers.
"""

import hashlib
import json
import pathlib
import re

import pytest

from repro.analysis.chaos import (
    MODE_TABLE,
    chaos_config_for,
    chaos_plan_for,
    main,
    render_matrix,
    sweep,
)
from repro.core.config import REJECTED_CELLS
from repro.replication.chaos import SCENARIOS, ChaosPlan

_ROOT = pathlib.Path(__file__).resolve().parents[2]
CELLS = [(mode, s) for mode in MODE_TABLE for s in SCENARIOS]
#: mode -> its (ordering, dissemination) pair
PAIRS = {"active": ("symmetric", "flat"), "llft": ("leader", "flat"),
         "overlay": ("symmetric", "tree"), "multigroup": ("skeen", "flat")}


def test_every_cell_is_swept_or_excluded_with_a_reason():
    assert list(MODE_TABLE) == ["active", "llft", "overlay", "multigroup"]
    for mode, spec in MODE_TABLE.items():
        assert set(spec.swept) | set(spec.excluded) == set(SCENARIOS)
        assert not set(spec.swept) & set(spec.excluded)
        assert set(spec.explored) <= set(spec.swept), mode
        assert set(spec.cells) <= set(spec.swept), mode
        for scenario, reason in spec.excluded.items():
            assert len(reason.split()) >= 5, (mode, scenario)
        for cell in spec.cells.values():
            assert len(cell.why.split()) >= 5
    assert MODE_TABLE["active"].swept == SCENARIOS
    with pytest.raises(ValueError, match="unknown mode"):
        chaos_plan_for("paxos", "crash", 0)


@pytest.mark.parametrize("mode,scenario", CELLS)
def test_every_cell_builds_a_valid_config_and_plan(mode, scenario):
    # excluded cells too: leaving a class out of the sweep is not a
    # rejection, `--scenarios` still runs it
    cfg = chaos_config_for(mode, scenario)  # range-checked at construction
    assert (cfg.ordering, cfg.dissemination) == PAIRS[mode]
    plan = chaos_plan_for(mode, scenario, 3)
    generated = ChaosPlan.generate(3, scenario)
    assert plan.events == generated.events
    assert ChaosPlan.from_dict(plan.as_dict()).as_dict() == plan.as_dict()
    cell = MODE_TABLE[mode].cells.get(scenario)
    assert plan.duration == generated.duration + (cell.cooldown if cell else 0)
    # multigroup hosts an overlapping layout under every class, each
    # subset group keeping two members the plan never removes
    assert bool(plan.groups) == (mode == "multigroup" or scenario == "overlap")
    if mode == "multigroup":
        lost = {p for ev in plan.events if ev.kind in ("crash", "leave")
                for p in ev.pids}
        assert all(len(set(m) - lost) >= 2 for m in plan.groups.values())


def test_matrix_is_what_experiments_md_embeds():
    text = (_ROOT / "EXPERIMENTS.md").read_text()
    block = re.search(r"<!-- chaos matrix -->\n```\n(.*?)\n```", text, re.S)
    assert block, "EXPERIMENTS.md E15 lost its `chaos matrix` block"
    assert block.group(1) == render_matrix(), (
        "regenerate: PYTHONPATH=src python -m repro.analysis.chaos matrix")
    header, *rows = render_matrix().splitlines()[:7]
    assert header.split() == ["mode", "ordering", "dissemination", *SCENARIOS,
                              "swept", "explored"]
    # the four runnable pairs, then the rest of ordering x dissemination
    assert [r.split()[:3] for r in rows] == [
        [mode, *PAIRS[mode]] for mode in MODE_TABLE] + [
        ["leader", "tree", "rejected:"], ["skeen", "tree", "rejected:"]]
    for row, spec in zip(rows, MODE_TABLE.values()):
        marks = dict(zip(SCENARIOS, row.split()[3:]))
        # every excluded cell points at a note, i.e. prints its reason
        assert {s for s, m in marks.items() if m[0] == "-"} == set(spec.excluded)
        assert all(re.fullmatch(r"-\d+", marks[s]) for s in spec.excluded)
    # a rejected pair prints the reason FTMPConfig raises with
    for row, ordering in zip(rows[4:], ("leader", "skeen")):
        reason = REJECTED_CELLS[("ordering", ordering), ("dissemination", "tree")]
        assert row.endswith(f"rejected: {reason}")


#: ChaosPlan.generate(seed, class).as_dict() for seeds 0-19, digested at
#: the parent of the PR that merged the leader_crash / relay_crash
#: generators: sha256 of the sort_keys JSON dump, first 16 hex digits
PLAN_DIGESTS = {
    "loss": "b3656e9f7192e946",
    "reorder": "c7d2663d02f7d227",
    "partition": "6d23fc7a79643674",
    "crash": "5e02e9f741e9aa0b",
    "churn": "fd3ec229772e4f56",
    "combo": "f63531851ca084fe",
    "overload": "2ec23bf362db70b3",
    "leader_crash": "3b08685de5a6de00",
    "relay_crash": "71401ed4e3fcd821",
    "overlap": "eda47f197f6e3161",
}


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_generated_plans_are_the_parents(scenario):
    blob = json.dumps([ChaosPlan.generate(seed, scenario).as_dict()
                       for seed in range(20)], sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest()[:16] == PLAN_DIGESTS[scenario]


#: (deliveries, final members, clean) of `chaos run --mode M --scenarios S
#: --seed 0` at the parent commit, when the campaign was its own runner.
#: One cell was re-pinned since: overlay / overload 1975 -> 2050, when
#: sends released by the flow controller stopped bypassing the adaptive
#: batch window — the same NIC carries more of the offered load, and
#: the bounded send queue sheds less of it; 2050 -> 2065, when the
#: sender's loopback copy stopped queueing behind its NIC backlog and
#: credit-released sends started carrying the freshest acknowledgement;
#: 2065 -> 2115, when a Regular below the ORB lost its 28 B connection
#: block and the NIC carried more of the load again; 2115 -> 2200, when
#: every datagram whose fields fit took the 27 B header instead of the
#: 40 B one, for the same reason; 2200 -> 2205, when that header shrank
#: to 21 B; 2205 -> 2195, when suspicion moved from the next quarter-
#: timeout sweep to the deadline: member 5's one false suspicion (of 2,
#: last heard at 0.8559 s behind its NIC backlog, withdrawn at 1.0356 s)
#: is raised at 1.0059 s instead of 1.0125 s, and its Suspect enters
#: 5's saturated egress 6.6 ms sooner.  And multigroup /
#: crash 688 -> 693, when heartbeats started following the last send by
#: one interval: the survivors order more of the crashed member's last
#: messages before the fault view (the wire change alone leaves it 688)
PARENT_CAMPAIGN = {
    ("active", "loss"): (585, (1, 2, 3, 4, 5), True),
    ("active", "crash"): (594, (1, 2, 3), True),
    ("active", "overload"): (9950, (1, 2, 3, 4, 5), True),
    ("llft", "churn"): (741, (1, 2, 3, 4, 5, 6, 7), True),
    ("llft", "leader_crash"): (708, (1, 3, 4, 5), True),
    ("overlay", "overload"): (2195, (1, 2, 3, 4, 5), True),
    ("overlay", "relay_crash"): (696, (1, 3, 4, 5), True),
    ("multigroup", "crash"): (693, (1, 2, 3), True),
    ("multigroup", "overlap"): (1278, (1, 2, 3, 4), True),
}


@pytest.mark.parametrize("mode,scenario", PARENT_CAMPAIGN)
def test_fifo_one_schedule_is_the_parent_campaign(mode, scenario):
    (r,) = sweep(mode, (scenario,), seeds=(0,), policy="fifo", schedules=1,
                 verbose=False)
    assert (r.deliveries, r.final_members, r.ok) == PARENT_CAMPAIGN[mode, scenario]
    assert r.decisions == []  # no policy installed: nothing was contested


def test_llft_overload_seed_15_is_clean():
    # the leader's loopback copy used to queue behind its NIC backlog and
    # be tail-dropped with the remote copies: the leader NACKed its own
    # stream, and the repair never caught up before the run ended
    (r,) = sweep("llft", ("overload",), seeds=(15,), verbose=False)
    assert r.ok, [v.as_dict() for v in r.violations]


def test_forced_campaign_violation_is_shrunk_and_replays_through_the_cli(
        tmp_path, capsys):
    # default policy: the campaign.  Exit 0 = caught, shrunk, written
    assert main(["run", "--scenarios", "churn", "--seed", "2",
                 "--inject-ordering-bug", "--artifact-dir", str(tmp_path)]) == 0
    (path,) = tmp_path.iterdir()
    assert path.name == "active-churn-2-s2000.json"
    artifact = json.loads(path.read_text())
    assert artifact["schedule"]["policy"] == "fifo"
    assert artifact["shrink"]["replayed"]
    assert artifact["shrink"]["final_events"] < artifact["shrink"]["original_events"]
    assert artifact["shrink"]["timeline_scale"] < 1.0
    assert main(["replay", str(path)]) == 1
    assert "[total-order]" in capsys.readouterr().out
    assert main(["replay", str(path), "--without-injection"]) == 0


def test_one_runner_by_count():
    # what `grep` would find across analysis/{chaos,explore}.py: one CLI
    # (no more arguments than the two it replaced had between them, 20),
    # one run-result type beside the shrinker's provenance record
    src = _ROOT / "src" / "repro" / "analysis"
    text = (src / "chaos.py").read_text() + (src / "explore.py").read_text()
    assert text.count("ArgumentParser(") == 1
    assert text.count(".add_argument(") <= 13
    assert re.findall(r"^class (\w+)", text, re.M) == [
        "Cell", "ModeSpec", "ChaosResult", "ShrinkStats"]
