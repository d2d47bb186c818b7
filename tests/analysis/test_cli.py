"""CLI experiment-runner tests."""

import os
import pathlib
import subprocess
import sys

from repro.analysis.cli import discover, main

_ROOT = pathlib.Path(__file__).resolve().parents[2]
_SRC = str(_ROOT / "src")


def test_list_command(capsys):
    assert main(["list"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == list(discover(_ROOT / "benchmarks"))


def test_unknown_experiment_rejected(capsys):
    assert main(["run", "E99"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_every_registered_file_exists():
    # every test_{fig,e,a}<n>_*.py is an experiment and nothing else is:
    # the five the hand-kept table had missed are there, each with the
    # first line of its docstring
    bench = _ROOT / "benchmarks"
    experiments = discover(bench)
    assert {path.name for path, _desc in experiments.values()} == {
        p.name for p in bench.glob("test_*.py")}
    assert {"F1", "E1", "A1", "E17", "E19", "E20", "E21", "E23"} <= set(experiments)
    assert list(experiments)[:4] == ["F1", "F2", "F3", "E1"]
    assert all(desc and not desc.startswith(key)
               for key, (_path, desc) in experiments.items())
    assert experiments["E17"][0].name == "test_e17_overload_flow_control.py"


def test_every_experiment_has_a_result_file_run_can_list():
    # `run <ID>` lists results/<ID>_*.txt: an experiment that emits under
    # any other spelling (E19 wrote e19_... until PR 23) lists nothing
    results = _ROOT / "benchmarks" / "results"
    for key, (path, _desc) in discover(_ROOT / "benchmarks").items():
        assert list(results.glob(f"{key}_*.txt")), (
            f"{path.name} has no benchmarks/results/{key}_*.txt")
        assert f'emit("{key}_' in path.read_text(), path.name


def test_run_one_experiment_subprocess():
    # F2 is the fastest experiment; run it through the real CLI.  The
    # child needs repro importable regardless of how pytest itself found
    # it (pythonpath ini option vs. an exported PYTHONPATH).
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_SRC, env.get("PYTHONPATH", "")) if p
    )
    result = subprocess.run(
        [sys.executable, "-m", "repro.analysis.cli", "run", "F2"],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert result.returncode == 0, result.stdout + result.stderr
