"""Smoke tests of the benchmark harness itself.

Run with ``python -m pytest perf -q`` from the repository root (about two
to three minutes; tier-1's ``testpaths = ["tests"]`` does not collect this file).
Every run here is ``--quick``: each workload at one tenth length.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perf/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def quick(*args: str):
    """One ``--quick`` run of all seven workloads: (process, result.json)."""
    proc = bench("--quick", *args)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return proc, json.loads((ROOT / "perf" / "out" / "result.json").read_text())


@pytest.fixture(scope="module")
def untraced():
    return quick()


@pytest.fixture(scope="module")
def traced():
    return quick("--trace", "1")


def printed(stdout: str):
    """{(workload, metric): unit} of every metric line printed."""
    found = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[0] in NAMES:
            float(parts[2])
            found[(parts[0], parts[1])] = parts[3]
    return found


@pytest.mark.parametrize("section,fixture", [("end_to_end", "untraced"),
                                             ("per_layer", "traced")])
def test_prints_exactly_the_metrics_benchmark_json_names(section, fixture, request):
    proc, result = request.getfixturevalue(fixture)
    want = {(w, m["name"]): m["unit"] for w in NAMES for m in SPEC[section]}
    assert printed(proc.stdout) == want
    for name in NAMES:
        report = result["workloads"][name]
        assert report["correct"] and report["failed"] == 0, report["problems"]
        assert set(report["metrics"]) == {m["name"] for m in SPEC[section]}
    # the contract's last line: exactly these keys, for the last workload
    last = json.loads(proc.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["attempted"] >= 1


def test_end_to_end_metrics_are_never_zero(untraced):
    _, result = untraced
    for name in NAMES:
        for metric, m in result["workloads"][name]["metrics"].items():
            assert m["value"] > 0, (name, metric)


def test_two_quick_runs_agree_exactly_on_simulated_metrics(untraced):
    from perf.run import EXACT_METRICS, SIM_WORKLOADS

    _, first = untraced
    _, second = quick()
    for name in SIM_WORKLOADS:
        for metric in EXACT_METRICS:
            a = first["workloads"][name]["metrics"][metric]["value"]
            b = second["workloads"][name]["metrics"][metric]["value"]
            assert a == b, (name, metric)


def test_manifest_matches_the_code():
    from perf.layers import PER_LAYER
    from perf.run import SIM_WORKLOADS
    from perf.workloads import WORKLOADS

    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] \
        == list(PER_LAYER)
    assert NAMES == list(WORKLOADS)
    assert list(SIM_WORKLOADS) == [n for n, w in WORKLOADS.items()
                                   if w.substrate == "simnet"]


def test_span_self_times_are_sane(traced):
    spans = json.loads((ROOT / "perf" / "out" / "spans-steady5.json").read_text())
    start, end, parent = spans["start_ns"], spans["end_ns"], spans["parent"]
    own = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        assert p < i
        if p >= 0:
            own[p] -= end[i] - start[i]
    assert min(own) >= 0
    assert sum(own) <= max(end) - min(start)
    assert {"rmp.on_message", "romp.receive", "wire.decode",
            "listener.on_deliver"} <= set(spans["names"])


def test_wrappers_do_not_leak():
    from perf.calibrate import Meter
    from perf.trace import TraceProbe, Tracer, installed
    from perf.workloads import WORKLOADS
    from repro.core import datapath, stack
    from repro.core.buffers import RetransmissionBuffer
    from repro.core.rmp import RMP
    from repro.core.romp import ROMP
    from repro.orb import ftiop

    def current():
        return (RMP.on_message, ROMP.receive, ROMP.evaluate, stack.decode,
                stack.encode, datapath.decode, RetransmissionBuffer.add,
                datapath.ProcessorGroup.on_datagram, ftiop.decode_giop)

    originals = current()
    tracer = Tracer()
    with installed(tracer):
        assert all(a is not b for a, b in zip(current(), originals))
        w = WORKLOADS["steady5"](1, 0.2, TraceProbe(tracer))
        w.run(Meter(calibrated=False))
        assert w.finish()["failed"] == 0
        w.close()
    assert all(a is b for a, b in zip(current(), originals))
    assert len(tracer.start) > 1000


@pytest.mark.parametrize("name", ["steady5", "giop3x2", "aio_burst3"])
def test_a_dropped_delivery_is_a_failure(name):
    proc = bench("--quick", "--workload", name, "--inject-drop")
    assert proc.returncode != 0
    last = json.loads(proc.stdout.splitlines()[-1])
    assert last["failed"] > 0 and last["correct"] is False


def test_refuses_to_report_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and perf/ there is no
    ``src/`` to measure: non-zero exit and no result line."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perf", tmp_path / "perf",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "steady5", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
