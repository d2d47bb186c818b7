#!/usr/bin/env python3
"""The repo benchmark: ``python3 perf/run.py [--workload W] [--seed N]
[--seconds S] [--trace 0|1] [--quick] [--selfcheck]``.

Runs the named workload (default: all seven, one after another), each in
a fresh child interpreter — ``PYTHONHASHSEED=0``, never more than one
child alive — prints every metric by name with its unit, checks the
outputs, and writes ``perf/out/result.json``.  The last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}`` for the (last) workload run.

``--trace 0`` (default) reports the end-to-end metrics from an untraced
pass.  ``--trace 1`` reports the per-layer metrics instead: an untraced
reference pass, a pass under ``perf/trace.py`` whose recorded histories
go through ``run_history_oracles``, a ``cProfile`` pass for exact call
counts, and the codec micro-benchmarks; spans are written to
``perf/out/spans-<workload>.json``.

The exit code is non-zero if any operation failed or any check did.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if __name__ == "__main__":
    # run as a script: drop the script's own directory (its trace.py would
    # shadow the standard library's) for the program and the perf package
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
OUT = HERE / "out"

#: set-ups timed per run; ``setup_s`` is their median
SETUPS = 5
#: lengths of the traced and profiled passes, as shares of ``--seconds``
TRACED_SHARE = 0.25
PROFILED_SHARE = 0.10
#: a run may take this long before the parent kills it (the contract: 180 s)
CHILD_TIMEOUT = 170.0

#: metrics that are simulated time or counts on the discrete-event
#: network: the same seed and length must reproduce them bit for bit
EXACT_METRICS = ("latency_p50_ms", "latency_tail_ms", "goodput_ops_s",
                 "wire_bytes_per_op")
SIM_WORKLOADS = ("steady5", "saturate5", "lossy5", "churn5", "giop3x2")


# ======================================================================
# child: one workload, in this process
# ======================================================================
def ready() -> None:
    """Tell the parent that set-up is over, and what it cost: the
    processor time this process has used since it started."""
    print("READY", time.process_time(), flush=True)


def measure(w, probe, calibrated: bool, profiler=None) -> dict:
    """Run and finish a set-up workload, then close it; returns its result."""
    from perf.calibrate import Meter, quiet_gc

    meter = Meter(calibrated)
    try:
        with quiet_gc():
            probe.mark()
            if profiler is not None:
                profiler.enable()
            try:
                w.run(meter)
            finally:
                if profiler is not None:
                    profiler.disable()
            probe.mark()
            result = w.finish()
    finally:
        w.close()
    result["measured_ops"] = meter.ops
    result["measured_s"] = meter.elapsed
    result["measured_wall_s"] = meter.wall
    result["raw_us_per_op"] = meter.raw_us_per_op()
    if calibrated:
        result["metrics"]["cpu_norm_us_per_op"] = meter.norm_us_per_op()
    return result


def child_untraced(args):
    import resource

    from perf.trace import NullProbe
    from perf.workloads import WORKLOADS

    probe = NullProbe()
    w = WORKLOADS[args.workload](args.seed, args.seconds, probe, args.inject_drop)
    ready()
    if args.child == "setup":
        w.close()
        return None
    result = measure(w, probe, calibrated=True)
    result["metrics"]["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    return result


def child_traced(args) -> dict:
    import cProfile
    import pstats

    from perf.layers import codec_micro, layer_metrics
    from perf.trace import NullProbe, TraceProbe, Tracer, installed
    from perf.workloads import WORKLOADS
    from repro.replication.oracles import run_history_oracles

    workload = WORKLOADS[args.workload]
    ready()
    length = args.seconds * TRACED_SHARE
    free = NullProbe()
    untraced = measure(workload(args.seed, length, free), free, calibrated=False)

    tracer = Tracer()
    probe = TraceProbe(tracer)
    with installed(tracer):
        traced = measure(workload(args.seed, length, probe, args.inject_drop),
                         probe, calibrated=False)
    info = traced["info"]
    violations = []
    groups = {d.group for rec in probe.recordings.values() for d in rec.deliveries}
    for group in sorted(groups):
        violations += run_history_oracles(probe.recordings, group,
                                          final_members=info["members"])
    violations = [v for v in violations if v.key not in info.get("waived", ())]
    traced["problems"] += [f"oracle {v.oracle}: {v.detail}" for v in violations[:10]]
    traced["failed"] += len(violations)
    OUT.mkdir(exist_ok=True)
    tracer.dump(str(OUT / f"spans-{args.workload}.json"),
                {"workload": args.workload, "seed": args.seed, "seconds": length,
                 "ops": traced["measured_ops"], "measured_s": traced["measured_s"]})

    profiler = cProfile.Profile()
    profiled = measure(workload(args.seed, args.seconds * PROFILED_SHARE, free), free,
                       calibrated=False, profiler=profiler)
    stats = pstats.Stats(profiler).stats  # type: ignore[attr-defined]

    metrics = layer_metrics(untraced, traced, probe, stats,
                            profiled["measured_ops"], codec_micro())
    passes = (untraced, traced, profiled)
    return {
        "ops": traced["ops"],
        "attempted": traced["attempted"],
        "failed": sum(p["failed"] for p in passes),
        "problems": [msg for p in passes for msg in p["problems"]],
        "metrics": metrics,
    }


def child_main(args) -> int:
    result = child_traced(args) if args.trace else child_untraced(args)
    if result is not None:
        result.pop("info", None)
        print(json.dumps(result))
    return 0


# ======================================================================
# parent: spawn, time set-up, report
# ======================================================================
def spawn(args, name: str, mode: str):
    """Run one child of workload ``name``; returns ``(its set-up time, its
    result)``.

    Set-up time is the processor time the child had used when it was
    ready to measure — interpreter start and imports included — scaled by
    a calibration run next to it, like every other cost here: wall time
    to ready read 0.27 s in a calm quarter of an hour and 0.37 s in a
    noisy one.
    """
    from perf.calibrate import REFERENCE_KERNEL_S, calibrate

    scale = REFERENCE_KERNEL_S / calibrate()
    cmd = [sys.executable, str(HERE / "run.py"), "--child", mode,
           "--workload", name, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.inject_drop:
        cmd.append("--inject-drop")
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            cwd=str(ROOT))
    watchdog = threading.Timer(CHILD_TIMEOUT, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline().split()
        out = proc.stdout.read()
    except BaseException:
        proc.kill()
        raise
    finally:
        watchdog.cancel()
        proc.wait()
    if proc.returncode != 0 or ready[:1] != ["READY"]:
        raise RuntimeError(f"{name}: child exited with {proc.returncode}")
    return float(ready[1]) * scale, json.loads(out) if mode == "run" else None


def run_workload(args, name: str) -> dict:
    """All children of one workload; returns its report."""
    started = time.perf_counter()
    if args.trace:
        _, result = spawn(args, name, "run")
    else:
        setups = [spawn(args, name, "setup")[0] for _ in range(SETUPS - 1)]
        setup_s, result = spawn(args, name, "run")
        result["metrics"]["setup_s"] = statistics.median(setups + [setup_s])
    wanted = SPEC["per_layer"] if args.trace else SPEC["end_to_end"]
    metrics = {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
               for m in wanted}
    unnamed = sorted(set(result["metrics"]) - set(metrics))
    if unnamed:
        result["problems"].append(f"metrics not named in BENCHMARK.json: {unnamed}")
    return {
        "correct": result["failed"] == 0 and not result["problems"],
        "attempted": max(1, result["attempted"]),
        "failed": result["failed"],
        "metrics": metrics,
        "problems": result["problems"],
        "wall_s": time.perf_counter() - started,
    }


def report(name: str, rep: dict) -> None:
    for metric, m in rep["metrics"].items():
        print(f"{name:<11} {metric:<40} {m['value']:>16.6f} {m['unit']}")
    print(f"{name:<11} failed {rep['failed']} of {rep['attempted']} operations"
          f" (share {rep['failed'] / rep['attempted']:.6f})")
    for problem in rep["problems"]:
        print(f"{name:<11} PROBLEM: {problem}")


def run_all(args) -> dict:
    """Run the selected workloads; returns ``{workload: report}``."""
    reports = {}
    for name in ([args.workload] if args.workload else NAMES):
        reports[name] = run_workload(args, name)
        report(name, reports[name])
    return reports


def selfcheck(args) -> int:
    """The whole untraced benchmark twice on the same tree: A then B."""
    a, b = run_all(args), run_all(args)
    bad = 0
    print(f"\n{'workload':<11} {'metric':<22} {'A':>14} {'B':>14} {'diff':>9} {'bound':>7}")
    for name in a:
        for metric, spec in END_TO_END.items():
            va = a[name]["metrics"][metric]["value"]
            vb = b[name]["metrics"][metric]["value"]
            diff = abs(vb - va) / abs(va) if va else float(vb != va)
            exact = name in SIM_WORKLOADS and metric in EXACT_METRICS
            ok = va == vb if exact else diff <= spec["bound"]
            bad += not ok
            print(f"{name:<11} {metric:<22} {va:>14.6g} {vb:>14.6g} {diff:>9.4f} "
                  f"{'exact' if exact else spec['bound']:>7} {'' if ok else 'FAIL'}")
    bad += sum(not r["correct"] for r in list(a.values()) + list(b.values()))
    print("selfcheck:", "FAILED" if bad else "ok")
    return 1 if bad else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0)
    ap.add_argument("--quick", action="store_true",
                    help="every workload at one tenth length")
    ap.add_argument("--selfcheck", action="store_true",
                    help="run twice, compare within the benchmark's own bounds")
    ap.add_argument("--inject-drop", action="store_true",
                    help="self-test: lose one delivery, expect a failure")
    ap.add_argument("--child", choices=("setup", "run"), help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        return child_main(args)
    if args.quick:
        args.seconds /= 10.0
    if args.selfcheck:
        return selfcheck(args)

    started = time.perf_counter()
    reports = run_all(args)
    OUT.mkdir(exist_ok=True)
    (OUT / "result.json").write_text(json.dumps(
        {"seed": args.seed, "seconds": args.seconds, "trace": args.trace,
         "workloads": reports}, indent=1))
    print("wall time: " + ", ".join(f"{n} {r['wall_s']:.1f} s" for n, r in reports.items())
          + f"; total {time.perf_counter() - started:.1f} s")
    last = reports[next(reversed(reports))]
    print(json.dumps({k: last[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if all(r["correct"] for r in reports.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
