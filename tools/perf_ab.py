#!/usr/bin/env python3
"""Before/after runs of the repo benchmark by the choosing-metrics §8 rule:
``python3 tools/perf_ab.py BASE [--workload W]... [--pairs 10]``.

Exports commit ``BASE`` and this working tree (tracked and untracked
files, as checked out) into two sibling directories of one temporary
directory, so that neither side runs from a path the other does not
share, overlays the *current* ``perf/`` and ``BENCHMARK.json`` onto both
— identical benchmark code on both sides — and runs alternating pairs
of ``perf/run.py --workload W --seed N`` in the two, one seed per pair
(use seeds that were not used while the change was written).  Per workload and
metric it prints both medians with their quartiles, how many pairs the
change won (ties count for neither side) and a verdict:

``gain``      the change won at least nine tenths of the pairs and the
              medians differ by more than the base's interquartile range
``WORSE``     the change's median is worse than the base's by more than
              the bound ``BENCHMARK.json`` fixes for the metric
``MOVED``     a simulated-time metric that must repeat exactly for the
              same seed differs in at least one pair

The exit code is non-zero on any ``WORSE`` or ``MOVED``, or if either
side fails an operation.  ``--trace 1`` compares the per-layer metrics
instead (no bounds there: the verdict column only says ``gain``).
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perf.run import EXACT_METRICS, NAMES, SIM_WORKLOADS, SPEC  # noqa: E402


#: side -> its directory under the temporary one: names of one length
SIDES = {"base": "base", "change": "work"}


def _git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True).stdout


def export(base: str, into: Path) -> Dict[str, Path]:
    """Both sides as siblings under ``into``: ``git archive BASE``, and
    this working tree's tracked and untracked files as checked out; then
    this tree's benchmark on both.  Returns side -> directory."""
    trees = {side: into / name for side, name in SIDES.items()}
    for tree in trees.values():
        tree.mkdir()
    subprocess.run(["tar", "-x", "-C", str(trees["base"])],
                   input=_git("archive", "--format=tar", base), check=True)
    listed = _git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for rel in filter(None, listed.decode().split("\0")):
        if (ROOT / rel).is_file():  # a tracked file deleted here is gone
            (trees["change"] / rel).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / rel, trees["change"] / rel)
    for tree in trees.values():
        shutil.rmtree(tree / "perf", ignore_errors=True)
        shutil.copytree(ROOT / "perf", tree / "perf",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", tree / "BENCHMARK.json")
    return trees


def run_once(tree: Path, workload: str, seed: int, args) -> dict:
    """One benchmark run; returns the result line's object."""
    cmd = [sys.executable, "perf/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", str(args.trace)]
    if args.seconds is not None:
        cmd += ["--seconds", repr(args.seconds)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if not proc.stdout.strip():
        raise RuntimeError(f"{tree}: {workload} seed {seed} printed nothing\n"
                           + proc.stderr[-2000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: List[float]):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def compare(workload: str, runs: List[Dict[str, dict]], metrics: List[dict],
            traced: bool) -> int:
    """Print one workload's table; returns how many rows are bad."""
    bad = 0
    pairs = len(runs)
    print(f"\n{workload}: {pairs} pairs, seeds {runs[0]['seed']}..{runs[-1]['seed']}")
    print(f"  {'metric':<34} {'base median [q1, q3]':>32} {'change median [q1, q3]':>32}"
          f" {'delta':>8} {'wins':>6}  verdict")
    for spec in metrics:
        name = spec["name"]
        base = [r["base"]["metrics"][name]["value"] for r in runs]
        change = [r["change"]["metrics"][name]["value"] for r in runs]
        lower = spec["better"] == "lower"
        wins = sum((c < b) if lower else (c > b) for b, c in zip(base, change))
        b1, bm, b3 = quartiles(base)
        c1, cm, c3 = quartiles(change)
        delta = (cm - bm) / abs(bm) if bm else float(cm != bm)
        worse_by = delta if lower else -delta
        verdict = ""
        if not traced and workload in SIM_WORKLOADS and name in EXACT_METRICS:
            if base != change:
                verdict = "MOVED"
                bad += 1
            else:
                verdict = "exact"
        elif wins >= 0.9 * pairs and worse_by < 0 and abs(cm - bm) > b3 - b1:
            verdict = "gain"
        elif "bound" in spec and worse_by > spec["bound"]:
            verdict = "WORSE"
            bad += 1
        print(f"  {name:<34} {bm:>12.5g} [{b1:>8.5g},{b3:>8.5g}]"
              f" {cm:>12.5g} [{c1:>8.5g},{c3:>8.5g}] {delta:>+8.1%} {wins:>3}/{pairs:<2}  {verdict}")
    failed = [(side, r["seed"]) for r in runs for side in ("base", "change")
              if r[side]["failed"] or not r[side]["correct"]]
    if failed:
        print(f"  FAILED operations or checks: {failed}")
        bad += len(failed)
    return bad


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", help="commit to compare this working tree against")
    ap.add_argument("--workload", action="append", choices=NAMES,
                    help="repeatable; default: all seven")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=801,
                    help="seed of the first pair; pair i uses seed + i")
    ap.add_argument("--seconds", type=float, help="passed through to perf/run.py")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--json", type=Path, help="also write every run here")
    args = ap.parse_args()

    workloads = args.workload or NAMES
    metrics = SPEC["per_layer"] if args.trace else SPEC["end_to_end"]
    runs: Dict[str, List[Dict[str, dict]]] = {w: [] for w in workloads}
    with tempfile.TemporaryDirectory(prefix="perf-ab-") as tmp:
        trees = export(args.base, Path(tmp))
        for i in range(args.pairs):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for w in workloads:
                pair = {"seed": args.seed + i}
                for side in order:
                    pair[side] = run_once(trees[side], w, args.seed + i, args)
                runs[w].append(pair)
                cost = "py.calls_per_op" if args.trace else "cpu_norm_us_per_op"
                print(f"pair {i + 1}/{args.pairs} {w:<11} seed {pair['seed']}: {cost} "
                      f"{pair['base']['metrics'][cost]['value']:.2f} -> "
                      f"{pair['change']['metrics'][cost]['value']:.2f}", flush=True)
    if args.json:
        args.json.write_text(json.dumps({"base": args.base, "runs": runs}, indent=1))
    bad = sum(compare(w, runs[w], metrics, bool(args.trace)) for w in workloads)
    print("\nperf-ab:", f"{bad} bad rows" if bad else "ok")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
