#!/usr/bin/env python3
"""Behaviour diff of the seeded chaos campaign: ``python3 tools/chaos_diff.py
BASE`` (``make chaos-diff BASE=<ref>``).

Exports commit ``BASE`` into a temporary directory with ``git archive``, as
``tools/perf_ab.py`` does, and runs each leg of this tree's ``make chaos``
recipe there and in this working tree — the same arguments on both sides.
Every leg prints one line per run (deliveries, members, verdict), all of
it determined by the seed, so a change that keeps the protocol's behaviour
prints the same lines.  Differing lines are shown as a unified diff per
leg; the exit code is 1 on any differing line (or exit status), else 0.
"""

from __future__ import annotations

import argparse
import difflib
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import List

ROOT = Path(__file__).resolve().parent.parent


def chaos_legs(makefile: Path) -> List[List[str]]:
    """The ``$(CHAOS) ...`` argument lists of the Makefile's ``chaos`` recipe."""
    recipe = makefile.read_text().split("\nchaos:\n", 1)[1]
    legs = []
    for line in recipe.splitlines():
        if not line.startswith("\t"):
            break
        legs.append(shlex.split(line.replace("$(CHAOS)", "")))
    return legs


def run_leg(tree: Path, leg: List[str]) -> List[str]:
    """One leg's output lines, its exit status last."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run([sys.executable, "-m", "repro.analysis.chaos", "run", *leg],
                          cwd=tree, env=env, capture_output=True, text=True)
    return (proc.stdout + proc.stderr).splitlines() + [f"exit {proc.returncode}"]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", help="commit to compare this working tree against")
    args = ap.parse_args()

    differing = 0
    with tempfile.TemporaryDirectory(prefix="chaos-diff-") as tmp:
        base_tree = Path(tmp)
        archive = subprocess.run(["git", "archive", "--format=tar", args.base],
                                 cwd=ROOT, check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(base_tree)], input=archive, check=True)
        for leg in chaos_legs(ROOT / "Makefile"):
            base, change = run_leg(base_tree, leg), run_leg(ROOT, leg)
            diff = list(difflib.unified_diff(base, change, args.base, "working tree",
                                             lineterm="", n=0))
            n = sum(1 for line in diff[2:] if line[:1] in "+-")
            differing += n
            print(f"chaos run {' '.join(leg)}: {len(change) - 1} lines, "
                  + (f"{n} differing" if n else "identical"), flush=True)
            for line in diff:
                print("  " + line)
    print("chaos-diff:", f"{differing} differing lines" if differing else "ok")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
