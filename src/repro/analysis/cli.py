"""Command-line experiment runner.

``python -m repro.analysis.cli list`` shows every reproducible artifact;
``python -m repro.analysis.cli run E1 E3`` regenerates specific ones;
``python -m repro.analysis.cli run all`` regenerates everything.

Each experiment is an ordinary pytest file under ``benchmarks/`` that
runs its sweep in simulated time (E19 alone uses the wall clock) and
emits its table; the runner shells out to pytest so the artifacts land
in ``benchmarks/results/`` exactly as CI produces them.  The table of
experiments is the directory listing: ``test_{fig,e,a}<n>_*.py`` is
experiment ``F<n>`` / ``E<n>`` / ``A<n>``, described by the first line of
its module docstring.  CPU and codec cost are ``perf/``'s
(``perf/README.md``), not measured here.
"""

from __future__ import annotations

import argparse
import ast
import pathlib
import re
import subprocess
import sys
from typing import Dict, Tuple

_EXPERIMENT_FILE = re.compile(r"test_(fig|e|a)(\d+)_\w+\.py")


def find_benchmarks_dir() -> pathlib.Path:
    here = pathlib.Path.cwd()
    for candidate in (here / "benchmarks", here.parent / "benchmarks"):
        if candidate.is_dir():
            return candidate
    raise SystemExit("cannot find the benchmarks/ directory; run from the repo root")


def discover(bench_dir: pathlib.Path) -> Dict[str, Tuple[pathlib.Path, str]]:
    """``{id: (file, description)}`` for every experiment file on disk,
    figures first, then experiments and ablations by number."""
    found = {}
    for path in bench_dir.iterdir():
        m = _EXPERIMENT_FILE.fullmatch(path.name)
        if m is None:
            continue
        kind, number = m.groups()
        key = ("F" if kind == "fig" else kind.upper()) + number
        doc = ast.get_docstring(ast.parse(path.read_text())) or ""
        first = doc.split("\n", 1)[0]
        found[key] = (path, first.removeprefix(key).lstrip(" —"))
    return dict(sorted(found.items(),
                       key=lambda kv: ("FEA".index(kv[0][0]), int(kv[0][1:]))))


def cmd_list() -> int:
    experiments = discover(find_benchmarks_dir())
    width = max(len(k) for k in experiments)
    for key, (_file, desc) in experiments.items():
        print(f"  {key:<{width}}  {desc}")
    return 0


def cmd_run(ids: list) -> int:
    bench_dir = find_benchmarks_dir()
    experiments = discover(bench_dir)
    if ids == ["all"]:
        ids = list(experiments)
    files = []
    for key in ids:
        if key not in experiments:
            print(f"unknown experiment {key!r}; try 'list'", file=sys.stderr)
            return 2
        files.append(str(experiments[key][0]))
    code = subprocess.call([sys.executable, "-m", "pytest", *files, "-q", "-s"])
    results = bench_dir / "results"
    if results.is_dir():
        print(f"\nartifacts under {results}/:")
        for key in ids:
            for p in sorted(results.glob(f"{key}_*.txt")):
                print(f"  {p.name}")
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.analysis.cli",
        description="Regenerate the paper's figures and experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list all experiment ids")
    runp = sub.add_parser("run", help="run experiments by id (or 'all')")
    runp.add_argument("ids", nargs="+", metavar="ID")
    args = parser.parse_args(argv)
    if args.command == "list":
        return cmd_list()
    return cmd_run(args.ids)


if __name__ == "__main__":
    raise SystemExit(main())
