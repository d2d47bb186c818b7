"""Shared benchmark reporting: print + persist each regenerated artifact.

Every experiment writes its table/series to ``benchmarks/results/<id>.txt``
so EXPERIMENTS.md can cite the exact measured output even when pytest
captures stdout.

Machine-readable counterpart: :func:`emit_json` merges structured metrics
into ``BENCH_report.json`` at the repository root.  Each experiment owns a
top-level key; re-running one experiment updates only its own section, so
``make bench`` (or any subset of it) incrementally regenerates the report.

Baseline-diff mode (``python benchmarks/_report.py diff``, or ``make
bench-diff``): compares the freshly regenerated report against the
committed copy (``git show HEAD:BENCH_report.json``) and prints every
per-metric delta.  Most metrics are informational (soft-warn) — the run
fails only when a *gated* metric regresses by more than the threshold.
Gated metrics are deliberately machine-independent (the baseline may
have been committed from a different machine than the runner diffing
against it): the batched/unbatched and flow-controlled/batched
saturation-goodput ratios derived from each report, both computed from
*simulated* time and therefore deterministic for a given seed.  CPU and
codec cost are not measured here at all: that is ``perf/`` (see
``perf/README.md``).

The one wall-clock section (:func:`wallclock_section`, filled by the E19
multi-process cluster bench: real OS processes, real sockets, real
clocks) holds the only machine-dependent numbers in the report, so they
are soft-warn by construction — nothing under ``*.wallclock.*`` may ever
be added to ``GATED_METRICS``; the correctness side of those runs (total
order across processes) is asserted by the cluster oracles, not by the
diff.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys
from typing import Any, Dict, Iterator, Optional, Tuple

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
JSON_REPORT = pathlib.Path(__file__).parent.parent / "BENCH_report.json"


def emit(experiment_id: str, text: str) -> None:
    """Print the artifact and persist it under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{experiment_id}.txt"
    path.write_text(text + "\n")
    print(f"\n{text}\n[saved to {path}]")


def emit_json(experiment_id: str, metrics: Dict[str, Any]) -> None:
    """Merge ``metrics`` under ``experiment_id`` in BENCH_report.json.

    The report is a single JSON object keyed by experiment id.  Merging
    (rather than overwriting the whole file) lets a partial benchmark run
    refresh just the experiments it executed while keeping the rest.
    """
    report: Dict[str, Any] = {}
    if JSON_REPORT.exists():
        try:
            report = json.loads(JSON_REPORT.read_text())
        except (ValueError, OSError):
            report = {}  # corrupt/unreadable report: rebuild from scratch
    if not isinstance(report, dict):
        report = {}
    report[experiment_id] = metrics
    JSON_REPORT.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"[metrics merged into {JSON_REPORT}]")


def wallclock_section(results: Dict[int, Any]) -> Dict[str, Any]:
    """Shape ``{process_count: ClusterResult}`` into the report's
    ``wallclock`` section.

    Keys are ``"<n>p"`` so process counts stay stable dotted paths in the
    diff (``…wallclock.3p.msgs_s``); every numeric leaf here is a
    wall-clock measurement and therefore soft-warn-only (never gated).
    """
    section: Dict[str, Any] = {}
    for n, r in sorted(results.items()):
        section[f"{n}p"] = {
            "mode": r.mode,
            "total_delivered": r.total_delivered,
            "msgs_s": round(r.msgs_s, 1),
            "latency_p50_ms": round(r.latency_p50_ms, 3),
            "latency_p99_ms": round(r.latency_p99_ms, 3),
            "oracle_violations": len(r.violations),
            "ok": r.ok,
        }
    return section


# ----------------------------------------------------------------------
# baseline-diff mode
# ----------------------------------------------------------------------

#: dotted paths whose regression FAILS the diff (higher is better for
#: every gated metric); everything else only soft-warns.  Both gated
#: metrics are ratios of simulated-time measurements — deterministic
#: for a given seed, so the gate is immune to runner speed.
GATED_METRICS = (
    "derived.goodput_ratio_batched_over_unbatched",
    "derived.goodput_ratio_fc_over_batched",
)

#: metrics where *lower* is better — sign of "regression" flips
LOWER_IS_BETTER_TOKENS = ("latency", "datagrams_per_delivery",
                          "wire_bytes", "queue", "violations")


def _numeric_leaves(node: Any, path: str = "") -> Iterator[Tuple[str, float]]:
    """Yield (dotted.path, value) for every numeric leaf of a JSON tree.

    Lists of objects keyed by a ``mode`` field (the experiments' series
    rows) are indexed by that label, plain lists by position.
    """
    if isinstance(node, bool):
        return
    if isinstance(node, (int, float)):
        yield path, float(node)
    elif isinstance(node, dict):
        for k in sorted(node):
            yield from _numeric_leaves(node[k], f"{path}.{k}" if path else k)
    elif isinstance(node, list):
        for i, item in enumerate(node):
            label = item.get("mode", i) if isinstance(item, dict) else i
            key = item.get("offered_msg_s") if isinstance(item, dict) else None
            tag = f"{label}@{key}" if key is not None else str(label)
            yield from _numeric_leaves(item, f"{path}[{tag}]")


def _derived_leaves(tree: Dict[str, Any]) -> Iterator[Tuple[str, float]]:
    """Machine-independent ratio metrics computed from a report tree.

    Both sides of each ratio come from the same benchmark run, so the
    derived value survives a change of runner; these are what the CI
    gate actually guards, while the absolute inputs only soft-warn.
    """
    e12 = tree.get("e12_saturation", {})
    e17 = tree.get("e17_overload_flow_control", {})
    batched = e12.get("saturation_goodput_batched_msg_s")
    unbatched = e12.get("saturation_goodput_unbatched_msg_s")
    fc = e17.get("saturation_goodput_fc_msg_s")
    if isinstance(batched, (int, float)) and isinstance(unbatched, (int, float)) \
            and unbatched:
        yield ("derived.goodput_ratio_batched_over_unbatched",
               batched / unbatched)
    if isinstance(fc, (int, float)) and isinstance(batched, (int, float)) \
            and batched:
        yield "derived.goodput_ratio_fc_over_batched", fc / batched
    # E20: the LLFT leader fast path against the active stack's p50 —
    # sim-time ratio, so machine-independent, but soft-warn only (the
    # "latency" token flips it to lower-is-better; it is deliberately
    # NOT in GATED_METRICS while the llft mode is young)
    e20 = tree.get("e20_llft_vs_active", {})
    leader = e20.get("low_load_leader_path_p50_latency_ms")
    active = e20.get("low_load_p50_latency_active_ms")
    if isinstance(leader, (int, float)) and isinstance(active, (int, float)) \
            and active:
        yield ("derived.latency_ratio_llft_leader_over_active_p50",
               leader / active)
    # E21: overlay vs flat goodput at 100 members — sim-time ratio, so
    # machine-independent, but soft-warn only while tree dissemination is
    # young (deliberately NOT in GATED_METRICS)
    e21 = tree.get("e21_overlay_scaling", {})
    by_mode = {row.get("mode"): row for row in e21.get("series", [])
               if isinstance(row, dict)}
    over = by_mode.get("overlay@100", {}).get("goodput_msg_s")
    flat = by_mode.get("flat@100", {}).get("goodput_msg_s")
    if isinstance(over, (int, float)) and isinstance(flat, (int, float)) \
            and flat:
        yield ("derived.goodput_ratio_overlay_over_flat_at_100",
               over / flat)


def _is_gated(path: str) -> bool:
    return path in GATED_METRICS


def _lower_is_better(path: str) -> bool:
    return any(tok in path for tok in LOWER_IS_BETTER_TOKENS)


def _baseline_report(ref: str) -> Optional[Dict[str, Any]]:
    """The committed BENCH_report.json at ``ref``, or None if absent."""
    try:
        blob = subprocess.run(
            ["git", "show", f"{ref}:BENCH_report.json"],
            cwd=JSON_REPORT.parent, capture_output=True, text=True, check=True,
        ).stdout
        return json.loads(blob)
    except (subprocess.CalledProcessError, ValueError, OSError):
        return None


def diff_against_baseline(ref: str = "HEAD", threshold: float = 0.25) -> int:
    """Print per-metric deltas vs the committed report; return exit code.

    Returns 1 only when a gated metric regresses by more than
    ``threshold`` (fraction, e.g. 0.25 = 25%); new, removed, or drifting
    ungated metrics are reported but never fail the run.
    """
    if not JSON_REPORT.exists():
        print(f"no fresh {JSON_REPORT.name}; run `make bench` first")
        return 1
    fresh_tree = json.loads(JSON_REPORT.read_text())
    fresh = dict(_numeric_leaves(fresh_tree))
    fresh.update(_derived_leaves(fresh_tree))
    baseline_tree = _baseline_report(ref)
    if baseline_tree is None:
        print(f"no committed {JSON_REPORT.name} at {ref}; "
              "nothing to diff against (treating as first run: PASS)")
        return 0
    baseline = dict(_numeric_leaves(baseline_tree))
    baseline.update(_derived_leaves(baseline_tree))

    failures = []
    warns = 0
    print(f"BENCH_report.json vs {ref} "
          f"(gate: >{threshold:.0%} regression on gated metrics)\n")
    for path in sorted(set(fresh) | set(baseline)):
        new, old = fresh.get(path), baseline.get(path)
        if old is None:
            print(f"  [new]     {path} = {new:g}")
            continue
        if new is None:
            print(f"  [removed] {path} (was {old:g})")
            continue
        if old == new:
            continue
        change = (new - old) / abs(old) if old else float("inf")
        regressed = change < 0 if not _lower_is_better(path) else change > 0
        magnitude = abs(change)
        gated = _is_gated(path)
        marker = "  "
        if regressed and magnitude > threshold:
            if gated:
                marker = "FAIL"
                failures.append((path, old, new, change))
            else:
                marker = "warn"
                warns += 1
        print(f"  [{marker}]  {path}: {old:g} -> {new:g} ({change:+.1%})")
    print()
    if failures:
        print(f"{len(failures)} gated metric(s) regressed >{threshold:.0%}:")
        for path, old, new, change in failures:
            print(f"  {path}: {old:g} -> {new:g} ({change:+.1%})")
        return 1
    print(f"gated metrics OK ({warns} ungated warn(s))")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    d = sub.add_parser("diff", help="diff fresh report against the "
                                    "committed baseline copy")
    d.add_argument("--ref", default="HEAD",
                   help="git ref holding the baseline (default HEAD)")
    d.add_argument("--threshold", type=float, default=0.25,
                   help="gated-regression failure threshold "
                        "(fraction, default 0.25)")
    args = parser.parse_args(argv)
    if args.command == "diff":
        return diff_against_baseline(ref=args.ref, threshold=args.threshold)
    return 2


if __name__ == "__main__":
    sys.exit(main())
