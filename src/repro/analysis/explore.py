"""Delta-debugging shrinker for failing chaos runs.

A violation :mod:`repro.analysis.chaos` catches — under an explored
schedule or the plain FIFO campaign — is a ``(decisions, plan)`` pair:
the recorded index log of every contested same-time choice and the
:class:`~repro.replication.chaos.ChaosPlan` timeline.
:func:`shrink_failure` minimizes the pair — dropping recorded decisions
(an exhausted decision log falls back to FIFO, so any cut is a valid
schedule), dropping chaos-plan events, and shortening the traffic
timeline — re-validating after every step that a violation with the
**same machine-readable key** still fires.  It knows nothing of modes,
sweeps or artifacts: the runner hands it a ``still_fails`` callback and
writes what comes back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

from ..replication.chaos import ChaosPlan

__all__ = ["ShrinkStats", "shrink_failure"]


@dataclass
class ShrinkStats:
    """Provenance of a minimization (the artifact's ``shrink`` section)."""

    runs: int = 0
    replayed: bool = True  #: did the unshrunk schedule reproduce at all?
    original_decisions: int = 0
    final_decisions: int = 0
    original_events: int = 0
    final_events: int = 0
    timeline_scale: float = 1.0


def _with_events(plan: ChaosPlan, events: Sequence) -> ChaosPlan:
    d = plan.as_dict()
    d["events"] = [e.as_dict() for e in events]
    return ChaosPlan.from_dict(d)


def _with_timeline(plan: ChaosPlan, scale: float) -> ChaosPlan:
    """Scale the traffic window, preserving the convergence cool-down.

    Events that would fall outside the shortened window (or whose burst
    window would straddle its edge) are dropped — the shrinker
    re-validates the result, so an over-aggressive cut is simply
    rejected.
    """
    cooldown = plan.duration - plan.traffic_stop
    new_stop = plan.traffic_start + (plan.traffic_stop - plan.traffic_start) * scale
    d = plan.as_dict()
    d["traffic_stop"] = new_stop
    d["duration"] = new_stop + cooldown
    d["events"] = [e.as_dict() for e in plan.events
                   if e.at < new_stop and e.stop <= new_stop]
    return ChaosPlan.from_dict(d)


def _ddmin(items: List, fails: Callable[[List], bool]) -> List:
    """Complement-only delta debugging: greedily remove ever-smaller
    chunks while ``fails`` keeps holding.  ``fails`` must hold for
    ``items`` on entry (and is budget-capped by the caller)."""
    items = list(items)
    chunk = max(1, len(items) // 2)
    while items:
        i = 0
        reduced = False
        while i < len(items):
            candidate = items[:i] + items[i + chunk:]
            if fails(candidate):
                items = candidate
                reduced = True
            else:
                i += chunk
        if chunk == 1 and not reduced:
            break
        chunk = max(1, chunk // 2)
    return items


def shrink_failure(
    plan: ChaosPlan,
    decisions: Sequence[int],
    still_fails: Callable[[Sequence[int], ChaosPlan], bool],
    budget: int = 80,
) -> Tuple[ChaosPlan, List[int], ShrinkStats]:
    """Minimize a failing ``(decisions, plan)`` pair under ``still_fails``.

    ``still_fails(decisions, plan)`` re-runs the scenario under a
    :class:`ReplayPolicy` and reports whether a violation with the
    original's key still fires.  The shrinker is monotone — it only ever
    accepts candidates that are no larger than the current best — and
    bounded: at most ``budget`` re-runs, whatever the input size.

    Phases (each skipped once the budget is spent):

    1. replay check — if the unshrunk schedule does not reproduce, give
       up immediately (``stats.replayed = False``);
    2. decision log: try the empty log first (pure-FIFO: the failure is
       environment-driven), else delta-debug chunks away; a truncated
       log falls back to FIFO for the tail, so every cut is valid;
    3. plan events: try the empty timeline first, else delta-debug;
    4. traffic timeline: the strongest scale cut in {1/4, 1/2, 3/4} that
       still fails (cool-down preserved so convergence oracles still
       bind);
    5. decision polish: zero out surviving non-FIFO decisions one by one
       (only when few remain — each zero is one re-run).
    """
    stats = ShrinkStats(original_decisions=len(decisions),
                        original_events=len(plan.events))
    best_decisions = list(decisions)
    best_plan = plan
    spent = 0

    def attempt(d: Sequence[int], p: ChaosPlan) -> bool:
        nonlocal spent
        if spent >= budget:
            return False
        spent += 1
        try:
            return still_fails(d, p)
        except Exception:
            # a reduction can make the run degenerate (e.g. too little
            # traffic to even apply the failure probe): just reject it
            return False

    # 1. the unshrunk schedule must reproduce, or shrinking is meaningless
    if not attempt(best_decisions, best_plan):
        stats.replayed = False
        stats.runs = spent
        stats.final_decisions = len(best_decisions)
        stats.final_events = len(best_plan.events)
        return best_plan, best_decisions, stats

    # 2. decisions
    if best_decisions and attempt([], best_plan):
        best_decisions = []
    elif best_decisions:
        best_decisions = _ddmin(best_decisions,
                                lambda d: attempt(d, best_plan))

    # 3. plan events
    if best_plan.events and attempt(best_decisions, _with_events(best_plan, [])):
        best_plan = _with_events(best_plan, [])
    elif best_plan.events:
        kept = _ddmin(list(best_plan.events),
                      lambda evs: attempt(best_decisions,
                                          _with_events(best_plan, evs)))
        best_plan = _with_events(best_plan, kept)

    # 4. timeline
    for scale in (0.25, 0.5, 0.75):
        candidate = _with_timeline(best_plan, scale)
        if attempt(best_decisions, candidate):
            best_plan = candidate
            stats.timeline_scale = scale
            break

    # 5. polish: prefer FIFO (0) at each surviving choice point
    if len(best_decisions) <= 32:
        for i, d in enumerate(best_decisions):
            if d == 0:
                continue
            candidate = list(best_decisions)
            candidate[i] = 0
            if attempt(candidate, best_plan):
                best_decisions = candidate

    stats.runs = spent
    stats.final_decisions = len(best_decisions)
    stats.final_events = len(best_plan.events)
    return best_plan, best_decisions, stats


if __name__ == "__main__":
    raise SystemExit("the explorer's CLI moved: python -m repro.analysis.chaos "
                     "run --policy pct --schedules N")
