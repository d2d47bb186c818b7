"""Seeded chaos plans: reproducible adversarial scenarios for FTMP.

A :class:`ChaosPlan` is a *value*: from one ``(scenario, seed)`` pair,
:meth:`ChaosPlan.generate` deterministically samples a timeline of loss
bursts, reorder/duplication windows, transient partitions, crash and
crash-restart faults, join/graceful-leave churn, and overload traffic
bursts against a bandwidth-limited NIC, plus a traffic specification.  :meth:`ChaosPlan.apply` arms the timeline against a live
:class:`~repro.analysis.harness.Cluster` through the existing
:class:`~repro.replication.fault_injection.FaultInjector` — so the full
run (network RNG included) is replayable from the two integers recorded
in a violation artifact.

The plan keeps runs *convergent* so the protocol-invariant oracles in
:mod:`repro.replication.oracles` can bind at the end:

* processor 1 is protected — never crashed, partitioned away, or removed
  — and sponsors all joins and removals;
* faults stop before the cool-down window so the surviving membership
  can re-stabilize and drain;
* a removal budget keeps at least three members alive at all times.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from ..core import FTMPConfig, FTMPStack, RecordingListener
from .fault_injection import FaultInjector

__all__ = ["ChaosEvent", "ChaosPlan", "SCENARIOS", "PROTECTED_PID",
           "default_overlap_groups", "survivor_aware_overlap_groups"]

#: scenario classes the campaign sweeps (ISSUE acceptance: >= 4)
SCENARIOS = ("loss", "reorder", "partition", "crash", "churn", "combo",
             "overload", "leader_crash", "relay_crash", "overlap")

#: the sponsor/anchor processor a plan never harms
PROTECTED_PID = 1

#: minimum number of live, in-group processors a plan must preserve
_MIN_SURVIVORS = 3

# timeline layout (simulated seconds): traffic overlaps the fault window,
# then a fault-free cool-down lets the group converge before the oracles run
_TRAFFIC_START = 0.05
_TRAFFIC_STOP = 1.15
_FAULT_START = 0.15
_FAULT_STOP = 1.05
_DURATION = 2.2


def default_overlap_groups(pids: Tuple[int, ...]) -> Dict[int, Tuple[int, ...]]:
    """The standard overlapping-membership layout over ``pids``.

    Group 1 spans everyone (so the legacy traffic, churn sponsorship and
    single-group oracles keep their meaning), and two subset groups share
    a bridge member — the shape a multi-group multicast needs to say
    anything about cross-group ordering.  For the default 5-member
    roster: ``1 -> (1..5)``, ``2 -> (1, 2, 3)``, ``3 -> (3, 4, 5)`` with
    pid 3 bridging groups 2 and 3.
    """
    pids = tuple(sorted(pids))
    mid = len(pids) // 2
    return {
        1: pids,
        2: pids[: mid + 1],
        3: pids[mid:],
    }


def survivor_aware_overlap_groups(
    pids: Tuple[int, ...], lost: Iterable[int],
) -> Dict[int, Tuple[int, ...]]:
    """Overlapping layout that keeps >= 2 survivors in every subgroup.

    The fault-membership protocol cannot form a singleton view: a group
    whose permanent losses leave a single live member wedges (the same
    limitation behind the plan-wide 3-survivor floor).  When a generic
    scenario's crash/leave schedule is combined with an overlapping
    topology, the subset groups must therefore be drawn so that each
    keeps at least two members the plan never removes — the bridge plus
    one survivor per side, with the doomed pids spread across the sides
    so their pre-fault traffic still exercises both subgroups.
    """
    pids = tuple(sorted(pids))
    doomed = sorted(set(lost) & set(pids))
    alive = [p for p in pids if p not in doomed]
    if len(alive) < 3:
        # below the viability floor no overlapping split can work;
        # degenerate to the single spanning group
        return {1: pids}
    mid = len(alive) // 2
    bridge = alive[mid]
    left = alive[: mid] + doomed[0::2] + [bridge]
    right = alive[mid + 1:] + doomed[1::2] + [bridge]
    return {
        1: pids,
        2: tuple(sorted(left)),
        3: tuple(sorted(right)),
    }


@dataclass(frozen=True)
class ChaosEvent:
    """One planned fault or membership action (serialized into artifacts)."""

    kind: str  #: "loss" | "jitter" | "duplicate" | "partition" | "crash" | "crash_restart" | "join" | "leave" | "burst"
    at: float
    stop: float = 0.0  #: end of a burst/partition window (0 if not a window)
    pids: Tuple[int, ...] = ()  #: processors acted on (minority set, crash target, ...)
    value: float = 0.0  #: rate / probability / downtime, per kind

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "at": self.at,
            "stop": self.stop,
            "pids": list(self.pids),
            "value": self.value,
        }


@dataclass
class ChaosPlan:
    """A deterministic chaos scenario: timeline + traffic specification."""

    seed: int
    scenario: str
    initial_members: Tuple[int, ...]
    events: List[ChaosEvent] = field(default_factory=list)
    senders: Tuple[int, ...] = ()
    send_interval: float = 0.02
    traffic_start: float = _TRAFFIC_START
    traffic_stop: float = _TRAFFIC_STOP
    duration: float = _DURATION
    #: >0 models a constrained NIC (bytes/s per sender) so offered load
    #: can exceed the drain rate — the "overload" scenario sets these
    egress_bandwidth: float = 0.0
    packet_overhead: int = 0
    #: non-empty = host these (overlapping) groups instead of one group
    #: spanning ``initial_members``; the campaign runner then mixes
    #: multi-group multicasts into the traffic (``ordering="skeen"``)
    groups: Dict[int, Tuple[int, ...]] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # generation
    # ------------------------------------------------------------------
    @classmethod
    def generate(cls, seed: int, scenario: str,
                 pids: Tuple[int, ...] = (1, 2, 3, 4, 5)) -> "ChaosPlan":
        """Sample a plan for ``scenario`` from ``seed`` (fully deterministic)."""
        if scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {scenario!r} (choose from {SCENARIOS})")
        if PROTECTED_PID not in pids:
            raise ValueError(f"initial members must include the protected pid {PROTECTED_PID}")
        rng = random.Random(f"{scenario}:{seed}")
        plan = cls(seed=seed, scenario=scenario, initial_members=tuple(pids))
        others = [p for p in pids if p != PROTECTED_PID]
        plan.senders = tuple(sorted([PROTECTED_PID] + rng.sample(others, k=min(2, len(others)))))
        plan.send_interval = rng.uniform(0.015, 0.03)

        # how many members the plan may permanently take out of the group
        budget = max(0, len(pids) - _MIN_SURVIVORS)

        if scenario == "loss":
            plan._gen_loss(rng)
        elif scenario == "reorder":
            plan._gen_reorder(rng)
        elif scenario == "partition":
            plan._gen_partition(rng, others)
        elif scenario == "crash":
            budget = plan._gen_crash(rng, others, budget)
        elif scenario == "churn":
            budget = plan._gen_churn(rng, others, budget)
        elif scenario == "overload":
            plan._gen_overload(rng, pids)
        elif scenario in ("leader_crash", "relay_crash"):
            budget = plan._gen_designated_crash(rng, others, budget)
        elif scenario == "overlap":
            budget = plan._gen_overlap(rng, others, budget, pids)
        else:  # combo: one helping of each ingredient the budget allows
            plan._gen_loss(rng, bursts=1)
            plan._gen_reorder(rng, bursts=1)
            plan._gen_partition(rng, others, windows=1)
            if budget > 0 and rng.random() < 0.7:
                budget = plan._gen_crash(rng, others, 1, at_most_one=True)
            if rng.random() < 0.7:
                plan._gen_join(rng)
        plan.events.sort(key=lambda e: e.at)
        return plan

    def _window(self, rng: random.Random, lo: float = 0.08, hi: float = 0.35) -> Tuple[float, float]:
        length = rng.uniform(lo, hi)
        start = rng.uniform(_FAULT_START, _FAULT_STOP - length)
        return start, start + length

    def _gen_loss(self, rng: random.Random, bursts: Optional[int] = None) -> None:
        for _ in range(bursts if bursts is not None else rng.randint(1, 3)):
            start, stop = self._window(rng)
            self.events.append(ChaosEvent("loss", start, stop, value=rng.uniform(0.05, 0.30)))

    def _gen_reorder(self, rng: random.Random, bursts: Optional[int] = None) -> None:
        for _ in range(bursts if bursts is not None else rng.randint(1, 2)):
            start, stop = self._window(rng)
            # jitter of several link latencies reorders packets across sources
            self.events.append(ChaosEvent("jitter", start, stop, value=rng.uniform(0.0005, 0.003)))
        if bursts is None or rng.random() < 0.8:
            start, stop = self._window(rng)
            self.events.append(ChaosEvent("duplicate", start, stop, value=rng.uniform(0.05, 0.30)))

    def _gen_partition(self, rng: random.Random, others: List[int],
                       windows: Optional[int] = None) -> None:
        # transient partitions only: heal before the suspect timeout so the
        # two sides never convict each other (FTMP has no partition merge)
        for _ in range(windows if windows is not None else rng.randint(1, 2)):
            start, stop = self._window(rng, lo=0.04, hi=0.10)
            minority = tuple(sorted(rng.sample(others, k=rng.randint(1, max(1, len(others) // 2)))))
            self.events.append(ChaosEvent("partition", start, stop, pids=minority))

    def _gen_crash(self, rng: random.Random, others: List[int], budget: int,
                   at_most_one: bool = False) -> int:
        victims = rng.sample(others, k=min(len(others), 2))
        for victim in victims[: 1 if at_most_one else 2]:
            start, stop = self._window(rng, lo=0.05, hi=0.25)
            if budget > 0 and rng.random() < 0.5:
                # permanent crash: the fault detector must convict the victim
                self.events.append(ChaosEvent("crash", start, pids=(victim,)))
                budget -= 1
            else:
                # omission window: the victim stalls, resumes, NACK-recovers
                self.events.append(
                    ChaosEvent("crash_restart", start, pids=(victim,), value=stop - start)
                )
        return budget

    def _gen_churn(self, rng: random.Random, others: List[int], budget: int) -> int:
        self._gen_join(rng)
        if rng.random() < 0.5:
            self._gen_join(rng)
        if budget > 0 and rng.random() < 0.7:
            leaver = rng.choice(others)
            at = rng.uniform(_FAULT_START, _FAULT_STOP)
            self.events.append(ChaosEvent("leave", at, pids=(leaver,)))
            budget -= 1
        return budget

    def _gen_overload(self, rng: random.Random, pids: Tuple[int, ...]) -> None:
        # offered load above saturation: every member sends, the NIC is
        # bandwidth-limited, and burst windows push the per-sender rate
        # past the egress drain rate — the flow-control credit loop (not
        # an unbounded network queue) must absorb the excess.  A loss
        # burst on top exercises NACK recovery under the credit loop.
        self.senders = tuple(pids)
        self.egress_bandwidth = rng.uniform(35_000.0, 55_000.0)
        self.packet_overhead = 66
        # backpressure queues and the retransmit backlog drain more
        # slowly than fault-free convergence: give the cool-down headroom
        self.duration = _DURATION + 0.8
        # the loss burst comes *first*, at baseline load: dropping packets
        # while the NIC is pinned — during a burst or its queue-drain tail
        # — puts recovery into a congestion regime where NACK repair
        # traffic competes with the very backlog it repairs
        loss_len = rng.uniform(0.08, 0.15)
        loss_start = rng.uniform(_FAULT_START, 0.45)
        self.events.append(ChaosEvent("loss", loss_start,
                                      loss_start + loss_len,
                                      value=rng.uniform(0.03, 0.10)))
        earliest = loss_start + loss_len + 0.15  # NACK-recovery margin
        for _ in range(rng.randint(1, 2)):
            length = rng.uniform(0.10, 0.20)
            start = rng.uniform(earliest,
                                max(earliest, _FAULT_STOP - length))
            # pids stays empty: a burst acts on plan.senders, and event
            # pids are reserved for members a fault *harms* (the plan
            # protections test reads them that way)
            self.events.append(
                ChaosEvent("burst", start, start + length,
                           value=rng.uniform(0.0008, 0.0015)))

    def _gen_designated_crash(self, rng: random.Random, others: List[int],
                              budget: int) -> int:
        """``leader_crash`` / ``relay_crash``: permanently crash the
        smallest non-protected pid mid-traffic.

        One generator, two class names (the plans differ through the
        scenario-keyed RNG): what the victim *is* — the LLFT leader, an
        interior overlay relay — is the campaign configuration's doing,
        stated per cell in ``repro.analysis.chaos.MODE_TABLE``.  In any
        other mode the plan is one more permanent crash and must stay
        clean.  The victim always sends, so the survivors have its own
        suffix to reconcile in the §7.2 drain.
        """
        if budget <= 0:
            raise ValueError(
                f"{self.scenario} needs a removal budget: start with at "
                f"least {_MIN_SURVIVORS + 1} members"
            )
        victim = min(others)
        self.senders = tuple(sorted(set(self.senders) | {victim}))
        # crash well before _FAULT_STOP so conviction, takeover and the
        # drain finish inside a fault-free cool-down
        at = rng.uniform(_FAULT_START, _FAULT_STOP - 0.30)
        self.events.append(ChaosEvent("crash", at, pids=(victim,)))
        if rng.random() < 0.5:
            # loss around the crash: some members learn the victim's last
            # messages only through NACK recovery, others never do and
            # rely on the fault view
            start, stop = self._window(rng, lo=0.05, hi=0.15)
            self.events.append(
                ChaosEvent("loss", start, stop, value=rng.uniform(0.05, 0.20))
            )
        return budget - 1

    def _gen_overlap(self, rng: random.Random, others: List[int],
                     budget: int, pids: Tuple[int, ...]) -> int:
        """Overlapping-membership class: three groups with a shared
        bridge member, mild environment faults on top.

        The point of the class is the multi-group delivery stage itself —
        proposals and commits interleaving with ordinary traffic, losses
        forcing NACK recovery of both, and (half the time) a crash or
        omission window hitting a member that sits in several groups at
        once, so each group's conviction/abort of the same origin runs
        independently.  Under a single-group mode the same plan is just
        light combo chaos and must stay clean there too.
        """
        self.groups = default_overlap_groups(pids)
        # the bridge (a member of every group) always sends: it is the
        # only origin that can address the two subset groups together
        bridge = next(p for p in sorted(pids)
                      if all(p in m for m in self.groups.values()))
        self.senders = tuple(sorted(set(self.senders) | {bridge}))
        self._gen_loss(rng, bursts=1)
        if rng.random() < 0.5:
            self._gen_reorder(rng, bursts=1)
        if rng.random() < 0.6:
            budget = self._gen_crash(rng, others, budget, at_most_one=True)
        if rng.random() < 0.5:
            self._gen_join(rng)
        return budget

    def _gen_join(self, rng: random.Random) -> None:
        joiner = max(self.initial_members) + 1 + sum(1 for e in self.events if e.kind == "join")
        at = rng.uniform(_FAULT_START, _FAULT_STOP - 0.1)
        self.events.append(ChaosEvent("join", at, pids=(joiner,)))

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def apply(self, cluster, injector: FaultInjector,
              config: Optional[FTMPConfig] = None) -> None:
        """Arm every planned event against a live cluster.

        Joins create fresh stacks/listeners and register them in the
        cluster; membership actions are sponsored by the protected pid and
        guarded (a racing earlier removal must not abort the run).
        """
        cfg = config if config is not None else FTMPConfig()
        for ev in self.events:
            if ev.kind == "loss":
                injector.loss_burst(ev.at, ev.stop, ev.value)
            elif ev.kind == "jitter":
                injector.jitter_burst(ev.at, ev.stop, ev.value)
            elif ev.kind == "duplicate":
                injector.duplicate_burst(ev.at, ev.stop, ev.value)
            elif ev.kind == "partition":
                injector.partition_at(ev.at, set(ev.pids))
                injector.heal_at(ev.stop)
            elif ev.kind == "crash":
                injector.crash_at(ev.at, ev.pids[0])
            elif ev.kind == "crash_restart":
                injector.crash_restart(ev.at, ev.pids[0], ev.value)
            elif ev.kind == "join":
                cluster.net.scheduler.at(
                    ev.at, self._do_join, cluster, ev.pids[0], cfg)
            elif ev.kind == "leave":
                cluster.net.scheduler.at(ev.at, self._do_leave, cluster, ev.pids[0])
            elif ev.kind == "burst":
                pass  # traffic, not a fault: armed by the campaign runner
            else:  # pragma: no cover - generate() only emits the kinds above
                raise ValueError(f"unknown chaos event kind {ev.kind!r}")

    def _do_join(self, cluster, pid: int, cfg: FTMPConfig) -> None:
        listener = RecordingListener()
        stack = FTMPStack(cluster.net.endpoint(pid), cfg, listener)
        stack.join_as_new_member(cluster.group,
                                 cluster.addresses[cluster.group])
        cluster.stacks[pid] = stack
        cluster.listeners[pid] = listener
        try:
            cluster.stacks[PROTECTED_PID].add_processor(cluster.group, pid)
        except (KeyError, ValueError):
            pass  # sponsor mid-view-change; AddProcessor resend covers the rest

    def _do_leave(self, cluster, pid: int) -> None:
        try:
            cluster.stacks[PROTECTED_PID].remove_processor(cluster.group, pid)
        except (KeyError, ValueError):
            pass  # already removed (e.g. convicted first) — not an error

    # ------------------------------------------------------------------
    # serialization (for violation artifacts)
    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, d: dict) -> "ChaosPlan":
        """Rebuild a plan from its :meth:`as_dict` form.

        The schedule explorer's shrinker edits a plan (drops events,
        shortens the timeline) before writing it into an artifact, so a
        replay must reconstruct the plan *from the artifact*, not
        re-generate it from ``(scenario, seed)``.
        """
        plan = cls(
            seed=int(d["seed"]),
            scenario=d["scenario"],
            initial_members=tuple(d["initial_members"]),
            senders=tuple(d.get("senders", ())),
            send_interval=float(d.get("send_interval", 0.02)),
            traffic_start=float(d.get("traffic_start", _TRAFFIC_START)),
            traffic_stop=float(d.get("traffic_stop", _TRAFFIC_STOP)),
            duration=float(d.get("duration", _DURATION)),
            egress_bandwidth=float(d.get("egress_bandwidth", 0.0)),
            packet_overhead=int(d.get("packet_overhead", 0)),
            groups={int(g): tuple(m)
                    for g, m in d.get("groups", {}).items()},
        )
        plan.events = [
            ChaosEvent(kind=e["kind"], at=float(e["at"]),
                       stop=float(e.get("stop", 0.0)),
                       pids=tuple(e.get("pids", ())),
                       value=float(e.get("value", 0.0)))
            for e in d.get("events", ())
        ]
        return plan

    def as_dict(self) -> dict:
        return {
            "seed": self.seed,
            "scenario": self.scenario,
            "initial_members": list(self.initial_members),
            "senders": list(self.senders),
            "send_interval": self.send_interval,
            "traffic_start": self.traffic_start,
            "traffic_stop": self.traffic_stop,
            "duration": self.duration,
            "egress_bandwidth": self.egress_bandwidth,
            "packet_overhead": self.packet_overhead,
            "groups": {str(g): list(m) for g, m in self.groups.items()},
            "events": [e.as_dict() for e in self.events],
        }
