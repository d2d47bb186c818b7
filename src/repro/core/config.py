"""Tunable parameters of the FTMP stack.

Defaults are chosen for the simulated LAN (link latency ~100 us); the
heartbeat interval and fault timeout are the paper's central tuning knobs
(§5: "The choice of the heartbeat interval is a compromise between message
latency and network traffic").  All times are seconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

__all__ = ["FTMPConfig", "ClockMode", "CHOICES", "REJECTED_CELLS"]


class ClockMode:
    """Timestamp source for ROMP ordering (paper §6)."""

    LAMPORT = "lamport"
    SYNCHRONIZED = "synchronized"


#: every string field -> the values it may take
CHOICES: Dict[str, Tuple[str, ...]] = {
    "clock_mode": (ClockMode.LAMPORT, ClockMode.SYNCHRONIZED),
    "delivery_mode": ("agreed", "safe"),
    "ordering": ("symmetric", "leader", "skeen"),
    "dissemination": ("flat", "tree"),
}

#: two settings no group runs together -> why.  Every other combination
#: of CHOICES is legal (DESIGN.md, "Two seams"): the symmetric §6 rule
#: composes with everything; an ordering that replaces it needs flat
#: dissemination and agreed delivery.
REJECTED_CELLS: Dict[Tuple[Tuple[str, str], Tuple[str, str]], str] = {
    (("ordering", "leader"), ("dissemination", "tree")):
        "the leader fast path assumes flat dissemination of the leader stream",
    (("ordering", "leader"), ("delivery_mode", "safe")):
        "the leader releases ahead of stability: nothing reaches the safe hold",
    (("ordering", "skeen"), ("dissemination", "tree")):
        "over the tree a side group delivered 0 of 110 multi-group messages (non-atomic)",
    (("ordering", "skeen"), ("delivery_mode", "safe")):
        "the commit wait spans groups; safe delivery would deadlock against it",
}

#: nothing works at zero.  The first three are periods whose timer re-arms
#: itself from its own callback: the tick fires again at the same instant
#: and time never advances.  For the rest, a member is suspected at once,
#: no message is eligible for a batch, the tree has no children.
_POSITIVE = (
    "heartbeat_interval", "nack_retry_interval", "overlay_summary_interval",
    "suspect_timeout", "batch_max_bytes", "overlay_fanout",
)
#: delays, windows, a cap and a pid: zero means "off" / "auto"; a negative
#: delay is a SimTimeError out of the simulator and a silent clamp on the
#: asyncio runtime
_NON_NEGATIVE = (
    "nack_delay", "batch_window", "nack_dedupe_window", "flow_control_window",
    "flow_queue_limit", "llft_leader_pid",
)


@dataclass(frozen=True)
class FTMPConfig:
    """Immutable configuration shared by all groups of one stack."""

    # --- heartbeats / liveness (paper §5, §7.2) -----------------------
    #: Multicast a Heartbeat if no Regular message was sent for this long.
    heartbeat_interval: float = 0.010
    #: Suspect a member after this much silence (must exceed several
    #: heartbeat intervals to tolerate loss).
    suspect_timeout: float = 0.060

    # --- negative acknowledgements (paper §5) --------------------------
    #: Delay between detecting a sequence gap and multicasting the
    #: RetransmitRequest (lets reordered packets arrive first).
    nack_delay: float = 0.002
    #: Re-send an unanswered RetransmitRequest at this period.
    nack_retry_interval: float = 0.010
    #: Multiply the retry period by this factor on every consecutive
    #: retry that makes no progress (SRM-style repair-request backoff,
    #: capped at ``RMP.NACK_RETRY_MAX``); progress resets to the base
    #: period.  1.0 keeps the paper's fixed retry period.  Persistent
    #: holes otherwise re-request at the full retry rate forever, and on
    #: a congested network that repair traffic can itself sustain the
    #: congestion that keeps the holes open.
    nack_backoff_factor: float = 1.0
    #: Ablation A1: disable the backoff/suppression scheme (every holder
    #: answers every RetransmitRequest immediately).
    retransmit_suppression: bool = True
    #: Ablation A2: if False, only the original source answers NACKs
    #: (the paper's "any processor ... may retransmit" turned off).
    retransmit_any_holder: bool = True

    # --- duplicate-request suppression (extension) ----------------------
    #: Suppress duplicate RetransmitRequests: a request for a (source,
    #: seq) this processor answered less than this many seconds ago is
    #: ignored (the answer is still in flight).  0 disables (legacy).
    nack_dedupe_window: float = 0.0

    # --- ordering clock (paper §6) --------------------------------------
    #: ClockMode.LAMPORT or ClockMode.SYNCHRONIZED.
    clock_mode: str = ClockMode.LAMPORT

    # --- batching / piggybacking (extension) -----------------------------
    #: Coalescing window for small Regular messages (seconds): Regulars to
    #: the group address within it share one Batch datagram.  The window
    #: adapts to the offered load: when the recent send rate would not
    #: fill it with the break-even number of messages, an eligible send
    #: bypasses it (unbatched low-load latency); under load it coalesces
    #: up to ``batch_window`` / ``batch_max_bytes``.  0 disables batching:
    #: every send goes out at once, bit-identical to the unbatched stack.
    batch_window: float = 0.0
    #: Flush a pending batch as soon as its packed parts reach this many
    #: bytes; also the per-message eligibility cap (bigger messages are
    #: sent unbatched).
    batch_max_bytes: int = 1200
    #: Retired: the window is always adaptive.  Kept, accepting only
    #: True, while a caller still passes it; False raises ValueError.
    batch_adaptive: bool = True

    # --- flow control (extension) ----------------------------------------
    #: Per-sender credit window: the maximum number of this processor's
    #: own Regular messages that may be in flight — sent but not yet
    #: *stable* (at/below ``romp.stability_timestamp()``, the §6 positive
    #: acknowledgement signal).  Application sends beyond the window queue
    #: at the sender (backpressure) instead of flooding the network.
    #: 0 disables flow control (legacy behaviour).
    flow_control_window: int = 0
    #: Optional cap on sends held back at the sender (the one hold
    #: queue: credit backpressure and §7 quiescence-barrier holds
    #: alike).  A multicast beyond the cap raises
    #: ``FlowControlSaturated`` instead of queueing, giving the
    #: application a synchronous load-shedding signal.  0 = unbounded
    #: (legacy behaviour; queue depth still visible via fc_queue_depth).
    flow_queue_limit: int = 0

    # --- who decides the order, and how bytes travel (DESIGN.md, "Two seams")
    #: "symmetric": the paper's §6 rule — deliver once every member's
    #: stream is heard past a message's Lamport timestamp.
    #: "leader": the LLFT leader-follower fast path (arXiv 1004.1864,
    #: :mod:`repro.core.llft`) — the leader's reliable FIFO stream *is*
    #: the total order; the leader delivers its own sends at send time and
    #: announces everyone else's in OrderInfo Regulars, and stability
    #: leaves the delivery critical path (it still drives buffer GC and
    #: flow-control credits).
    #: "skeen": genuine multi-group atomic multicast (arXiv 1904.07171,
    #: :mod:`repro.core.multigroup`) — a message addressed to a set of
    #: groups collects one Lamport position from each, commits at the max
    #: and is delivered everywhere at that timestamp; only the addressed
    #: groups take ordering steps, and a non-zero conflict class skips the
    #: commit wait (Generic Multicast, arXiv 2410.01901).
    #: All three run on the timestamps of ``clock_mode``.
    ordering: str = "symmetric"
    #: Preferred leader pid for ``ordering="leader"``.  0 (default)
    #: auto-selects the smallest pid of the current membership; a
    #: configured pid leads whenever it is a member and the auto rule
    #: applies otherwise (so a leader crash deterministically falls back
    #: to min(membership)).
    llft_leader_pid: int = 0
    #: "flat": the paper's IP-multicast fan-out to the group address.
    #: "tree" (cf. FlexCast, arXiv 2309.14074, :mod:`repro.core.overlay`):
    #: Regulars travel a deterministic k-ary tree over the sorted current
    #: membership, recomputed at every view install, and each relay folds
    #: its subtree's ack timestamps into one AckSummary up the tree, so the
    #: root observes stability in O(depth) messages instead of O(n).  NACK
    #: recovery, membership/control traffic and the §7.2 drain stay flat.
    dissemination: str = "flat"
    #: Fan-out k of the dissemination tree (children per interior node).
    overlay_fanout: int = 4
    #: Period of the per-member AckSummary exchange along tree edges
    #: (up-summaries to the parent, frontier re-broadcast to children).
    #: Also the liveness keepalive cadence between tree neighbours; the
    #: end-to-end stability latency is about 2 * depth * interval.
    overlay_summary_interval: float = 0.005

    # --- delivery guarantee ----------------------------------------------
    #: "agreed" (default): deliver as soon as the total order is decided.
    #: "safe": additionally wait until the message is *stable* — the ack
    #: timestamps show every member holds it — before delivering (Totem's
    #: agreed/safe distinction, built on §6's ack machinery).  Safe
    #: delivery survives any minority of simultaneous crashes without a
    #: survivor having delivered something the others never received.
    delivery_mode: str = "agreed"

    # --- buffering -------------------------------------------------------
    #: If False, ack-timestamp garbage collection is disabled (experiment
    #: E4 measures the resulting unbounded buffer growth).
    buffer_gc_enabled: bool = True

    # --- wire ------------------------------------------------------------
    #: Encode little-endian (the header's byte-order flag, paper §3.2).
    little_endian: bool = True

    def __post_init__(self) -> None:
        # a config also arrives from outside the program: a worker's JSON
        # spec on stdin, a chaos / explorer artifact file
        for knob in _POSITIVE:
            if not getattr(self, knob) > 0:
                raise ValueError(
                    f"{knob} must be positive, not {getattr(self, knob)!r}")
        for knob in _NON_NEGATIVE:
            if not getattr(self, knob) >= 0:
                raise ValueError(
                    f"{knob} must not be negative, not {getattr(self, knob)!r}")
        if self.batch_max_bytes > 0xFFFF:
            # a BATCH record states its part's payload length in a u16
            raise ValueError(
                f"batch_max_bytes must be at most 65535, not {self.batch_max_bytes!r}")
        if not self.batch_adaptive:
            raise ValueError("batch_adaptive=False asks for the fixed batch "
                             "window, which is retired: every window is adaptive")
        if not self.nack_backoff_factor >= 1.0:
            raise ValueError(
                "nack_backoff_factor must be at least 1.0, not "
                f"{self.nack_backoff_factor!r}")
        for knob, allowed in CHOICES.items():
            if getattr(self, knob) not in allowed:
                *head, last = map(repr, allowed)
                raise ValueError(f"{knob} must be {', '.join(head)} or {last}, "
                                 f"not {getattr(self, knob)!r}")
        for cell, reason in REJECTED_CELLS.items():
            if all(getattr(self, knob) == value for knob, value in cell):
                (a, x), (b, y) = cell
                raise ValueError(f"{a}={x!r} rules out {b}={y!r}: {reason}")
