"""Tunable parameters of the FTMP stack.

Defaults are chosen for the simulated LAN (link latency ~100 us); the
heartbeat interval and fault timeout are the paper's central tuning knobs
(§5: "The choice of the heartbeat interval is a compromise between message
latency and network traffic").  All times are seconds.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["FTMPConfig", "ClockMode"]


class ClockMode:
    """Timestamp source for ROMP ordering (paper §6)."""

    LAMPORT = "lamport"
    SYNCHRONIZED = "synchronized"


#: ordering disciplines that replace the symmetric rule -> why each needs
#: (flat dissemination, agreed delivery)
_DISCIPLINE_NEEDS = {
    "llft_mode": (
        "the leader fast path assumes flat dissemination of the leader stream",
        "the leader releases ahead of stability: nothing reaches the safe hold",
    ),
    "multigroup_mode": (
        "over the tree a side group delivered 0 of 110 multi-group messages (non-atomic)",
        "the commit wait spans groups; safe delivery would deadlock against it",
    ),
}

#: nothing works at zero.  The first three are periods whose timer re-arms
#: itself from its own callback: the tick fires again at the same instant
#: and time never advances.  For the rest, a member is suspected at once,
#: no message is eligible for a batch, the tree has no children.
_POSITIVE = (
    "heartbeat_interval", "nack_retry_interval", "overlay_summary_interval",
    "suspect_timeout", "batch_max_bytes", "overlay_fanout",
)
#: delays, rates, windows and a pid: zero means "off" / "auto"; a negative
#: delay is a SimTimeError out of the simulator and a silent clamp on the
#: asyncio runtime
_NON_NEGATIVE = (
    "nack_delay", "batch_window", "retransmit_rate_limit", "nack_dedupe_window",
    "flow_control_window", "flow_queue_limit", "llft_leader_pid",
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

    # --- retransmission pacing (extension) ------------------------------
    #: Token-bucket rate cap on retransmissions answered by this
    #: processor (retransmissions / second).  Recovery traffic beyond the
    #: rate is deferred, not dropped, so loss bursts cannot starve fresh
    #: sends of the egress.  0 disables pacing (legacy behaviour).
    retransmit_rate_limit: float = 0.0
    #: Suppress duplicate RetransmitRequests: a request for a (source,
    #: seq) this processor answered less than this many seconds ago is
    #: ignored (the answer is still in flight).  0 disables (legacy).
    nack_dedupe_window: float = 0.0

    # --- ordering clock (paper §6) --------------------------------------
    #: ClockMode.LAMPORT or ClockMode.SYNCHRONIZED.
    clock_mode: str = ClockMode.LAMPORT

    # --- batching / piggybacking (extension) -----------------------------
    #: Coalescing window for small Regular messages (seconds).  Within a
    #: window, Regulars to the group address are packed into one Batch
    #: datagram and pending heartbeats are suppressed (the batch carries
    #: fresher timestamps anyway).  0 disables batching entirely: every
    #: send goes out immediately, bit-identical to the unbatched stack.
    batch_window: float = 0.0
    #: Flush a pending batch as soon as its packed parts reach this many
    #: bytes; also the per-message eligibility cap (bigger messages are
    #: sent unbatched).
    batch_max_bytes: int = 1200
    #: Adapt the coalescing window to the offered load: when the recent
    #: send rate would not fill a window with the break-even number of
    #: messages, eligible sends bypass the window entirely (near-unbatched
    #: low-load latency); under load the window grows back toward
    #: ``batch_window`` / ``batch_max_bytes`` coalescing.  Only meaningful
    #: with ``batch_window > 0``.
    batch_adaptive: bool = False

    # --- flow control (extension) ----------------------------------------
    #: Per-sender credit window: the maximum number of this processor's
    #: own Regular messages that may be in flight — sent but not yet
    #: *stable* (at/below ``romp.stability_timestamp()``, the §6 positive
    #: acknowledgement signal).  Application sends beyond the window queue
    #: at the sender (backpressure) instead of flooding the network.
    #: 0 disables flow control (legacy behaviour).
    flow_control_window: int = 0
    #: Optional cap on sends held back at the sender (the flow-control
    #: backpressure queue plus sends deferred by a §7 quiescence
    #: barrier).  A multicast beyond the cap raises
    #: ``FlowControlSaturated`` instead of queueing, giving the
    #: application a synchronous load-shedding signal.  0 = unbounded
    #: (legacy behaviour; queue depth still visible via fc_queue_depth).
    flow_queue_limit: int = 0

    # --- LLFT leader-follower fast path (extension, arXiv 1004.1864) -----
    #: Replace the symmetric Lamport total order with a leader-follower
    #: ordering discipline: the leader's own reliable FIFO stream *is* the
    #: total order.  The leader delivers its own Regulars immediately after
    #: the local send (no all-member ack-stability wait on the critical
    #: path) and assigns every other member's ordered messages a position
    #: by multicasting small OrderInfo announcements inside its stream;
    #: followers deliver by adopting the leader's order.  Stability (§6)
    #: still advances asynchronously in the background off the piggybacked
    #: acks — it keeps driving buffer GC and flow-control credits, it just
    #: leaves the delivery critical path.  At a view change the §7.2 drain
    #: machinery reconciles the leader's suffix so virtual synchrony
    #: holds.  LLFT requires agreed delivery (``delivery_mode`` "safe" is
    #: rejected).  False = the legacy symmetric ordering, bit-identical.
    llft_mode: bool = False
    #: Preferred leader pid for LLFT mode.  0 (default) auto-selects the
    #: smallest pid of the current membership; a configured pid leads
    #: whenever it is a member and the auto rule applies otherwise (so a
    #: leader crash deterministically falls back to min(membership)).
    llft_leader_pid: int = 0

    # --- overlay dissemination (extension, cf. arXiv 2309.14074) ---------
    #: Route Regular messages and §6 stability over a deterministic k-ary
    #: tree derived from the sorted current membership instead of the flat
    #: IP-multicast fan-out.  Interior relays forward each Regular once
    #: per subtree, and each relay folds its subtree's minimum
    #: cover/ack timestamps into one compact AckSummary message up the
    #: tree, so the root observes stability in O(depth) messages instead
    #: of O(n); the resulting frontier is re-broadcast down the tree and
    #: keeps driving buffer GC and flow-control credits unchanged.  The
    #: tree is recomputed at every view install, so PGMP membership stays
    #: the single source of truth.  NACK recovery, membership/control
    #: traffic and the §7.2 drain stay flat multicast.  False = the
    #: legacy flat dissemination, bit-identical.
    overlay_mode: bool = False
    #: Fan-out k of the dissemination tree (children per interior node).
    overlay_fanout: int = 4
    #: Period of the per-member AckSummary exchange along tree edges
    #: (up-summaries to the parent, frontier re-broadcast to children).
    #: Also the liveness keepalive cadence between tree neighbours; the
    #: end-to-end stability latency is about 2 * depth * interval.
    overlay_summary_interval: float = 0.005

    # --- multi-group atomic multicast (extension, arXiv 1904.07171) ------
    #: Enable genuine multi-group atomic multicast: a message addressed
    #: to a *set* of groups collects one Lamport position from each
    #: addressed group's ordering core (a MultiGroupPropose riding that
    #: group's totally-ordered stream), commits at the max over the
    #: groups, and is delivered in every addressed group at the committed
    #: timestamp — so any two multi-group messages are delivered in the
    #: same relative order everywhere they are both delivered.  Only the
    #: addressed groups exchange messages (genuineness): uninvolved
    #: groups take zero ordering steps, preserving per-group sharding.
    #: Messages declaring a non-zero conflict class commute with
    #: different classes and skip the commit wait (Generic Multicast,
    #: arXiv 2410.01901).  False = legacy single-group ordering,
    #: bit-identical.
    multigroup_mode: bool = False

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
        if not self.nack_backoff_factor >= 1.0:
            raise ValueError(
                "nack_backoff_factor must be at least 1.0, not "
                f"{self.nack_backoff_factor!r}")
        if self.delivery_mode not in ("agreed", "safe"):
            raise ValueError(
                f"delivery_mode must be 'agreed' or 'safe', not {self.delivery_mode!r}"
            )
        # Which combinations are legal, by axis (DESIGN.md, "Two seams"):
        # the symmetric §6 rule composes with everything; a discipline
        # that replaces it states what it needs of the other two axes.
        chosen = [knob for knob in _DISCIPLINE_NEEDS if getattr(self, knob)]
        if len(chosen) > 1:
            raise ValueError(
                f"{' and '.join(chosen)} are mutually exclusive: at most one "
                "ordering discipline replaces the symmetric rule"
            )
        for knob in chosen:
            flat_because, agreed_because = _DISCIPLINE_NEEDS[knob]
            if self.overlay_mode:
                raise ValueError(
                    f"{knob} and overlay_mode are mutually exclusive: {flat_because}"
                )
            if self.delivery_mode == "safe":
                raise ValueError(
                    f"{knob} requires delivery_mode='agreed': {agreed_because}"
                )
