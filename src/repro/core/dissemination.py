"""Dissemination — how one group's bytes and acks travel.

:class:`Dissemination` is the paper's: every datagram goes to the group's
IP-multicast address, every header piggybacks an ack, §5 heartbeats keep
idle members heard.  Nothing needs doing, so every hook is a no-op.  A
different dissemination (:mod:`repro.core.overlay`) subclasses it;
:class:`~repro.core.datapath.ProcessorGroup` holds exactly one and calls
the hooks unconditionally (DESIGN.md, "Two seams").
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from .messages import AckSummaryMessage, FTMPMessage

__all__ = ["Dissemination", "Transmit", "Receive", "LOOPBACK"]

Transmit = Callable[[int, bytes], None]
Receive = Callable[[FTMPMessage, bytes], None]
#: a send's ``address`` meaning "this processor only, in memory": the
#: message is stamped like any other and handed to the local receive
#: path without touching the NIC
LOOPBACK = -1


class Dissemination:
    """Flat fan-out over the group address (paper §3, §5, §6)."""

    #: periodic per-edge traffic replaces the §5 heartbeat fan-out
    #: (read once, by :class:`~repro.core.datapath.SendPath`)
    replaces_heartbeats = False
    #: out-of-band lower bound on §6 stability, a ``() -> int`` handed to
    #: ROMP at construction; None = the piggybacked acks are all there is
    stability_floor: Optional[Callable[[], int]] = None
    #: ``(registry section, stats)`` pairs for the dissemination's counters
    extra_stats: Tuple[Tuple[str, object], ...] = ()

    def __init__(self, group: object = None) -> None:
        """Flat fan-out keeps no per-group state; a subclass may."""

    def egress(self, flat_transmit: Transmit) -> Transmit:
        """The send path's transmit function, given the flat one."""
        return flat_transmit

    def ingress(self, receive: Receive) -> Receive:
        """The group's per-datagram entry, given the receive path's."""
        return receive

    def activate(self) -> None:
        """The group became an active member (bootstrap or join completed)."""

    def stop(self) -> None:
        """The group is shutting down."""

    def prepare_join(self) -> None:
        """A joining member adopted an AddProcessor's snapshot (§7.1)."""

    def on_view_installed(self) -> None:
        """A view was installed (the membership is already the new one)."""

    def on_suspicion_changed(self) -> None:
        """The fault detector raised or withdrew a suspicion."""

    def on_address_changed(self) -> None:
        """An ordered Connect migrated the group address (§7)."""

    def on_summary(self, msg: AckSummaryMessage) -> None:
        """RMP saw an AckSummary (flat dissemination sends none)."""

    def note_departure(self, pid: int, final_ts: int) -> None:
        """``pid`` left gracefully; ``final_ts`` is its last order timestamp."""
