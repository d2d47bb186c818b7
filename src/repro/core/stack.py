"""The FTMP protocol stack (paper Figure 1).

:class:`FTMPStack` is one processor's instance of the whole protocol: it
owns the ordering clock, the per-group datapaths
(:class:`~repro.core.datapath.ProcessorGroup` = RMP + ROMP + PGMP + fault
detector composed over a :class:`~repro.core.datapath.SendPath` /
:class:`~repro.core.datapath.ReceivePath` pair), the connection manager,
the unified :class:`~repro.core.stats.StatsRegistry`, and the datagram
routing between them.  It is written against the abstract
:class:`~repro.transport.Endpoint`, so the identical stack runs over the
discrete-event simulator, real UDP sockets, and the asyncio cluster
runtime alike.

Typical use (static bootstrap, as the FT infrastructure would do)::

    stack = FTMPStack(net.endpoint(pid), FTMPConfig(), listener)
    stack.create_group(group_id=1, address=5001, membership=(1, 2, 3))
    stack.multicast(1, b"payload")

Dynamic membership::

    stack_a.add_processor(1, new_pid=4)       # on an existing member
    stack_d.join_as_new_member(1, address=5001)  # on the new processor

Connections (paper §4/§7)::

    server.serve(domain=7, object_group=1, server_pids=(1, 2))
    client.request_connection(ConnectionId(0, 9, 7, 1), client_pids=(8, 9))
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from ..transport import Endpoint
from .config import FTMPConfig
from .connection import (
    ConnectionBinding,
    ConnectionManager,
    DuplicateDetector,
    default_allocator,
)
from .constants import MessageType
from .datapath import ProcessorGroup
from .events import ConnectionEvent, Listener
from .lamport import make_clock
from .messages import ConnectionId, ConnectMessage, ConnectRequestMessage, FTMPHeader
from .stats import StackStats, StatsRegistry
from .tracing import Tracer
from .wire import CodecError, decode, decode_view, encode

__all__ = ["FTMPStack", "ProcessorGroup", "StackStats"]


class FTMPStack:
    """One processor's FTMP protocol stack (Figure 1)."""

    def __init__(
        self,
        endpoint: Endpoint,
        config: Optional[FTMPConfig] = None,
        listener: Optional[Listener] = None,
        allocator: Callable[[Tuple[int, ...]], Tuple[int, int]] = default_allocator,
    ):
        self.endpoint = endpoint
        self.config = config if config is not None else FTMPConfig()
        self.listener = listener if listener is not None else Listener()
        self.clock = make_clock(self.config.clock_mode, lambda: self.endpoint.now)
        self.registry = StatsRegistry()
        self.stats = StackStats()
        self.registry.register("stack", self.stats)
        self.connections = ConnectionManager(self)
        self.duplicates = DuplicateDetector()
        self.registry.register(
            "connections",
            lambda: {"duplicates_suppressed": self.duplicates.duplicates_suppressed,
                     "id_collisions": self.connections.id_collisions},
        )
        #: optional protocol-event tracer (see repro.core.tracing)
        self.tracer: Optional[Tracer] = None
        self._allocator = allocator
        self._groups: Dict[int, ProcessorGroup] = {}
        #: groups whose ordered removal of us was delivered, heartbeating
        #: until every member has ordered it (``ProcessorGroup.linger``)
        self._leaving: Dict[int, ProcessorGroup] = {}
        self._mg_seq = 0  #: multi-group multicast sequence, per origin stack
        self._stopped = False
        endpoint.set_receiver(self._on_datagram)

    # ------------------------------------------------------------------
    @property
    def pid(self) -> int:
        return self.endpoint.processor_id

    def group(self, group_id: int) -> Optional[ProcessorGroup]:
        return self._groups.get(group_id)

    def holds_group(self, group_id: int) -> bool:
        """True while ``group_id`` names a group here, lingering ones too."""
        return group_id in self._groups or group_id in self._leaving

    def groups(self) -> Dict[int, ProcessorGroup]:
        return dict(self._groups)

    def schedule(self, delay: float, fn: Callable, *args):
        return self.endpoint.schedule(delay, fn, *args)

    def join_address(self, address: int) -> None:
        self.endpoint.join(address)

    # ------------------------------------------------------------------
    # public protocol API
    # ------------------------------------------------------------------
    def create_group(self, group_id: int, address: int,
                     membership: Tuple[int, ...]) -> ProcessorGroup:
        """Statically bootstrap a processor group (FT-infrastructure role).

        Every initial member must call this with the same membership.
        """
        if group_id in self._groups:
            raise ValueError(f"group {group_id} already exists")
        if self.pid not in membership:
            raise ValueError("this processor must be part of the membership")
        self.end_leaving(group_id)
        g = ProcessorGroup(self, group_id, address, membership)
        self._groups[group_id] = g
        g.announce_view(g.membership, 0, g.membership, (), "bootstrap")
        return g

    def join_as_new_member(self, group_id: int, address: int) -> ProcessorGroup:
        """Join an existing group; completes when an AddProcessor names us.

        An existing member must call :meth:`add_processor` for this pid.
        """
        if group_id in self._groups:
            raise ValueError(f"group {group_id} already exists")
        self.end_leaving(group_id)
        g = ProcessorGroup(self, group_id, address, membership=(), joining=True)
        self._groups[group_id] = g
        self.endpoint.join(address)
        return g

    def multicast(self, group_id: int, payload: bytes,
                  connection_id: Optional[ConnectionId] = None,
                  request_num: int = 0) -> bool:
        """Reliably, totally-ordered multicast of an application payload.

        Returns True when the send went out immediately, False when it
        was accepted but queued at the sender (flow-control credits or a
        §7 quiescence barrier).  Raises ``FlowControlSaturated`` when
        ``flow_queue_limit`` sends are already queued.
        """
        return self._require_group(group_id).multicast(payload, connection_id,
                                                       request_num)

    def multicast_groups(self, group_ids: Tuple[int, ...], payload: bytes,
                         conflict_class: int = 0) -> int:
        """Genuine multi-group atomic multicast (``ordering="skeen"``).

        Delivers ``payload`` in every group of ``group_ids`` such that any
        two multi-group multicasts are delivered in the same relative
        order in every group where both are delivered; only the addressed
        groups exchange messages (genuineness).  This processor must be a
        member of every addressed group (White-Box AM's initiator rule) —
        one propose copy rides each group's totally-ordered stream, and
        since one Lamport clock stamps all the copies, the commit (the
        max of the proposals) is known at send time and follows at once.

        ``conflict_class != 0`` declares the message commutative: it is
        delivered at its per-group propose position with no commit wait
        (Generic Multicast), totally ordered within each group but not
        across groups.  Returns the multicast's ``mg_seq`` —
        ``(pid, mg_seq)`` identifies it across all its groups.
        """
        if self.config.ordering != "skeen":
            raise RuntimeError("multicast_groups requires ordering='skeen'")
        gids = tuple(sorted(set(group_ids)))
        if not gids:
            raise ValueError("empty group set")
        groups = []
        for gid in gids:
            g = self._require_group(gid)
            if g.joining:
                raise RuntimeError(f"cannot multicast before joining group {gid}")
            groups.append(g)
        self._mg_seq += 1
        mg_seq = self._mg_seq
        # Stamp+send all proposals first: every commit header is then
        # stamped later on the same clock, so its timestamp exceeds the
        # committed maximum — the property that lets the delivery stage
        # treat the commit's own ordered position as the stability proof.
        commit_ts = 0
        for g in groups:
            ts = g.romp.send_propose(mg_seq, conflict_class, gids, payload)
            if ts > commit_ts:
                commit_ts = ts
        if conflict_class == 0:
            for g in groups:
                g.romp.send_commit(self.pid, mg_seq, commit_ts)
        return mg_seq

    def add_processor(self, group_id: int, new_pid: int) -> None:
        """Add a non-faulty processor to a group (§7.1)."""
        self._require_group(group_id).pgmp.initiate_add(new_pid)

    def remove_processor(self, group_id: int, pid: int) -> None:
        """Remove a non-faulty processor from a group (§7.1)."""
        self._require_group(group_id).pgmp.initiate_remove(pid)

    # -- connections ----------------------------------------------------
    def serve(self, domain: int, object_group: int, server_pids: Tuple[int, ...]) -> None:
        """Register this processor as supporting a server object group."""
        self.connections.register_server(domain, object_group, server_pids)

    def request_connection(self, cid: ConnectionId, client_pids: Tuple[int, ...]) -> None:
        """Client side: open a logical connection to a server object group."""
        self.connections.request(cid, client_pids)

    def connection_binding(self, cid: ConnectionId) -> Optional[ConnectionBinding]:
        return self.connections.binding(cid)

    def send_on_connection(self, cid: ConnectionId, payload: bytes, request_num: int) -> bool:
        """Multicast a GIOP payload over an established logical connection.

        Returns the same admission signal as :meth:`multicast`.
        """
        binding = self.connections.binding(cid)
        if binding is None or not binding.established:
            raise RuntimeError(f"connection {cid} is not established")
        return self._require_group(binding.group_id).multicast(payload, cid,
                                                               request_num)

    def release_connection_local(self, cid: ConnectionId, linger: bool = False) -> None:
        """Tear down local state for a released connection (§7).

        Called at the point in the total order where the release was
        delivered; retires the processor group if no other logical
        connection shares it.  A release at a view installation
        (``linger``) leaves the group lingering past the view's
        timestamp: a survivor still draining the old view must hear our
        stream past its cut.
        """
        orphaned_group = self.connections.drop(cid)
        self.duplicates.forget(cid)
        if orphaned_group is None:
            return
        if linger:
            g = self._groups[orphaned_group]
            self.retire_group(orphaned_group)
            g.linger(g.view_timestamp)
        else:
            self.remove_group(orphaned_group)

    def migrate_connection(self, cid: ConnectionId, new_address: int) -> None:
        """Move a connection to a new multicast address via an ordered
        Connect (§7); every member switches at the same point in the order."""
        binding = self.connections.binding(cid)
        if binding is None:
            raise RuntimeError(f"connection {cid} is not established")
        g = self._require_group(binding.group_id)
        g.send(ConnectMessage, cid, binding.group_id, new_address,
               g.view_timestamp, g.membership)

    # ------------------------------------------------------------------
    # services used by the connection manager
    # ------------------------------------------------------------------
    def allocate_connection_group(self, membership: Tuple[int, ...]) -> Tuple[int, int]:
        return self._allocator(membership)

    def bootstrap_connection_group(self, group_id: int, address: int,
                                   membership: Tuple[int, ...],
                                   barrier_timestamp: Optional[int] = None) -> None:
        # the connection manager never bootstraps an id held here
        assert not self.holds_group(group_id), f"group {group_id} is held"
        g = ProcessorGroup(self, group_id, address, membership)
        self._groups[group_id] = g
        if barrier_timestamp is not None:
            g.view_timestamp = barrier_timestamp
            g.romp.set_send_barrier(barrier_timestamp)

    def send_connect_request(self, domain_address: int, connection_id: ConnectionId,
                             processor_ids: Tuple[int, ...], refused: int = 0) -> None:
        # §7: destination group id, sequence number and timestamp are all
        # 0 — but a client refusing a Connect names the id it holds
        msg = ConnectRequestMessage(
            header=FTMPHeader(
                message_type=MessageType.CONNECT_REQUEST,
                source=self.pid,
                group=refused,
                sequence_number=0,
                timestamp=0,
                ack_timestamp=0,
                little_endian=self.config.little_endian,
            ),
            connection_id=connection_id,
            processor_ids=processor_ids,
        )
        self.transmit(domain_address, encode(msg))

    def send_connect_announcement(self, domain_address: int, connection_id: ConnectionId,
                                  group_id: int, address: int,
                                  membership: Tuple[int, ...]) -> ConnectMessage:
        g = self._require_group(group_id)
        msg = g.send(ConnectMessage, connection_id, group_id, address,
                     g.view_timestamp, membership, address=domain_address)
        # The responder adopts the Connect's timestamp as its view
        # timestamp immediately (the other members adopt it on receipt),
        # so Suspect/Membership view matching works during the handshake
        # window — even if the Connect can never be ordered because a
        # listed member is already dead.  Idempotent with the ordered
        # Connect delivery, which takes max().
        connect_ts = msg.header.timestamp
        if connect_ts > g.view_timestamp:
            g.view_timestamp = connect_ts
        g.romp.set_send_barrier(connect_ts)
        return msg

    def notify_connection(self, binding: ConnectionBinding, migrated: bool) -> None:
        self.listener.on_connection(
            ConnectionEvent(
                connection_id=binding.connection_id,
                processor_group=binding.group_id,
                multicast_address=binding.address,
                established_at=self.endpoint.now,
                migrated=migrated,
            )
        )

    # ------------------------------------------------------------------
    # datagram routing
    # ------------------------------------------------------------------
    def transmit(self, address: int, raw: bytes) -> None:
        self.stats.datagrams_sent += 1
        self.endpoint.multicast(address, raw)

    def _on_datagram(self, raw: bytes) -> None:
        if self._stopped:
            return
        self.stats.datagrams_received += 1
        try:
            msg = decode_view(raw) if raw.__class__ is memoryview else decode(raw)
        except CodecError:
            self.stats.decode_errors += 1
            return
        h = msg.header
        mtype = h.message_type
        if mtype == MessageType.CONNECT_REQUEST:
            self.connections.on_connect_request(msg)  # type: ignore[arg-type]
            return
        if mtype == MessageType.CONNECT:
            # the connection manager decides whose Connect it is: it may
            # bootstrap the group it names, or refuse an id held here for
            # another group; a group's own Connect feeds its RMP
            if self.connections.on_connect(msg):  # type: ignore[arg-type]
                self._groups[h.group].on_datagram(msg, raw)
            return
        group = self._groups.get(h.group) or self._leaving.get(h.group)
        if group is None:
            self.stats.unknown_group_drops += 1
            return
        group.on_datagram(msg, raw)

    # ------------------------------------------------------------------
    def remove_group(self, group_id: int) -> None:
        g = self._groups.pop(group_id, None)
        if g is not None:
            g.stop()

    def retire_group(self, group_id: int) -> None:
        """Our ordered removal from the group was delivered: the group is
        gone for the application at once, but it lingers on the wire."""
        self._leaving[group_id] = self._groups.pop(group_id)

    def end_leaving(self, group_id: int) -> None:
        """Stop a lingering group (it is done, or the id is reused)."""
        g = self._leaving.pop(group_id, None)
        if g is not None:
            g.stop()

    def leave_group(self, group_id: int) -> None:
        """Voluntarily leave: ask the group to remove us, via total order."""
        self.remove_processor(group_id, self.pid)

    def stop(self) -> None:
        """Shut the stack down (cancels every timer; endpoint detached)."""
        if self._stopped:
            return
        self._stopped = True
        for g in list(self._groups.values()) + list(self._leaving.values()):
            g.stop()
        self._groups.clear()
        self._leaving.clear()
        self.connections.stop()
        self.endpoint.close()

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, float]:
        """Flat dotted-name counter snapshot from the stats registry.

        Single source of truth for the analysis harness and benchmarks:
        ``stack.*``, ``connections.*`` and ``group.<gid>.<layer>.*`` keys,
        e.g. ``group.1.rmp.nacks_sent`` or ``group.1.batch.batches_sent``.
        """
        return self.registry.snapshot()

    def summary(self) -> Dict[str, object]:
        """Operational snapshot: per-group protocol counters and state.

        Intended for dashboards/debugging; everything here is also
        reachable through the individual layer objects (or, flattened,
        through :meth:`snapshot`).
        """
        groups = {}
        for gid, g in self._groups.items():
            groups[gid] = {
                "membership": g.membership,
                "view_timestamp": g.view_timestamp,
                "joining": g.joining,
                "last_sent_seq": g.last_sent_seq,
                "regulars_sent": g.stats.regulars_sent,
                "heartbeats_sent": g.stats.heartbeats_sent,
                "ordered_deliveries": g.romp.stats.ordered_deliveries,
                "queue_depth": g.romp.queued(),
                "ack_timestamp": g.romp.ack_timestamp,
                "stability_timestamp": g.romp.stability_timestamp(),
                "buffer_messages": len(g.buffer),
                "buffer_bytes": g.buffer.bytes,
                "nacks_sent": g.rmp.stats.nacks_sent,
                "retransmissions_sent": g.rmp.stats.retransmissions_sent,
                "suspected": sorted(g.fault_detector.suspected),
                "in_fault_round": g.pgmp.in_fault_round,
            }
        return {
            "processor": self.pid,
            "datagrams_received": self.stats.datagrams_received,
            "datagrams_sent": self.stats.datagrams_sent,
            "decode_errors": self.stats.decode_errors,
            "clock": self.clock.time,
            "groups": groups,
        }

    def _require_group(self, group_id: int) -> ProcessorGroup:
        g = self._groups.get(group_id)
        if g is None:
            raise KeyError(f"not a member of group {group_id}")
        return g
