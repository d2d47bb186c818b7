"""Logical connections between object groups (paper §4 and §7).

Just as IIOP maintains a TCP connection between a client object and a
server object, FTMP maintains a *logical connection* between a client
object group and a server object group.  The connection is served by one
processor group — the processors supporting the client replicas together
with those supporting the server replicas — sharing one multicast address
("these mechanisms allow several logical connections to share the same
physical connection, the same processor group and the same IP Multicast
address", §7).

Establishment (§7):

* every server processor listens on the multicast address of its
  fault-tolerance *domain*;
* a client processor multicasts ``ConnectRequest`` (unreliable) to the
  server domain's address, and retries periodically;
* the *responder* — the lowest-numbered processor supporting the server
  object group — allocates a processor group id (below 2**16, probed past
  any id it holds) + multicast address, bootstraps the group, and
  multicasts ``Connect`` on the domain address, retransmitting it until it
  sees traffic over the new connection;
* every processor listed in the Connect's membership joins the group and
  observes the §7 quiescence rule (no ordered transmissions until every
  member has been heard past the Connect's timestamp) — unless it holds
  the group id for another group: it refuses such a Connect, never merges,
  and the connection moves further along the id's probe sequence, where
  the members settle should two responders have announced it apart;
* a server that receives a ``ConnectRequest`` for a connection it has
  already established ignores it (crossed retransmissions, §7).

This module also provides the `(connection id, request number)` duplicate
detection of §4 and the request-number source shared by object replicas.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from .constants import HANDSHAKE_RESEND_INTERVAL
from .messages import ConnectionId, ConnectMessage, ConnectRequestMessage

if TYPE_CHECKING:  # pragma: no cover
    from .stack import FTMPStack

__all__ = [
    "domain_multicast_address",
    "ConnectionManager",
    "ConnectionBinding",
    "RequestNumbering",
    "DuplicateDetector",
    "default_allocator",
    "probe_group_id",
]

#: Multicast addresses are plain integers in this reproduction; fault
#: tolerance domain ``d`` listens on ``DOMAIN_ADDRESS_BASE + d``.
DOMAIN_ADDRESS_BASE = 0xE000_0000


def domain_multicast_address(domain: int) -> int:
    """The IP-multicast address of a fault tolerance domain."""
    return DOMAIN_ADDRESS_BASE + domain


#: Connection processor groups are numbered ``0x8000 | slot`` with a
#: 15-bit slot: below 2**16, so their datagrams take the 21 B header.
CONNECTION_GROUP_BASE = 0x8000
CONNECTION_SLOTS = 0x8000


def default_allocator(membership: Tuple[int, ...]) -> Tuple[int, int]:
    """Allocate a (processor group id, multicast address) for a connection.

    Deterministic in the *membership*, so any responder — the primary or a
    ranked standby stepping in for a dead one — computes the identical
    group id and address; concurrent Connect announcements for the same
    connection are then byte-equal and the race is benign, unless one
    responder holds the id and probes on (``ConnectionManager`` settles
    that).  The id is ``0x8000`` + the low 15 bits of the membership's
    hash, the address ``0xE800_0000`` + its low 24 bits.
    """
    import hashlib
    import struct

    digest = hashlib.blake2s(
        b"".join(struct.pack("<I", p) for p in sorted(membership)),
        digest_size=4,
    ).digest()
    slot = int.from_bytes(digest, "little") & 0x00FF_FFFF
    return CONNECTION_GROUP_BASE | (slot % CONNECTION_SLOTS), 0xE800_0000 + slot


def probe_group_id(group_id: int, k: int) -> int:
    """The k-th candidate for a connection group whose allocated id is
    ``group_id``: linear probing within the id's block of 2**15, so the
    sequence depends on the membership alone (``k = 0`` is the id)."""
    return (group_id & ~(CONNECTION_SLOTS - 1)) | ((group_id + k) % CONNECTION_SLOTS)


@dataclass
class ConnectionBinding:
    """A locally known logical connection and its serving processor group."""

    connection_id: ConnectionId
    group_id: int
    address: int
    membership: Tuple[int, ...]
    established: bool = False
    #: True on the processor that allocated the group and answers requests
    responder: bool = False
    #: client processors named in the ConnectRequest: the responder's,
    #: and a client's own (it names them again when it refuses an id)
    client_pids: Tuple[int, ...] = ()
    #: the Connect the binding came from: the responder resends it, a
    #: member echoes it to the responder of a lower id
    connect: Optional[ConnectMessage] = None


@dataclass
class _ServerRegistration:
    """A server object group this processor supports."""

    domain: int
    object_group: int
    server_pids: Tuple[int, ...]


@dataclass
class _PendingRequest:
    """Client-side state while the ConnectRequest/Connect handshake runs."""

    connection_id: ConnectionId
    client_pids: Tuple[int, ...]
    timer: Optional[object] = None


#: a send held at a group's flow gate: (payload, connection id, request number)
HeldSend = Tuple[bytes, ConnectionId, int]


class ConnectionManager:
    """Stack-level handler for ConnectRequest / Connect traffic.

    Responders choose a connection's group id locally (each probes past
    the ids it holds), so two of them can announce one connection under
    two ids.  The members settle on the one latest in the membership's
    probe sequence: a member leaves a still quiescent group for a Connect
    further on and echoes its own Connect to one further back.  A Connect
    naming an id held here for another group never binds
    (:meth:`on_connect`): a server of the connection answers it past that
    id, a client asks its responder to (:meth:`_refuse`).
    """

    def __init__(self, stack: "FTMPStack"):
        self._stack = stack
        self._servers: Dict[Tuple[int, int], _ServerRegistration] = {}
        self._pending: Dict[ConnectionId, _PendingRequest] = {}
        self._bindings: Dict[ConnectionId, ConnectionBinding] = {}
        self._resend_timers: Dict[ConnectionId, object] = {}
        #: connection groups held here -> the connections each one serves
        self._served: Dict[int, Set[ConnectionId]] = {}
        #: membership -> the group its connections share (§7)
        self._by_membership: Dict[Tuple[int, ...], int] = {}
        #: released connection -> (source, timestamp) of the Connect it
        #: was bound by, for a suspect timeout: a resend of that Connect
        #: still on its way must not bind the connection again
        self._released: Dict[ConnectionId, Tuple[int, int]] = {}
        #: group ids found held here for another group: candidates the
        #: responder probed past, and Connects refused
        self.id_collisions = 0

    # ==================================================================
    # server side
    # ==================================================================
    def register_server(self, domain: int, object_group: int, server_pids: Tuple[int, ...]) -> None:
        """Declare that this processor supports a server object group."""
        self._servers[(domain, object_group)] = _ServerRegistration(
            domain, object_group, tuple(sorted(server_pids))
        )
        self._stack.join_address(domain_multicast_address(domain))

    def on_connect_request(self, msg: ConnectRequestMessage) -> None:
        cid = msg.connection_id
        reg = self._servers.get((cid.server_domain, cid.server_group))
        if reg is None:
            return  # not our server group
        binding = self._bindings.get(cid)
        if binding is not None:
            if binding.responder:
                self._asked_again(binding, reg, msg.header.group)
            return
        if self._stack.pid != reg.server_pids[0]:
            # Ranked responder failover: normally only the lowest server
            # pid answers, but if it is dead the client would starve.  The
            # k-th ranked server defers k retry rounds before stepping in;
            # a completed handshake (binding present, via the primary's
            # Connect) cancels the standby.
            rank = reg.server_pids.index(self._stack.pid)
            key = (cid, "standby")
            if key in self._resend_timers:
                return
            self._resend_timers[key] = self._stack.schedule(
                rank * 3 * HANDSHAKE_RESEND_INTERVAL,
                self._standby_respond, cid, msg,
            )
            return
        self._answer(cid, reg, msg.processor_ids)

    def _asked_again(self, binding: ConnectionBinding, reg: _ServerRegistration,
                     refused: int) -> None:
        """A ConnectRequest for a connection this stack answered.

        One naming the connection's group id (``refused``, else 0) comes
        from a client that holds the id for another group: the connection
        moves to the next free id.  Otherwise the retransmissions crossed (§7):
        the client has not seen our Connect yet — answer again unless
        every member has been heard from.
        """
        cid = binding.connection_id
        if refused and refused == binding.group_id:
            self._reallocate(cid, reg, binding.client_pids,
                             self._probe_index(binding.group_id, binding.membership))
        elif not self._clients_heard(binding) and cid not in self._resend_timers:
            self._send_connect(binding)

    def _answer(self, cid: ConnectionId, reg: _ServerRegistration,
                client_pids: Tuple[int, ...], after: int = -1) -> None:
        """Allocate the connection's group (past probe index ``after``),
        bootstrap it unless shared, and announce it."""
        self._cancel_standby(cid)
        membership = tuple(sorted(set(reg.server_pids) | set(client_pids)))
        group_id, address = self._allocate(membership, after)
        binding = ConnectionBinding(
            connection_id=cid,
            group_id=group_id,
            address=address,
            membership=membership,
            established=True,
            responder=True,
            client_pids=tuple(client_pids),
        )
        self._bind(binding)
        if self._stack.group(group_id) is None:
            self._stack.bootstrap_connection_group(group_id, address, membership)
        self._send_connect(binding)
        self._stack.notify_connection(binding, migrated=False)

    def _allocate(self, membership: Tuple[int, ...], after: int = -1) -> Tuple[int, int]:
        """The (group id, address) a connection over ``membership`` gets.

        Connections between the same processor sets share a group (§7).
        Otherwise the first id of the membership's probe sequence past
        index ``after`` that this stack does not hold, live, lingering or
        an application's.
        """
        if after < 0:
            shared = self._by_membership.get(membership)
            group = self._stack.group(shared) if shared is not None else None
            if group is not None:
                return group.group_id, group.address
        group_id, address = self._stack.allocate_connection_group(membership)
        for k in range(after + 1, CONNECTION_SLOTS):
            candidate = probe_group_id(group_id, k)
            if not self._stack.holds_group(candidate):
                self.id_collisions += k - after - 1
                return candidate, address
        raise RuntimeError(f"no free connection group id for {membership}")

    def _probe_index(self, group_id: int, membership: Tuple[int, ...]) -> int:
        """Where ``group_id`` lies in ``membership``'s probe sequence."""
        base, _ = self._stack.allocate_connection_group(membership)
        return (group_id - base) % CONNECTION_SLOTS

    def _reallocate(self, cid: ConnectionId, reg: _ServerRegistration,
                    client_pids: Tuple[int, ...], after: int) -> None:
        """Answer ``cid`` anew past probe index ``after``, moving it and
        the sends held for it off the group it is bound to."""
        held = self._leave(cid)
        self._answer(cid, reg, client_pids, after)
        self._resubmit(cid, held)

    def _cancel_standby(self, cid: ConnectionId) -> None:
        timer = self._resend_timers.pop((cid, "standby"), None)
        if timer is not None:
            timer.cancel()

    def _standby_respond(self, cid: ConnectionId, msg: ConnectRequestMessage) -> None:
        """A backup responder steps in if the handshake is still open."""
        self._resend_timers.pop((cid, "standby"), None)
        if cid in self._bindings:
            return  # the primary responder (or a lower standby) answered
        reg = self._servers.get((cid.server_domain, cid.server_group))
        if reg is None:
            return
        self._answer(cid, reg, msg.processor_ids)

    def _send_connect(self, binding: ConnectionBinding) -> None:
        cid = binding.connection_id
        domain_addr = domain_multicast_address(cid.server_domain)
        if binding.connect is None:
            binding.connect = self._stack.send_connect_announcement(
                domain_address=domain_addr,
                connection_id=cid,
                group_id=binding.group_id,
                address=binding.address,
                membership=binding.membership,
            )
        else:
            # §3.2: a retransmission is the identical message with the
            # retransmission flag set — not a new ordered Connect
            group = self._stack.group(binding.group_id)
            if group is not None:
                group.retransmit(binding.connect, address=domain_addr)
        self._resend_timers[cid] = self._stack.schedule(
            HANDSHAKE_RESEND_INTERVAL, self._resend_connect, cid
        )

    def _resend_connect(self, cid: ConnectionId) -> None:
        self._resend_timers.pop(cid, None)
        binding = self._bindings.get(cid)
        if binding is None:
            return
        # §7: retransmit "until it receives messages over the new
        # connection" — i.e. until the client processors are heard from.
        if self._clients_heard(binding):
            return
        self._send_connect(binding)

    def _clients_heard(self, binding: ConnectionBinding) -> bool:
        """True once every group member is heard over the new connection.

        §7: the Connect is retransmitted "until it receives messages over
        the new connection" — every listed processor (client replicas and
        fellow server replicas alike) only starts transmitting on the new
        group after it has seen the Connect.  A member that a fault round
        under way removes (it crashed, or refused the id) is no longer
        waited for: a server that installed that view before us has
        released the connection.
        """
        group = self._stack.group(binding.group_id)
        if group is None:
            return False
        removing = group.pgmp.removing
        return all(
            group.has_heard_from(p)
            for p in group.membership
            if p != self._stack.pid and p not in removing
        )

    # ==================================================================
    # client side
    # ==================================================================
    def request(self, cid: ConnectionId, client_pids: Tuple[int, ...]) -> None:
        """Start the ConnectRequest retry loop for a new connection."""
        if cid in self._bindings or cid in self._pending:
            return
        self._stack.join_address(domain_multicast_address(cid.server_domain))
        pending = _PendingRequest(cid, tuple(sorted(client_pids)))
        self._pending[cid] = pending
        self._send_request(pending)

    def _send_request(self, pending: _PendingRequest) -> None:
        if pending.connection_id in self._bindings:
            return
        self._ask(pending.connection_id, pending.client_pids)
        pending.timer = self._stack.schedule(
            HANDSHAKE_RESEND_INTERVAL, self._send_request, pending
        )

    def _ask(self, cid: ConnectionId, client_pids: Tuple[int, ...],
             refused: int = 0) -> None:
        self._stack.send_connect_request(
            domain_address=domain_multicast_address(cid.server_domain),
            connection_id=cid,
            processor_ids=client_pids,
            refused=refused,
        )

    def _handshake_done(self, cid: ConnectionId) -> None:
        """Stop asking for ``cid`` (client) and answering it (standby)."""
        pending = self._pending.pop(cid, None)
        if pending is not None and pending.timer is not None:
            pending.timer.cancel()
        self._cancel_standby(cid)

    # ==================================================================
    # Connect arrival (both sides, via the domain or a group address)
    # ==================================================================
    def on_connect(self, msg: ConnectMessage) -> bool:
        """Route a Connect heard on the wire; True hands it to the live
        group its id names here (which this call may have bootstrapped).

        The id names a group of ours only if that group is live, not
        joining, and the sender is in its view: a responder holds the
        groups it is a member of, so it probes past their ids.  Any other
        group holding the id here (joining, lingering, or live without
        the sender) is another group, and the Connect is refused.
        """
        cid, group_id = msg.connection_id, msg.processor_group_id
        stack = self._stack
        group = stack.group(group_id)
        if group is not None and not group.joining and msg.header.source in group.membership:
            return True  # that group's own stream: RMP orders it
        if stack.pid not in msg.membership:
            return False
        binding = self._bindings.get(cid)
        if binding is not None:
            if tuple(sorted(msg.membership)) != binding.membership:
                return False
            theirs = self._probe_index(group_id, binding.membership)
            ours = self._probe_index(binding.group_id, binding.membership)
            if theirs < ours:
                self._echo(binding)
            if theirs <= ours or not self._quiescent(binding):
                return False
        elif self._released.get(cid) == (msg.header.source, msg.header.timestamp):
            return False  # a resend of the Connect we released it under
        pending = self._pending.get(cid)
        client_pids = (pending.client_pids if pending is not None
                       else binding.client_pids if binding is not None else ())
        if stack.holds_group(group_id):
            self._refuse(msg, client_pids)
            return False
        held = self._leave(cid)
        self._join(msg, client_pids)
        self._resubmit(cid, held)
        return True

    def _join(self, msg: ConnectMessage, client_pids: Tuple[int, ...]) -> None:
        """Bind the Connect's connection and bootstrap its group (§7)."""
        cid = msg.connection_id
        self._handshake_done(cid)
        binding = ConnectionBinding(
            connection_id=cid,
            group_id=msg.processor_group_id,
            address=msg.ip_multicast_address,
            membership=tuple(msg.membership),
            established=True,
            client_pids=client_pids,
            connect=msg,
        )
        self._bind(binding)
        self._stack.bootstrap_connection_group(
            msg.processor_group_id,
            msg.ip_multicast_address,
            tuple(msg.membership),
            barrier_timestamp=msg.header.timestamp,
        )
        self._stack.notify_connection(binding, migrated=False)

    def _refuse(self, msg: ConnectMessage, client_pids: Tuple[int, ...]) -> None:
        """The Connect names an id held here for another group: count it
        and never bind.  A server of the connection answers it past that
        id, so the members move on; a client asks again, naming the id,
        and its responder does so (:meth:`_asked_again`)."""
        self.id_collisions += 1
        cid = msg.connection_id
        reg = self._servers.get((cid.server_domain, cid.server_group))
        if reg is not None:
            membership = tuple(sorted(msg.membership))
            self._reallocate(cid, reg,
                             tuple(p for p in membership if p not in reg.server_pids),
                             self._probe_index(msg.processor_group_id, membership))
        elif client_pids:
            self._ask(cid, client_pids, refused=msg.processor_group_id)

    def _echo(self, binding: ConnectionBinding) -> None:
        """Re-send the Connect ``binding`` came from to the server domain,
        so the responder of an id further back learns this one."""
        group = self._stack.group(binding.group_id)
        if binding.connect is not None and group is not None:
            domain = binding.connection_id.server_domain
            group.retransmit(binding.connect, address=domain_multicast_address(domain))

    def _quiescent(self, binding: ConnectionBinding) -> bool:
        """True while the binding's group has sent nothing ordered here
        (§7 barrier up): the connection may still move to another id."""
        group = self._stack.group(binding.group_id)
        return group is None or not group.romp.can_send_ordered()

    def _leave(self, cid: ConnectionId) -> List[HeldSend]:
        """Unbind ``cid``, retiring its group if no connection is left on
        it; returns the sends held there for ``cid``."""
        binding = self._bindings.get(cid)
        if binding is None:
            return []
        group = self._stack.group(binding.group_id)
        held = group.flow.withdraw(cid) if group is not None else []
        orphaned = self.drop(cid)
        if orphaned is not None:
            self._stack.remove_group(orphaned)
        return held

    def _resubmit(self, cid: ConnectionId, held: List[HeldSend]) -> None:
        """Hand sends held for ``cid`` to its new group, in order."""
        if held:
            group = self._stack.group(self._bindings[cid].group_id)
            for payload, _, request_num in held:
                group.multicast(payload, cid, request_num)

    def on_ordered_connect(self, msg: ConnectMessage) -> bool:
        """A Connect delivered through an existing group's total order.

        Covers two §7 cases: a *new* logical connection reusing an already
        established processor group, and the address migration of an
        existing connection.  Returns True if a new binding was created:
        only for the membership of the group's connections here (the
        address may have migrated since the responder read it).
        """
        cid = msg.connection_id
        self._handshake_done(cid)
        if cid in self._bindings:
            return False
        if self._stack.pid not in msg.membership:
            return False
        group_id = msg.processor_group_id
        served = self._served.get(group_id)
        if served and self._bindings[next(iter(served))].membership != tuple(sorted(msg.membership)):
            self.id_collisions += 1
            return False
        binding = ConnectionBinding(
            connection_id=cid,
            group_id=group_id,
            address=msg.ip_multicast_address,
            membership=tuple(msg.membership),
            established=True,
        )
        self._bind(binding)
        self._stack.notify_connection(binding, migrated=False)
        return True

    def _bind(self, binding: ConnectionBinding) -> None:
        cid, group_id = binding.connection_id, binding.group_id
        self._bindings[cid] = binding
        self._served.setdefault(group_id, set()).add(cid)
        self._by_membership.setdefault(binding.membership, group_id)

    def drop(self, cid: ConnectionId) -> Optional[int]:
        """Forget a released connection (§7 "releasing").

        Returns the connection's group id if no other logical connection
        still shares that processor group (so the caller may retire it),
        else None.
        """
        binding = self._bindings.pop(cid, None)
        if binding is None:
            return None
        if binding.connect is not None:
            h = binding.connect.header
            key = self._released[cid] = (h.source, h.timestamp)
            self._stack.schedule(self._stack.config.suspect_timeout,
                                 self._forget_released, cid, key)
        timer = self._resend_timers.pop(cid, None)
        if timer is not None:
            timer.cancel()
        self._cancel_standby(cid)
        group_id = binding.group_id
        served = self._served[group_id]
        served.discard(cid)
        if served:
            return None
        del self._served[group_id]
        if self._by_membership.get(binding.membership) == group_id:
            del self._by_membership[binding.membership]
        return group_id

    def _forget_released(self, cid: ConnectionId, key: Tuple[int, int]) -> None:
        if self._released.get(cid) == key:
            del self._released[cid]

    def on_view(self, group_id: int, membership: Tuple[int, ...]) -> None:
        """A view was installed in ``group_id``: a server releases each of
        its connections whose client processors — the Connect's
        membership but the registered server replicas — have all left it,
        as an ordered release would (§7), and the group lingers."""
        for cid in list(self._served.get(group_id, ())):
            reg = self._servers.get((cid.server_domain, cid.server_group))
            if reg is not None:
                clients = set(self._bindings[cid].membership) - set(reg.server_pids)
                if clients and clients.isdisjoint(membership):
                    self._stack.release_connection_local(cid, linger=True)

    # ==================================================================
    def binding(self, cid: ConnectionId) -> Optional[ConnectionBinding]:
        return self._bindings.get(cid)

    def apply_migration(self, cid: ConnectionId, new_address: int) -> None:
        """Record a migrated address after an ordered Connect (§7)."""
        binding = self._bindings.get(cid)
        if binding is not None:
            binding.address = new_address

    def stop(self) -> None:
        for pending in self._pending.values():
            if pending.timer is not None:
                pending.timer.cancel()
        for timer in self._resend_timers.values():
            timer.cancel()
        self._pending.clear()
        self._resend_timers.clear()


class RequestNumbering:
    """Monotonic request numbers for one client↔server group pair (§4).

    "All of the client replicas use the same request number for a given
    request" — replicas achieve that by drawing from this counter in the
    same deterministic order (they process invocations in total order).
    """

    def __init__(self, start: int = 1):
        self._next = start

    def next(self) -> int:
        n = self._next
        self._next += 1
        return n

    def observe(self, request_num: int) -> None:
        """Fast-forward past a number seen from a peer replica."""
        if request_num >= self._next:
            self._next = request_num + 1


class DuplicateDetector:
    """Duplicate detection on (connection id, request number, kind) (§4).

    ``kind`` distinguishes requests from replies (both directions of a
    connection use the same numbers).  Uses a contiguous watermark plus a
    sparse overflow set that exists only while a number past the
    watermark's next is held, so in-order traffic moves the watermark
    alone and memory stays bounded for it.
    """

    #: every kind recorded: requests, replies, and state shipments
    #: (``orb.ftiop``); :meth:`forget` evicts exactly these
    KINDS = ("request", "reply", "state")

    def __init__(self) -> None:
        self._watermark: Dict[Tuple[ConnectionId, str], int] = {}
        self._sparse: Dict[Tuple[ConnectionId, str], Set[int]] = {}
        self.duplicates_suppressed = 0

    def is_duplicate(self, cid: ConnectionId, request_num: int, kind: str) -> bool:
        """Record (cid, num, kind); True if it was already seen."""
        key = (cid, kind)
        mark = self._watermark.get(key, 0)
        if request_num <= mark:
            self.duplicates_suppressed += 1
            return True
        sparse = self._sparse.get(key)
        if sparse is None:
            if request_num == mark + 1:
                self._watermark[key] = request_num
            else:
                self._sparse[key] = {request_num}
            return False
        if request_num in sparse:
            self.duplicates_suppressed += 1
            return True
        sparse.add(request_num)
        # advance the contiguous watermark
        while mark + 1 in sparse:
            mark += 1
            sparse.discard(mark)
        self._watermark[key] = mark
        if not sparse:
            del self._sparse[key]
        return False

    def seen(self, cid: ConnectionId, request_num: int, kind: str) -> bool:
        """True if (cid, num, kind) was recorded before; records nothing."""
        key = (cid, kind)
        return (request_num <= self._watermark.get(key, 0)
                or request_num in self._sparse.get(key, ()))

    def forget(self, cid: ConnectionId) -> None:
        """Drop a released connection's entries, every kind (§7 releasing)."""
        for kind in self.KINDS:
            self._watermark.pop((cid, kind), None)
            self._sparse.pop((cid, kind), None)

    def seen_count(self, cid: ConnectionId, kind: str) -> int:
        key = (cid, kind)
        return self._watermark.get(key, 0) + len(self._sparse.get(key, ()))
