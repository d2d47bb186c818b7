"""Asyncio implementation of the :class:`~repro.transport.Endpoint` seam.

One :class:`AioFabric` per OS process: it owns the event loop reference,
the monotonic clock origin and the peer address map, and hands out
:class:`AioEndpoint` instances (normally one per process — the cluster
runtime — but in-process multi-endpoint use works too, which is what the
endpoint contract tests exercise).

Two wire modes:

* ``"multicast"`` — real IP multicast: every endpoint binds the shared
  group port, ``join`` translates to ``IP_ADD_MEMBERSHIP`` on a
  ``239.x.y.z`` address derived from the abstract group address, and one
  datagram reaches every member (the paper's own substrate).  Joining
  real multicast groups inside containers/CI is unreliable, hence:
* ``"loopback"`` (default) — unicast fan-out over the loopback
  interface: every processor binds its own UDP port from a static peer
  map and ``multicast`` sends one datagram per peer.  Receivers filter
  on their joined-group set, which preserves the open-group and
  join/leave semantics the protocol assumes of IP multicast.

Every datagram is prefixed with the 4-byte group address so the receive
side can filter by subscription in both modes (with several groups
sharing one port, kernel multicast filtering alone is not airtight).

All protocol callbacks — datagram receipt and timer firings — run on the
event loop thread, giving the single-threaded FTMP stack the same
serialization the discrete-event scheduler provides in simulation, with
no locks.
"""

from __future__ import annotations

import asyncio
import fcntl
import random
import socket
import struct
import sys
import termios
import time
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..transport import Endpoint

__all__ = ["AioFabric", "AioEndpoint", "multicast_available", "free_udp_ports"]

#: max UDP payload minus the 4-byte group-address prefix
_MAX_DGRAM = 65503
_GROUP_PREFIX = struct.Struct("!I")

#: default shared port and IPv4 prefix for real-multicast mode
DEFAULT_MULTICAST_PORT = 29513
DEFAULT_MULTICAST_PREFIX = "239.193"


def multicast_group_ip(group_addr: int, prefix: str = DEFAULT_MULTICAST_PREFIX) -> str:
    """Map an abstract group address onto a 239.x administrative group."""
    return f"{prefix}.{(group_addr >> 8) & 0xFF}.{group_addr & 0xFF}"


def multicast_available(port: int = 0, timeout: float = 0.25) -> bool:
    """Probe whether real IP multicast round-trips on this host.

    Joins a scratch group on the wildcard interface, sends one datagram
    and waits for the kernel loopback copy.  Containers and some CI
    runners fail this; the cluster runtime then falls back to loopback
    unicast fan-out.
    """
    group = "239.193.255.251"
    try:
        rx = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            rx.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            rx.bind(("", port))
            actual_port = rx.getsockname()[1]
            mreq = socket.inet_aton(group) + socket.inet_aton("0.0.0.0")
            rx.setsockopt(socket.IPPROTO_IP, socket.IP_ADD_MEMBERSHIP, mreq)
            rx.settimeout(timeout)
            tx = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            try:
                tx.setsockopt(socket.IPPROTO_IP, socket.IP_MULTICAST_LOOP, 1)
                tx.setsockopt(socket.IPPROTO_IP, socket.IP_MULTICAST_TTL, 1)
                tx.sendto(b"probe", (group, actual_port))
            finally:
                tx.close()
            data, _ = rx.recvfrom(64)
            return data == b"probe"
        finally:
            rx.close()
    except OSError:
        return False


def free_udp_ports(n: int) -> List[int]:
    """Reserve n distinct loopback UDP ports (bound until read, then freed)."""
    socks = []
    try:
        for _ in range(n):
            s = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            s.bind(("127.0.0.1", 0))
            socks.append(s)
        return [s.getsockname()[1] for s in socks]
    finally:
        for s in socks:
            s.close()


class _AioTimer:
    """Cancellable one-shot timer over ``loop.call_later``."""

    __slots__ = ("_handle",)

    def __init__(self, handle: Optional[asyncio.TimerHandle]):
        self._handle = handle

    def cancel(self) -> None:
        if self._handle is not None:
            self._handle.cancel()


class _EndpointProtocol(asyncio.DatagramProtocol):
    """Datagram protocol feeding one endpoint's receive path."""

    def __init__(self, endpoint: "AioEndpoint"):
        self._ep = endpoint

    def datagram_received(self, data: bytes, addr) -> None:
        self._ep._on_packet(data)

    def error_received(self, exc: Exception) -> None:
        # ICMP port-unreachable from a peer that has not bound yet (or
        # already exited): best-effort semantics, loss recovery handles it
        self._ep.stats_send_errors += 1


class AioEndpoint(Endpoint):
    """One processor's asyncio handle onto the fabric."""

    def __init__(self, fabric: "AioFabric", pid: int):
        self._fabric = fabric
        self._pid = pid
        self._receiver: Optional[Callable[[bytes], None]] = None
        self._joined: Set[int] = set()
        self._closed = False
        self._transport: Optional[asyncio.DatagramTransport] = None
        self._sock: Optional[socket.socket] = None
        self._rng = random.Random(fabric.seed * 1_000_003 + pid)
        #: datagrams dropped because they arrived for an unjoined group
        self.stats_filtered = 0
        self.stats_send_errors = 0

    # -- identity / time -------------------------------------------------
    @property
    def processor_id(self) -> int:
        return self._pid

    @property
    def now(self) -> float:
        return self._fabric.now()

    def random(self) -> random.Random:
        return self._rng

    # -- timers ----------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., None], *args) -> _AioTimer:
        if self._closed:
            return _AioTimer(None)

        def fire() -> None:
            if not self._closed:
                fn(*args)

        handle = self._fabric.loop.call_later(max(0.0, delay), fire)
        return _AioTimer(handle)

    # -- I/O -------------------------------------------------------------
    def set_receiver(self, cb: Callable[[bytes], None]) -> None:
        self._receiver = cb

    def join(self, group_addr: int) -> None:
        if self._closed or group_addr in self._joined:
            return
        self._joined.add(group_addr)
        self._fabric._join(self, group_addr)

    def leave(self, group_addr: int) -> None:
        if group_addr not in self._joined:
            return
        self._joined.discard(group_addr)
        if not self._closed:
            self._fabric._leave(self, group_addr)

    def multicast(self, group_addr: int, data: bytes) -> None:
        if self._closed:
            return
        if len(data) > _MAX_DGRAM:
            raise ValueError(f"datagram too large: {len(data)} bytes")
        self._fabric._multicast(self, group_addr, data)

    def _on_packet(self, packet: bytes) -> None:
        """Unwrap the group prefix and filter on the joined-group set."""
        if self._closed or len(packet) < _GROUP_PREFIX.size:
            return
        (group_addr,) = _GROUP_PREFIX.unpack_from(packet)
        if group_addr not in self._joined:
            self.stats_filtered += 1
            return
        cb = self._receiver
        if cb is not None:
            cb(packet[_GROUP_PREFIX.size:])

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._receiver = None
        self._fabric._detach(self)
        if self._transport is not None:
            self._transport.close()
            self._transport = None


class AioFabric:
    """Per-process endpoint factory + cross-process multicast fabric.

    ``peers`` maps every processor id in the cluster to its UDP port on
    ``host`` (loopback mode); in multicast mode the map only names the
    processor ids.  Endpoints are created with :meth:`start` (a
    coroutine — the datagram socket binds on the running loop).
    """

    def __init__(
        self,
        peers: Dict[int, int],
        mode: str = "loopback",
        host: str = "127.0.0.1",
        seed: int = 0,
        multicast_port: int = DEFAULT_MULTICAST_PORT,
        multicast_prefix: str = DEFAULT_MULTICAST_PREFIX,
    ):
        if mode not in ("loopback", "multicast"):
            raise ValueError(f"unknown fabric mode {mode!r}")
        self.mode = mode
        self.host = host
        self.seed = seed
        self.peers = dict(peers)
        self.multicast_port = multicast_port
        self.multicast_prefix = multicast_prefix
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._t0 = time.monotonic()
        #: endpoints living in *this* process (delivered via call_soon in
        #: loopback mode — no kernel round-trip for self/local delivery)
        self._local: Dict[int, AioEndpoint] = {}
        self._peer_addrs: Tuple[Tuple[str, int], ...] = ()
        #: receive-side drop visibility (ISSUE 9): high-water mark of
        #: kernel SO_RCVBUF occupancy, sampled on a coarse timer
        self.rcvbuf_max_bytes = 0
        self._rcvbuf_timer: Optional[asyncio.TimerHandle] = None
        self._rcvbuf_sample_interval = 0.05
        # counters of endpoints that already closed, so ``net_stats`` is
        # complete regardless of snapshot/teardown ordering
        self._closed_filtered = 0
        self._closed_send_errors = 0

    # -- loop / clock ----------------------------------------------------
    @property
    def loop(self) -> asyncio.AbstractEventLoop:
        if self._loop is None:
            self._loop = asyncio.get_event_loop()
        return self._loop

    def now(self) -> float:
        return time.monotonic() - self._t0

    # -- endpoint lifecycle ----------------------------------------------
    async def start(self, pid: int) -> AioEndpoint:
        """Bind processor ``pid``'s datagram socket and return its endpoint."""
        if pid not in self.peers:
            raise KeyError(f"processor {pid} is not in the peer map")
        if pid in self._local:
            raise ValueError(f"processor {pid} already started in this process")
        self._loop = asyncio.get_running_loop()
        ep = AioEndpoint(self, pid)
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        sock.setblocking(False)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1 << 21)
        except OSError:
            pass
        if self.mode == "multicast":
            sock.setsockopt(socket.IPPROTO_IP, socket.IP_MULTICAST_LOOP, 1)
            sock.setsockopt(socket.IPPROTO_IP, socket.IP_MULTICAST_TTL, 1)
            sock.bind(("", self.multicast_port))
        else:
            sock.bind((self.host, self.peers[pid]))
        transport, _ = await self._loop.create_datagram_endpoint(
            lambda: _EndpointProtocol(ep), sock=sock
        )
        # asyncio allocates max_size (256 KiB) per recvfrom; whether glibc
        # trims the heap after each one depends on heap layout, which made
        # CPU per delivery bimodal (2x the page faults) for identical code
        transport.max_size = 65535  # no UDP datagram is larger
        ep._transport = transport
        ep._sock = sock
        self._local[pid] = ep
        self._rebuild_remote_targets()
        if self._rcvbuf_timer is None:
            self._rcvbuf_timer = self._loop.call_later(
                self._rcvbuf_sample_interval, self._sample_rcvbuf)
        return ep

    def _sample_rcvbuf(self) -> None:
        """Track the kernel receive-queue high-water mark (FIONREAD)."""
        for ep in self._local.values():
            if ep._sock is None:
                continue
            try:
                raw = fcntl.ioctl(ep._sock.fileno(), termios.FIONREAD,
                                  b"\0\0\0\0")
                occ = int.from_bytes(raw, sys.byteorder)
            except OSError:  # pragma: no cover - closed under us
                continue
            if occ > self.rcvbuf_max_bytes:
                self.rcvbuf_max_bytes = occ
        if self._local and self._loop is not None:
            self._rcvbuf_timer = self._loop.call_later(
                self._rcvbuf_sample_interval, self._sample_rcvbuf)
        else:
            self._rcvbuf_timer = None

    def net_stats(self) -> Dict[str, int]:
        """Receive/transmit-side transport counters for ``snapshot()``."""
        return {
            "rx_filtered": self._closed_filtered + sum(
                ep.stats_filtered for ep in self._local.values()),
            "rx_rcvbuf_max_bytes": self.rcvbuf_max_bytes,
            "tx_send_errors": self._closed_send_errors + sum(
                ep.stats_send_errors for ep in self._local.values()),
        }

    def _detach(self, ep: AioEndpoint) -> None:
        if self._local.pop(ep.processor_id, None) is not None:
            self._closed_filtered += ep.stats_filtered
            self._closed_send_errors += ep.stats_send_errors
        self._rebuild_remote_targets()

    def stop(self) -> None:
        """Close every endpoint created in this process (idempotent)."""
        for ep in list(self._local.values()):
            ep.close()
        if self._rcvbuf_timer is not None:
            self._rcvbuf_timer.cancel()
            self._rcvbuf_timer = None

    def _rebuild_remote_targets(self) -> None:
        """Loopback fan-out targets: every peer *not* local to this process."""
        self._peer_addrs = tuple(
            (self.host, port)
            for pid, port in sorted(self.peers.items())
            if pid not in self._local
        )

    # -- group membership -------------------------------------------------
    def _join(self, ep: AioEndpoint, group_addr: int) -> None:
        if self.mode == "multicast" and ep._sock is not None:
            mreq = socket.inet_aton(
                multicast_group_ip(group_addr, self.multicast_prefix)
            ) + socket.inet_aton("0.0.0.0")
            try:
                ep._sock.setsockopt(socket.IPPROTO_IP, socket.IP_ADD_MEMBERSHIP, mreq)
            except OSError:
                pass  # already a member via another local endpoint

    def _leave(self, ep: AioEndpoint, group_addr: int) -> None:
        if self.mode == "multicast" and ep._sock is not None:
            mreq = socket.inet_aton(
                multicast_group_ip(group_addr, self.multicast_prefix)
            ) + socket.inet_aton("0.0.0.0")
            try:
                ep._sock.setsockopt(socket.IPPROTO_IP, socket.IP_DROP_MEMBERSHIP, mreq)
            except OSError:
                pass

    # -- datagram fan-out -------------------------------------------------
    def _multicast(self, sender: AioEndpoint, group_addr: int, data: bytes) -> None:
        packet = _GROUP_PREFIX.pack(group_addr) + data
        transport = sender._transport
        if transport is None:
            return
        if self.mode == "multicast":
            transport.sendto(
                packet,
                (multicast_group_ip(group_addr, self.multicast_prefix),
                 self.multicast_port),
            )
            return
        # loopback mode: kernel datagrams to remote processes, call_soon
        # to endpoints in this process (including the sender's loopback —
        # IP multicast semantics deliver a sender its own datagrams)
        for addr in self._peer_addrs:
            transport.sendto(packet, addr)
        call_soon = self.loop.call_soon
        for ep in self._local.values():
            call_soon(ep._on_packet, packet)
