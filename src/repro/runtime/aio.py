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
import json
import os
import random
import socket
import struct
import subprocess
import sys
import termios
import time
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..transport import Endpoint
from . import ioshard
from .shm import SpscRing

__all__ = [
    "AioFabric", "AioEndpoint", "multicast_available",
    "ShardedAioFabric", "ShardedAioEndpoint",
]

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
            "rx_ring_full": 0,
            "rx_decode_errors": 0,
            "tx_send_errors": self._closed_send_errors + sum(
                ep.stats_send_errors for ep in self._local.values()),
            "shard_failovers": 0,
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


# ======================================================================
# sharded wall-clock datapath (ISSUE 9): I/O-shard subprocesses own the
# UDP sockets; the ordering core exchanges datagrams over shared-memory
# SPSC rings — peer-to-peer rings between co-hosted workers on the fast
# path, shard rings bridging everything else
# ======================================================================

#: FTMP flags byte offset within a frame (mirrors core/wire.py privates;
#: the send path peeks it to keep §5 retransmissions off the TX ring)
_FRAME_FLAGS_OFFSET = 6
_FLAG_RETRANSMISSION = 0x02

#: records drained per ring per call_soon batch; bounds how long one
#: ingest callback can monopolize the loop between timer firings
_INGEST_BATCH = 64

#: idle poll period for peer rings when no eventfd doorbells exist
#: (single-process harnesses, pre-3.10 fallback); under load draining
#: re-arms via call_soon, so this timer only bounds idle->busy latency
_PEER_POLL_IDLE_S = 0.001

#: with eventfd doorbells armed the poll is only a lost-wakeup backstop
#: (the shard pipe doorbell's empty-check has a benign race window)
_PEER_POLL_BACKSTOP_S = 0.02

_HAS_EVENTFD = hasattr(os, "eventfd")


class _ShardProc:
    """One spawned I/O-shard subprocess plus its core-side plumbing."""

    __slots__ = ("index", "proc", "rx_ring", "tx_ring", "rx_db_r",
                 "tx_db_w", "alive", "stats", "stdout_buf")

    def __init__(self, index: int, proc: subprocess.Popen,
                 rx_ring: SpscRing, tx_ring: SpscRing,
                 rx_db_r: int, tx_db_w: int):
        self.index = index
        self.proc = proc
        self.rx_ring = rx_ring
        self.tx_ring = tx_ring
        self.rx_db_r = rx_db_r
        self.tx_db_w = tx_db_w
        self.alive = True
        self.stats: Dict[str, int] = {}
        self.stdout_buf = b""  # partial stats line across nonblocking reads


class ShardedAioEndpoint(AioEndpoint):
    """Endpoint whose datagrams travel over shm rings and I/O shards."""

    def _on_packet_view(self, packet: bytes) -> None:
        """Ring-ingest twin of ``_on_packet``: the frame reaches the stack
        as a memoryview over the popped record (zero-copy decode)."""
        if self._closed or len(packet) < _GROUP_PREFIX.size:
            return
        (group_addr,) = _GROUP_PREFIX.unpack_from(packet)
        if group_addr not in self._joined:
            self.stats_filtered += 1
            return
        cb = self._receiver
        if cb is not None:
            cb(memoryview(packet)[_GROUP_PREFIX.size:])


class ShardedAioFabric(AioFabric):
    """AioFabric variant implementing ``--io-shards N``.

    Per started endpoint it spawns ``io_shards`` subprocesses
    (``python -m repro.runtime.ioshard``) that own the UDP socket(s),
    and wires three kinds of SPSC rings:

    * shard RX (``shard -> core``): validated datagrams off the wire;
    * shard TX (``core -> shard``): first-transmission packets +
      join/leave control for the shard's socket;
    * peer rings (``core -> peer core``): the host-local fast path —
      co-hosted workers exchange packets without touching the kernel.
      When every remote processor is reachable by ring, UDP is skipped
      entirely; a full ring falls back to UDP and RMP's loss recovery
      absorbs the overlap.

    Retransmissions (§5) never enter the TX ring: the core re-sends
    retained bytes over its own fallback socket (or peer rings, which
    the core also pushes itself), so any-holder recovery and retention
    identity are exactly the single-loop runtime's.

    Shard death is observed as EOF on the rx doorbell pipe; the core
    then drains the dead shard's ring and, once no shard remains, binds
    the data port itself and continues on the in-core socket path
    (``net.shard_failovers`` counts these).

    Segment lifecycle: with ``own_rings=True`` the fabric creates and
    unlinks its endpoints' segments (single-process harnesses); the
    cluster supervisor instead pre-creates every segment and workers
    attach (``own_rings=False``).
    """

    def __init__(
        self,
        peers: Dict[int, int],
        mode: str = "loopback",
        host: str = "127.0.0.1",
        seed: int = 0,
        multicast_port: int = DEFAULT_MULTICAST_PORT,
        multicast_prefix: str = DEFAULT_MULTICAST_PREFIX,
        *,
        io_shards: int = 1,
        ring_run_id: str,
        peer_rings: bool = True,
        ring_capacity: int = 1 << 20,
        own_rings: bool = False,
        peer_doorbell_rx: Optional[Dict[int, int]] = None,
        peer_doorbell_tx: Optional[Dict[int, int]] = None,
    ):
        super().__init__(peers, mode, host, seed, multicast_port,
                         multicast_prefix)
        if io_shards < 1:
            raise ValueError("ShardedAioFabric requires io_shards >= 1")
        self.io_shards = io_shards
        self.ring_run_id = ring_run_id
        self.peer_rings = peer_rings
        self.ring_capacity = ring_capacity
        self.own_rings = own_rings
        self._shards: Dict[int, List[_ShardProc]] = {}
        self._rr: Dict[int, int] = {}  # per-pid round-robin TX shard index
        self._peer_tx: Dict[int, Dict[int, SpscRing]] = {}
        self._peer_rx: Dict[int, Dict[int, SpscRing]] = {}
        # eventfd doorbells between sibling workers (cluster supervisor
        # creates one per ordered worker pair and passes the fds down):
        # rx maps source pid -> readable fd, tx maps dest pid -> writable
        # fd.  The fabric owns both sets and closes them on stop().
        self._peer_db_rx: Dict[int, int] = (
            dict(peer_doorbell_rx) if peer_doorbell_rx and _HAS_EVENTFD else {})
        self._peer_db_tx: Dict[int, int] = (
            dict(peer_doorbell_tx) if peer_doorbell_tx and _HAS_EVENTFD else {})
        self._peer_db_armed = False
        self._owned_rings: List[SpscRing] = []
        self._fallback: Dict[int, socket.socket] = {}
        self._fallback_bound: Set[int] = set()
        self._drain_scheduled = False
        self._peer_poll_handle: Optional[asyncio.TimerHandle] = None
        self._stopping = False
        # net.* counters (ISSUE 9 satellite)
        self.stat_tx_ring_full = 0
        self.stat_peer_ring_full = 0
        self.stat_shard_failovers = 0
        self.stat_ring_ingest = 0
        self.stat_fallback_sends = 0

    # -- ring plumbing ---------------------------------------------------
    def _ring(self, name: str, create: bool) -> SpscRing:
        if create:
            ring = SpscRing.create(name, self.ring_capacity)
            self._owned_rings.append(ring)
            return ring
        return SpscRing.attach(name)

    # -- endpoint lifecycle ----------------------------------------------
    async def start(self, pid: int) -> AioEndpoint:
        if pid not in self.peers:
            raise KeyError(f"processor {pid} is not in the peer map")
        if pid in self._local:
            raise ValueError(f"processor {pid} already started in this process")
        self._loop = asyncio.get_running_loop()
        ep = ShardedAioEndpoint(self, pid)

        # fallback socket: core-owned, unbound until failover; carries
        # retransmissions and any traffic the rings cannot
        fb = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        fb.setblocking(False)
        fb.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        if self.mode == "multicast":
            fb.setsockopt(socket.IPPROTO_IP, socket.IP_MULTICAST_LOOP, 1)
            fb.setsockopt(socket.IPPROTO_IP, socket.IP_MULTICAST_TTL, 1)
        self._fallback[pid] = fb

        # spawn the I/O shards
        shards: List[_ShardProc] = []
        run = self.ring_run_id
        for s in range(self.io_shards):
            rx_ring = self._ring(ioshard.rx_ring_name(run, pid, s),
                                 self.own_rings)
            tx_ring = self._ring(ioshard.tx_ring_name(run, pid, s),
                                 self.own_rings)
            rx_db_r, rx_db_w = os.pipe()
            tx_db_r, tx_db_w = os.pipe()
            os.set_blocking(rx_db_r, False)
            os.set_blocking(tx_db_w, False)
            spec = {
                "mode": self.mode,
                "host": self.host,
                "port": (self.multicast_port if self.mode == "multicast"
                         else self.peers[pid]),
                "multicast_prefix": self.multicast_prefix,
                "targets": [
                    (self.host, port)
                    for p, port in sorted(self.peers.items()) if p != pid
                ],
                "groups": [],
                "rx_ring": rx_ring.name,
                "tx_ring": tx_ring.name,
                "rx_doorbell_fd": rx_db_w,
                "tx_doorbell_fd": tx_db_r,
                "reuse_port": self.io_shards > 1,
            }
            # the shard must import repro regardless of how this process
            # got its sys.path (pytest rootdir, PYTHONPATH, install)
            src_root = os.path.dirname(os.path.dirname(os.path.dirname(
                os.path.abspath(__file__))))
            env = dict(os.environ)
            env["PYTHONPATH"] = src_root + (
                os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro.runtime.ioshard"],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                pass_fds=(rx_db_w, tx_db_r),
                env=env,
            )
            proc.stdin.write(json.dumps(spec).encode() + b"\n")
            proc.stdin.flush()
            # the shard holds the inherited copies; ours must close so
            # pipe EOF tracks the shard's lifetime exactly
            os.close(rx_db_w)
            os.close(tx_db_r)
            handle = _ShardProc(s, proc, rx_ring, tx_ring, rx_db_r, tx_db_w)
            shards.append(handle)
            self._loop.add_reader(rx_db_r, self._on_rx_doorbell, pid, handle)
            stdout_fd = proc.stdout.fileno()
            os.set_blocking(stdout_fd, False)
            self._loop.add_reader(stdout_fd, self._on_shard_stats, handle)
        self._shards[pid] = shards
        self._rr[pid] = 0

        # peer rings to/from every other processor in the cluster
        if self.peer_rings:
            tx: Dict[int, SpscRing] = {}
            rx: Dict[int, SpscRing] = {}
            for other in self.peers:
                if other == pid:
                    continue
                tx[other] = self._ring(ioshard.peer_ring_name(run, pid, other),
                                       self.own_rings and other not in self._local)
                rx[other] = self._ring(ioshard.peer_ring_name(run, other, pid),
                                       self.own_rings and other not in self._local)
            self._peer_tx[pid] = tx
            self._peer_rx[pid] = rx

        if self._peer_db_rx and not self._peer_db_armed:
            self._peer_db_armed = True
            for fd in self._peer_db_rx.values():
                self._loop.add_reader(fd, self._on_peer_doorbell, fd)

        self._local[pid] = ep
        self._rebuild_remote_targets()
        self._arm_peer_poll()
        return ep

    def shards_ready(self) -> bool:
        """True once every shard has emitted its first stats line (its
        socket is bound and its rings are attached by then)."""
        return all(
            shard.stats or not shard.alive
            for shards in self._shards.values() for shard in shards
        )

    async def wait_ready(self, timeout: float = 10.0) -> None:
        """Block until :meth:`shards_ready` (cluster workers call this
        before announcing themselves joinable)."""
        deadline = self.loop.time() + timeout
        while not self.shards_ready():
            if self.loop.time() >= deadline:
                raise TimeoutError("I/O shards did not become ready")
            await asyncio.sleep(0.01)

    # -- send path -------------------------------------------------------
    def _multicast(self, sender: AioEndpoint, group_addr: int, data) -> None:
        packet = _GROUP_PREFIX.pack(group_addr) + (
            data if type(data) is bytes else bytes(data))
        pid = sender.processor_id
        call_soon = self.loop.call_soon

        peer_tx = self._peer_tx.get(pid)
        if peer_tx is not None:
            # host-local fast path: every non-local processor has a ring,
            # in-process endpoints (incl. the sender's own loopback copy)
            # get call_soon — no kernel datagram at all
            pushed_all = True
            local = self._local
            db_tx = self._peer_db_tx
            for other, ring in peer_tx.items():
                if other in local:
                    continue
                if ring.try_push(packet):
                    # doorbell only when the receiver may be idle: a
                    # post-push backlog (in bytes) deeper than our own
                    # record means it cannot observe empty (and sleep)
                    # without first consuming what we just pushed; the
                    # poll backstop covers the residual stale-cursor
                    # window.  +8 covers the length prefix and a wrap
                    # marker.
                    fd = (db_tx.get(other)
                          if len(ring) <= len(packet) + 8 else None)
                    if fd is not None:
                        try:
                            os.eventfd_write(fd, 1)
                        except OSError:
                            pass  # peer gone; RMP recovery covers it
                else:
                    self.stat_peer_ring_full += 1
                    pushed_all = False
            for ep in local.values():
                call_soon(ep._on_packet, packet)
            if pushed_all:
                return
            # a full ring means a stalled peer: re-cover via UDP (RMP
            # dedups the overlap like any duplicated datagram)
            self._send_udp(pid, group_addr, packet)
            return
        self._send_udp(pid, group_addr, packet)
        if self.mode == "loopback" or self._is_failed_over(pid):
            for ep in self._local.values():
                call_soon(ep._on_packet, packet)

    def _is_failed_over(self, pid: int) -> bool:
        # in multicast mode a bound fallback socket receives its own
        # kernel-loopback copy, like the baseline runtime; before
        # failover self-delivery comes through the shard's socket
        return self.mode == "multicast" and pid in self._fallback_bound

    def _live_shard(self, pid: int) -> Optional[_ShardProc]:
        shards = self._shards.get(pid, ())
        n = len(shards)
        if n == 0:
            return None
        start = self._rr.get(pid, 0)
        for i in range(n):
            cand = shards[(start + i) % n]
            if cand.alive:
                self._rr[pid] = (start + i + 1) % n
                return cand
        return None

    def _send_udp(self, pid: int, group_addr: int, packet: bytes) -> None:
        frame_off = _GROUP_PREFIX.size + _FRAME_FLAGS_OFFSET
        retrans = (len(packet) > frame_off
                   and packet[frame_off] & _FLAG_RETRANSMISSION)
        shard = None if retrans else self._live_shard(pid)
        if shard is not None:
            was_empty = shard.tx_ring.is_empty()
            if shard.tx_ring.try_push(b"\x00" + packet):
                if was_empty:
                    self._ring_tx_doorbell(shard)
                return
            self.stat_tx_ring_full += 1
        self._fallback_send(pid, group_addr, packet)

    def _ring_tx_doorbell(self, shard: _ShardProc) -> None:
        try:
            os.write(shard.tx_db_w, b"\0")
        except (BlockingIOError, InterruptedError):
            pass  # doorbell pipe full: shard is awake anyway
        except OSError:
            pass  # shard gone; EOF handling will fail us over

    def _fallback_send(self, pid: int, group_addr: int, packet: bytes) -> None:
        """Core-owned direct UDP send (retransmissions, ring overflow,
        post-failover traffic)."""
        fb = self._fallback.get(pid)
        if fb is None:
            return
        self.stat_fallback_sends += 1
        ep = self._local.get(pid)
        if self.mode == "multicast":
            dests = ((multicast_group_ip(group_addr, self.multicast_prefix),
                      self.multicast_port),)
        else:
            dests = tuple(
                (self.host, port)
                for p, port in sorted(self.peers.items())
                if p != pid and p not in self._local
            )
        for addr in dests:
            try:
                fb.sendto(packet, addr)
            except OSError:
                if ep is not None:
                    ep.stats_send_errors += 1

    # -- group membership (shard sockets own the memberships) -------------
    def _join(self, ep: AioEndpoint, group_addr: int) -> None:
        if self.mode != "multicast":
            return
        pid = ep.processor_id
        if pid in self._fallback_bound:
            self._fallback_membership(pid, group_addr, add=True)
            return
        rec = bytes([ioshard.OP_JOIN]) + struct.pack("!I", group_addr)
        for shard in self._shards.get(pid, ()):
            if shard.alive and shard.tx_ring.try_push(rec):
                self._ring_tx_doorbell(shard)

    def _leave(self, ep: AioEndpoint, group_addr: int) -> None:
        if self.mode != "multicast":
            return
        pid = ep.processor_id
        if pid in self._fallback_bound:
            self._fallback_membership(pid, group_addr, add=False)
            return
        rec = bytes([ioshard.OP_LEAVE]) + struct.pack("!I", group_addr)
        for shard in self._shards.get(pid, ()):
            if shard.alive and shard.tx_ring.try_push(rec):
                self._ring_tx_doorbell(shard)

    def _fallback_membership(self, pid: int, group_addr: int,
                             add: bool) -> None:
        fb = self._fallback.get(pid)
        if fb is None:
            return
        mreq = socket.inet_aton(
            multicast_group_ip(group_addr, self.multicast_prefix)
        ) + socket.inet_aton("0.0.0.0")
        opt = (socket.IP_ADD_MEMBERSHIP if add
               else socket.IP_DROP_MEMBERSHIP)
        try:
            fb.setsockopt(socket.IPPROTO_IP, opt, mreq)
        except OSError:
            pass

    # -- ring ingest -------------------------------------------------------
    def _on_rx_doorbell(self, pid: int, shard: _ShardProc) -> None:
        try:
            chime = os.read(shard.rx_db_r, 4096)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            chime = b""
        if chime == b"":
            self._shard_died(pid, shard)
            return
        self._schedule_drain()

    def _schedule_drain(self) -> None:
        if not self._drain_scheduled:
            self._drain_scheduled = True
            self.loop.call_soon(self._drain_rings)

    def _drain_rings(self) -> None:
        self._drain_scheduled = False
        if self._stopping:
            return
        more = False
        for pid, shards in self._shards.items():
            ep = self._local.get(pid)
            if ep is None:
                continue
            on_packet = ep._on_packet_view
            for shard in shards:
                recs = shard.rx_ring.pop_batch(_INGEST_BATCH)
                if recs:
                    self.stat_ring_ingest += len(recs)
                    for packet in recs:
                        on_packet(packet)
                    more = True
        for pid, rx in self._peer_rx.items():
            ep = self._local.get(pid)
            if ep is None:
                continue
            on_packet = ep._on_packet_view
            for ring in rx.values():
                recs = ring.pop_batch(_INGEST_BATCH)
                if recs:
                    self.stat_ring_ingest += len(recs)
                    for packet in recs:
                        on_packet(packet)
                    more = True
        if more:
            self._schedule_drain()

    def _on_peer_doorbell(self, fd: int) -> None:
        try:
            os.eventfd_read(fd)  # clear the counter; coalesces pushes
        except (BlockingIOError, InterruptedError):
            pass
        except OSError:
            try:
                self.loop.remove_reader(fd)
            except (OSError, ValueError):  # pragma: no cover
                pass
            return
        self._schedule_drain()

    def _arm_peer_poll(self) -> None:
        if self._peer_poll_handle is not None or self._stopping:
            return
        if not self._peer_rx and not self._shards:
            return
        period = (_PEER_POLL_BACKSTOP_S if self._peer_db_armed
                  else _PEER_POLL_IDLE_S)
        self._peer_poll_handle = self.loop.call_later(period, self._peer_poll)

    def _peer_poll(self) -> None:
        """Idle-wakeup backstop: doorbell-less peer rings are poll-only
        and a shard doorbell can be missed in its empty-check race."""
        self._peer_poll_handle = None
        if self._stopping:
            return
        self._drain_rings()
        self._arm_peer_poll()

    # -- shard death / failover -------------------------------------------
    def _on_shard_stats(self, shard: _ShardProc) -> None:
        try:
            blob = os.read(shard.proc.stdout.fileno(), 65536)
        except (BlockingIOError, InterruptedError):
            return
        except (OSError, ValueError):
            blob = b""
        if not blob:
            return  # EOF itself is handled by the rx doorbell path
        shard.stdout_buf += blob
        *lines, shard.stdout_buf = shard.stdout_buf.split(b"\n")
        for line in lines:
            if not line:
                continue
            try:
                shard.stats = json.loads(line)
            except ValueError:
                continue

    def _shard_died(self, pid: int, shard: _ShardProc) -> None:
        if not shard.alive:
            return
        shard.alive = False
        try:
            self.loop.remove_reader(shard.rx_db_r)
        except (OSError, ValueError):  # pragma: no cover
            pass
        os.close(shard.rx_db_r)
        # harvest any final stats line, then stop watching stdout
        self._on_shard_stats(shard)
        try:
            self.loop.remove_reader(shard.proc.stdout.fileno())
        except (OSError, ValueError):  # pragma: no cover
            pass
        # drain what the shard managed to push before dying
        self._drain_rings()
        if self._stopping:
            return
        if any(s.alive for s in self._shards.get(pid, ())):
            return  # surviving shards keep the socket path up
        self._failover_to_core(pid)

    def _failover_to_core(self, pid: int) -> None:
        """All shards of ``pid`` are gone: bind the data port in-core and
        continue on the single-loop socket path."""
        if pid in self._fallback_bound:
            return
        fb = self._fallback.get(pid)
        ep = self._local.get(pid)
        if fb is None or ep is None:
            return
        try:
            if self.mode == "multicast":
                fb.bind(("", self.multicast_port))
            else:
                fb.bind((self.host, self.peers[pid]))
        except OSError:
            # port still held (shard in teardown limbo): retry shortly
            self.loop.call_later(0.05, self._failover_to_core, pid)
            return
        self._fallback_bound.add(pid)
        self.stat_shard_failovers += 1
        if self.mode == "multicast":
            for group_addr in ep._joined:
                self._fallback_membership(pid, group_addr, add=True)
        self.loop.add_reader(fb.fileno(), self._drain_fallback, pid, fb)

    def _drain_fallback(self, pid: int, fb: socket.socket) -> None:
        ep = self._local.get(pid)
        for _ in range(_INGEST_BATCH):
            try:
                data, _addr = fb.recvfrom(65535)
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                return
            if ep is not None:
                ep._on_packet(data)

    def chaos_kill_one_shard(self) -> None:
        """Chaos hook: SIGKILL the first live shard (the worker calls it
        at a fixed point of its run's progress, not of the clock)."""
        for shards in self._shards.values():
            for shard in shards:
                if shard.alive and shard.proc.poll() is None:
                    shard.proc.kill()
                    return

    # -- stats / teardown --------------------------------------------------
    def net_stats(self) -> Dict[str, int]:
        base = super().net_stats()
        shard_stats = [s.stats for shards in self._shards.values()
                       for s in shards]
        base.update({
            "rx_ring_full": sum(st.get("rx_ring_full", 0)
                                for st in shard_stats),
            "rx_decode_errors": sum(st.get("rx_decode_errors", 0)
                                    for st in shard_stats),
            "rx_rcvbuf_max_bytes": max(
                [base["rx_rcvbuf_max_bytes"]]
                + [st.get("rcvbuf_max_bytes", 0) for st in shard_stats]),
            "shard_rx_datagrams": sum(st.get("rx_datagrams", 0)
                                      for st in shard_stats),
            "shard_tx_datagrams": sum(st.get("tx_datagrams", 0)
                                      for st in shard_stats),
            "tx_ring_full": self.stat_tx_ring_full,
            "peer_ring_full": self.stat_peer_ring_full,
            "ring_ingest": self.stat_ring_ingest,
            "fallback_sends": self.stat_fallback_sends,
            "shard_failovers": self.stat_shard_failovers,
        })
        return base

    def stop(self) -> None:
        if self._stopping:
            return
        self._stopping = True
        if self._peer_poll_handle is not None:
            self._peer_poll_handle.cancel()
            self._peer_poll_handle = None
        super().stop()
        for pid, shards in self._shards.items():
            for shard in shards:
                if shard.alive:
                    try:
                        self.loop.remove_reader(shard.rx_db_r)
                    except (OSError, ValueError):
                        pass
                    try:
                        self.loop.remove_reader(shard.proc.stdout.fileno())
                    except (OSError, ValueError):
                        pass
                    os.close(shard.rx_db_r)
                    shard.alive = False
                try:
                    shard.proc.stdin.close()  # EOF: graceful shard exit
                except OSError:
                    pass
                try:
                    shard.proc.wait(timeout=2.0)
                except subprocess.TimeoutExpired:
                    shard.proc.kill()
                    shard.proc.wait()
                # the shard prints a last stats line on its way out
                self._on_shard_stats(shard)
                try:
                    shard.proc.stdout.close()
                except OSError:
                    pass
                try:
                    os.close(shard.tx_db_w)
                except OSError:
                    pass
                shard.rx_ring.close()
                shard.tx_ring.close()
        for pid, fb in self._fallback.items():
            if pid in self._fallback_bound:
                try:
                    self.loop.remove_reader(fb.fileno())
                except (OSError, ValueError):
                    pass
            fb.close()
        self._fallback.clear()
        for fd in self._peer_db_rx.values():
            if self._peer_db_armed:
                try:
                    self.loop.remove_reader(fd)
                except (OSError, ValueError):
                    pass
            try:
                os.close(fd)
            except OSError:
                pass
        for fd in self._peer_db_tx.values():
            try:
                os.close(fd)
            except OSError:
                pass
        self._peer_db_rx = {}
        self._peer_db_tx = {}
        for rings in list(self._peer_tx.values()) + list(self._peer_rx.values()):
            for ring in rings.values():
                if ring not in self._owned_rings:
                    ring.close()
        self._peer_tx.clear()
        self._peer_rx.clear()
        for ring in self._owned_rings:
            ring.close()
            ring.unlink()
        self._owned_rings.clear()
