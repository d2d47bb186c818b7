"""Real-socket transport: UDP loopback fan-out emulating IP Multicast.

The paper runs FTMP directly over IP Multicast.  Joining real multicast
groups inside containers/CI is unreliable, so this transport emulates a
multicast group with unicast fan-out over the loopback interface: every
processor binds its own UDP socket on 127.0.0.1, an in-process
:class:`UdpFabric` keeps the group→members registry, and ``multicast``
sends one datagram per subscribed member.  The FTMP stack runs unmodified
on top — it sees the same :class:`~repro.transport.Endpoint`
interface as the simulator.

A single fabric-wide lock serializes all protocol callbacks (receive and
timer), because the FTMP stack itself is single-threaded by design — in
the simulator the scheduler provides that serialization for free.
"""

from __future__ import annotations

import random
import socket
import threading
import time
from typing import Callable, Dict, Optional, Set, Tuple

from ..transport import Endpoint

__all__ = ["UdpFabric", "UdpEndpoint"]

_MAX_DGRAM = 65507


class _Timer:
    """Cancellable one-shot timer backed by ``threading.Timer``."""

    __slots__ = ("_timer",)

    def __init__(self, timer: threading.Timer):
        self._timer = timer

    def cancel(self) -> None:
        self._timer.cancel()


class UdpFabric:
    """Shared state for a set of UDP endpoints in one process."""

    def __init__(self, loss_rate: float = 0.0, seed: int = 0):
        self._lock = threading.RLock()
        self._groups: Dict[int, Set[int]] = {}
        self._addrs: Dict[int, Tuple[str, int]] = {}
        self._endpoints: Dict[int, "UdpEndpoint"] = {}
        #: per-group fan-out target cache, invalidated on any membership
        #: or address change — spares ``multicast`` a tuple rebuild (and
        #: the lock-held comprehension) on every single datagram
        self._targets: Dict[int, Tuple[Tuple[str, int], ...]] = {}
        self._t0 = time.monotonic()
        self.loss_rate = loss_rate
        self.rng = random.Random(seed)

    @property
    def lock(self) -> threading.RLock:
        return self._lock

    def now(self) -> float:
        return time.monotonic() - self._t0

    def endpoint(self, pid: int) -> "UdpEndpoint":
        """Create the UDP endpoint for processor ``pid`` (binds a socket)."""
        ep = UdpEndpoint(self, pid)
        with self._lock:
            self._endpoints[pid] = ep
            self._addrs[pid] = ep.address
            self._targets.clear()  # pid's address may now resolve in any group
        return ep

    def join(self, pid: int, group_addr: int) -> None:
        with self._lock:
            self._groups.setdefault(group_addr, set()).add(pid)
            self._targets.pop(group_addr, None)

    def leave(self, pid: int, group_addr: int) -> None:
        with self._lock:
            self._groups.get(group_addr, set()).discard(pid)
            self._targets.pop(group_addr, None)

    def unregister(self, pid: int) -> None:
        """Forget a closed endpoint entirely: its socket is gone and the OS
        may rebind the ephemeral port, so it must drop out of every
        group's fan-out target list immediately."""
        with self._lock:
            self._endpoints.pop(pid, None)
            self._addrs.pop(pid, None)
            for members in self._groups.values():
                members.discard(pid)
            self._targets.clear()

    def targets(self, group_addr: int) -> Tuple[Tuple[str, int], ...]:
        """Socket addresses of every current member of ``group_addr``."""
        with self._lock:
            cached = self._targets.get(group_addr)
            if cached is None:
                cached = self._targets[group_addr] = tuple(
                    self._addrs[pid]
                    for pid in self._groups.get(group_addr, ())
                    if pid in self._addrs
                )
            return cached

    def close(self) -> None:
        """Close every endpoint (idempotent)."""
        with self._lock:
            endpoints = list(self._endpoints.values())
        for ep in endpoints:
            ep.close()


class UdpEndpoint(Endpoint):
    """One processor's UDP socket + receive thread + timer set."""

    def __init__(self, fabric: UdpFabric, pid: int):
        self._fabric = fabric
        self._pid = pid
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self._sock.bind(("127.0.0.1", 0))
        self._sock.settimeout(0.1)
        self.address: Tuple[str, int] = self._sock.getsockname()
        self._receiver: Optional[Callable[[bytes], None]] = None
        self._closed = threading.Event()
        self._timers: Set[threading.Timer] = set()
        self._thread = threading.Thread(
            target=self._recv_loop, name=f"udp-ep-{pid}", daemon=True
        )
        self._thread.start()

    # -- identity / time -------------------------------------------------
    @property
    def processor_id(self) -> int:
        return self._pid

    @property
    def now(self) -> float:
        return self._fabric.now()

    def random(self) -> random.Random:
        return self._fabric.rng

    # -- timers ------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., None], *args) -> _Timer:
        def fire() -> None:
            if self._closed.is_set():
                return
            with self._fabric.lock:
                if not self._closed.is_set():
                    fn(*args)

        t = threading.Timer(delay, fire)
        t.daemon = True
        if self._closed.is_set():
            return _Timer(t)  # closed endpoints arm no new timers
        t.start()
        self._timers.add(t)
        # opportunistically prune finished timers to bound the set
        if len(self._timers) > 256:
            self._timers = {x for x in self._timers if x.is_alive()}
        return _Timer(t)

    # -- I/O -------------------------------------------------------------
    def set_receiver(self, cb: Callable[[bytes], None]) -> None:
        self._receiver = cb

    def join(self, group_addr: int) -> None:
        self._fabric.join(self._pid, group_addr)

    def leave(self, group_addr: int) -> None:
        self._fabric.leave(self._pid, group_addr)

    def multicast(self, group_addr: int, data: bytes) -> None:
        if self._closed.is_set():
            return
        if len(data) > _MAX_DGRAM:
            raise ValueError(f"datagram too large: {len(data)} bytes")
        for addr in self._fabric.targets(group_addr):
            if self._fabric.loss_rate and self._fabric.rng.random() < self._fabric.loss_rate:
                continue
            try:
                self._sock.sendto(data, addr)
            except OSError:
                pass  # receiver socket may be mid-close; best-effort semantics

    def _recv_loop(self) -> None:
        while not self._closed.is_set():
            try:
                data, _src = self._sock.recvfrom(_MAX_DGRAM)
            except socket.timeout:
                continue
            except OSError:
                return
            cb = self._receiver
            if cb is None:
                continue
            with self._fabric.lock:
                if not self._closed.is_set():
                    cb(data)

    def close(self) -> None:
        if self._closed.is_set():
            return
        # take the fabric lock first so no receive/timer callback is
        # mid-flight when the flag flips: after close() returns, the
        # receiver is guaranteed to never be invoked again
        with self._fabric.lock:
            self._closed.set()
            self._receiver = None
        self._fabric.unregister(self._pid)
        for t in list(self._timers):
            t.cancel()
        self._timers.clear()
        try:
            self._sock.close()
        except OSError:
            pass
