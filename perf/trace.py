"""Outside-in span tracing of the protocol layers.

Nothing here touches ``src/``: layers are timed from the benchmark's
side, around the calls into their public functions.  Three mechanisms:

* :class:`TracedEndpoint` — a proxy handed to ``FTMPStack`` in place of
  the real endpoint; it times ``multicast`` and ``schedule`` (the calls
  *into* the substrate) and wraps the receiver callback and every timer
  callback (the calls *out of* it), which are the roots of all protocol
  work;
* :class:`TracingListener` — wraps the application listener;
* :func:`installed` — class-level wrappers on the layers' public methods
  and rebinding of the codec names imported into the modules that call
  them; installed before the cluster is built, restored afterwards.

A span records name, start, end, parent and the (source, sequence) or
(connection id…, request number) it serves.  Spans stay in memory as
parallel columns and are written out once, at the end.  A span's self
time is its duration minus the durations of its direct children; the
wrapper's own bookkeeping falls outside the span it opens and therefore
inside its parent's self time — ``trace.overhead_ratio`` says how much
that inflates the total.
"""

from __future__ import annotations

import contextlib
import json
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.core import Listener, RecordingListener
from repro.transport import Endpoint

__all__ = ["Tracer", "TracedEndpoint", "TracingListener", "NullProbe",
           "TraceProbe", "installed", "layer_of", "LAYERS"]

#: this repo's modules, as the per-layer metrics name them
LAYERS = ("wire", "datapath", "rmp", "romp", "pgmp", "buffers", "stack",
          "listener", "simnet", "runtime", "giop", "orb")

#: path fragment -> layer, first match wins; serves module names (timer
#: callbacks) and file names (cProfile) alike
_LAYER_RULES = (
    ("repro/core/wire", "wire"),
    ("repro/core/datapath", "datapath"),
    ("repro/transport", "datapath"),  # NamedTimerSet: the batch-flush timer
    ("repro/core/rmp", "rmp"),
    ("repro/core/romp", "romp"),
    ("repro/core/lamport", "romp"),
    ("repro/core/pgmp", "pgmp"),
    ("repro/core/fault_detector", "pgmp"),
    ("repro/core/buffers", "buffers"),
    ("repro/core/", "stack"),
    ("repro/simnet/", "simnet"),
    ("repro/runtime/", "runtime"),
    ("asyncio/", "runtime"),
    ("selectors.py", "runtime"),
    ("repro/giop/", "giop"),
    ("repro/orb/", "orb"),
    ("repro/replication/", "orb"),
    ("perf/", "listener"),  # the benchmark's own callbacks
)


def layer_of(where: str) -> Optional[str]:
    """Layer owning a module name or source file path (None: not ours)."""
    path = where.replace("\\", "/")
    if not path.endswith(".py"):
        path = path.replace(".", "/") + "/"
    for fragment, layer in _LAYER_RULES:
        if fragment in path:
            return layer
    return None


KeyFn = Callable[[tuple, Any], Optional[Tuple[int, ...]]]


class Tracer:
    """Span store: parallel columns, one entry per span."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name: List[int] = []
        self.start: List[int] = []
        self.end: List[int] = []
        self.parent: List[int] = []
        self.key: List[Optional[Tuple[int, ...]]] = []
        self._open: List[int] = [-1]
        #: endpoint whose receiver or timer callback is running
        self.current: Optional["TracedEndpoint"] = None
        #: (member, source, seq) -> time ROMP.receive first saw it
        self.gate_in: Dict[Tuple[int, int, int], float] = {}
        #: seconds between ROMP.receive and the listener, per delivery
        self.gate_waits: List[float] = []

    def span_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn: Callable, key: Optional[KeyFn] = None,
             enter: Optional[Callable[[tuple], None]] = None) -> Callable:
        """Return ``fn`` wrapped in a span called ``name``.

        ``key(args, result)`` names the message the span served;
        ``enter(args)`` runs just before the span opens.
        """
        nid = self.span_id(name)
        names, starts, ends = self.name, self.start, self.end
        parents, keys, open_ = self.parent, self.key, self._open
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(open_[-1])
            ends.append(0)
            keys.append(None)
            open_.append(i)
            if enter is not None:
                enter(args)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                open_.pop()
            if key is not None:
                keys[i] = key(args, result)
            return result

        return traced

    def begin(self, nid: int) -> int:
        """Open a span by hand (where a closure per call would cost more)."""
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._open[-1])
        self.end.append(0)
        self.key.append(None)
        self._open.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def finish(self, i: int) -> None:
        self.end[i] = time.perf_counter_ns()
        self._open.pop()

    # ------------------------------------------------------------------
    def summarize(self, lo: int = 0, hi: Optional[int] = None
                  ) -> Tuple[Dict[str, Tuple[int, int]], int]:
        """``({span name: (calls, self_ns)}, ns covered by root spans)``
        over spans ``lo`` to ``hi`` (no span may straddle either end)."""
        if hi is None:
            hi = len(self.start)
        start, end, parent = self.start, self.end, self.parent
        child = [0] * (hi - lo)
        root_ns = 0
        for i in range(lo, hi):
            p = parent[i]
            if p >= 0:
                child[p - lo] += end[i] - start[i]
            else:
                root_ns += end[i] - start[i]
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        name = self.name
        for i in range(lo, hi):
            nid = name[i]
            calls[nid] += 1
            self_ns[nid] += end[i] - start[i] - child[i - lo]
        return ({nm: (calls[k], self_ns[k]) for k, nm in enumerate(self.names)},
                root_ns)

    def dump(self, path: str, meta: Dict[str, Any]) -> None:
        """Write every span, column-wise, times relative to the first."""
        t0 = self.start[0] if self.start else 0
        doc = dict(meta)
        doc.update({
            "clock": "perf_counter_ns, relative to the first span",
            "columns": "span i is names[name[i]], [start_ns[i], end_ns[i]), "
                       "child of span parent[i] (-1: root), serving key[i]",
            "names": self.names,
            "name": self.name,
            "start_ns": [t - t0 for t in self.start],
            "end_ns": [t - t0 for t in self.end],
            "parent": self.parent,
            "key": self.key,
        })
        with open(path, "w") as f:
            json.dump(doc, f, separators=(",", ":"))


def span_layer(name: str) -> str:
    """Layer a span name belongs to (``timer.<layer>`` -> that layer)."""
    head, _, rest = name.partition(".")
    return rest if head == "timer" else head


# ----------------------------------------------------------------------
# proxies
# ----------------------------------------------------------------------
class TracedEndpoint(Endpoint):
    """Endpoint proxy: spans around the substrate boundary, both ways."""

    def __init__(self, inner: Endpoint, tracer: Tracer, substrate: str):
        self._inner = inner
        self._tracer = tracer
        self._pid = inner.processor_id
        self._multicast = tracer.wrap(substrate + ".multicast", inner.multicast)
        self._schedule = tracer.wrap(substrate + ".schedule", inner.schedule)
        #: module of a timer callback -> id of the span name it fires under
        self._timer_ids: Dict[str, int] = {}
        self.timers_armed = 0
        self.datagrams_sent = 0

    @property
    def processor_id(self) -> int:
        return self._pid

    @property
    def now(self) -> float:
        return self._inner.now

    def _enter(self, _args: tuple) -> None:
        self._tracer.current = self

    def schedule(self, delay, fn, *args):
        self.timers_armed += 1
        return self._schedule(delay, self._fire, fn, args)

    def _fire(self, fn, args) -> None:
        """A timer fired: a root span charged to the callback's layer."""
        module = getattr(fn, "__module__", None) or ""
        nid = self._timer_ids.get(module)
        if nid is None:
            nid = self._timer_ids[module] = self._tracer.span_id(
                "timer." + (layer_of(module) or "stack"))
        self._tracer.current = self
        i = self._tracer.begin(nid)
        try:
            fn(*args)
        finally:
            self._tracer.finish(i)

    def set_receiver(self, cb) -> None:
        self._inner.set_receiver(
            self._tracer.wrap("stack.on_datagram", cb, enter=self._enter))

    def join(self, group_addr: int) -> None:
        self._inner.join(group_addr)

    def leave(self, group_addr: int) -> None:
        self._inner.leave(group_addr)

    def multicast(self, group_addr: int, data: bytes) -> None:
        self.datagrams_sent += 1
        self._multicast(group_addr, data)

    def random(self):
        return self._inner.random()

    def close(self) -> None:
        self._inner.close()


class TracingListener(Listener):
    """Spans around the application upcalls; forwards to every target.

    Also closes the ``romp.gate_wait`` measurement opened by the
    ``ROMP.receive`` wrapper: time from RMP handing a message to ROMP
    until this member's listener sees it delivered.
    """

    def __init__(self, tracer: Tracer, endpoint: TracedEndpoint, *targets: Listener):
        self._tracer = tracer
        self._endpoint = endpoint
        self._targets = targets
        self._deliver = tracer.wrap(
            "listener.on_deliver", self._fan_deliver,
            key=lambda a, r: (a[0].source, a[0].sequence_number))

    def _fan_deliver(self, delivery) -> None:
        for t in self._targets:
            t.on_deliver(delivery)

    def on_deliver(self, delivery) -> None:
        ep = self._endpoint
        seen = self._tracer.gate_in.pop(
            (ep.processor_id, delivery.source, delivery.sequence_number), None)
        if seen is not None:
            self._tracer.gate_waits.append(ep.now - seen)
        self._deliver(delivery)

    def on_view_change(self, view) -> None:
        for t in self._targets:
            t.on_view_change(view)

    def on_fault_report(self, report) -> None:
        for t in self._targets:
            t.on_fault_report(report)

    def on_connection(self, event) -> None:
        for t in self._targets:
            t.on_connection(event)


# ----------------------------------------------------------------------
# probes: what a workload asks for while it builds its cluster
# ----------------------------------------------------------------------
class NullProbe:
    """Untraced pass: every hook is the identity."""

    def mark(self) -> None:
        """Called where the measured part of a pass starts and ends."""

    def endpoint(self, endpoint: Endpoint, substrate: str) -> Endpoint:
        return endpoint

    def listener(self, endpoint: Endpoint, target: Listener) -> Listener:
        return target

    def call(self, name: str, fn: Callable) -> Callable:
        return fn


class TraceProbe(NullProbe):
    """Traced pass: proxies, span wrappers and a recorded history."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.endpoints: Dict[int, TracedEndpoint] = {}
        #: pid -> full upcall history, for ``run_history_oracles``
        self.recordings: Dict[int, RecordingListener] = {}
        #: span counts at the start and end of the measured part
        self.marks: List[int] = []

    def mark(self) -> None:
        self.marks.append(len(self.tracer.start))

    def endpoint(self, endpoint: Endpoint, substrate: str) -> Endpoint:
        ep = TracedEndpoint(endpoint, self.tracer, substrate)
        self.endpoints[ep.processor_id] = ep
        return ep

    def listener(self, endpoint: Endpoint, target: Listener) -> Listener:
        rec = self.recordings[endpoint.processor_id] = RecordingListener()
        return TracingListener(self.tracer, endpoint, target, rec)

    def call(self, name: str, fn: Callable) -> Callable:
        return self.tracer.wrap(name, fn)


# ----------------------------------------------------------------------
# class-level wrappers
# ----------------------------------------------------------------------
def _msg_key(args: tuple, _result) -> Tuple[int, int]:
    h = args[1].header
    return (h.source, h.sequence_number)


def _header_key(args: tuple, _result) -> Tuple[int, int]:
    return (args[1].source, args[1].sequence_number)


def _decoded_key(_args: tuple, result) -> Tuple[int, int]:
    return (result.header.source, result.header.sequence_number)


def _encoded_key(args: tuple, _result) -> Tuple[int, int]:
    h = args[0].header
    return (h.source, h.sequence_number)


def _invocation_key(cid, request_num: int) -> Tuple[int, ...]:
    return (cid.client_domain, cid.client_group, cid.server_domain,
            cid.server_group, request_num)


def _targets(tracer: Tracer):
    """(owner, attribute, span name, key fn, enter fn) for every wrapper."""
    from repro.core import buffers, connection, datapath, pgmp, rmp, romp, stack
    from repro.orb import ftiop

    def romp_receive_enter(args: tuple) -> None:
        ep = tracer.current
        if ep is not None:
            h = args[1].header
            tracer.gate_in.setdefault(
                (ep.processor_id, h.source, h.sequence_number), ep.now)

    return (
        (datapath.ProcessorGroup, "on_datagram", "datapath.on_datagram", _msg_key, None),
        (datapath.ProcessorGroup, "multicast", "datapath.multicast", None, None),
        (datapath.SendPath, "send", "datapath.send", _msg_key, None),
        (datapath.SendPath, "flush", "datapath.flush", None, None),
        (datapath.FlowController, "submit", "datapath.fc_submit", None, None),
        (datapath.FlowController, "drain", "datapath.fc_drain", None, None),
        (rmp.RMP, "on_message", "rmp.on_message", _msg_key, None),
        (romp.ROMP, "observe_header", "romp.observe_header", _header_key, None),
        (romp.ROMP, "receive", "romp.receive", _msg_key, romp_receive_enter),
        (romp.ROMP, "receive_heartbeat", "romp.receive_heartbeat", _msg_key, None),
        (romp.ROMP, "evaluate", "romp.evaluate", None, None),
        (pgmp.PGMP, "on_ordered", "pgmp.on_ordered", _msg_key, None),
        (pgmp.PGMP, "on_source_ordered", "pgmp.on_source_ordered", _msg_key, None),
        (pgmp.PGMP, "raise_suspicion", "pgmp.raise_suspicion", None, None),
        (buffers.RetransmissionBuffer, "add", "buffers.add",
         lambda a, r: (a[1], a[2]), None),
        (buffers.RetransmissionBuffer, "collect", "buffers.collect", None, None),
        (ftiop.FTMPAdapter, "invoke", "orb.invoke", None, None),
        (ftiop.FTMPAdapter, "on_deliver", "orb.on_deliver",
         lambda a, r: _invocation_key(a[1].connection_id, a[1].request_num), None),
        (connection.DuplicateDetector, "is_duplicate", "orb.is_duplicate",
         lambda a, r: _invocation_key(a[1], a[2]), None),
        # codec names as imported into the modules that call them
        (stack, "encode", "wire.encode", _encoded_key, None),
        (stack, "decode", "wire.decode", _decoded_key, None),
        (stack, "decode_view", "wire.decode", _decoded_key, None),
        (datapath, "encode", "wire.encode", _encoded_key, None),
        (datapath, "decode", "wire.decode", _decoded_key, None),
        (ftiop, "encode_giop", "giop.encode", None, None),
        (ftiop, "decode_giop", "giop.decode", None, None),
    )


@contextlib.contextmanager
def installed(tracer: Tracer) -> Iterator[None]:
    """Install every class-level wrapper; restore the originals on exit."""
    saved = []
    try:
        for owner, attr, name, key, enter in _targets(tracer):
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, key, enter))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
