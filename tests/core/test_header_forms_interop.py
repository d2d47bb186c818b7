"""Both header forms on one wire: a group whose clock crosses 2**32.

``wire.encode`` gives each datagram the 21 B header when its own fields
fit it (ts < 2**32, ack 0-255 ticks behind ts, source and group below
2**16) and the 40 B header otherwise, with no state passed between
datagrams.  Here four members multicast through a batching window at
3 % loss, and two clock jumps make the forms interleave:

* early on, member 2's clock leaps 1,000 ticks: every member's clock
  follows at its next datagram from 2, while its acknowledgements stay
  behind until the first messages stamped after the leap are delivered
  — a window of 40 B headers, then 21 B ones again;
* mid-run, member 3 observes 2**32 - 500: the same window, then about
  500 ticks of 21 B headers, then 40 B headers for good.

The histories must pass the oracle battery, no datagram may fail to
decode, every retransmission on the wire must be its original, byte for
byte, but for the retransmission flag (bit 1), and every BATCH part a
receiver rebuilds must be the original its sender encoded, in the form
it had.  The twin below runs the same group with one member whose pid
is past 2**16: its datagrams take the 40 B header whatever their stamps.
The last test pins the short form on a connection's processor group,
whose id the responder allocates below 2**16.
"""

from unittest import mock

from repro.analysis import make_cluster
from repro.core import FTMPConfig, FTMPStack, MessageType, datapath, wire
from repro.giop import GroupRef
from repro.giop.messages import ReplyMessage, RequestMessage, decode_giop
from repro.orb import ORB, ClientIdentity, FTMPAdapter
from repro.replication.oracles import check_quiescence, run_history_oracles
from repro.simnet import Network, lan

GROUP = 1
PIDS = (1, 2, 3, 4)
LEAP_AT, CROSS_AT, SENDS_UNTIL = 0.15, 0.40, 1.20
RETRANSMISSION, SHORT = 0x02, 0x08


def run(pids, leaps):
    """Multicast from every member of ``pids`` for SENDS_UNTIL with the
    clock ``leaps`` scheduled; check the histories, and return every
    datagram on the wire with its time."""
    cfg = FTMPConfig(heartbeat_interval=0.002, suspect_timeout=0.100, batch_window=0.001)
    c = make_cluster(pids, topology=lan(loss=0.03), config=cfg, seed=37)

    # every message the send path encodes — a BATCH part as it would be
    # alone, what a retransmission of it sends — and every datagram on
    # the wire
    originals, wire_log = set(), []
    encode = wire.encode

    def recording(msg):
        raw = encode(msg)
        if msg.header.message_type == MessageType.BATCH:
            originals.update(encode(part) for part in msg.parts)
        else:
            originals.add(raw)
        return raw

    multicast = c.net.multicast

    def tap(src, address, data):
        wire_log.append((c.net.scheduler.now, bytes(data)))
        multicast(src, address, data)

    c.net.multicast = tap
    for i in range(int(SENDS_UNTIL / 0.002)):
        for k, p in enumerate(pids, 1):
            c.net.scheduler.at(0.002 * i + 0.0004 * k, c.stacks[p].multicast, GROUP,
                               b"%d:%d" % (p, i))
    for at, p, to in leaps:
        c.net.scheduler.at(at, lambda p=p, to=to: c.stacks[p].clock.observe(to(c.stacks[p])))
    with mock.patch.object(datapath, "encode", recording):
        c.run_for(SENDS_UNTIL + 1.0)

    violations = run_history_oracles(c.listeners, GROUP, final_members=pids)
    violations += check_quiescence(c.stacks, GROUP, pids)
    assert violations == [], "\n".join(f"[{v.oracle}] {v.detail}" for v in violations)
    for p in pids:
        assert c.stacks[p].snapshot()["stack.decode_errors"] == 0, p
        assert len(c.listeners[p].deliveries) == len(pids) * int(SENDS_UNTIL / 0.002)

    retransmitted = {0: 0, SHORT: 0}
    for now, raw in wire_log:
        h = wire.peek_header(raw)
        if h.message_type == MessageType.BATCH:
            for part in wire.decode(raw).parts:
                assert wire.encode(part) in originals
        elif raw[6] & RETRANSMISSION:
            retransmitted[raw[6] & SHORT] += 1
            assert raw[:6] + bytes((raw[6] & ~RETRANSMISSION,)) + raw[7:] in originals
        elif h.message_type == MessageType.REGULAR:
            assert raw in originals
    # both forms are retransmitted
    assert all(retransmitted.values()), retransmitted
    return wire_log


def test_both_header_forms_interleave_and_interoperate():
    wire_log = run(PIDS, [(LEAP_AT, 2, lambda s: s.clock.time + 1000),
                          (CROSS_AT, 3, lambda s: 2**32 - 500)])
    forms = {"short": 0, "lagging": 0, "past_u32": 0}
    short_after_leap = short_after_cross = 0
    for now, raw in wire_log:
        h = wire.peek_header(raw)
        if raw[6] & SHORT:
            forms["short"] += 1
            short_after_leap += LEAP_AT < now < CROSS_AT
            short_after_cross += now > CROSS_AT
        elif h.timestamp >= 2**32:
            forms["past_u32"] += 1
        else:
            assert not 0 <= h.timestamp - h.ack_timestamp < 256, "fits 21 B but sent in 40"
            forms["lagging"] += 1
    # both forms interleave
    assert all(forms.values()), forms
    assert short_after_leap and short_after_cross


def test_a_member_past_u16_sends_the_full_header_to_short_header_peers():
    # the 21 B twin: the forms interleave by source, not by clock
    wide = 0x10000 + 4
    wire_log = run(PIDS[:3] + (wide,), [(LEAP_AT, 2, lambda s: s.clock.time + 1000)])
    by_source = {}
    for _now, raw in wire_log:
        h = wire.peek_header(raw)
        fits = h.timestamp < 2**32 and 0 <= h.timestamp - h.ack_timestamp < 256
        by_source.setdefault(h.source, set()).add((bool(raw[6] & SHORT), fits))
    assert by_source[wide] == {(False, True), (False, False)}
    for p in PIDS[:3]:
        assert by_source[p] == {(True, True), (False, False)}, p


REF = GroupRef("Echo", domain=7, object_group=100, object_key=b"echo")


class Echo:
    def echo(self, text):
        return text


def test_connection_requests_and_replies_take_the_short_header():
    # two server replicas and one client at lan() timing: every Request
    # and every Reply on the established connection is a 21 B datagram
    net = Network(lan(), seed=5)
    adapters = {}
    for pid in (1, 2, 8):
        orb = ORB(pid, net.scheduler)
        adapters[pid] = FTMPAdapter(orb, FTMPStack(net.endpoint(pid), FTMPConfig()))
        if pid != 8:
            orb.poa.activate(b"echo", Echo())
            adapters[pid].export(7, 100, (1, 2))
    adapters[8].set_client(ClientIdentity(3, 200, (8,)))
    corb = adapters[8].orb
    proxy = corb.proxy(REF)
    assert corb.call(proxy, "echo", "up") == "up"

    wire_log = []
    multicast = net.multicast

    def tap(src, address, data):
        wire_log.append(bytes(data))
        multicast(src, address, data)

    net.multicast = tap
    for i in range(20):
        assert corb.call(proxy, "echo", "x" * i) == "x" * i
    group = adapters[8].stack.connection_binding(
        adapters[8].connection_id_for(REF)).group_id
    assert group < 2**16
    kinds = {RequestMessage: 0, ReplyMessage: 0}
    for raw in wire_log:
        msg = wire.decode(raw)
        parts = msg.parts if msg.header.message_type == MessageType.BATCH else [msg]
        for part in parts:
            if part.header.message_type == MessageType.REGULAR and part.header.group == group:
                kinds[decode_giop(part.payload).__class__] += 1
                assert raw[6] & SHORT, part.header
    # one Request from the client, one Reply from each server replica
    assert kinds == {RequestMessage: 20, ReplyMessage: 40}
