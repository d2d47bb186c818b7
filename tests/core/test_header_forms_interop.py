"""Both header forms on one wire: a group whose clock crosses 2**32.

``wire.encode`` gives each datagram the 27 B header when its own fields
fit it (ts < 2**32, ack 0-255 ticks behind ts, under 65,536 B) and the
40 B header otherwise, with no state passed between datagrams.  Here
four members multicast through a batching window at 3 % loss, and two
clock jumps make the forms interleave:

* early on, member 2's clock leaps 1,000 ticks: every member's clock
  follows at its next datagram from 2, while its acknowledgements stay
  behind until the first messages stamped after the leap are delivered
  — a window of 40 B headers, then 27 B ones again;
* mid-run, member 3 observes 2**32 - 500: the same window, then about
  500 ticks of 27 B headers, then 40 B headers for good.

The histories must pass the oracle battery, no datagram may fail to
decode, every retransmission on the wire must be its original, byte for
byte, but for the retransmission flag (bit 1), and every BATCH part a
receiver rebuilds must be the original its sender encoded, in the form
it had.
"""

from unittest import mock

from repro.analysis import make_cluster
from repro.core import FTMPConfig, MessageType, datapath, wire
from repro.replication.oracles import check_quiescence, run_history_oracles
from repro.simnet import lan

GROUP = 1
PIDS = (1, 2, 3, 4)
LEAP_AT, CROSS_AT, SENDS_UNTIL = 0.15, 0.40, 1.20
RETRANSMISSION, SHORT = 0x02, 0x08


def test_both_header_forms_interleave_and_interoperate():
    cfg = FTMPConfig(heartbeat_interval=0.002, suspect_timeout=0.100, batch_window=0.001)
    c = make_cluster(PIDS, topology=lan(loss=0.03), config=cfg, seed=37)

    # every message the send path encodes, and every datagram on the wire
    originals, wire_log = set(), []
    encode = wire.encode

    def recording(msg):
        raw = encode(msg)
        if msg.header.message_type != MessageType.BATCH:
            originals.add(raw)
        return raw

    multicast = c.net.multicast

    def tap(src, address, data):
        wire_log.append((c.net.scheduler.now, bytes(data)))
        multicast(src, address, data)

    c.net.multicast = tap
    for i in range(int(SENDS_UNTIL / 0.002)):
        for p in PIDS:
            c.net.scheduler.at(0.002 * i + 0.0004 * p, c.stacks[p].multicast, GROUP,
                               b"%d:%d" % (p, i))
    c.net.scheduler.at(LEAP_AT, lambda: c.stacks[2].clock.observe(c.stacks[2].clock.time + 1000))
    c.net.scheduler.at(CROSS_AT, c.stacks[3].clock.observe, 2**32 - 500)
    with mock.patch.object(datapath, "encode", recording):
        c.run_for(SENDS_UNTIL + 1.0)

    violations = run_history_oracles(c.listeners, GROUP, final_members=PIDS)
    violations += check_quiescence(c.stacks, GROUP, PIDS)
    assert violations == [], "\n".join(f"[{v.oracle}] {v.detail}" for v in violations)
    for p in PIDS:
        assert c.stacks[p].snapshot()["stack.decode_errors"] == 0, p
        assert len(c.listeners[p].deliveries) == len(PIDS) * int(SENDS_UNTIL / 0.002)

    forms = {"short": 0, "lagging": 0, "past_u32": 0}
    short_after_leap = short_after_cross = 0
    retransmitted = {0: 0, SHORT: 0}
    for now, raw in wire_log:
        h = wire.peek_header(raw)
        if raw[6] & SHORT:
            forms["short"] += 1
            short_after_leap += LEAP_AT < now < CROSS_AT
            short_after_cross += now > CROSS_AT
        elif h.timestamp >= 2**32:
            forms["past_u32"] += 1
        else:
            assert not 0 <= h.timestamp - h.ack_timestamp < 256, "fits 27 B but sent in 40"
            forms["lagging"] += 1
        if h.message_type == MessageType.BATCH:
            for part in wire.decode(raw).parts:
                assert part in originals
        elif raw[6] & RETRANSMISSION:
            retransmitted[raw[6] & SHORT] += 1
            assert raw[:6] + bytes((raw[6] & ~RETRANSMISSION,)) + raw[7:] in originals
        elif h.message_type == MessageType.REGULAR:
            assert raw in originals
    # both forms interleave, and both are retransmitted
    assert all(forms.values()), forms
    assert short_after_leap and short_after_cross
    assert all(retransmitted.values()), retransmitted
