"""A NACK is answered with the message its source sent, even where LLFT
gave the message another position in the total order.

The leader assigns every other member's message a fresh timestamp and
each member delivers it there (``LeaderOrdering._announce_batch`` and
the follower's adoption).  That position is delivery state, not wire
state: a retransmission repeats the original datagram with only the
retransmission flag set (§3.2), whichever member answers.
"""

from repro.analysis.harness import make_cluster
from repro.core import FTMPConfig
from repro.core.messages import RegularMessage, RetransmitRequestMessage
from repro.core.wire import decode

PAYLOAD = b"re-positioned"
_RETRANSMISSION = 0x02  # wire flags bit 1
_FLAGS = 6  # offset of the flags byte


def test_nack_for_a_repositioned_message_is_answered_as_first_sent():
    # every holder answers at once (no backoff, no suppression) and
    # keeps what it holds, so each member's answer shows up
    cfg = FTMPConfig(heartbeat_interval=0.010, suspect_timeout=0.150,
                     ordering="leader", llft_leader_pid=1,
                     retransmit_suppression=False, buffer_gc_enabled=False)
    pids = (1, 2, 3, 4)
    cluster = make_cluster(pids, config=cfg)
    sent = {pid: [] for pid in pids}
    for pid, stack in cluster.stacks.items():
        ep = stack.endpoint

        def record(address, raw, _send=ep.multicast, _log=sent[pid]):
            _log.append(bytes(raw))
            _send(address, raw)

        ep.multicast = record
    try:
        cluster.multicast(2, 1, PAYLOAD)
        cluster.run_for(0.1)
        (original,) = [raw for raw in sent[2] if _is_payload(decode(raw))]
        h = decode(original).header
        # the leader gave it another timestamp, and every member
        # delivered it there
        for pid in pids:
            (ts,) = [d.timestamp for d in cluster.listeners[pid].deliveries
                     if d.payload == PAYLOAD]
            assert ts != h.timestamp
        cluster.stacks[4].group(1).send(RetransmitRequestMessage, 2,
                                        h.sequence_number, h.sequence_number)
        cluster.run_for(0.05)
        for pid in pids:
            answers = [raw for raw in sent[pid]
                       if raw[_FLAGS] & _RETRANSMISSION and _is_payload(decode(raw))]
            # the original datagram with flags bit 1 set, and nothing else
            flagged = (original[:_FLAGS] + bytes([original[_FLAGS] | _RETRANSMISSION])
                       + original[_FLAGS + 1:])
            assert answers == [flagged], pid
    finally:
        cluster.stop()


def _is_payload(msg) -> bool:
    return msg.__class__ is RegularMessage and msg.payload == PAYLOAD
