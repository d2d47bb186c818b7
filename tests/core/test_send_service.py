"""The stamped-send service is Figure 3, and ``GroupContext`` is what
``ProcessorGroup`` provides.

``ProcessorGroup.send`` is the one way a stamped message leaves a group.
What a message's type entails — the next reliable sequence number and
retention for NACK answering, the ordering discipline's ``on_own_send``
notification, the §5 heartbeat idle clock — is decided there from
``RELIABLE_TYPES`` / ``TOTALLY_ORDERED_TYPES`` alone; the table below
holds every message class to it on a real group.  The surface test
keeps the protocol the machines are typed against honest and small.
"""

import typing

import pytest

from repro.core import FTMPConfig, FTMPStack, RecordingListener
from repro.core.constants import RELIABLE_TYPES, TOTALLY_ORDERED_TYPES, MessageType
from repro.core.datapath import GroupContext
from repro.core.llft import ORDER_INFO_CID, encode_order_info
from repro.core.messages import (
    AckSummaryMessage,
    AddProcessorMessage,
    BatchMessage,
    ConnectionId,
    ConnectMessage,
    ConnectRequestMessage,
    FTMPMessage,
    HeartbeatMessage,
    MembershipMessage,
    MultiGroupCommitMessage,
    MultiGroupProposeMessage,
    RegularMessage,
    RemoveProcessorMessage,
    RetransmitRequestMessage,
    SuspectMessage,
)
from repro.core.wire import decode, encode
from repro.simnet import Network, lan

GROUP, ADDRESS, ME = 1, 5001, 1

#: message class -> a body (its fields after the header, in order)
BODIES = {
    RegularMessage: (ConnectionId(0, 9, 7, 1), 4, b"payload"),
    HeartbeatMessage: (),
    RetransmitRequestMessage: (2, 3, 5),
    AddProcessorMessage: (7, (1, 2), {1: 4, 2: 6}, 3),
    RemoveProcessorMessage: (2,),
    SuspectMessage: (7, (2,)),
    MembershipMessage: (7, (1, 2), {1: 4, 2: 6}, (1,)),
    ConnectMessage: (ConnectionId(0, 9, 7, 1), GROUP, 5002, 7, (1, 2)),
    AckSummaryMessage: (AckSummaryMessage.KIND_UP, 11, 9, ((2, 6, 11),)),
    MultiGroupProposeMessage: (1, 0, (1, 2), b"payload"),
    MultiGroupCommitMessage: (ME, 1, 12),
}


def lone_group(config=None):
    """The one member of a group, with the discipline's notifications
    recorded: what a send does, it has done when the call returns."""
    net = Network(lan(), seed=1)
    listener = RecordingListener()
    stack = FTMPStack(net.endpoint(ME), config or FTMPConfig(), listener)
    group = stack.create_group(GROUP, ADDRESS, (ME,))
    notified = []
    group.romp.on_own_send = notified.append
    return group, notified, listener, net


def test_the_table_has_a_row_for_every_stamped_class():
    # BATCH (SendPath.flush) and ConnectRequest (the stack, §7: no group
    # yet) are the two headers no clock or sequence counter stamps
    unstamped = {BatchMessage, ConnectRequestMessage}
    assert set(BODIES) == set(typing.get_args(FTMPMessage)) - unstamped
    assert {cls.TYPE for cls in BODIES} == set(MessageType) - {c.TYPE for c in unstamped}


@pytest.mark.parametrize("cls", BODIES, ids=lambda cls: cls.TYPE.name)
def test_figure_3_decides_what_a_send_entails(cls):
    g, notified, _listener, net = lone_group()
    mtype = cls.TYPE
    reliable, ordered = mtype in RELIABLE_TYPES, mtype in TOTALLY_ORDERED_TYPES
    g.send(RegularMessage, *BODIES[RegularMessage])  # so that sequence numbers are not 0
    del notified[:]
    net.run_for(0.003)  # the idle clock has something to move from
    seq, clock, sent_at = g.last_sent_seq, g.clock.time, g.send_path._last_send_time
    retained = len(g.buffer)
    sent = []
    ep = g._stack.endpoint
    ep.multicast = lambda address, raw, _send=ep.multicast: (sent.append(raw),
                                                              _send(address, raw))

    msg = g.send(cls, *BODIES[cls])

    # the stamped message, and what went on the wire is its encoding
    h = msg.header
    assert msg == cls(h, *BODIES[cls])
    assert decode(sent[-1]) == msg
    assert (h.message_type, h.source, h.group) == (mtype, ME, GROUP)
    # every header: a fresh clock tick, the piggybacked ack
    assert h.timestamp == g.clock.time > clock
    assert h.ack_timestamp == g.romp.ack_timestamp
    # RMP's column: the next sequence number and retention, or neither
    assert h.sequence_number == g.last_sent_seq == seq + reliable
    assert len(g.buffer) == retained + reliable
    if reliable:
        # the stamped message itself, which encodes to what was sent
        kept = g.buffer.get(ME, h.sequence_number)
        assert kept is msg and encode(kept) == sent[-1]
        assert kept.header.message_size == len(encode(msg))
    # ROMP's column: the discipline hears of it
    assert notified == ([msg] if ordered else [])
    # §5: only the ordered stream and heartbeats themselves defer a heartbeat
    moved = reliable or mtype == MessageType.HEARTBEAT
    assert g.send_path._last_send_time == (g.now() if moved else sent_at)


def test_an_llft_announcement_is_notified_and_declined_by_the_discipline():
    # the service notifies by the table — an announcement is a Regular —
    # and the leader discipline states the exception: it must not deliver
    # its own announcement to itself, nor park it for a later one
    g, _notified, listener, _net = lone_group(FTMPConfig(ordering="leader"))
    del g.romp.on_own_send  # the real hook again
    assert g.romp.leader() == ME
    g.send(RegularMessage, ORDER_INFO_CID, 0, encode_order_info([(2, 1, 50)]))
    stats = g.romp.llft_stats
    assert (stats.fast_path_deliveries, stats.parked, g.romp.queued()) == (0, 0, 0)
    assert listener.deliveries == []
    g.multicast(b"mine")  # whereas the leader's own message is delivered at the send
    assert stats.fast_path_deliveries == 1
    assert [d.payload for d in listener.deliveries] == [b"mine"]


def test_only_a_credited_send_occupies_the_flow_window():
    g, _notified, _listener, _net = lone_group(FTMPConfig(flow_control_window=4))
    g.send(RegularMessage, *BODIES[RegularMessage])  # control traffic: no credit
    assert g.flow.inflight == 0
    g.multicast(b"application")
    assert g.flow.inflight == 1


def test_processor_group_provides_the_whole_group_context():
    g, *_ = lone_group()
    declared = {name for name in vars(GroupContext) if not name.startswith("_")}
    declared |= set(GroupContext.__annotations__)
    assert not {name for name in declared if not hasattr(g, name)}
    methods = [name for name, member in vars(GroupContext).items()
               if not name.startswith("_") and (callable(member) or isinstance(member, property))]
    # the protocol the four machines and their test doubles are held to:
    # an addition shows up here
    assert len(methods) <= 23, sorted(methods)
