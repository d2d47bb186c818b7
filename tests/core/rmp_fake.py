"""The :class:`~repro.core.datapath.GroupContext` double the RMP unit
and property tests share, with the message builders they feed it."""

import random
from typing import List, Tuple

from repro.core import FTMPConfig, MessageType, RetransmissionBuffer, encode
from repro.core.messages import (
    ConnectionId,
    FTMPHeader,
    HeartbeatMessage,
    RegularMessage,
    RetransmitRequestMessage,
)
from repro.simnet import Scheduler


class FakeContext:
    """Just enough GroupContext for an isolated RMP: a real scheduler and
    retransmission buffer, itself as the ordering layer (``romp``), and
    a record of what RMP handed up and asked to have sent."""

    def __init__(self, pid: int = 2, config: FTMPConfig = None):
        self.pid = pid
        self.config = config if config is not None else FTMPConfig()
        self.scheduler = Scheduler()
        self.buffer = RetransmissionBuffer()
        self.rng = random.Random(7)
        self.romp = self
        self.delivered: List[RegularMessage] = []
        self.heartbeats: List[HeartbeatMessage] = []
        self.nacks: List[Tuple[int, int, int]] = []
        #: the retained messages RMP asked to have retransmitted
        self.retransmitted: List[RegularMessage] = []
        #: the dedupe window is what reads the clock on the answer path:
        #: with it off (the default) answering leaves this at 0
        self.clock_reads = 0

    def now(self):
        self.clock_reads += 1
        return self.scheduler.now

    def trace(self, *a, **k):
        pass

    def schedule(self, delay, fn, *args):
        return self.scheduler.schedule(delay, fn, *args)

    def receive(self, msg):
        self.delivered.append(msg)

    def receive_heartbeat(self, msg):
        self.heartbeats.append(msg)

    def send(self, cls, *body, address=None):
        assert cls is RetransmitRequestMessage and address is None
        self.nacks.append(body)

    def retransmit(self, msg, address=None):
        self.retransmitted.append(msg)


def feed(rmp, msg):
    """One received message, as the receive path hands it to RMP: its
    ``message_size`` is its wire length, which retention counts."""
    encode(msg)
    rmp.on_message(msg)


def regular(src: int, seq: int, ts: int = 0, retransmission: bool = False):
    h = FTMPHeader(MessageType.REGULAR, source=src, group=1,
                   sequence_number=seq, timestamp=ts or seq, ack_timestamp=0)
    h.retransmission = retransmission
    return RegularMessage(h, ConnectionId.none(), 0, b"m%d" % seq)


def nack(src: int, wanted: int, start: int, stop: int):
    h = FTMPHeader(MessageType.RETRANSMIT_REQUEST, source=src, group=1,
                   sequence_number=0, timestamp=0, ack_timestamp=0)
    return RetransmitRequestMessage(h, processor_id=wanted,
                                    start_seq=start, stop_seq=stop)
