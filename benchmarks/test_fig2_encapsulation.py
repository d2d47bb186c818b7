"""F2 — Figure 2: encapsulation of a GIOP message.

"[IP Multicast Header][FTMP Header][GIOP Header][Data]" — every one of
the eight GIOP message types is encapsulated in an FTMP Regular message
and recovered byte-identically after a trip through the simulated
network.
"""

from repro.analysis import Table
from repro.core import (
    SHORT_HEADER_SIZE,
    ConnectionId,
    FTMPHeader,
    MessageType,
    RegularMessage,
    decode,
    encode,
)
from repro.giop import (
    CancelRequestMessage,
    CloseConnectionMessage,
    FragmentMessage,
    GIOPHeader,
    GIOPMessageType,
    LocateReplyMessage,
    LocateRequestMessage,
    MessageErrorMessage,
    ReplyMessage,
    RequestMessage,
    decode_giop,
    encode_giop,
    encode_values,
)

from _report import emit

CID = ConnectionId(3, 200, 7, 100)


def all_giop_messages():
    h = lambda t: GIOPHeader(t)  # noqa: E731
    return [
        RequestMessage(h(GIOPMessageType.REQUEST), request_id=1, object_key=b"k",
                       operation="op", body=encode_values([1, "x"])),
        ReplyMessage(h(GIOPMessageType.REPLY), request_id=1,
                     body=encode_values([True])),
        CancelRequestMessage(h(GIOPMessageType.CANCEL_REQUEST), request_id=1),
        LocateRequestMessage(h(GIOPMessageType.LOCATE_REQUEST), request_id=1,
                             object_key=b"k"),
        LocateReplyMessage(h(GIOPMessageType.LOCATE_REPLY), request_id=1),
        CloseConnectionMessage(h(GIOPMessageType.CLOSE_CONNECTION)),
        MessageErrorMessage(h(GIOPMessageType.MESSAGE_ERROR)),
        FragmentMessage(h(GIOPMessageType.FRAGMENT), data=b"tail"),
    ]


def encapsulate_all(repeats: int = 200):
    rows = []
    for _ in range(repeats):
        rows.clear()
        for giop_msg in all_giop_messages():
            giop_bytes = encode_giop(giop_msg)
            ftmp_msg = RegularMessage(
                header=FTMPHeader(MessageType.REGULAR, source=1, group=9,
                                  sequence_number=1, timestamp=5, ack_timestamp=0),
                connection_id=CID,
                request_num=1,
                payload=giop_bytes,
            )
            wire = encode(ftmp_msg)  # the "IP datagram" body
            out = decode(wire)
            inner = decode_giop(out.payload)
            rows.append((type(giop_msg).__name__, len(giop_bytes), len(wire),
                         out.payload == giop_bytes,
                         type(inner) is type(giop_msg)))
    return rows


def test_fig2_encapsulation():
    rows = encapsulate_all()

    table = Table(
        ["GIOP message", "GIOP bytes", "FTMP datagram bytes",
         "payload intact", "GIOP type recovered"],
        title="F2 — IP ⊃ FTMP header ⊃ GIOP header ⊃ data (all 8 GIOP types)",
    )
    for row in rows:
        table.add_row(*row)
    emit("F2_encapsulation", table.render())

    assert len(rows) == 8
    assert all(intact and recovered for _n, _g, _f, intact, recovered in rows)
    # FTMP framing adds exactly the header plus the Regular body prefix
    # (connection id 16B + request num 8B + payload length 4B); the
    # header is the 27-byte short form, the ack 5 ticks behind ts
    for _name, giop_len, ftmp_len, _i, _r in rows:
        assert ftmp_len == SHORT_HEADER_SIZE + 16 + 8 + 4 + giop_len
