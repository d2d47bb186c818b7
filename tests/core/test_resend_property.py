"""A retransmission is its original with flags bit 1 set, and nothing
else (§3.2).

``SendPath.resend`` re-encodes a copy of the retained message whose
header has the retransmission flag set; the retained message itself
stays as it is.  Every reliable type, drawn with the codec's property
strategies, in both byte orders and both header forms.
"""

import dataclasses
from types import SimpleNamespace

import pytest
from hypothesis import given, settings

from repro.core import RELIABLE_TYPES, decode, encode
from repro.core.datapath import SendPath
from test_wire_property import MESSAGES

RELIABLE = MESSAGES.filter(lambda m: m.header.message_type in RELIABLE_TYPES)

ADDRESS = 5001
_RETRANSMISSION, _SHORT = 0x02, 0x08  # wire flags bits 1 and 3


def resent(msg):
    """The one datagram ``SendPath.resend(msg)`` transmits, with its
    destination."""
    wire = []
    ctx = SimpleNamespace(dissemination=SimpleNamespace(replaces_heartbeats=False),
                          romp=SimpleNamespace(covers_connections=False),
                          address=ADDRESS, trace=lambda *a, **k: None)
    SendPath(ctx, lambda to, raw: wire.append((to, raw))).resend(msg)
    (datagram,) = wire
    return datagram


@pytest.mark.parametrize("little", [True, False], ids=["little-endian", "big-endian"])
@pytest.mark.parametrize("short", [True, False], ids=["short", "full"])
@settings(max_examples=100, deadline=None)
@given(msg=RELIABLE)
def test_a_retransmission_is_the_original_with_flag_bit_1(little, short, msg):
    h = msg.header
    h.little_endian, h.retransmission = little, False
    if short:
        h.source %= 2**16
        h.group %= 2**16
        h.timestamp %= 2**32
        h.ack_timestamp = max(h.timestamp - h.ack_timestamp % 256, 0)
    else:
        h.timestamp |= 2**32
    original = encode(msg)
    assert bool(original[6] & _SHORT) is short
    kept = dataclasses.replace(h)

    to, raw = resent(msg)

    assert to == ADDRESS
    assert raw == original[:6] + bytes([original[6] | _RETRANSMISSION]) + original[7:]
    assert decode(raw).header.retransmission is True
    assert msg.header == kept and not msg.header.retransmission

