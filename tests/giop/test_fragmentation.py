"""GIOP fragmentation tests (the Fragment message type in action)."""

import pytest

from repro.giop import (
    GIOPHeader,
    GIOPMessageType,
    RequestMessage,
    decode_giop,
    encode_giop,
    encode_values,
)
from repro.giop.fragmentation import (
    FragmentationError,
    Reassembler,
    fragment_giop,
    more_fragments_flag,
)


def big_request(size: int = 5000, little: bool = True) -> bytes:
    return encode_giop(RequestMessage(
        header=GIOPHeader(GIOPMessageType.REQUEST, little_endian=little),
        request_id=1,
        object_key=b"key",
        operation="bulk",
        body=encode_values([b"x" * size], little),
    ))


def test_small_message_not_fragmented():
    raw = big_request(10)
    assert fragment_giop(raw, 64_000) == [raw]
    assert more_fragments_flag(raw) is False


@pytest.mark.parametrize("little", [True, False])
def test_fragment_and_reassemble(little):
    raw = big_request(5000, little)
    pieces = fragment_giop(raw, mtu=1024)
    assert len(pieces) > 1
    assert all(len(p) <= 1024 for p in pieces)
    # first piece keeps the Request type; continuations are Fragments
    assert pieces[0][7] == GIOPMessageType.REQUEST
    assert all(p[7] == GIOPMessageType.FRAGMENT for p in pieces[1:])
    # more-fragments flag set on all but the last
    assert all(more_fragments_flag(p) for p in pieces[:-1])
    assert not more_fragments_flag(pieces[-1])

    r = Reassembler()
    results = [r.push("src", p) for p in pieces]
    assert results[:-1] == [None] * (len(pieces) - 1)
    full = results[-1]
    assert full == raw
    out = decode_giop(full)
    assert out.operation == "bulk"


def test_exact_boundary():
    raw = big_request(100)
    pieces = fragment_giop(raw, mtu=len(raw))
    assert pieces == [raw]
    pieces = fragment_giop(raw, mtu=len(raw) - 1)
    assert len(pieces) == 2
    r = Reassembler()
    assert r.push("s", pieces[0]) is None
    assert r.push("s", pieces[1]) == raw


def test_per_source_isolation():
    raw_a = big_request(2000)
    raw_b = big_request(3000)
    pa = fragment_giop(raw_a, 512)
    pb = fragment_giop(raw_b, 512)
    r = Reassembler()
    # interleave two sources: each reassembles independently
    out_a = out_b = None
    for a, b in zip(pa, pb):
        out_a = r.push("a", a) or out_a
        out_b = r.push("b", b) or out_b
    for rest in pb[len(pa):]:
        out_b = r.push("b", rest) or out_b
    assert out_a == raw_a
    assert out_b == raw_b
    assert r.pending() == 0


def test_orphan_fragment_rejected():
    raw = big_request(2000)
    pieces = fragment_giop(raw, 512)
    r = Reassembler()
    with pytest.raises(FragmentationError):
        r.push("s", pieces[1])  # continuation without the initial message


def test_interrupted_stream_rejected():
    raw = big_request(2000)
    pieces = fragment_giop(raw, 512)
    r = Reassembler()
    r.push("s", pieces[0])
    small = big_request(10)
    with pytest.raises(FragmentationError):
        r.push("s", small)  # a new message mid-reassembly
    # the interrupted message can never complete: it is dropped with the
    # error, so the source is not rejected from here on
    assert r.pending() == 0
    assert r.push("s", small) == small


def test_abort_clears_partial_state():
    raw = big_request(2000)
    pieces = fragment_giop(raw, 512)
    r = Reassembler()
    r.push("s", pieces[0])
    r.push("t", pieces[0])
    assert r.pending() == 2
    r.abort_where(lambda source: source == "s")
    assert r.pending() == 1
    # a fresh unfragmented message now goes straight through
    small = big_request(10)
    assert r.push("s", small) == small


def test_tiny_mtu_rejected():
    with pytest.raises(FragmentationError):
        fragment_giop(big_request(100), mtu=12)


def test_non_giop_rejected():
    with pytest.raises(FragmentationError):
        fragment_giop(b"nonsense-bytes-here", mtu=8)
    with pytest.raises(FragmentationError):
        Reassembler().push("s", b"nonsense-bytes-here")


def test_end_to_end_over_ftmp_adapter():
    """A 50 KB argument crosses the FTMP connection in ~1 KB fragments."""
    from repro.core import FTMPConfig, FTMPStack
    from repro.giop import GroupRef
    from repro.orb import ORB, ClientIdentity, FTMPAdapter
    from repro.simnet import Network, lan

    class Blob:
        def __init__(self):
            self.received = 0

        def put(self, data):
            self.received = len(data)
            return len(data)

    ref = GroupRef("T", domain=7, object_group=100, object_key=b"blob")
    net = Network(lan(), seed=1)
    hosts = {}
    for pid in (1, 2):
        orb = ORB(pid, net.scheduler)
        stack = FTMPStack(net.endpoint(pid), FTMPConfig())
        adapter = FTMPAdapter(orb, stack, giop_mtu=1024)
        servant = Blob()
        orb.poa.activate(b"blob", servant)
        adapter.export(7, 100, (1, 2))
        hosts[pid] = (orb, servant)
    corb = ORB(8, net.scheduler)
    cstack = FTMPStack(net.endpoint(8), FTMPConfig())
    cadapter = FTMPAdapter(corb, cstack, giop_mtu=1024)
    cadapter.set_client(ClientIdentity(3, 200, (8,)))
    proxy = corb.proxy(ref)

    result = corb.call(proxy, "put", b"z" * 50_000, timeout=10.0)
    assert result == 50_000
    net.run_for(0.5)
    assert hosts[1][1].received == 50_000
    assert hosts[2][1].received == 50_000
