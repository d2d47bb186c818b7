"""FTMPConfig and listener-utility tests."""

import dataclasses
import itertools

import pytest

from repro.core import (
    ConnectionId,
    Delivery,
    FTMPConfig,
    FTMPStack,
    Listener,
    RecordingListener,
    ViewChange,
)
from repro.core.config import CHOICES, REJECTED_CELLS
from repro.simnet import Network, lan


def test_config_is_frozen():
    cfg = FTMPConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.heartbeat_interval = 1.0


@pytest.mark.parametrize("knobs, reason", [
    (dict(delivery_mode="Safe"), "must be 'agreed' or 'safe'"),
    (dict(delivery_mode="uniform"), "must be 'agreed' or 'safe'"),
    # checked at construction, not first when a stack builds its clock
    (dict(clock_mode="lamprot"), "must be 'lamport' or 'synchronized'"),
    (dict(ordering="lamport"), "must be 'symmetric', 'leader' or 'skeen'"),
    (dict(dissemination="overlay"), "must be 'flat' or 'tree'"),
])
def test_config_rejects_what_it_would_otherwise_ignore(knobs, reason):
    with pytest.raises(ValueError, match=reason):
        FTMPConfig(**knobs)


@pytest.mark.parametrize("value", [0.0, -0.010])
@pytest.mark.parametrize("knobs, period", [
    (dict(), "heartbeat_interval"),
    (dict(), "nack_retry_interval"),
    (dict(dissemination="tree"), "overlay_summary_interval"),
])
def test_config_rejects_a_self_rearming_period_that_would_spin(knobs, period, value):
    # at zero the tick re-arms at the same instant: run_until() never
    # returns and simulated time stays put (46,617 heartbeats at t = 0.0)
    with pytest.raises(ValueError, match=f"{period} must be positive"):
        FTMPConfig(**knobs, **{period: value})


@pytest.mark.parametrize("knob, value, reason", [
    # a negative delay was a SimTimeError eight frames below the first gap
    # on simnet and a silent clamp on the asyncio runtime
    ("nack_delay", -0.001, "must not be negative"),
    ("batch_window", -0.001, "must not be negative"),
    ("nack_dedupe_window", -0.02, "must not be negative"),
    ("flow_control_window", -1, "must not be negative"),
    ("flow_queue_limit", -1, "must not be negative"),
    ("llft_leader_pid", -1, "must not be negative"),
    ("suspect_timeout", 0, "must be positive"),
    ("suspect_timeout", -0.06, "must be positive"),
    ("batch_max_bytes", 0, "must be positive"),
    # a BATCH record's u16 payload length could not state a bigger part
    ("batch_max_bytes", 0x10000, "must be at most 65535"),
    ("overlay_fanout", 0, "must be positive"),
    ("nack_backoff_factor", 0.5, "must be at least 1.0"),
])
def test_config_rejects_an_out_of_range_value(knob, value, reason):
    with pytest.raises(ValueError, match=f"{knob} {reason}"):
        FTMPConfig(**{knob: value})


AXES = ("ordering", "dissemination", "delivery_mode")
CELLS = list(itertools.product(*(CHOICES[axis] for axis in AXES)))


def _rejections(knobs):
    return [reason for cell, reason in REJECTED_CELLS.items()
            if all(knobs[knob] == value for knob, value in cell)]


@pytest.mark.parametrize("cell", CELLS, ids="-".join)
def test_config_legality_is_the_rejected_cells_table(cell):
    knobs = dict(zip(AXES, cell))
    reasons = _rejections(knobs)
    if reasons:
        with pytest.raises(ValueError) as info:
            FTMPConfig(**knobs)
        assert any(str(info.value).endswith(r) for r in reasons)
    else:
        # a legal cell names a class on both seams of ProcessorGroup
        stack = FTMPStack(Network(lan()).endpoint(1), FTMPConfig(**knobs))
        stack.create_group(1, 5001, (1,))


def test_config_field_count_is_pinned():
    # a seam is not a knob: simplifying PRs add no field (ISSUE 17)
    assert len(dataclasses.fields(FTMPConfig)) == 22
    assert (len(CELLS), sum(not _rejections(dict(zip(AXES, c))) for c in CELLS)) == (12, 6)


def test_default_listener_is_noop():
    listener = Listener()
    d = Delivery(group=1, source=1, sequence_number=1, timestamp=1,
                 connection_id=ConnectionId.none(), request_num=0,
                 payload=b"", delivered_at=0.0)
    listener.on_deliver(d)  # must not raise
    listener.on_view_change(None)
    listener.on_fault_report(None)
    listener.on_connection(None)


def make_delivery(group, payload, ts=1, src=1):
    return Delivery(group=group, source=src, sequence_number=1, timestamp=ts,
                    connection_id=ConnectionId.none(), request_num=0,
                    payload=payload, delivered_at=0.0)


def test_recording_listener_filters_by_group():
    lst = RecordingListener()
    lst.on_deliver(make_delivery(1, b"a"))
    lst.on_deliver(make_delivery(2, b"b"))
    assert lst.payloads(1) == [b"a"]
    assert lst.payloads(2) == [b"b"]
    assert lst.payloads() == [b"a", b"b"]
    assert lst.delivery_order(1) == [(1, 1)]


def test_recording_listener_current_membership():
    lst = RecordingListener()
    assert lst.current_membership(1) is None
    lst.on_view_change(ViewChange(group=1, membership=(1, 2),
                                  view_timestamp=5, added=(), removed=(),
                                  reason="bootstrap", installed_at=0.0))
    lst.on_view_change(ViewChange(group=2, membership=(9,),
                                  view_timestamp=6, added=(), removed=(),
                                  reason="bootstrap", installed_at=0.0))
    assert lst.current_membership(1) == (1, 2)
    assert lst.current_membership(2) == (9,)
    assert lst.current_membership(3) is None
