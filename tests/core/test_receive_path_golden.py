"""Golden equivalence gate for the receive path (decode → RMP → ROMP →
delivery): twenty seeded scenarios must reproduce, bit for bit, the
delivery orders, layer counters and wire totals recorded on the reference
commit.  ``receive_path_golden.py`` defines the scenarios and records
``tests/data/golden/receive_path.json``; re-record only with a change
that is *meant* to alter protocol behaviour, and say so in CHANGES.md.
The same runs hold that no member ever detects a gap in its own stream.
"""

import json
from unittest import mock

import pytest

from receive_path_golden import BATCHED, CASES, GOLDEN, MODES, observe
from repro.core.rmp import RMP


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("mode,scenario", CASES)
def test_receive_path_matches_golden(golden, mode, scenario):
    want = golden[f"{mode}/{scenario}"]
    own_gaps = []
    note_gap = RMP._note_gap

    def noting(rmp, src, st):
        if src == rmp._g.pid and st.nack_timer is None:
            own_gaps.append(rmp._g.now())
        note_gap(rmp, src, st)

    with mock.patch.object(RMP, "_note_gap", noting):
        got = observe(mode, scenario)
    # the overlay's self-summary used to loop back ahead of our own
    # messages still in the batch window or on a flat send's self-copy:
    # a gap in our own stream, filled up to a batch window later
    assert own_gaps == [], "a member detected a gap in its own stream"
    assert got["order_hash"] == want["order_hash"], "delivery order moved"
    moved = {k: (want["counters"].get(k), v) for k, v in got["counters"].items()
             if want["counters"].get(k) != v}
    assert not moved, f"layer counters moved (golden, now): {moved}"
    assert got == want  # deliveries, counter key set, datagram and byte totals


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("scenario", BATCHED)
def test_batched_scenarios_pin_batch_reception(golden, mode, scenario):
    """What the file pins about BATCH reception is only as good as the
    share of messages that arrive that way: at least 70 % of what RMP
    handed up came out of BATCH datagrams, of four or more parts on
    average, and (``saturate``) loss left gaps between them."""
    counters = golden[f"{mode}/{scenario}"]["counters"]

    def total(name):
        return sum(v for k, v in counters.items() if k.endswith("." + name))

    assert total("batch.messages_unbatched") >= 0.7 * total("rmp.delivered")
    assert total("batch.messages_unbatched") >= 4 * total("batch.batches_received")
    assert total("flow.sends_released") > 0
    if scenario == "saturate":
        assert total("rmp.nacks_sent") > 0
