"""Golden equivalence gate for the receive path (decode → RMP → ROMP →
delivery): twelve seeded scenarios must reproduce, bit for bit, the
delivery orders, layer counters and wire totals recorded on the reference
commit.  ``receive_path_golden.py`` defines the scenarios and records
``tests/data/golden/receive_path.json``; re-record only with a change
that is *meant* to alter protocol behaviour, and say so in CHANGES.md.
"""

import json

import pytest

from receive_path_golden import CASES, GOLDEN, observe


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("mode,scenario", CASES)
def test_receive_path_matches_golden(golden, mode, scenario):
    want = golden[f"{mode}/{scenario}"]
    got = observe(mode, scenario)
    assert got["order_hash"] == want["order_hash"], "delivery order moved"
    moved = {k: (want["counters"].get(k), v) for k, v in got["counters"].items()
             if want["counters"].get(k) != v}
    assert not moved, f"layer counters moved (golden, now): {moved}"
    assert got == want  # deliveries, counter key set, datagram and byte totals
