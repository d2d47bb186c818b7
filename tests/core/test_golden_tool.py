"""``tools/golden_added_only.py``: the added-only check and the ``--moved``
listing, on a synthetic pair of golden dicts."""

import copy
import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[2] / "tools" / "golden_added_only.py"
spec = importlib.util.spec_from_file_location("golden_added_only", TOOL)
tool = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tool)

OLD = {
    "active/steady": {
        "deliveries": {"1": 10, "2": 10},
        "order_hash": {"1": "aa", "2": "aa"},
        "counters": {"1.group.1.romp.gc_runs": 4, "2.group.1.romp.gc_runs": 5,
                     "1.group.1.send.cover_heartbeats": 2},
        "datagrams": 40,
        "bytes": 4000,
    },
    "llft/steady": {
        "deliveries": {"1": 10},
        "order_hash": {"1": "bb"},
        "counters": {"1.group.1.llft.parked": 3},
        "datagrams": 30,
        "bytes": 3000,
    },
}


def test_moved_lists_every_moved_value_of_every_kind(capsys):
    new = copy.deepcopy(OLD)
    case = new["active/steady"]
    case["order_hash"]["2"] = "cc"
    case["deliveries"]["2"] = 11
    case["counters"]["2.group.1.romp.gc_runs"] = 6
    del case["counters"]["1.group.1.send.cover_heartbeats"]
    case["counters"]["1.group.1.romp.new"] = 1
    case["bytes"] = 4100
    assert list(tool.moved(OLD, new)) == [
        ("active/steady", "deliveries.2", "10", "11"),
        ("active/steady", "order_hash.2", "aa", "cc"),
        ("active/steady", "bytes", "4000", "4100"),
        ("active/steady", "2.group.1.romp.gc_runs", "5", "6"),
        ("active/steady", "1.group.1.send.cover_heartbeats", "2", "(absent)"),
        ("active/steady", "1.group.1.romp.new", "(absent)", "1"),
    ]
    assert tool.list_moved(OLD, new) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "active/steady deliveries.2: 10 → 11"
    assert out[-1] == "moved: 6 keys in 1 of 2 cases"


def test_nothing_moved_lists_nothing(capsys):
    assert list(tool.moved(OLD, copy.deepcopy(OLD))) == []
    tool.list_moved(OLD, OLD)
    assert capsys.readouterr().out == "moved: 0 keys in 0 of 2 cases\n"


def test_the_added_only_check_takes_additions_and_refuses_a_move():
    new = copy.deepcopy(OLD)
    new["active/steady"]["counters"]["1.group.1.romp.new"] = 1
    new["multigroup/steady"] = copy.deepcopy(OLD["llft/steady"])
    assert tool.check_added_only(OLD, new, frozenset()) == 0
    new["llft/steady"]["order_hash"]["1"] = "dd"
    with pytest.raises(AssertionError, match="llft/steady: order_hash moved"):
        tool.check_added_only(OLD, new, frozenset())
