#!/usr/bin/env python3
"""Check that a re-recorded receive-path golden file only *added* keys.

    python3 tools/golden_added_only.py <base-ref> [--dropped NAME ...]
    python3 tools/golden_added_only.py <base-ref> --moved

Compares ``tests/data/golden/receive_path.json`` at ``<base-ref>`` with
the working copy: every case of the base still there in the same
relative order, with ``deliveries / order_hash / datagrams / bytes``
untouched and every existing counter present with an identical
value.  New cases and new counters are additions.  ``--dropped NAME``
(repeatable) names a counter a change deletes: a key whose name after
its ``<pid>.group.<gid>.`` prefix is NAME may leave, and every key of
that name must.  Exit 0 and a per-case key count when that holds.

``--moved`` lists instead of checking: one line ``case key: old → new``
for every value of a base case that differs in the working copy —
``deliveries.<pid>``, ``order_hash.<pid>``, ``datagrams``, ``bytes`` and
each counter, ``(absent)`` standing for a key on one side only — then
how many keys moved in how many cases.  It is the listing a re-recording
that is meant to move values cites.
"""

import argparse
import json
import re
import subprocess
import sys
from typing import Iterator, Tuple

PATH = "tests/data/golden/receive_path.json"
#: a per-group counter key's ``<pid>.group.<gid>.`` prefix
GROUP_PREFIX = re.compile(r"^\d+\.group\.\d+\.")
ABSENT = "(absent)"


def flatten(case: dict) -> dict:
    """One case as ``key -> value``: per-member entries as ``<field>.<pid>``."""
    flat = {}
    for field in ("deliveries", "order_hash"):
        for pid, value in case.get(field, {}).items():
            flat[f"{field}.{pid}"] = value
    for field in ("datagrams", "bytes"):
        if field in case:
            flat[field] = case[field]
    flat.update(case.get("counters", {}))
    return flat


def moved(old: dict, new: dict) -> Iterator[Tuple[str, str, str, str]]:
    """``(case, key, old value, new value)`` for every value of an ``old``
    case that differs in ``new``, in ``old``'s case order."""
    for case, was in old.items():
        before, after = flatten(was), flatten(new.get(case, {}))
        for key in list(before) + [k for k in after if k not in before]:
            a, b = before.get(key, ABSENT), after.get(key, ABSENT)
            if repr(a) != repr(b):
                yield case, key, str(a), str(b)


def list_moved(old: dict, new: dict) -> int:
    cases, keys = set(), 0
    for case, key, a, b in moved(old, new):
        print(f"{case} {key}: {a} → {b}")
        cases.add(case)
        keys += 1
    print(f"moved: {keys} keys in {len(cases)} of {len(old)} cases")
    return 0


def check_added_only(old: dict, new: dict, dropped: frozenset) -> int:
    assert [c for c in new if c in old] == list(old), "a case was dropped or moved"
    left = 0
    for case, was in old.items():
        now = new[case]
        assert set(was) == set(now), f"{case}: top-level keys changed"
        for key in ("deliveries", "order_hash", "datagrams", "bytes"):
            assert json.dumps(was[key], sort_keys=True) == json.dumps(
                now[key], sort_keys=True), f"{case}: {key} moved"
        gone = 0
        for key, value in was["counters"].items():
            if GROUP_PREFIX.sub("", key) in dropped:
                assert key not in now["counters"], f"{case}: {key} not dropped"
                gone += 1
                continue
            assert key in now["counters"], f"{case}: {key} dropped"
            assert repr(now["counters"][key]) == repr(value), f"{case}: {key} moved"
        left += gone
        print(f"{case:<22} counters {len(was['counters'])} -> {len(now['counters'])}"
              + (f" ({gone} dropped)" if gone else ""))
    for case in (c for c in new if c not in old):
        print(f"{case:<22} new case, counters {len(new[case]['counters'])}")
    if dropped:
        print(f"dropped: {left} keys named {', '.join(sorted(dropped))}")
    print("added-only: OK")
    return 0


def main(base: str, dropped: frozenset, list_only: bool) -> int:
    old = json.loads(subprocess.check_output(["git", "show", f"{base}:{PATH}"]))
    with open(PATH) as f:
        new = json.load(f)
    if list_only:
        return list_moved(old, new)
    return check_added_only(old, new, dropped)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", nargs="?", default="HEAD")
    parser.add_argument("--dropped", action="append", default=[], metavar="NAME",
                        help="a counter the change deletes (repeatable)")
    parser.add_argument("--moved", action="store_true",
                        help="list every moved value as 'case key: old → new'")
    args = parser.parse_args()
    sys.exit(main(args.base, frozenset(args.dropped), args.moved))
