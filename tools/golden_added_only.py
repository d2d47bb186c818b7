#!/usr/bin/env python3
"""Check that a re-recorded receive-path golden file only *added* keys.

    python3 tools/golden_added_only.py <base-ref> [--dropped NAME ...]

Compares ``tests/data/golden/receive_path.json`` at ``<base-ref>`` with
the working copy: every case of the base still there in the same
relative order, with ``deliveries / order_hash / datagrams / bytes``
untouched and every existing counter present with an identical
value.  New cases and new counters are additions.  ``--dropped NAME``
(repeatable) names a counter a change deletes: a key whose name after
its ``<pid>.group.<gid>.`` prefix is NAME may leave, and every key of
that name must.  Exit 0 and a per-case key count when that holds.
"""

import argparse
import json
import re
import subprocess
import sys

PATH = "tests/data/golden/receive_path.json"
#: a per-group counter key's ``<pid>.group.<gid>.`` prefix
GROUP_PREFIX = re.compile(r"^\d+\.group\.\d+\.")


def main(base: str, dropped: frozenset) -> int:
    old = json.loads(subprocess.check_output(["git", "show", f"{base}:{PATH}"]))
    new = json.load(open(PATH))
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


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", nargs="?", default="HEAD")
    parser.add_argument("--dropped", action="append", default=[], metavar="NAME",
                        help="a counter the change deletes (repeatable)")
    args = parser.parse_args()
    sys.exit(main(args.base, frozenset(args.dropped)))
