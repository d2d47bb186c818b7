#!/usr/bin/env python3
"""Check that a re-recorded receive-path golden file only *added* keys.

    python3 tools/golden_added_only.py <base-ref>

Compares ``tests/data/golden/receive_path.json`` at ``<base-ref>`` with
the working copy: every case of the base still there in the same
relative order, with ``deliveries / order_hash / datagrams / bytes``
untouched and every existing counter present with an identical
value.  New cases and new counters are additions.  Exit 0 and a per-case
key count when that holds.
"""

import json
import subprocess
import sys

PATH = "tests/data/golden/receive_path.json"


def main(base: str) -> int:
    old = json.loads(subprocess.check_output(["git", "show", f"{base}:{PATH}"]))
    new = json.load(open(PATH))
    assert [c for c in new if c in old] == list(old), "a case was dropped or moved"
    for case, was in old.items():
        now = new[case]
        assert set(was) == set(now), f"{case}: top-level keys changed"
        for key in ("deliveries", "order_hash", "datagrams", "bytes"):
            assert json.dumps(was[key], sort_keys=True) == json.dumps(
                now[key], sort_keys=True), f"{case}: {key} moved"
        for key, value in was["counters"].items():
            assert key in now["counters"], f"{case}: {key} dropped"
            assert repr(now["counters"][key]) == repr(value), f"{case}: {key} moved"
        print(f"{case:<22} counters {len(was['counters'])} -> {len(now['counters'])}")
    for case in (c for c in new if c not in old):
        print(f"{case:<22} new case, counters {len(new[case]['counters'])}")
    print("added-only: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1] if len(sys.argv) > 1 else "HEAD"))
