#!/usr/bin/env python3
"""Check that a re-recorded receive-path golden file only *added* keys.

    python3 tools/golden_added_only.py <base-ref>

Compares ``tests/data/golden/receive_path.json`` at ``<base-ref>`` with
the working copy: same cases, ``deliveries / order_hash / datagrams /
bytes`` untouched, every existing counter present with an identical
value.  Exit 0 and a per-case key count when that holds.
"""

import json
import subprocess
import sys

PATH = "tests/data/golden/receive_path.json"


def main(base: str) -> int:
    old = json.loads(subprocess.check_output(["git", "show", f"{base}:{PATH}"]))
    new = json.load(open(PATH))
    assert list(old) == list(new), "case list changed"
    for case, was in old.items():
        now = new[case]
        assert set(was) == set(now), f"{case}: top-level keys changed"
        for key in ("deliveries", "order_hash", "datagrams", "bytes"):
            assert json.dumps(was[key], sort_keys=True) == json.dumps(
                now[key], sort_keys=True), f"{case}: {key} moved"
        for key, value in was["counters"].items():
            assert key in now["counters"], f"{case}: {key} dropped"
            assert repr(now["counters"][key]) == repr(value), f"{case}: {key} moved"
        print(f"{case:<18} counters {len(was['counters'])} -> {len(now['counters'])}")
    print("added-only: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1] if len(sys.argv) > 1 else "HEAD"))
