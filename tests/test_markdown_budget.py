"""The Markdown budget: the tracked documentation does not grow.

Every tracked ``*.md`` file but those listed in
``tests/data/markdown_budget_outside.txt`` (the change log, one line per
change, and the change request each change rewrites) counts toward
``BUDGET`` bytes, the size the documents had when the budget was set.
A change that must raise it says so in CHANGES.md with the new number;
a change that cuts the documents lowers it.  Each CHANGES.md line stays within
``CHANGES_LINE_MAX`` bytes: the full entry of a long change goes to
``benchmarks/results/changes_full_entries.txt``.
"""

import pathlib
import subprocess

ROOT = pathlib.Path(__file__).resolve().parents[1]
#: bytes of tracked Markdown, the files in ``OUTSIDE`` aside
BUDGET = 253_325
CHANGES_LINE_MAX = 1536
OUTSIDE = {line.strip() for line in
           (ROOT / "tests" / "data" / "markdown_budget_outside.txt").read_text().splitlines()
           if line.strip() and not line.startswith("#")}


def _markdown() -> list:
    """Tracked ``*.md`` paths; every ``*.md`` outside hidden and ignored
    directories where the tree is not a git checkout."""
    try:
        out = subprocess.run(["git", "ls-files", "-z", "*.md"], cwd=ROOT,
                             capture_output=True, check=True).stdout
        return [ROOT / name for name in out.decode().split("\0") if name]
    except (OSError, subprocess.CalledProcessError):
        skipped = {"chaos-artifacts", "explore-artifacts", "__pycache__"}
        return [path for path in ROOT.rglob("*.md")
                if not any(part.startswith(".") or part in skipped
                           for part in path.relative_to(ROOT).parts[:-1])]


def test_tracked_markdown_stays_within_its_budget():
    sizes = {path.relative_to(ROOT).as_posix(): path.stat().st_size
             for path in _markdown()
             if path.relative_to(ROOT).as_posix() not in OUTSIDE}
    assert "README.md" in sizes and "DESIGN.md" in sizes
    assert sum(sizes.values()) <= BUDGET, sorted(sizes.items(), key=lambda kv: -kv[1])


def test_every_changes_line_is_short():
    lines = (ROOT / "CHANGES.md").read_bytes().split(b"\n")
    long = [(n, len(line)) for n, line in enumerate(lines, start=1)
            if len(line) > CHANGES_LINE_MAX]
    assert long == []
