"""``tools/perf_ab.py``: both sides run from sibling exports that carry
one benchmark, so a metric that follows the directory moves alike on
both."""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
TOOL = ROOT / "tools" / "perf_ab.py"


@pytest.fixture(scope="module")
def tool():
    saved = list(sys.path)
    spec = importlib.util.spec_from_file_location("perf_ab", TOOL)
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    return module


@pytest.mark.skipif(not (ROOT / ".git").exists(), reason="needs the git checkout")
def test_both_sides_are_siblings_with_one_benchmark(tool, tmp_path):
    trees = tool.export("HEAD", tmp_path)
    base, change = trees["base"], trees["change"]
    assert base.parent == change.parent == tmp_path
    assert len(base.name) == len(change.name)
    for tree in (base, change):
        for rel in ("BENCHMARK.json", "perf/run.py", "perf/workloads.py"):
            assert (tree / rel).read_bytes() == (ROOT / rel).read_bytes(), (tree, rel)
        assert (tree / "src/repro/core/wire.py").is_file()
        assert not (tree / "perf/out").exists()
    # the change side is this tree as checked out, not the commit
    assert (change / "tools/perf_ab.py").read_bytes() == TOOL.read_bytes()
    assert (change / "tests/core/test_perf_ab_tool.py").is_file()
