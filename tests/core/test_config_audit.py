"""Knob audit: every ``FTMPConfig`` and ``ClusterSpec`` field is turned
by someone.

An independently settable value is a configuration the tests and the
benchmarks have to cover, so a field has to earn its place (ROADMAP
item 4d).  The rule, held here by a plain scan of the source text in the
manner of ``test_layering.py``:

* the field is *read* somewhere in ``src/repro`` — an attribute access
  ``.field``; for ``FTMPConfig`` outside ``core/config.py`` — and
* some caller in ``src/ perf/ benchmarks/ examples/`` that names the
  class — tests do not count — *names* the field, as a keyword
  ``field=value`` or a dict key ``"field": value``, with a value that
  is not the default written out again: two values exist in the
  repository's own traffic.  (``FTMPConfig`` also arrives as a plain
  dict, so every caller file counts for it.)

Anything else is a constant beside the code that reads it, or nothing.
Each listed exception carries its reason; for one, the read in
``core/config.py``'s own validation counts.
"""

import ast
import dataclasses
import functools
import pathlib
import re

from repro.core import FTMPConfig
from repro.runtime.cluster import ClusterSpec

ROOT = pathlib.Path(__file__).resolve().parents[2]
CONFIG = ROOT / "src" / "repro" / "core" / "config.py"
CALLER_TREES = ("src", "perf", "benchmarks", "examples")

#: field -> why it stays although no caller outside tests/ sets it
EXEMPT = {
    "little_endian": "§3.2's byte-order flag is a property of the host, not "
                     "a tuning choice; the mixed-endian interop case in "
                     "tests/core/test_stack_unit.py sets the other value",
    "batch_adaptive": "retired (every batch window adapts; config.py refuses "
                      "False), kept while perf/workloads.py, which a "
                      "benchmark change alone may edit, still passes True",
}

#: audited class -> (its exemptions, whether only files naming it count)
AUDITED = {FTMPConfig: (EXEMPT, False), ClusterSpec: ({}, True)}


@functools.lru_cache(maxsize=None)  # both audits scan the same text
def _sources() -> dict:
    return {
        path: path.read_text()
        for tree in CALLER_TREES
        for path in sorted((ROOT / tree).rglob("*.py"))
        if path != CONFIG
    }


def _is_default_restated(value: str, default: object) -> bool:
    """``value`` is source text up to the next ``,`` / ``)`` / ``}``: a
    literal equal to the default does not count as turning the knob."""
    try:
        return ast.literal_eval(value.strip()) == default
    except (ValueError, SyntaxError):
        return False  # a name or an expression: somebody computes it


def _audit(cls) -> list:
    exempt, by_name_only = AUDITED[cls]
    callers = {path: text for path, text in _sources().items()
               if not by_name_only or cls.__name__ in text}
    readers = [text for path, text in callers.items()
               if ROOT / "src" / "repro" in path.parents]
    fields = dataclasses.fields(cls)
    found = [f"{name}: exempt, but not a field"
             for name in sorted(set(exempt) - {f.name for f in fields})]
    for field in fields:
        name = field.name
        read = re.compile(rf"\.{name}\b(?!\s*=[^=])")
        texts = readers + ([CONFIG.read_text()] if name in exempt else [])
        if not any(read.search(text) for text in texts):
            found.append(f"{name}: read by nothing in src/repro")
        if name in exempt:
            continue
        named = re.compile(rf"""(?:\b{name}\s*=(?!=)|["']{name}["']\s*:)([^,)}}\n]*)""")
        values = [m.group(1) for text in callers.values()
                  for m in named.finditer(text)]
        if not values:
            found.append(f"{name}: set by no caller in {' '.join(CALLER_TREES)}")
        elif all(_is_default_restated(v, field.default) for v in values):
            found.append(f"{name}: only ever restated at its default "
                         f"{field.default!r}")
    return found


def test_every_field_is_read_and_turned_by_a_caller():
    assert [f"{cls.__name__}.{problem}"
            for cls in AUDITED for problem in _audit(cls)] == []


def test_field_budget():
    # 35 / 16 until PRs 20 / 21; a new field is a visible diff here and
    # has to pass the audit above
    assert len(dataclasses.fields(FTMPConfig)) <= 22
    assert len(dataclasses.fields(ClusterSpec)) <= 6
