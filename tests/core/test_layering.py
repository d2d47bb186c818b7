"""Layering guard: the protocol layers stay runtime-agnostic.

``repro.core`` and ``repro.baselines`` are written against the neutral
:mod:`repro.transport` seam only; importing a concrete runtime
(``repro.simnet`` or ``repro.runtime``) from them is the inverted
dependency this guard exists to catch.  The runtimes themselves must not import each other either:
``simnet`` is the semantic truth, ``runtime`` the wall-clock truth, and
nothing forces one to load to use the other.

Second rule (DESIGN.md, "Two seams"): the files every datagram crosses
name no engine.  ``core/romp.py``, ``rmp.py``, ``pgmp.py`` and
``fault_detector.py`` carry no ``llft`` / ``overlay`` / ``multigroup``
identifier at all — an import of an engine module included — and
``core/datapath.py`` only where the choice is made: its engine import
lines and ``ProcessorGroup.__init__``.

Third rule (DESIGN.md, "Layered datapath"): Figure 3 is stated once on
the way down.  The machines and the engines send through
``ProcessorGroup.send`` only — none of them reaches for a header
(``._header``, ``.next_header``), for the send path (``.send_path``) or
restates a row of the table (``reliable=``) — and the service is the
one caller of the discipline's ``on_own_send``.

Fourth rule (DESIGN.md, "Runtime layering"): one wall-clock datapath.
A datagram reaches the stack from the asyncio loop's own UDP socket and
nowhere else, so nothing under ``runtime/`` imports ``multiprocessing``
(shared memory included) and only ``cluster.py`` — which spawns the
worker processes — imports ``subprocess``.

Fifth rule (ROADMAP items 6, 8a): one encoder in ``src/``, simulated
time only in ``benchmarks/``.  No experiment takes a ``benchmark``
fixture or reads a wall clock (``time.perf_counter`` / ``time.time`` /
``time.monotonic``) — E19, the multi-process cluster run, is the one
allow-listed file until ``perf/`` has such a workload — nothing under
``src/`` names ``encode_reference`` or ``_Writer`` (the field-at-a-time
specification lives in ``tests/reference/``), and ``repro.analysis``
does not import the wall-clock runtime, lazily or otherwise.

Sixth rule (DESIGN.md, "Layered datapath"): the codec sits at the edge.
Layers above it hold messages, never wire bytes, so in ``repro.core``
only ``stack.py`` (datagrams in), ``datapath.py`` (datagrams out) and
the package's ``__init__.py`` import ``encode``, ``decode``,
``decode_view``, ``peek_header`` or ``regular_size`` from ``.wire``.

Run as a script — all ``make layering`` is — it prints the violations of
the six rules and exits 1.
"""

import ast
import io
import os
import pathlib
import re
import sys
import tokenize

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"
BENCHMARKS = SRC.parents[1] / "benchmarks"

#: package -> forbidden sibling packages
RULES = {
    "core": ("simnet", "runtime"),
    "baselines": ("simnet", "runtime"),
    "runtime": ("simnet",),
    "simnet": ("runtime",),
    "analysis": ("runtime",),
}


def _violations(package: str, forbidden: tuple) -> list:
    alts = "|".join(forbidden)
    pattern = re.compile(
        rf"^\s*(?:from\s+(?:repro\.|\.\.)(?:{alts})|import\s+repro\.(?:{alts}))\b",
        re.MULTILINE,
    )
    found = []
    for path in sorted((SRC / package).rglob("*.py")):
        for m in pattern.finditer(path.read_text()):
            line = m.group(0).strip()
            found.append(f"{path.relative_to(SRC.parent)}: {line}")
    return found


ENGINE_MODULES = ("llft", "overlay", "multigroup")
ENGINE_NAME = re.compile("|".join(ENGINE_MODULES), re.IGNORECASE)
#: file -> may name an engine on its engine import lines and inside these
#: (class, function) bodies
ENGINE_FREE = {
    "core/romp.py": (),
    "core/rmp.py": (),
    "core/pgmp.py": (),
    "core/fault_detector.py": (),
    "core/datapath.py": (("ProcessorGroup", "__init__"),),
}


def _engine_name_violations() -> list:
    """NAME tokens matching an engine outside the allowed lines (comments
    and strings are exempt: they are not NAME tokens)."""
    found = []
    for rel, allowed_functions in ENGINE_FREE.items():
        text = (SRC / rel).read_text()
        allowed = set()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ClassDef):
                for fn in node.body:
                    if (isinstance(fn, ast.FunctionDef)
                            and (node.name, fn.name) in allowed_functions):
                        allowed.update(range(fn.lineno, fn.end_lineno + 1))
            elif (isinstance(node, ast.ImportFrom) and allowed_functions
                    and node.module in ENGINE_MODULES):
                allowed.update(range(node.lineno, node.end_lineno + 1))
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if (tok.type == tokenize.NAME and ENGINE_NAME.search(tok.string)
                    and tok.start[0] not in allowed):
                found.append(f"{rel}:{tok.start[0]}: {tok.string}")
    return found


#: the machines and the engines: everything that sends through the group
SENDERS = ("rmp", "romp", "pgmp", "fault_detector", "llft", "overlay", "multigroup")
PRIVATE_ROUTES = ("_header", "send_path", "next_header")


def _tokens(path: pathlib.Path) -> list:
    return [t for t in tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
            if t.type in (tokenize.NAME, tokenize.OP)]


def _send_route_violations() -> list:
    """Attribute and keyword tokens that stamp or send past the service,
    and every ``.on_own_send(`` call but the service's one."""
    found, notifiers = [], []
    for path in sorted((SRC / "core").glob("*.py")):
        rel = f"core/{path.name}"
        toks = _tokens(path)
        for prev, tok, nxt in zip(toks, toks[1:], toks[2:]):
            if path.stem in SENDERS and (
                    (prev.string == "." and tok.string in PRIVATE_ROUTES)
                    or (tok.string == "reliable" and nxt.string == "=")):
                found.append(f"{rel}:{tok.start[0]}: {tok.string}")
            if prev.string == "." and tok.string == "on_own_send" and nxt.string == "(":
                notifiers.append(f"{rel}:{tok.start[0]}")
    if len(notifiers) != 1:
        found.append(f".on_own_send( called from {notifiers}, not the service alone")
    return found


def _runtime_process_violations() -> list:
    """``multiprocessing`` anywhere under runtime/, ``subprocess``
    anywhere but the supervisor."""
    pattern = re.compile(r"^\s*(?:from|import)\s+(multiprocessing|subprocess)\b.*",
                         re.MULTILINE)
    return [f"runtime/{path.name}: {m.group(0).strip()}"
            for path in sorted((SRC / "runtime").glob("*.py"))
            for m in pattern.finditer(path.read_text())
            if (m.group(1), path.name) != ("subprocess", "cluster.py")]


WALL_CLOCK_EXPERIMENT = "test_e19_wallclock_cluster.py"
WALL_CLOCKS = ("perf_counter", "perf_counter_ns", "monotonic", "monotonic_ns")
REFERENCE_CODEC = ("encode_reference", "_Writer")


def _one_harness_violations() -> list:
    """NAME tokens only, so prose about either may stay: a ``benchmark``
    fixture or a wall-clock read in an experiment, the reference codec's
    names under ``src/``."""
    found = []
    for path in sorted(BENCHMARKS.glob("*.py")):
        if path.name == WALL_CLOCK_EXPERIMENT:
            continue
        toks = _tokens(path)
        for before, dot, tok in zip(toks, toks[1:], toks[2:]):
            clock = tok.string in WALL_CLOCKS or (
                tok.string == "time" and dot.string == "."
                and before.string == "time")
            if tok.type == tokenize.NAME and (tok.string == "benchmark" or clock):
                found.append(f"benchmarks/{path.name}:{tok.start[0]}: {tok.string}")
    for path in sorted(SRC.rglob("*.py")):
        found += [f"{path.relative_to(SRC.parent)}:{tok.start[0]}: {tok.string}"
                  for tok in _tokens(path) if tok.string in REFERENCE_CODEC]
    return found


#: the codec's entry points, and the files of ``core/`` that may import them
CODEC_NAMES = ("encode", "decode", "decode_view", "peek_header", "regular_size")
CODEC_EDGE = ("stack.py", "datapath.py", "__init__.py")


def _codec_edge_violations() -> list:
    """Imports of a codec entry point from ``.wire`` (or of the module
    itself) in a ``core/`` file off the edge."""
    found = []
    for path in sorted((SRC / "core").glob("*.py")):
        if path.name in CODEC_EDGE:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.module in ("wire", "repro.core.wire"):
                names = [a.name for a in node.names if a.name in CODEC_NAMES + ("*",)]
            elif node.module in (None, "repro.core"):
                names = [a.name for a in node.names if a.name in CODEC_NAMES + ("wire",)]
            else:
                continue
            found += [f"core/{path.name}:{node.lineno}: {name}" for name in names]
    return found


def test_only_the_edge_imports_the_codec():
    problems = _codec_edge_violations()
    assert not problems, "wire bytes above the edge:\n" + "\n".join(problems)


def test_one_encoder_in_src_and_simulated_time_in_benchmarks():
    problems = _one_harness_violations()
    assert not problems, "a second encoder or harness:\n" + "\n".join(problems)


def test_runtime_spawns_only_cluster_workers():
    problems = _runtime_process_violations()
    assert not problems, "a second wall-clock datapath:\n" + "\n".join(problems)


def test_datagram_path_names_no_engine():
    problems = _engine_name_violations()
    assert not problems, "engine named outside the seam:\n" + "\n".join(problems)


def test_everything_stamped_goes_through_the_send_service():
    problems = _send_route_violations()
    assert not problems, "a send past ProcessorGroup.send:\n" + "\n".join(problems)


def _import_violations() -> list:
    return [v for package, forbidden in RULES.items()
            for v in _violations(package, forbidden)]


def test_protocol_layers_never_import_a_runtime():
    problems = _import_violations()
    assert not problems, "layering violations:\n" + "\n".join(problems)


def test_transport_module_is_runtime_neutral():
    text = (SRC / "transport.py").read_text()
    assert not re.search(r"\b(simnet|runtime)\b\s*import|import\s+(asyncio|socket)",
                         text), "repro.transport must stay dependency-free"


def test_core_loads_without_either_runtime():
    """Importing the protocol layers must not drag in a runtime package."""
    import subprocess

    code = (
        "import sys\n"
        "import repro.core, repro.baselines\n"
        "bad = [m for m in sys.modules if m.startswith(('repro.simnet', 'repro.runtime'))]\n"
        "assert not bad, bad\n"
    )
    # the child does not see pytest's ``pythonpath`` option: give it src/
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr


if __name__ == "__main__":
    bad = (_import_violations() + _engine_name_violations()
           + _send_route_violations() + _runtime_process_violations()
           + _one_harness_violations() + _codec_edge_violations())
    print("\n".join(bad) if bad else "layering OK: runtime imports, engine "
          "seam, send service, one datapath, one harness, codec at the edge")
    sys.exit(1 if bad else 0)
