# Convenience targets for the FTMP reproduction.

PYTHON ?= python

.PHONY: install test bench bench-diff perf perf-ab lint layering experiments \
        examples soak chaos chaos-diff explore \
        cluster-demo cluster-smoke clean

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

# plain pytest: the experiment files are ordinary tests that run their
# sweeps in simulated time (E19 alone on the wall clock), emit their
# tables into benchmarks/results/ and merge machine-readable metrics
# into BENCH_report.json at the repo root
bench:
	$(PYTHON) -m pytest benchmarks/ -q

# regenerate the report, then diff it against the committed copy; fails
# only on a >25% regression of a gated metric (the two simulated-time
# saturation-goodput ratios) — everything else soft-warns
bench-diff: bench
	$(PYTHON) benchmarks/_report.py diff

# the repo benchmark (BENCHMARK.json + perf/): all seven workloads once
perf:
	python3 perf/run.py

# before/after by the choosing-metrics rule: alternating pairs of BASE
# and this working tree under identical benchmark code, medians,
# quartiles and wins per metric (make perf-ab BASE=<ref> [PAIRS=10])
PAIRS ?= 10
perf-ab:
	@test -n "$(BASE)" || { echo "usage: make perf-ab BASE=<ref>"; exit 2; }
	python3 tools/perf_ab.py $(BASE) --pairs $(PAIRS)

lint: layering
	$(PYTHON) -m ruff check src/ tests/ benchmarks/

# layering guard: the six rule families of tests/core/test_layering.py
# (its docstring states them), greppable without pytest
layering:
	@$(PYTHON) tests/core/test_layering.py

experiments:
	$(PYTHON) -m repro.analysis.cli run all

examples:
	@for ex in examples/*.py; do echo "== $$ex"; $(PYTHON) $$ex > /dev/null && echo OK || exit 1; done

# the soak scenario — oracle battery and check_quiescence — over seeds
# 0-39 (~20 s; tier-1 runs seed 99 only)
soak:
	PYTHONPATH=src $(PYTHON) tests/integration/test_soak.py

# the one verification runner (python -m repro.analysis.chaos
# {run,replay,matrix}; `matrix` prints which classes a mode sweeps,
# explores or leaves out, and why).  Seeded chaos campaign: 20 seeds x
# every class active sweeps, 10 seeds each of the llft and overlay rows,
# 20 of the multigroup row, FIFO, one schedule; a violation is shrunk to
# a minimized replayable JSON artifact in chaos-artifacts/
CHAOS = PYTHONPATH=src $(PYTHON) -m repro.analysis.chaos run
chaos:
	$(CHAOS) --seeds 20
	$(CHAOS) --mode llft --seeds 10
	$(CHAOS) --mode overlay --seeds 10
	$(CHAOS) --mode multigroup --seeds 20

# the legs above at BASE (git archive into a temp dir) and in this tree;
# exits 1 on any differing output line (make chaos-diff BASE=<ref>)
chaos-diff:
	@test -n "$(BASE)" || { echo "usage: make chaos-diff BASE=<ref>"; exit 2; }
	$(PYTHON) tools/chaos_diff.py $(BASE)

# schedule exploration: the mode's explored classes again, with every
# contested same-time scheduler choice permuted by a PCT policy
explore:
	$(CHAOS) --policy pct --seeds 3 --schedules 10 --artifact-dir explore-artifacts
	$(CHAOS) --policy pct --mode overlay --seeds 2 --schedules 6 --artifact-dir explore-artifacts
	$(CHAOS) --policy pct --mode multigroup --seeds 2 --schedules 6 --artifact-dir explore-artifacts

# wall-clock demo: 3 real OS processes, one FTMP group, ≥10k ordered
# multicasts cross-checked by the total-order/FIFO/no-duplicate oracles
cluster-demo:
	PYTHONPATH=src $(PYTHON) -m repro.runtime --processes 3 --messages 3400

# smaller cluster run for CI (writes the machine-readable report used as
# the workflow artifact; wall-clock numbers are informational only)
cluster-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.runtime --processes 3 --messages 1200 \
	    --json cluster-smoke-report.json

clean:
	rm -rf .pytest_cache .hypothesis benchmarks/results/*.txt \
	       BENCH_report.json test_output.txt bench_output.txt perf/out \
	       cluster-smoke-report.json
	find . -name __pycache__ -type d -exec rm -rf {} +
