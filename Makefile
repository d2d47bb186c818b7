# Convenience targets for the FTMP reproduction.

PYTHON ?= python

.PHONY: install test bench bench-diff perf perf-ab lint layering experiments \
        examples soak chaos chaos-overlay chaos-multigroup explore \
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

# layering guard: the protocol layers (core, baselines) must only import
# the neutral repro.transport seam — never a concrete runtime — and the
# two runtimes must not import each other (same rules as
# tests/core/test_layering.py, greppable without pytest); then the
# engine-seam rule — romp/rmp/pgmp/fault_detector name no engine, datapath
# only where it chooses one — and the send-service rule — machines and
# engines stamp and send through ProcessorGroup.send only, its one
# on_own_send call included — by the same tokenizer the test uses; the
# one-datapath rule — no multiprocessing under runtime/, subprocess in
# cluster.py only; and the one-harness rule — no benchmark fixture or
# wall clock under benchmarks/ outside E19, no reference encoder under
# src/, no runtime import under analysis/
layering:
	@$(PYTHON) tests/core/test_layering.py
	@! grep -rnE '^\s*(from (repro\.|\.\.)(simnet|runtime)|import repro\.(simnet|runtime))' \
	    src/repro/core src/repro/baselines \
	    || { echo "layering violation: core/baselines must not import a runtime"; exit 1; }
	@! grep -rnE '^\s*(from (repro\.|\.\.)runtime|import repro\.runtime)' src/repro/simnet \
	    || { echo "layering violation: simnet must not import repro.runtime"; exit 1; }
	@! grep -rnE '^\s*(from (repro\.|\.\.)simnet|import repro\.simnet)' src/repro/runtime \
	    || { echo "layering violation: runtime must not import repro.simnet"; exit 1; }
	@! grep -rnE '^\s*(from (repro\.|\.\.)runtime|import repro\.runtime)' src/repro/analysis \
	    || { echo "layering violation: analysis must not import repro.runtime"; exit 1; }
	@echo "layering OK"

experiments:
	$(PYTHON) -m repro.analysis.cli run all

examples:
	@for ex in examples/*.py; do echo "== $$ex"; $(PYTHON) $$ex > /dev/null && echo OK || exit 1; done

soak:
	$(PYTHON) -m pytest tests/integration/test_soak.py -v

# seeded chaos campaign: 20 seeds x all scenario classes (incl.
# leader_crash and relay_crash) in active mode, then 10 seeds each of
# the llft and overlay scenario mixes with their modes on, and 20 seeds
# of the multigroup mix (incl. the overlapping-membership class);
# violation artifacts (replayable JSON) written to chaos-artifacts/
chaos:
	PYTHONPATH=src $(PYTHON) -m repro.analysis.chaos run --seeds 20 \
	    --artifact-dir chaos-artifacts
	PYTHONPATH=src $(PYTHON) -m repro.analysis.chaos run --mode llft \
	    --seeds 10 --artifact-dir chaos-artifacts
	PYTHONPATH=src $(PYTHON) -m repro.analysis.chaos run --mode overlay \
	    --seeds 10 --artifact-dir chaos-artifacts
	PYTHONPATH=src $(PYTHON) -m repro.analysis.chaos run --mode multigroup \
	    --seeds 20 --artifact-dir chaos-artifacts

# just the overlay leg (tree dissemination + relay_crash class)
chaos-overlay:
	PYTHONPATH=src $(PYTHON) -m repro.analysis.chaos run --mode overlay \
	    --seeds 10 --artifact-dir chaos-artifacts

# just the multi-group leg (genuine multicast over overlapping groups:
# loss/reorder/partition/crash/churn plus the overlap class, every run
# checked by the cross-group acyclicity oracle)
chaos-multigroup:
	PYTHONPATH=src $(PYTHON) -m repro.analysis.chaos run --mode multigroup \
	    --seeds 20 --artifact-dir chaos-artifacts

# schedule exploration: the chaos scenarios again, but with every
# contested same-time scheduler choice permuted by a PCT policy; on a
# violation the failing schedule is delta-debugged down to a minimized
# replayable artifact in explore-artifacts/
explore:
	PYTHONPATH=src $(PYTHON) -m repro.analysis.explore run \
	    --plan-seeds 3 --schedules 10 --artifact-dir explore-artifacts
	PYTHONPATH=src $(PYTHON) -m repro.analysis.explore run --mode overlay \
	    --plan-seeds 2 --schedules 6 --artifact-dir explore-artifacts
	PYTHONPATH=src $(PYTHON) -m repro.analysis.explore run --mode multigroup \
	    --plan-seeds 2 --schedules 6 --artifact-dir explore-artifacts

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
