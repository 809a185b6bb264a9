# Janus reproduction — developer entry points.

PYTHON ?= python

# The bench-% pattern targets cannot be .PHONY: make skips the pattern
# rule search for phony targets.
.PHONY: install test lint bench bench-check bench-write e2e e2e-trace e2e-ab \
	figs profile baseline baseline-write coverage chaos reports examples \
	clean

install:
	$(PYTHON) setup.py develop

test:
	PYTHONPATH=src $(PYTHON) -m pytest tests/

lint:
	$(PYTHON) -m ruff check src tests benchmarks examples

# Wall-clock benchmarks (host time, not simulated time), one per suite of
# benchmarks/wall.py: sim, runtime, schedules, control, serving, scale.
# Samples are seconds at the e2e reference host speed (Speedometer of
# benchmarks/e2e/calibration.py).  bench-SUITE runs the full suite and
# writes nothing, bench-SUITE-check gates its quick subset against
# benchmarks/BENCH_*.json, and bench-SUITE-write re-captures that snapshot
# from five pooled captures (history preserved).  Plain bench, bench-check and bench-write are the
# sim suite.  The simulated-time gates the suites used to carry are
# deterministic tests: pytest benchmarks/test_bench_gates.py.
bench: bench-sim
bench-check: bench-sim-check
bench-write: bench-sim-write

bench-%-check:
	PYTHONPATH=src $(PYTHON) benchmarks/wall.py --suite $* --quick --check

bench-%-write:
	PYTHONPATH=src $(PYTHON) benchmarks/wall.py --suite $* --write

bench-%:
	PYTHONPATH=src $(PYTHON) benchmarks/wall.py --suite $*

# End-to-end benchmark (BENCHMARK.json): four workloads, each in a fresh
# single-threaded child; e2e-trace reports the per-layer host-time split
# instead of the end-to-end metrics.  See benchmarks/e2e/README.md.
e2e:
	$(PYTHON) benchmarks/e2e/run.py

e2e-trace:
	$(PYTHON) benchmarks/e2e/run.py --trace

# A/B the end-to-end benchmark: PARENT (a git revision) against the working
# tree, both exported into fresh directories with no bytecode caches,
# PAIRS alternating pairs of run.py, then compare.py.  See
# benchmarks/e2e_ab.py.
PAIRS ?= 10
SEED ?= 7
e2e-ab:
	@test -n "$(PARENT)" || { echo "usage: make e2e-ab PARENT=<rev> [PAIRS=10 SEED=7]" >&2; exit 2; }
	$(PYTHON) benchmarks/e2e_ab.py $(PARENT) --pairs $(PAIRS) --seed $(SEED)

# cProfile the hottest Fig. 14 config: the top 25 by cumulative time, then
# by self time (tottime), where a cost spread over many small callers,
# such as a Python __hash__, shows.  The raw stats stay in
# build/profile.pstats for pstats or snakeviz.
profile:
	mkdir -p build
	PYTHONPATH=src $(PYTHON) -m cProfile -o build/profile.pstats -m repro \
		simulate --model moe-gpt --paradigm data-centric
	$(PYTHON) -c "import pstats; stats = pstats.Stats('build/profile.pstats');\
		stats.sort_stats('cumulative').print_stats(25);\
		stats.sort_stats('tottime').print_stats(25)"

# Figure battery: every benchmarks/test_*.py figure, ablation and gate test
# in simulated time, regenerating benchmarks/reports/*.txt.  Not under
# --benchmark-only, which would skip every test without the benchmark
# fixture (the structural gates of test_bench_gates.py among them).  The
# e2e self-test, the A/B script's smoke test and the wall-script tests run
# separately.  CI's "Figure battery" step runs this target.
figs:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks -q --benchmark-disable \
		--ignore=benchmarks/e2e --ignore=benchmarks/test_wall.py \
		--ignore=benchmarks/test_e2e_ab.py

# Frozen-output goldens (tests/goldens.py): baseline replays every case of
# every golden exactly; baseline-write re-captures the Fig. 14 metrics.
# Re-capture any golden with PYTHONPATH=src:. python -m tests.goldens NAME...
baseline:
	PYTHONPATH=src $(PYTHON) -m pytest -q tests \
		-k "covers_every_case or replays_the_frozen_digest"

baseline-write:
	PYTHONPATH=src:. $(PYTHON) -m tests.goldens fig14-metrics

# Line coverage with a hard 100% floor on the metrics subsystem
# (requires pytest-cov; CI installs it).
coverage:
	PYTHONPATH=src $(PYTHON) -m pytest tests/ -q \
		--cov=repro --cov-report=term --cov-report=xml
	PYTHONPATH=src $(PYTHON) -m coverage report \
		--include='src/repro/metrics/*' --fail-under=100

chaos:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/test_chaos_resilience.py \
		--benchmark-only -q
	@cat benchmarks/reports/chaos_resilience.txt

reports: figs
	@cat benchmarks/reports/*.txt

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/paradigm_planner.py
	$(PYTHON) examples/train_tiny_moe.py
	$(PYTHON) examples/simulate_cluster_training.py
	$(PYTHON) examples/pull_protocol.py

# The tracked benchmarks/reports/*.txt stay; only the JSON the smoke
# commands write there, and the caches, go.
clean:
	rm -f benchmarks/reports/*.json
	rm -rf .pytest_cache .ruff_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
