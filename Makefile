# Janus reproduction — developer entry points.

PYTHON ?= python

# The bench-% pattern targets cannot be .PHONY: make skips the pattern
# rule search for phony targets.
.PHONY: install test lint bench bench-check bench-write e2e e2e-trace \
	figs profile baseline baseline-write coverage chaos reports examples \
	clean

install:
	$(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

lint:
	$(PYTHON) -m ruff check src tests benchmarks examples

# Wall-clock benchmarks (host time, not simulated time), one per suite of
# repro.bench.SUITES: sim, runtime, schedules, control, serving, scale.
# bench-SUITE runs the full suite and writes nothing, bench-SUITE-check
# gates its quick subset against benchmarks/BENCH_*.json, and
# bench-SUITE-write re-captures that snapshot (history preserved).  Plain
# bench, bench-check and bench-write are the sim suite.
bench: bench-sim
bench-check: bench-sim-check
bench-write: bench-sim-write

bench-%-check:
	PYTHONPATH=src $(PYTHON) -m repro.cli bench --suite $* --quick --check

bench-%-write:
	PYTHONPATH=src $(PYTHON) -m repro.cli bench --suite $* --write

bench-%:
	PYTHONPATH=src $(PYTHON) -m repro.cli bench --suite $*

# End-to-end benchmark (BENCHMARK.json): four workloads, each in a fresh
# single-threaded child; e2e-trace reports the per-layer host-time split
# instead of the end-to-end metrics.  See benchmarks/e2e/README.md.
e2e:
	$(PYTHON) benchmarks/e2e/run.py

e2e-trace:
	$(PYTHON) benchmarks/e2e/run.py --trace

# cProfile the hottest Fig. 14 config (top 25 by cumulative time).
profile:
	PYTHONPATH=src $(PYTHON) -m repro.cli simulate \
		--model moe-gpt --paradigm data-centric --profile

# pytest-benchmark figure battery (simulated-time comparisons).
figs:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Perf-regression gate: fresh metric capture vs benchmarks/BENCH_metrics.json.
baseline:
	PYTHONPATH=src $(PYTHON) benchmarks/baseline.py --check

baseline-write:
	PYTHONPATH=src $(PYTHON) benchmarks/baseline.py --write

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

clean:
	rm -rf benchmarks/reports .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
