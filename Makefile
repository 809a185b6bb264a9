# Janus reproduction — developer entry points.

PYTHON ?= python

.PHONY: install test lint bench bench-check bench-write bench-runtime \
	bench-runtime-check bench-runtime-write bench-schedules \
	bench-schedules-check bench-schedules-write bench-control \
	bench-control-check bench-control-write bench-serving \
	bench-serving-check bench-serving-write bench-scale \
	bench-scale-check bench-scale-write e2e e2e-trace figs profile \
	baseline baseline-write coverage chaos reports examples clean

install:
	$(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

lint:
	$(PYTHON) -m ruff check src tests benchmarks examples

# Wall-clock benchmark of the simulator itself (host time, not simulated
# time); snapshot + history live in benchmarks/BENCH_speed.json.
bench:
	PYTHONPATH=src $(PYTHON) -m repro.cli bench

bench-check:
	PYTHONPATH=src $(PYTHON) -m repro.cli bench --quick --check

bench-write:
	PYTHONPATH=src $(PYTHON) -m repro.cli bench --write

# Wall-clock benchmark of the numerical runtime (trainer steps through the
# sorted-dispatch executors); snapshot + history live in
# benchmarks/BENCH_runtime.json.  float64 only — float32 captures
# (bench --suite runtime --dtype float32) are experiments, never gates.
bench-runtime:
	PYTHONPATH=src $(PYTHON) -m repro.cli bench --suite runtime

bench-runtime-check:
	PYTHONPATH=src $(PYTHON) -m repro.cli bench --suite runtime --quick --check

bench-runtime-write:
	PYTHONPATH=src $(PYTHON) -m repro.cli bench --suite runtime --write

# Task-graph schedule benchmark (mixed-R MoE-GPT: micro-batching, grad
# all-reduce, auto).  The check gates on calibration-rescaled wall medians
# AND the simulated-time schedule wins; snapshot lives in
# benchmarks/BENCH_schedules.json.
bench-schedules:
	PYTHONPATH=src $(PYTHON) -m repro.cli bench --suite schedules

bench-schedules-check:
	PYTHONPATH=src $(PYTHON) -m repro.cli bench --suite schedules --quick --check

bench-schedules-write:
	PYTHONPATH=src $(PYTHON) -m repro.cli bench --suite schedules --write

# Adaptive-control benchmark (drifting workload, controller vs every
# static paradigm).  The check gates on calibration-rescaled wall medians
# AND the structural control win — adaptive must beat every static in
# simulated time; snapshot lives in benchmarks/BENCH_control.json.
bench-control:
	PYTHONPATH=src $(PYTHON) -m repro.cli bench --suite control

bench-control-check:
	PYTHONPATH=src $(PYTHON) -m repro.cli bench --suite control --quick --check

bench-control-write:
	PYTHONPATH=src $(PYTHON) -m repro.cli bench --suite control --write

# Request-level serving benchmark (seeded arrival traces, unified vs
# disaggregated prefill/decode).  The check gates on calibration-rescaled
# wall medians AND the structural serving win — disaggregated p99 TPOT
# must beat unified on the skewed trace; snapshot lives in
# benchmarks/BENCH_serving.json.
bench-serving:
	PYTHONPATH=src $(PYTHON) -m repro.cli bench --suite serving

bench-serving-check:
	PYTHONPATH=src $(PYTHON) -m repro.cli bench --suite serving --quick --check

bench-serving-write:
	PYTHONPATH=src $(PYTHON) -m repro.cli bench --suite serving --write

# Weak-scaling benchmark (MoE-GPT expert-centric, 8 -> 128 machines).
# The check gates on calibration-rescaled wall medians AND two structural
# laws: per-event cost may grow at most 1.3x from the smallest to the
# largest fleet, and the 128-machine iteration must stay under the
# (rescaled) 10 s budget; snapshot lives in benchmarks/BENCH_scale.json.
bench-scale:
	PYTHONPATH=src $(PYTHON) -m repro.cli bench --suite scale

bench-scale-check:
	PYTHONPATH=src $(PYTHON) -m repro.cli bench --suite scale --quick --check

bench-scale-write:
	PYTHONPATH=src $(PYTHON) -m repro.cli bench --suite scale --write

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
