# Convenience targets for the Data Sliding reproduction.

PYTHON ?= python

.PHONY: install test test-all bench bench-smoke bench-full bench-check \
        pipeline-smoke trace-smoke serve-smoke analyze-smoke tune-smoke \
        stream-smoke fleet-smoke fleet-trace-overhead perfbench-selftest \
        report figures examples clean

# Stamped into every BENCH_INDEX.json row so the trajectory report can
# attribute each run to a commit.
GIT_REV := $(shell git rev-parse --short HEAD 2>/dev/null)

install:
	pip install -e . || \
	  echo "$(CURDIR)/src" > $$($(PYTHON) -c 'import site; print(site.getsitepackages()[0])')/repro-dev.pth

test:            ## fast suite (excludes @slow)
	$(PYTHON) -m pytest tests/ -m "not slow"

test-all:        ## everything, including the 1M-element slow tests
	$(PYTHON) -m pytest tests/

bench:           ## regenerate every figure/table + time the kernels (1M scale)
	REPRO_GIT_REV=$(GIT_REV) $(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-smoke:     ## one regular + one irregular benchmark, all three backend tiers (per-tier rows in BENCH_*.json)
	REPRO_GIT_REV=$(GIT_REV) $(PYTHON) -m pytest \
	  benchmarks/bench_fig08_padding.py \
	  benchmarks/bench_fig13_compaction.py --benchmark-only

bench-full:      ## same, at the paper's 16M / 12000x11999 sizes
	REPRO_BENCH_FULL=1 REPRO_GIT_REV=$(GIT_REV) $(PYTHON) -m pytest \
	  benchmarks/ --benchmark-only

bench-check:     ## compare fresh runs against committed BENCH_*.json baselines
	$(PYTHON) -m repro.obs.regress benchmarks/results

pipeline-smoke:  ## fused launch count + plan-cache hit, both backends
	$(PYTHON) -m pytest benchmarks/bench_pipeline_fusion.py \
	  --benchmark-only
	$(PYTHON) -W error::DeprecationWarning -m pytest \
	  tests/pipeline tests/primitives -q

serve-smoke:     ## serve layer: healthy + fault-injected loadgen, acceptance-checked
	$(PYTHON) -m repro serve --shape chain --clients 4 --requests 20 --check
	$(PYTHON) -m repro serve --shape compact --clients 4 --requests 10 \
	  --fault always --check
	REPRO_GIT_REV=$(GIT_REV) $(PYTHON) -m pytest \
	  benchmarks/bench_serve_load.py --benchmark-only
	$(PYTHON) -m pytest tests/serve -q

stream-smoke:    ## out-of-core streaming: memmap 8x device capacity, compact->unique, one process (no pool run), byte-checked
	REPRO_GIT_REV=$(GIT_REV) $(PYTHON) -m repro stream --check \
	  --trace /tmp/repro_stream_smoke.json --bench-dir benchmarks/results
	$(PYTHON) -m repro analyze /tmp/repro_stream_smoke.json > /dev/null
	$(PYTHON) -m pytest tests/stream -q

fleet-smoke:     ## multi-process fleet: 3 workers, fault-injected loadgen, acceptance pass (incl. merged trace + fleet bundle) + CLI replay + analyze --check on the merged trace; asserts zero resource_tracker warnings and no leftover psm_* segments
	rm -rf /tmp/repro_fleet_smoke_incidents
	ls /dev/shm 2>/dev/null | grep '^psm_' | sort \
	  > /tmp/repro_fleet_smoke_shm_before || true
	# The pipe is read to EOF, which also waits for the resource tracker
	# (it inherits stderr and reports leaks after the router exits).
	{ timeout 600 env REPRO_GIT_REV=$(GIT_REV) $(PYTHON) -m repro fleet \
	  --check --workers 3 --fault 0.5 \
	  --incident-dir /tmp/repro_fleet_smoke_incidents \
	  --trace-out /tmp/repro_fleet_smoke_trace.json \
	  --stats-out /tmp/repro_fleet_smoke_stats.json \
	  --bench-dir benchmarks/results; \
	  echo $$? > /tmp/repro_fleet_smoke_rc; } 2>&1 \
	  | tee /tmp/repro_fleet_smoke_output.txt
	test "$$(cat /tmp/repro_fleet_smoke_rc)" = 0
	! grep -n resource_tracker /tmp/repro_fleet_smoke_output.txt
	ls /dev/shm 2>/dev/null | grep '^psm_' | sort \
	  | comm -13 /tmp/repro_fleet_smoke_shm_before - \
	  > /tmp/repro_fleet_smoke_shm_new || true
	! grep . /tmp/repro_fleet_smoke_shm_new
	$(PYTHON) -m repro analyze /tmp/repro_fleet_smoke_stats.json > /dev/null
	timeout 120 $(PYTHON) -m repro analyze \
	  /tmp/repro_fleet_smoke_trace.json --check > /dev/null
	timeout 120 $(PYTHON) -m repro replay \
	  $$(ls -d /tmp/repro_fleet_smoke_incidents/w*/incident-* | head -1) \
	  --check
	timeout 120 $(PYTHON) -m repro replay \
	  $$(ls -d /tmp/repro_fleet_smoke_incidents/incident-* | head -1) \
	  --plan > /dev/null
	timeout 600 $(PYTHON) -m pytest tests/fleet -q

fleet-trace-overhead: ## recorder-on guard: median of paired tracing-on/off fleet throughput ratios >= 0.90
	timeout 600 $(PYTHON) -m repro fleet --trace-overhead-check \
	  --workers 2 --clients 4 --requests 8

analyze-smoke:   ## trace fig13 -> analyzer decomposition check (sum==wall ±1%, spin<=wall) + flight-recorder overhead (median of paired ratios >= 0.90)
	$(PYTHON) -m repro trace fig13 -o /tmp/repro_analyze_smoke.json --check
	$(PYTHON) -m repro analyze /tmp/repro_analyze_smoke.json --check
	$(PYTHON) -m repro serve --shape compact --clients 4 --requests 8 \
	  --n 256 --flight-overhead-check

trace-smoke:     ## export + validate Chrome traces (incl. a 256-work-group vectorized launch: no wg: tracks, no phase spans)
	$(PYTHON) -m repro trace fig13 -o /tmp/repro_trace_smoke.json --check
	$(PYTHON) -m repro trace fig08 -o /tmp/repro_trace_smoke8.json \
	  --elements 8192 --check
	$(PYTHON) -m repro trace fig13 --backend vectorized --elements 1048576 \
	  -o /tmp/repro_trace_smoke_vec.json --check

tune-smoke:      ## bounded autotuner sweeps, acceptance-checked, then serve from the DB
	REPRO_BACKEND=vectorized $(PYTHON) -m repro tune --fig fig13 \
	  --n 4096 --budget 20 --db benchmarks/results/TUNING_DB.json --check
	REPRO_BACKEND=vectorized $(PYTHON) -m repro tune --shape compact \
	  --n 1024 --budget 20 --db benchmarks/results/TUNING_DB.json \
	  --set-default --check
	REPRO_BACKEND=vectorized $(PYTHON) -m repro serve --shape compact \
	  --n 1024 --clients 2 --requests 8 \
	  --tuning-db benchmarks/results/TUNING_DB.json --check
	$(PYTHON) -m pytest tests/tune tests/analysis tests/obs/test_benchindex.py -q

perfbench-selftest: ## repo benchmark self-test: metric set + units, byte-exact oracle (a wrong answer drives ok_share below 1), real doors correct
	$(PYTHON) perfbench/selftest.py

report:          ## render the experiment-registry report from persisted artifacts
	$(PYTHON) -m repro report -o benchmarks/results/REPORT.md
	@echo "wrote benchmarks/results/REPORT.md"

figures:         ## print every reproduced figure and Table I
	$(PYTHON) -m repro all

examples:        ## run all example scripts
	for ex in examples/*.py; do echo "== $$ex"; $(PYTHON) $$ex || exit 1; done

clean:
	rm -rf benchmarks/results .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
