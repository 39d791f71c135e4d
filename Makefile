PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

# Recorded line-coverage floor for src/repro/engine (the chaos suite
# drives the supervise/faults recovery paths; benchmark.py's legs run under
# `make bench`, only its gate evaluator and a few leg smokes under unit
# tests, and it counts honestly against the total).
# Raised from 76 with the analysis suite (stagecache fingerprints, locks,
# journal writer guards ride along with the linter's regression tests);
# raised from 77 with the batch-simulator suite (task batching, store-set
# addressing, and a smoke over the benchmark's batch leg).
ENGINE_COV_FLOOR ?= 78

.PHONY: help test test-fast lint lint-c check coverage chaos serve-smoke \
	bench bench-full benchmarks

help:
	@echo "targets:"
	@echo "  make test       - full tier-1 pytest suite"
	@echo "  make test-fast  - tier-1 suite minus the 'slow' marker"
	@echo "                    (annealer/simulator/experiment-heavy tests)"
	@echo "  make lint       - contract linter (repro.analysis): stage input"
	@echo "                    declarations, determinism, pickling safety,"
	@echo "                    lock discipline, stage salts; plus lint-c"
	@echo "  make lint-c     - the C simulation kernel compiled with"
	@echo "                    -Wall -Wextra -Werror"
	@echo "  make check      - compileall smoke + lint-c + contract linter"
	@echo "                    + full tier-1 suite"
	@echo "  make coverage   - engine-focused tests under line coverage of"
	@echo "                    src/repro/engine; fails below $(ENGINE_COV_FLOOR)%"
	@echo "  make chaos      - fault-injection suite: every supervision"
	@echo "                    recovery path under injected faults, plus"
	@echo "                    the campaign service killed and resumed"
	@echo "  make serve-smoke- end-to-end campaign service smoke (submit,"
	@echo "                    drain, journal/store consistency)"
	@echo "  make bench      - quick engine benchmark on 4 workers: writes"
	@echo "                    BENCH_engine.json with its gate verdicts and"
	@echo "                    fails on any failed gate (identity, speedup"
	@echo "                    floors, overhead ceilings)"
	@echo "  make bench-full - full engine benchmark, same gates"
	@echo "  make benchmarks - paper-figure benchmark harness (slow)"

test:
	$(PYTHON) -m pytest -x -q

# Skips tests marked @pytest.mark.slow (floorplan annealer, cycle-accurate
# simulator, full experiment regenerations) for a quick inner loop.
test-fast:
	$(PYTHON) -m pytest -x -q -m "not slow"

# The contract linter: every RPL### invariant (stage input declarations,
# determinism, pickling safety, lock discipline, stage salts) over
# src/repro. Exits non-zero on any unsuppressed finding.
lint: lint-c
	$(PYTHON) -m repro.cli lint

# The C simulation kernel with every warning an error. The source is found
# the way the kernel loader finds it (next to repro/noc/ckernel.py); -O2
# because some warnings need the optimiser's analyses.
lint-c:
	$(CC) -std=c99 -O2 -Wall -Wextra -Werror -c -o /dev/null \
	    "$$($(PYTHON) -c 'from repro.noc import ckernel; print(ckernel.SOURCE)')"

# The CI gate: a whole-tree import/compile smoke, the C kernel's warnings,
# the contract linter (which subsumes the old stage-salt check), then the
# full suite.
check: lint-c
	$(PYTHON) -m compileall -q src
	$(PYTHON) -m repro.cli lint
	$(PYTHON) -m pytest -x -q

# Engine coverage gate: settrace-based line coverage (no external coverage
# package in the container), failing under the recorded floor.
coverage:
	$(PYTHON) tools/engine_coverage.py --floor $(ENGINE_COV_FLOOR) -- -q \
	    tests/test_engine.py tests/test_store.py tests/test_profile.py \
	    tests/test_cache_cli.py tests/test_stagecache.py \
	    tests/test_paths_micro_bench.py tests/test_faults.py \
	    tests/test_locks.py tests/test_journal.py \
	    tests/test_campaign_spec.py tests/test_campaign_service.py \
	    tests/test_analysis.py

# The chaos gate: retries, deadlines, quarantine, Ctrl-C and resume under
# deterministic injected faults (transient failures, worker crashes,
# hangs), plus the service-level suite: a campaign service killed at
# exact points (journal append, batch entry, job boundary, mid-eviction)
# and resumed bit-identically.
chaos:
	$(PYTHON) -m pytest -x -q tests/test_faults.py \
	    tests/test_service_chaos.py tests/test_locks.py

# End-to-end campaign service smoke through the real CLI: three specs
# submitted (plus one refused), served to drain, then journal, store,
# result files and inbox checked for mutual consistency.
serve-smoke:
	$(PYTHON) tools/serve_smoke.py

# Quick engine benchmark on a 4-worker pool (the same call as
# benchmarks/bench_engine_scaling.py); writes BENCH_engine.json with the
# verdict of every row of repro.engine.benchmark.GATES and exits non-zero
# on any failed gate.
bench:
	$(PYTHON) -m repro.cli bench --quick --jobs 4

bench-full:
	$(PYTHON) -m repro.cli bench

# The full paper-figure benchmark harness (slow). Explicit file list:
# bench_*.py does not match pytest's default test-file pattern.
benchmarks:
	$(PYTHON) -m pytest benchmarks/bench_*.py -q -s
