"""Engine benchmark gate — ``make bench`` under pytest-benchmark.

Not a paper figure: this is the repo's own perf-trajectory gate. It makes
the same call as ``make bench`` — :func:`repro.engine.benchmark.
run_engine_benchmark` in quick mode on a
:data:`~repro.engine.benchmark.SCALING_JOBS`-worker pool — which writes
``BENCH_engine.json`` at the repo root with the verdict of every row of
:data:`~repro.engine.benchmark.GATES` (bit-identity against the frozen
references, same-core speedup floors and overhead ceilings, and the
pool-scaling floors when enough CPUs are visible), and fails on any
``fail`` verdict.
"""

from pathlib import Path

from repro.engine.benchmark import (
    SCALING_JOBS,
    format_gates,
    run_engine_benchmark,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_engine.json"


def _run():
    return run_engine_benchmark(
        quick=True, jobs=SCALING_JOBS, output=str(OUTPUT), log=print
    )


def test_engine_scaling(benchmark):
    report = benchmark.pedantic(_run, rounds=1, iterations=1)
    print()
    print(format_gates(report["gates"]))
    failed = [g for g in report["gates"] if g["verdict"] == "fail"]
    assert not failed, "\n" + format_gates(failed)
