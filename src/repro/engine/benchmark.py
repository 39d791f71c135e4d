"""The engine scaling benchmark: sweep parallelism + hot paths.

Measures the claims this subsystem makes and writes them to
``BENCH_engine.json`` so the perf trajectory is tracked PR over PR:

* **sweep scaling** — a frequency × α grid over a D_26-style synthetic
  design, run serially and on a worker pool; reports wall-clock per
  synthesis point and the sweep-level speedup, and checks the merged
  design points are identical (order-normalised);
* **result-store reuse** — the same sweep run cold (computing + writing a
  fresh :class:`~repro.engine.store.ResultStore`) and warm (served entirely
  from disk); reports the warm-over-cold speedup and checks the merged
  points are identical to the storeless baseline;
* **per-stage memoization** — a *warm-adjacent* sweep over a populated
  stage cache (:mod:`repro.engine.stagecache`): the metrics objective is
  flipped so only the metrics stage is invalidated, every upstream stage is
  served from disk; reports the speedup over the uncached sweep at the same
  config, checks only the delta stage missed, and that the merged points
  are identical to the uncached reference;
* **routing hot path** — ``compute_paths`` (optimised) versus the frozen
  naive baseline of :mod:`repro.engine.reference` on the same design,
  single-threaded; reports the speedup and checks route identity;
* **floorplan annealing hot path** — the incremental
  :mod:`repro.floorplan.engine` evaluator versus the frozen naive baseline
  of :mod:`repro.floorplan.reference` on the same design's 2-D
  floorplanning problem, single-threaded moves/sec plus the multi-start
  serial/parallel leg, with bit-identity checks;
* **wormhole simulator hot path** — ``WormholeSimulator.run`` versus the
  frozen naive baseline of :mod:`repro.noc.reference` on the same design's
  synthesized topology, single-threaded cycles/sec at validation load
  (with a saturation point recorded too) plus the parallel
  traffic-campaign leg, with bit-identity checks; ``simulator.kernel``
  records which cycle loop ran (``"c"``, or ``"numpy"`` when the C kernel
  could not be built), so a fallback run never passes for a kernel one;
* **supervision overhead & recovery** — the same parallel sweep with the
  :mod:`repro.engine.supervise` knobs armed (retries + per-task deadline)
  versus plain, fault-free (the overhead claim), and with one injected
  worker crash under ``on_error="quarantine"`` (wall-clock to complete the
  campaign with the poison task quarantined and every survivor identical
  to the fault-free merge);
* **campaign service** — three campaigns through the durable
  :mod:`repro.campaign` service: sequential versus round-robin concurrent
  submission (gated on zero lost / duplicated jobs and identical result
  digests) and an interrupted-then-resumed run (gated on journal-replay
  overhead <= 5% over the uninterrupted wall time).

Every claim above is one row of :data:`GATES`; :func:`run_engine_benchmark`
judges the report it writes against that table and records the verdicts
in its ``gates`` block. Shared by ``python -m repro.cli bench`` (``make
bench``, which exits 1 on any ``fail``) and
``benchmarks/bench_engine_scaling.py``, which make the same call.
"""

from __future__ import annotations

import json
import operator
import os
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence

from repro.bench.synthetic import synthetic_benchmark
from repro.core.config import SynthesisConfig
from repro.core.paths import build_topology_skeleton, compute_paths
from repro.core.phase1 import phase1_candidate
from repro.core.pipeline import StageTimings
from repro.engine.executor import resolve_jobs, run_tasks
from repro.engine.grid import ParameterGrid, build_tasks
from repro.engine.reference import naive_compute_paths
from repro.errors import PathComputationError
from repro.noc.export import design_point_to_dict, topology_to_dict

#: Default output file, tracked at the repo root.
DEFAULT_OUTPUT = "BENCH_engine.json"

#: The D_26-style synthetic design both measurements run on.
_DESIGN_CORES = 26
_DESIGN_PATTERN = "distributed"
_DESIGN_LAYERS = 3
_DESIGN_SEED = 3


def _design():
    return synthetic_benchmark(
        _DESIGN_CORES, _DESIGN_PATTERN, num_layers=_DESIGN_LAYERS,
        seed=_DESIGN_SEED, floorplan_moves=800,
    )


def _sweep_grid(quick: bool) -> ParameterGrid:
    if quick:
        return ParameterGrid(
            frequencies_mhz=(400.0, 500.0, 600.0, 700.0),
            alphas=(0.5, 0.9),
        )
    return ParameterGrid(
        frequencies_mhz=(300.0, 400.0, 500.0, 600.0, 700.0, 800.0),
        alphas=(0.3, 0.6, 0.9),
    )


def _canonical(results) -> List[Dict]:
    """Order-normalised serialisation of a merged sweep for comparison."""
    out = []
    for task_result in results:
        points = sorted(
            (design_point_to_dict(p) for p in task_result.result.points),
            key=lambda d: (d["switch_count"], d["metrics"]["total_power_mw"]),
        )
        out.append({"key": str(task_result.key), "points": points})
    return out


#: Pool size of the parallel legs under ``make bench``, and the CPU count
#: the pool-scaling gates need: a CPU-bound speedup beyond the core count
#: is physically impossible, so on smaller machines those floors are
#: recorded, not asserted.
SCALING_JOBS = 4


class Gate(NamedTuple):
    """One row of :data:`GATES`: ``report[path] <op> bound``, judged only
    when at least ``min_cpus`` CPUs are visible."""

    path: str
    op: str
    bound: object
    min_cpus: int = 1


_COMPARE = {
    "==": operator.eq, ">": operator.gt,
    ">=": operator.ge, "<=": operator.le,
}

#: Every claim the engine benchmark makes, leg by leg. Identity rows are
#: the contract that makes each speedup meaningful; the same-core floors
#: and overhead ceilings hold on any machine; the pool-scaling floors need
#: :data:`SCALING_JOBS` CPUs.
GATES = (
    Gate("sweep.identical_points", "==", True),
    Gate("sweep.valid_points", ">", 0),
    Gate("sweep.speedup", ">=", 2.0, min_cpus=SCALING_JOBS),
    # Warm rerun served wholly from the store; unpickling is cheap anywhere.
    Gate("cache.identical_results", "==", True),
    Gate("cache.warm_misses", "==", 0),
    Gate("cache.speedup", ">=", 5.0),
    # Warm-adjacent sweep re-runs only the invalidated metrics stage.
    Gate("stage_cache.identical_results", "==", True),
    Gate("stage_cache.cold_identical_results", "==", True),
    Gate("stage_cache.delta_stages_only", "==", True),
    Gate("stage_cache.speedup", ">=", 5.0),
    Gate("compute_paths.routes_identical", "==", True),
    Gate("compute_paths.speedup", ">=", 1.3),
    Gate("floorplan.identical_results", "==", True),
    Gate("floorplan.speedup", ">=", 3.0),
    Gate("floorplan.multistart.identical_results", "==", True),
    Gate("floorplan.multistart.speedup", ">=", 2.0,
         min_cpus=SCALING_JOBS),
    Gate("simulator.identical_results", "==", True),
    Gate("simulator.speedup", ">=", 3.0),
    Gate("simulator.saturation.identical_results", "==", True),
    Gate("simulator.campaign.identical_results", "==", True),
    Gate("simulator.campaign.speedup", ">=", 2.0, min_cpus=SCALING_JOBS),
    Gate("simulator.batch.identical_trajectories", "==", True),
    Gate("simulator.batch.speedup_vs_reference", ">=", 10.0),
    Gate("supervision.identical_results", "==", True),
    Gate("supervision.overhead_pct", "<=", 5.0),
    Gate("supervision.recovery.quarantined", "==", 1),
    Gate("supervision.recovery.poison_attributed", "==", True),
    Gate("supervision.recovery.survivors_identical", "==", True),
    Gate("service.lost_jobs", "==", 0),
    Gate("service.duplicated_jobs", "==", 0),
    Gate("service.digests_identical", "==", True),
    Gate("service.replay_overhead_pct", "<=", 5.0),
)


def evaluate_gates(report: Dict, gates: Sequence[Gate] = GATES) -> List[Dict]:
    """Judge ``report`` row by row: ``{name, value, bound, verdict,
    reason}`` with ``verdict`` one of ``pass``/``fail``/``skip``.

    A path missing from the report fails, naming the path, whatever the
    CPU count; a row whose CPU precondition is unmet is ``skip`` with its
    value still recorded.
    """
    cpus = report.get("cpu_count") or 1
    rows = []
    for gate in gates:
        value, found = report, True
        for key in gate.path.split("."):
            if not isinstance(value, dict) or key not in value:
                value, found = None, False
                break
            value = value[key]
        if not found:
            verdict, reason = "fail", f"{gate.path} missing from the report"
        elif cpus < gate.min_cpus:
            verdict = "skip"
            reason = (f"{value} recorded; needs >= {gate.min_cpus} CPUs, "
                      f"{cpus} visible")
        else:
            held = _COMPARE[gate.op](value, gate.bound)
            verdict = "pass" if held else "fail"
            reason = f"{value} {'' if held else 'not '}{gate.op} {gate.bound}"
        rows.append({"name": gate.path, "value": value, "bound": gate.bound,
                     "verdict": verdict, "reason": reason})
    return rows


def format_gates(rows: Sequence[Dict]) -> str:
    """The gate verdicts as an aligned table plus a one-line tally."""
    width = max((len(r["name"]) for r in rows), default=0)
    lines = [f"{r['verdict']:<4}  {r['name']:<{width}}  {r['reason']}"
             for r in rows]
    tally = {v: sum(r["verdict"] == v for r in rows)
             for v in ("pass", "fail", "skip")}
    lines.append("gates: " + ", ".join(f"{n} {v}" for v, n in tally.items()))
    return "\n".join(lines)


def run_engine_benchmark(
    *,
    quick: bool = True,
    jobs: Optional[int] = None,
    output: Optional[str] = DEFAULT_OUTPUT,
    log: Optional[Callable[[str], None]] = None,
) -> Dict:
    """Run every leg, judge the report against :data:`GATES`; returns (and
    optionally writes) the report with its ``stages`` and ``gates``."""
    say = log if log is not None else (lambda _msg: None)
    timings = StageTimings()
    # Honour an explicit worker count even above the visible CPU count (the
    # sweep-scaling claim is about a 4-worker pool); keep >= 2 so the
    # parallel leg actually exercises the pool.
    workers = max(2, resolve_jobs(jobs))

    bench = _design()
    base = SynthesisConfig(max_ill=16, switch_count_range=(2, 8))
    grid = _sweep_grid(quick)
    tasks = build_tasks(bench.core_spec_3d, bench.comm_spec, grid, base)
    say(f"sweep: {len(tasks)} synthesis points on {bench.name}")

    # Warm lazy imports (scipy LP backend etc.) so the serial baseline's
    # first point is not inflated against the parallel leg.
    run_tasks(tasks[:1], jobs=1)
    with timings.time("sweep_serial"):
        serial = run_tasks(tasks, jobs=1)
    with timings.time("sweep_parallel"):
        parallel = run_tasks(tasks, jobs=workers)
    serial_s = timings.best_s("sweep_serial")
    parallel_s = timings.best_s("sweep_parallel")
    identical = _canonical(serial) == _canonical(parallel)
    sweep_speedup = serial_s / parallel_s if parallel_s > 0 else float("inf")
    say(
        f"sweep: serial {serial_s:.2f}s, parallel({workers}) {parallel_s:.2f}s "
        f"-> {sweep_speedup:.2f}x (identical points: {identical})"
    )

    cache_report = _bench_cache(tasks, serial, timings, say)
    stage_cache_report = _bench_stage_cache(bench, base, grid, timings, say)
    paths_report = _bench_compute_paths(bench, timings, say)
    floorplan_report = _bench_floorplan(bench, timings, say, workers, quick)
    simulator_report = _bench_simulator(bench, timings, say, workers, quick)
    supervision_report = _bench_supervision(tasks, serial, timings, say,
                                            workers)
    service_report = _bench_service(timings, say)

    report = {
        "benchmark": "engine-scaling",
        "design": bench.name,
        "quick": quick,
        "cpu_count": os.cpu_count(),
        "sweep": {
            "grid_points": len(tasks),
            "jobs": workers,
            "serial_s": round(serial_s, 4),
            "parallel_s": round(parallel_s, 4),
            "serial_per_point_s": [
                round(r.elapsed_s, 4) for r in serial
            ],
            "speedup": round(sweep_speedup, 3),
            "identical_points": identical,
            "valid_points": sum(len(r.result.points) for r in serial),
        },
        "cache": cache_report,
        "stage_cache": stage_cache_report,
        "compute_paths": paths_report,
        "floorplan": floorplan_report,
        "simulator": simulator_report,
        "supervision": supervision_report,
        "service": service_report,
        "stages": timings.as_dict(),
    }
    report["gates"] = evaluate_gates(report)
    if output:
        Path(output).write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n"
        )
        say(f"wrote {output}")
    return report


def _bench_cache(
    tasks, serial_results, timings: StageTimings,
    say: Callable[[str], None],
) -> Dict:
    """Cold vs warm store-backed sweep: the result-reuse claim.

    The cold leg recomputes every point while writing the store; the warm
    leg serves the whole sweep from disk. Both must merge bit-identically
    to the plain serial baseline.
    """
    import shutil
    import tempfile

    from repro.engine.store import ResultStore

    tmp = tempfile.mkdtemp(prefix="repro-bench-store-")
    try:
        store = ResultStore(tmp)
        with timings.time("sweep_cold_store"):
            cold = run_tasks(tasks, jobs=1, store=store)
        with timings.time("sweep_warm_store"):
            warm = run_tasks(tasks, jobs=1, store=store)
        stats = store.stats()
        entries, total_bytes = stats.entries, stats.total_bytes
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    cold_s = timings.best_s("sweep_cold_store")
    warm_s = timings.best_s("sweep_warm_store")
    speedup = cold_s / warm_s if warm_s > 0 else float("inf")
    identical = (
        _canonical(cold) == _canonical(warm) == _canonical(serial_results)
    )
    warm_hits = sum(1 for r in warm if r.cached)
    say(
        f"cache: cold {cold_s:.2f}s, warm {warm_s:.3f}s -> {speedup:.1f}x "
        f"({warm_hits}/{len(tasks)} hits, {entries} entries, "
        f"identical merge: {identical})"
    )
    return {
        "grid_points": len(tasks),
        "cold_s": round(cold_s, 4),
        "warm_s": round(warm_s, 5),
        "speedup": round(speedup, 3),
        "warm_hits": warm_hits,
        "warm_misses": len(tasks) - warm_hits,
        "entries": entries,
        "store_bytes": total_bytes,
        "identical_results": identical,
    }


def _bench_stage_cache(
    bench, base, grid, timings: StageTimings,
    say: Callable[[str], None],
) -> Dict:
    """Warm-adjacent sweep over a stage cache: the delta-stages claim.

    Runs on the constrained-annealer floorplanner (``base`` with
    ``floorplanner="constrained"``) so that stage work — the part
    memoization removes — dominates the irreducible serial candidate
    *generation* that every leg pays; on the default cheap floorplanner
    the ratio would mostly measure graph partitioning. Four serial legs
    (so the numbers are CPU-count independent):

    1. *reference* — a plain uncached sweep at the *adjacent* config (the
       heavy base with the metrics objective flipped): what re-exploring a
       neighbouring design point costs without stage memoization;
    2. *plain* — the heavy base config uncached, the identity reference
       for the cold leg;
    3. *cold* — the heavy-base sweep writing a fresh stage cache; its
       merged points must be identical to the plain sweep (stage caching
       never changes results, only wall clock);
    4. *warm-adjacent* — the adjacent-config sweep over that populated
       cache. The objective only enters the metrics stage's fingerprint,
       so every upstream stage (skeleton, routing, LP, floorplan, verify)
       is served from disk and only metrics executes.

    Gated claims: the warm-adjacent merge is canonically identical to the
    uncached reference, only the delta stage missed, and the speedup
    (reference over warm-adjacent) clears its floor in :data:`GATES`.
    """
    import shutil
    import tempfile

    from repro.engine.stagecache import merge_stage_stats

    heavy = base.with_(floorplanner="constrained")
    adjacent = heavy.with_(
        objective="latency" if heavy.objective == "power" else "power"
    )
    core_spec, comm_spec = bench.core_spec_3d, bench.comm_spec
    ref_tasks = build_tasks(core_spec, comm_spec, grid, adjacent)
    with timings.time("stage_cache_reference"):
        reference = run_tasks(ref_tasks, jobs=1)
    with timings.time("stage_cache_plain"):
        plain = run_tasks(
            build_tasks(core_spec, comm_spec, grid, heavy), jobs=1
        )

    tmp = tempfile.mkdtemp(prefix="repro-bench-stagecache-")
    try:
        cold_tasks = build_tasks(
            core_spec, comm_spec, grid, heavy, stage_cache_dir=tmp,
        )
        with timings.time("stage_cache_cold"):
            cold = run_tasks(cold_tasks, jobs=1)
        warm_tasks = build_tasks(
            core_spec, comm_spec, grid, adjacent, stage_cache_dir=tmp,
        )
        with timings.time("stage_cache_warm_adjacent"):
            warm = run_tasks(warm_tasks, jobs=1)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    ref_s = timings.best_s("stage_cache_reference")
    cold_s = timings.best_s("stage_cache_cold")
    warm_s = timings.best_s("stage_cache_warm_adjacent")
    speedup = ref_s / warm_s if warm_s > 0 else float("inf")

    stats: Dict = {}
    for task_result in warm:
        if task_result.stage_cache:
            merge_stage_stats(stats, task_result.stage_cache)
    missed = sorted(n for n, c in stats.items() if c.get("misses"))
    delta_only = missed == ["metrics"]
    identical = _canonical(warm) == _canonical(reference)
    cold_identical = _canonical(cold) == _canonical(plain)
    say(
        f"stage cache: reference {ref_s:.2f}s, cold {cold_s:.2f}s, "
        f"warm-adjacent {warm_s:.2f}s -> {speedup:.1f}x "
        f"(missed stages: {missed}, identical merge: {identical})"
    )
    return {
        "grid_points": len(ref_tasks),
        "reference_s": round(ref_s, 4),
        "plain_s": round(timings.best_s("stage_cache_plain"), 4),
        "cold_s": round(cold_s, 4),
        "warm_adjacent_s": round(warm_s, 4),
        "speedup": round(speedup, 3),
        "missed_stages": missed,
        "delta_stages_only": delta_only,
        "identical_results": identical,
        "cold_identical_results": cold_identical,
        "stages": stats,
    }


def _bench_compute_paths(
    bench, timings: StageTimings, say: Callable[[str], None]
) -> Dict:
    """Single-threaded optimised vs naive routing on the synthetic design."""
    config = SynthesisConfig(max_ill=16)
    from repro.core.synthesis import SunFloor3D

    tool = SunFloor3D(bench.core_spec_3d, bench.comm_spec, config=config)
    graph, library = tool.graph, tool.library
    centers = tool._core_centers
    counts = range(3, 11)
    assignments = [phase1_candidate(graph, config, c) for c in counts]

    def route_all(router) -> List[Dict]:
        topologies = []
        for assignment in assignments:
            try:
                topo = build_topology_skeleton(
                    assignment, graph, library, config, centers
                )
                router(topo, graph, library, config, centers)
                topologies.append(topology_to_dict(topo))
            except PathComputationError:
                topologies.append(None)
        return topologies

    route_all(compute_paths)  # warm both code paths and the benchmark caches
    repeats = 5
    optimized = naive = None
    for _ in range(repeats):
        with timings.time("paths_optimized"):
            optimized = route_all(compute_paths)
        with timings.time("paths_naive"):
            naive = route_all(naive_compute_paths)
    optimized_s = timings.best_s("paths_optimized")
    naive_s = timings.best_s("paths_naive")
    speedup = naive_s / optimized_s if optimized_s > 0 else float("inf")
    identical = optimized == naive
    say(
        f"compute_paths: naive {naive_s * 1e3:.1f}ms, optimized "
        f"{optimized_s * 1e3:.1f}ms -> {speedup:.2f}x "
        f"(identical routes: {identical})"
    )
    return {
        "flows": len(graph.edges),
        "switch_candidates": len(assignments),
        "naive_s": round(naive_s, 5),
        "optimized_s": round(optimized_s, 5),
        "speedup": round(speedup, 3),
        "routes_identical": identical,
    }


#: Multi-start restart count of the floorplan benchmark's parallel leg.
_FLOORPLAN_RESTARTS = 4


def _bench_floorplan(
    bench, timings: StageTimings, say: Callable[[str], None],
    workers: int, quick: bool,
) -> Dict:
    """Incremental vs naive annealing moves/sec + multi-start scaling.

    Both anneals run the same problem — the benchmark design's 2-D
    floorplan (blocks + bandwidth-weighted nets) — with identical seeds;
    results must be bit-identical, so the speedup is pure evaluation cost.
    """
    from repro.bench.floorplans import _bandwidth_nets
    from repro.floorplan.annealer import anneal_floorplan
    from repro.floorplan.reference import naive_anneal_floorplan
    from repro.graphs.comm_graph import build_comm_graph

    core_spec = bench.core_spec_2d
    graph = build_comm_graph(core_spec, bench.comm_spec)
    widths = [c.width for c in core_spec]
    heights = [c.height for c in core_spec]
    nets = _bandwidth_nets(graph, list(range(len(core_spec))))
    moves = 1500 if quick else 4000
    kwargs = dict(wirelength_weight=1.0, seed=7, moves=moves)

    # Warm both code paths (numpy import, rng digest) off the clock.
    anneal_floorplan(widths, heights, nets, **{**kwargs, "moves": 50})
    naive_anneal_floorplan(widths, heights, nets, **{**kwargs, "moves": 50})

    incremental = naive = None
    for _ in range(3):
        with timings.time("floorplan_incremental"):
            incremental = anneal_floorplan(widths, heights, nets, **kwargs)
        with timings.time("floorplan_naive"):
            naive = naive_anneal_floorplan(widths, heights, nets, **kwargs)
    incremental_s = timings.best_s("floorplan_incremental")
    naive_s = timings.best_s("floorplan_naive")
    identical = incremental == naive
    speedup = naive_s / incremental_s if incremental_s > 0 else float("inf")
    say(
        f"floorplan: naive {moves / naive_s:,.0f} moves/s, incremental "
        f"{moves / incremental_s:,.0f} moves/s -> {speedup:.2f}x "
        f"(identical results: {identical})"
    )

    # Multi-start leg: K restarts serial vs fanned across the pool.
    # Best-of-3 like the single-thread leg, so one scheduler stall (or the
    # pool creation inside the timed region) cannot flip the scaling gate.
    multi_kwargs = dict(kwargs, restarts=_FLOORPLAN_RESTARTS)
    anneal_floorplan(  # warm the pool code path
        widths, heights, nets, **{**multi_kwargs, "moves": 50}, jobs=workers
    )
    serial = parallel = None
    for _ in range(3):
        with timings.time("floorplan_multistart_serial"):
            serial = anneal_floorplan(
                widths, heights, nets, **multi_kwargs, jobs=1
            )
        with timings.time("floorplan_multistart_parallel"):
            parallel = anneal_floorplan(
                widths, heights, nets, **multi_kwargs, jobs=workers
            )
    serial_s = timings.best_s("floorplan_multistart_serial")
    parallel_s = timings.best_s("floorplan_multistart_parallel")
    multi_identical = serial == parallel
    multi_speedup = serial_s / parallel_s if parallel_s > 0 else float("inf")
    say(
        f"floorplan multi-start: serial {serial_s:.2f}s, parallel({workers}) "
        f"{parallel_s:.2f}s -> {multi_speedup:.2f}x "
        f"(identical merge: {multi_identical}, "
        f"winner restart {serial.restart_index})"
    )

    return {
        "blocks": len(widths),
        "nets": len(nets),
        "moves": moves,
        "naive_s": round(naive_s, 5),
        "incremental_s": round(incremental_s, 5),
        "naive_moves_per_s": round(moves / naive_s, 1),
        "incremental_moves_per_s": round(moves / incremental_s, 1),
        "speedup": round(speedup, 3),
        "identical_results": identical,
        "multistart": {
            "restarts": _FLOORPLAN_RESTARTS,
            "jobs": workers,
            "serial_s": round(serial_s, 4),
            "parallel_s": round(parallel_s, 4),
            "speedup": round(multi_speedup, 3),
            "identical_results": multi_identical,
            "winner_restart": serial.restart_index,
        },
    }


def _bench_supervision(
    tasks, serial_results, timings: StageTimings,
    say: Callable[[str], None], workers: int,
) -> Dict:
    """Fault-free supervision overhead + crash-recovery wall time.

    The overhead leg runs the parallel sweep plain and with the supervision
    knobs armed (retries + a generous per-task deadline that never fires),
    best-of-3 interleaved so a scheduler stall cannot flip the comparison.
    The recovery leg injects one worker crash mid-campaign and measures the
    wall-clock for the supervised pool to attribute the crasher, quarantine
    it, regenerate the pool and finish every surviving point.
    """
    import shutil
    import tempfile

    from repro.engine.faults import FaultPlan, FaultSpec, inject_faults
    from repro.engine.supervise import RetryPolicy

    retry = RetryPolicy(max_retries=2)
    deadline_s = 300.0  # generous: never fires fault-free
    plain = armed = None
    for _ in range(3):
        with timings.time("supervision_plain"):
            plain = run_tasks(tasks, jobs=workers)
        with timings.time("supervision_armed"):
            armed = run_tasks(
                tasks, jobs=workers, retry=retry,
                task_timeout_s=deadline_s, on_error="quarantine",
            )
    plain_s = timings.best_s("supervision_plain")
    armed_s = timings.best_s("supervision_armed")
    overhead_pct = (
        (armed_s - plain_s) / plain_s * 100.0 if plain_s > 0 else 0.0
    )
    identical = (
        _canonical(armed) == _canonical(plain) == _canonical(serial_results)
    )
    say(
        f"supervision: plain {plain_s:.2f}s, armed {armed_s:.2f}s -> "
        f"{overhead_pct:+.1f}% overhead (identical points: {identical})"
    )

    # Recovery: crash one task's worker mid-campaign; the supervised pool
    # must quarantine exactly that task and finish the rest.
    crash_index = len(tasks) // 2
    tmp = tempfile.mkdtemp(prefix="repro-bench-faults-")
    try:
        # times > 1: a genuine poison task crashes its worker every attempt
        # (a once-only crash would be acquitted by the solo re-run).
        plan = FaultPlan(tmp, {crash_index: FaultSpec("crash", times=100)})
        faulty = inject_faults(tasks, plan)
        with timings.time("supervision_recovery"):
            recovered = run_tasks(
                faulty, jobs=workers, task_timeout_s=deadline_s,
                on_error="quarantine",
            )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    recovery_s = timings.best_s("supervision_recovery")
    quarantined = [r for r in recovered if r.error is not None]
    poison_attributed = (
        len(quarantined) == 1
        and quarantined[0].key == tasks[crash_index].key
    )
    survivors_identical = _canonical(
        [r for r in recovered if r.error is None]
    ) == _canonical(
        [r for i, r in enumerate(serial_results) if i != crash_index]
    )
    say(
        f"supervision recovery: {recovery_s:.2f}s with 1 injected crash "
        f"(poison attributed: {poison_attributed}, survivors identical: "
        f"{survivors_identical})"
    )
    return {
        "grid_points": len(tasks),
        "jobs": workers,
        "plain_s": round(plain_s, 4),
        "armed_s": round(armed_s, 4),
        "overhead_pct": round(overhead_pct, 2),
        "identical_results": identical,
        "recovery": {
            "injected_crashes": 1,
            "recovery_s": round(recovery_s, 4),
            "quarantined": len(quarantined),
            "poison_attributed": poison_attributed,
            "attempts": quarantined[0].attempts if quarantined else 0,
            "survivors_identical": survivors_identical,
        },
    }


#: The campaign-service benchmark workload: three small real campaigns
#: (d26_media, tiny switch range) totalling 12 synthesis tasks — enough
#: work that the fixed costs of journal replay and store hits are a small
#: fraction, small enough for the quick CI gate.
_SERVICE_SPECS = (
    {
        "name": "svc-a", "kind": "sweep", "benchmark": "d26_media",
        "grid": {"frequencies_mhz": [400, 500, 600, 700]},
        "config": {"switch_count_range": [3, 4]},
    },
    {
        "name": "svc-b", "kind": "sweep", "benchmark": "d26_media",
        "grid": {"frequencies_mhz": [450, 550, 650, 750]},
        "config": {"switch_count_range": [3, 4]},
    },
    {
        "name": "svc-c", "kind": "sweep", "benchmark": "d26_media",
        "grid": {"frequencies_mhz": [420, 520, 620, 720]},
        "config": {"switch_count_range": [3, 4]},
    },
)


def _bench_service(
    timings: StageTimings, say: Callable[[str], None],
) -> Dict:
    """Campaign-service throughput and durability cost.

    Three legs over the same three campaigns:

    * **sequential** — each job drained before the next is submitted
      (batch = whole job): the no-scheduler baseline;
    * **concurrent** — all three queued at once, round-robin with
      ``batch_size=1``: the service's fairness mode. Gated on zero
      lost / duplicated jobs and result digests identical to the
      sequential leg — on one CPU concurrency buys fairness, not speed,
      so only *identity* is gated, and the relative wall time is
      recorded for the trajectory;
    * **interrupted** — the concurrent run stopped after half the task
      batches, then finished by a second, ``resume=True`` service. The
      extra cost over the uninterrupted concurrent leg — journal replay,
      spec recompilation, store hits for already-done tasks — is the
      **replay overhead**, gated at <= 5%.
    """
    import shutil
    import tempfile

    from repro.campaign import CampaignService
    from repro.campaign.journal import JobJournal
    from repro.campaign.spec import CampaignSpec

    specs = [CampaignSpec.from_dict(d) for d in _SERVICE_SPECS]
    total_tasks = sum(s.task_count for s in specs)
    whole_job = max(s.task_count for s in specs)

    def digests(root) -> Dict[str, str]:
        state = CampaignService.status(root)
        return {
            job.spec["name"]: job.digest for job in state.jobs.values()
        }

    def done_counts(root) -> Dict[str, int]:
        journal = JobJournal(Path(root) / "journal.jsonl", writer=False)
        counts: Dict[str, int] = {}
        for record in journal.iter_records():
            if record["event"] == "done":
                counts[record["job"]] = counts.get(record["job"], 0) + 1
        return counts

    root = Path(tempfile.mkdtemp(prefix="repro-bench-service-"))
    try:
        with timings.time("service_sequential"):
            with CampaignService(
                root / "sequential", batch_size=whole_job,
            ) as svc:
                for spec in specs:
                    svc.submit(spec)
                    svc.run_until_idle(poll_inbox=False)
        sequential_s = timings.best_s("service_sequential")

        with timings.time("service_concurrent"):
            with CampaignService(root / "concurrent", batch_size=1) as svc:
                for spec in specs:
                    svc.submit(spec)
                svc.run_until_idle(poll_inbox=False)
        concurrent_s = timings.best_s("service_concurrent")

        with timings.time("service_interrupted"):
            with CampaignService(
                root / "interrupted", batch_size=1,
            ) as svc:
                for spec in specs:
                    svc.submit(spec)
                for _ in range(total_tasks // 2):
                    svc.step()
            # A second service finishes what the first left: journal
            # replay, recompile, store hits for every completed batch.
            with CampaignService(
                root / "interrupted", batch_size=1, resume=True,
            ) as svc:
                svc.run_until_idle(poll_inbox=False)
        interrupted_s = timings.best_s("service_interrupted")

        sequential_digests = digests(root / "sequential")
        concurrent_digests = digests(root / "concurrent")
        interrupted_digests = digests(root / "interrupted")
        counts = done_counts(root / "concurrent")
        lost = len(specs) - len(counts)
        duplicated = sum(1 for n in counts.values() if n > 1)
    finally:
        shutil.rmtree(root, ignore_errors=True)

    digests_identical = (
        sequential_digests == concurrent_digests == interrupted_digests
        and all(sequential_digests.values())
    )
    concurrent_vs_sequential_pct = (
        (concurrent_s - sequential_s) / sequential_s * 100.0
        if sequential_s > 0 else 0.0
    )
    replay_overhead_pct = (
        (interrupted_s - concurrent_s) / concurrent_s * 100.0
        if concurrent_s > 0 else 0.0
    )
    say(
        f"service: sequential {sequential_s:.2f}s, concurrent "
        f"{concurrent_s:.2f}s ({concurrent_vs_sequential_pct:+.1f}%), "
        f"interrupted+resumed {interrupted_s:.2f}s "
        f"(replay overhead {replay_overhead_pct:+.1f}%; lost {lost}, "
        f"duplicated {duplicated}, digests identical: {digests_identical})"
    )
    return {
        "jobs_submitted": len(specs),
        "tasks_total": total_tasks,
        "sequential_s": round(sequential_s, 4),
        "concurrent_s": round(concurrent_s, 4),
        "concurrent_vs_sequential_pct": round(
            concurrent_vs_sequential_pct, 2
        ),
        "interrupted_s": round(interrupted_s, 4),
        "replay_overhead_pct": round(replay_overhead_pct, 2),
        "lost_jobs": lost,
        "duplicated_jobs": duplicated,
        "digests_identical": digests_identical,
    }


#: Load points of the simulator benchmark: the gated validation load and a
#: recorded (ungated) saturation point.
_SIM_GATE_SCALE = 0.3
_SIM_SATURATION_SCALE = 1.0
_SIM_SEED = 5
#: The parallel traffic-campaign leg: seeds × injection scales.
_SIM_CAMPAIGN_SEEDS = (0, 1)
_SIM_CAMPAIGN_SCALES = (0.3, 0.8)
#: Replications in the batch leg (trimmed in full mode where
#: the 3x longer horizon already amortises the schedule build).
_SIM_BATCH_K_QUICK = 512
_SIM_BATCH_K_FULL = 256
#: Replications in the batch leg's trajectory-identity check (traces on).
_SIM_BATCH_IDENTITY_K = 4


def _bench_simulator(
    bench, timings: StageTimings, say: Callable[[str], None],
    workers: int, quick: bool,
) -> Dict:
    """Simulator engine vs naive wormhole simulator + campaign scaling.

    Both simulators run the same synthesized topology with identical seeds
    and scenarios; the stats must be bit-identical, so the speedup is pure
    simulation-machinery cost. The single-thread claim is gated at the
    validation load (``_SIM_GATE_SCALE``); a saturation point is recorded
    for the trajectory without being gated (under full load the event-driven
    advantage shrinks by design — the network is genuinely busy). The
    ``batch`` sub-report (:func:`_bench_sim_batch`) measures the vectorised
    K-replication engine against per-process solo runs, per core.
    """
    from repro.core.synthesis import synthesize
    from repro.engine.tasks import simulation_tasks
    from repro.noc.batchengine import kernel_name
    from repro.noc.reference import ReferenceWormholeSimulator
    from repro.noc.simulator import WormholeSimulator

    kernel = kernel_name()
    say(f"simulator: kernel={kernel}")
    config = SynthesisConfig(max_ill=16, switch_count_range=(4, 6))
    point = synthesize(
        bench.core_spec_3d, bench.comm_spec, config=config
    ).best_power()
    topo = point.topology
    cycles = 4_000 if quick else 12_000
    warmup = cycles // 10

    def measure(scale: float, stage: str) -> Dict:
        # Warm both code paths (imports, schedule building) off the clock.
        WormholeSimulator(topo, seed=_SIM_SEED).run(
            cycles=200, warmup=0, injection_scale=scale
        )
        ReferenceWormholeSimulator(topo, seed=_SIM_SEED).run(
            cycles=200, warmup=0, injection_scale=scale
        )
        engine_stats = naive_stats = None
        for _ in range(3):
            with timings.time(f"sim_engine_{stage}"):
                engine_stats = WormholeSimulator(topo, seed=_SIM_SEED).run(
                    cycles=cycles, warmup=warmup, injection_scale=scale
                )
            with timings.time(f"sim_naive_{stage}"):
                naive_stats = ReferenceWormholeSimulator(
                    topo, seed=_SIM_SEED
                ).run(cycles=cycles, warmup=warmup, injection_scale=scale)
        engine_s = timings.best_s(f"sim_engine_{stage}")
        naive_s = timings.best_s(f"sim_naive_{stage}")
        total_cycles = cycles + engine_stats.drain_cycles
        speedup = naive_s / engine_s if engine_s > 0 else float("inf")
        identical = engine_stats == naive_stats
        say(
            f"simulator @ scale {scale}: naive "
            f"{total_cycles / naive_s:,.0f} cyc/s, engine "
            f"{total_cycles / engine_s:,.0f} cyc/s -> {speedup:.2f}x "
            f"(identical stats: {identical})"
        )
        return {
            "injection_scale": scale,
            "simulated_cycles": total_cycles,
            "naive_s": round(naive_s, 5),
            "engine_s": round(engine_s, 5),
            "naive_cycles_per_s": round(total_cycles / naive_s, 1),
            "engine_cycles_per_s": round(total_cycles / engine_s, 1),
            "speedup": round(speedup, 3),
            "identical_results": identical,
        }

    gate = measure(_SIM_GATE_SCALE, "gate")
    saturation = measure(_SIM_SATURATION_SCALE, "saturation")

    # Parallel traffic-campaign leg: (scale × seed) sweep, serial vs pool.
    tasks = simulation_tasks(
        topo, ("bernoulli",), _SIM_CAMPAIGN_SCALES, _SIM_CAMPAIGN_SEEDS,
        None, cycles, warmup, packet_length_flits=4,
    )
    run_tasks(tasks[:1], jobs=1)  # warm the serial path
    run_tasks(tasks, jobs=workers)  # warm the pool code path
    serial = parallel = None
    for _ in range(3):
        with timings.time("sim_campaign_serial"):
            serial = run_tasks(tasks, jobs=1)
        with timings.time("sim_campaign_parallel"):
            parallel = run_tasks(tasks, jobs=workers)
    serial_s = timings.best_s("sim_campaign_serial")
    parallel_s = timings.best_s("sim_campaign_parallel")
    campaign_identical = (
        [r.result for r in serial] == [r.result for r in parallel]
    )
    campaign_speedup = serial_s / parallel_s if parallel_s > 0 else float("inf")
    say(
        f"simulator campaign: serial {serial_s:.2f}s, parallel({workers}) "
        f"{parallel_s:.2f}s -> {campaign_speedup:.2f}x "
        f"(identical merge: {campaign_identical})"
    )

    batch_report = _bench_sim_batch(topo, timings, say, cycles, warmup,
                                    quick)

    report = dict(gate)
    report.update({
        "kernel": kernel,
        "design_links": len(topo.links),
        "design_flows": len(topo.routes),
        "saturation": saturation,
        "campaign": {
            "tasks": len(tasks),
            "jobs": workers,
            "serial_s": round(serial_s, 4),
            "parallel_s": round(parallel_s, 4),
            "speedup": round(campaign_speedup, 3),
            "identical_results": campaign_identical,
        },
        "batch": batch_report,
    })
    return report


def _bench_sim_batch(
    topo, timings: StageTimings, say: Callable[[str], None],
    cycles: int, warmup: int, quick: bool,
) -> Dict:
    """``run_batch`` over K replications: campaign reps/sec per core.

    The gated claim is the ROADMAP's cumulative campaign-throughput target:
    K replications in one ``run_batch`` call on one core deliver >= 10x the
    replications/sec of the per-process campaign loop of solo runs of the
    frozen :mod:`repro.noc.reference` simulator, one replication at a time
    (the same baseline the single-thread ``speedup`` gate measures). The
    further ratio over solo ``run`` is recorded ungated. Everything here is
    single-process on one core, so the numbers are CPU-count independent by
    construction.

    Before anything is timed, a small batch (traces on) is checked
    bit-identical to solo ``run`` calls *and* the frozen reference,
    replication by replication.
    """
    from repro.noc.reference import ReferenceWormholeSimulator
    from repro.noc.simulator import WormholeSimulator

    scale = _SIM_GATE_SCALE
    sim = WormholeSimulator(topo, seed=_SIM_SEED)

    # Trajectory identity, off the clock: batch vs solo vs frozen reference.
    id_cycles = min(cycles, 1_500)
    id_warmup = id_cycles // 10
    id_seeds = list(range(_SIM_BATCH_IDENTITY_K))
    batch_traces: list = [[] for _ in id_seeds]
    batch_stats = sim.run_batch(
        id_seeds, cycles=id_cycles, warmup=id_warmup,
        injection_scale=scale, traces=batch_traces,
    )
    identical = True
    for i, seed in enumerate(id_seeds):
        solo_trace: list = []
        solo_stats = WormholeSimulator(topo, seed=seed).run(
            cycles=id_cycles, warmup=id_warmup, injection_scale=scale,
            trace=solo_trace,
        )
        ref_trace: list = []
        ref_stats = ReferenceWormholeSimulator(topo, seed=seed).run(
            cycles=id_cycles, warmup=id_warmup, injection_scale=scale,
            trace=ref_trace,
        )
        identical = identical and (
            batch_stats[i] == solo_stats == ref_stats
            and batch_traces[i] == solo_trace == ref_trace
        )
    say(
        f"simulator batch: {len(id_seeds)}-replication trajectory identity "
        f"(batch vs solo vs reference, traces on): {identical}"
    )

    # Batch throughput: K replications in one call on one core.
    k = _SIM_BATCH_K_QUICK if quick else _SIM_BATCH_K_FULL
    batch_seeds = list(range(k))
    sim.run_batch(batch_seeds[:8], cycles=200, warmup=0,
                  injection_scale=scale)  # warm the vectorised path
    for _ in range(3):
        with timings.time("sim_batch_engine"):
            sim.run_batch(batch_seeds, cycles=cycles, warmup=warmup,
                          injection_scale=scale)
    batch_s = timings.best_s("sim_batch_engine")
    batch_rate = k / batch_s

    # Per-process solo baselines, one replication at a time on the same
    # core. ``measure(_SIM_GATE_SCALE, "gate")`` already timed both solo
    # loops (best of 3) at identical cycles/scale/seed — reuse them.
    solo_engine_s = timings.best_s("sim_engine_gate")
    reference_s = timings.best_s("sim_naive_gate")
    solo_engine_rate = 1.0 / solo_engine_s if solo_engine_s > 0 else 0.0
    reference_rate = 1.0 / reference_s if reference_s > 0 else 0.0
    vs_reference = (
        batch_rate / reference_rate if reference_rate > 0 else float("inf")
    )
    vs_solo_engine = (
        batch_rate / solo_engine_rate if solo_engine_rate > 0
        else float("inf")
    )
    say(
        f"simulator batch: K={k} in one call {batch_rate:,.1f} reps/s on one "
        f"core vs {reference_rate:,.1f} reps/s per-process reference "
        f"({vs_reference:.2f}x, gated) and {solo_engine_rate:,.1f} reps/s "
        f"solo engine ({vs_solo_engine:.2f}x, recorded)"
    )
    return {
        "replications": k,
        "injection_scale": scale,
        "batch_s": round(batch_s, 4),
        "batch_reps_per_s": round(batch_rate, 2),
        "reference_reps_per_s": round(reference_rate, 2),
        "solo_engine_reps_per_s": round(solo_engine_rate, 2),
        "speedup_vs_reference": round(vs_reference, 3),
        "speedup_vs_solo_engine": round(vs_solo_engine, 3),
        "identity_replications": len(id_seeds),
        "identical_trajectories": identical,
    }
