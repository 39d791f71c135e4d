"""The repository benchmark: paper synthesis, traffic simulation and a
served campaign, measured end to end and, traced, per layer.

    python3 perfbench/run.py --workload d26_media --seed 0 --seconds 40 \
        --trace 0

Run from the root of a checkout. Every sample is a fresh interpreter
(``worker.py``), as a command-line user starts one per call; this process
only starts them, times their set-up and aggregates. The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics under ``--trace 0`` and the per-layer metrics
under ``--trace 1``. See ``perfbench/README.md`` for the workloads, the
metrics and what each layer should move.
"""

import argparse
import json
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

#: Fresh interpreters that set up the inputs; ``setup_s`` is their median.
SETUP_SAMPLES = 5
#: A worker still running after this is stuck and gets killed (a run
#: must end within 180 s in all).
WORKER_TIMEOUT_S = 170.0

WORKLOADS = ("d26_media", "d36_8")
UNITS = {
    "setup_s": "s", "peak_rss_mb": "MB", "synth_s": "s",
    "sim_solo_cycles_per_s": "1/s", "sim_batch_cycles_per_s": "1/s",
    "campaign_drain_s": "s", "job_latency_s": "s",
}


class WorkerError(RuntimeError):
    pass


def run_worker(args, *, trace: int, mode: str, seconds: float) -> dict:
    """Start one worker; returns its result plus the set-up time measured
    here, from before the interpreter starts until it reports READY."""
    cmd = [
        sys.executable, str(WORKER), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", repr(seconds),
        "--trace", str(trace), "--mode", mode,
    ]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        out = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        # A killed worker cannot remove its own campaign spools.
        shutil.rmtree(ROOT / ".perfbench_tmp" / f"campaign-{proc.pid}",
                      ignore_errors=True)
    if ready.strip() != "READY" or proc.returncode != 0:
        raise WorkerError(
            f"worker {mode} failed with exit code {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    result["parent_setup_s"] = setup_s
    # Interpreter start-up before the worker's first line ran.
    result["startup_s"] = setup_s - result["setup_s"]
    return result


def totals(runs: list) -> tuple:
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    for r in runs:
        for problem in r["problems"]:
            print(f"check failed: {problem}", file=sys.stderr)
    return attempted, failed


def worker_order() -> list:
    """The measuring worker in the middle of the set-up-only ones, so a
    change of host speed during a run moves set-up samples on both sides
    of the measurement alike."""
    extra = SETUP_SAMPLES - 1
    before = extra // 2
    return ["setup"] * before + ["measure"] + ["setup"] * (extra - before)


def end_to_end(args) -> tuple:
    workers = [
        run_worker(args, trace=0, mode=mode, seconds=args.seconds)
        for mode in worker_order()
    ]
    run, = [r for r in workers if "measured" in r]
    metrics = dict(
        run["measured"], peak_rss_mb=run["peak_rss_mb"],
        setup_s=statistics.median(r["parent_setup_s"] for r in workers),
    )
    return [run], {k: {"value": metrics[k], "unit": u}
                   for k, u in UNITS.items()}


def layer_unit(name: str) -> str:
    """The unit a per-layer metric's name implies."""
    for suffix, unit in ((".s", "s"), ("_s", "s"), ("_pct", "%"),
                         (".us_per_flit", "us"), ("_ratio", "ratio"),
                         ("_share", "ratio"), (".bytes_written", "B")):
        if name.endswith(suffix):
            return unit
    return "count"


def per_layer(args) -> tuple:
    """One traced worker for the layers, between two untraced workers
    doing the same work for the tracing overhead."""
    # The three workers share the run's seconds (each does at least one
    # round), so a traced run stays within the time limit.
    seconds = args.seconds / 3
    before = run_worker(args, trace=0, mode="measure", seconds=seconds)
    traced = run_worker(args, trace=1, mode="measure", seconds=seconds)
    after = run_worker(args, trace=0, mode="measure", seconds=seconds)
    layers = traced["layers"]
    # Interpreter start-up precedes the worker's own clock.
    layers["import.s"] += traced["startup_s"]
    layers["trace.wall_s"] += traced["startup_s"]
    layers["trace.residual_share"] = (
        layers["trace.residual_s"] / layers["trace.wall_s"])
    plain = [before["measured"]["unit_s"], after["measured"]["unit_s"]]
    mean = statistics.mean(plain)
    layers["trace.overhead_pct"] = 100.0 * (
        traced["measured"]["unit_s"] / mean - 1.0)
    # The two untraced workers' own difference: an overhead smaller than
    # this is host noise, not tracing.
    layers["trace.untraced_gap_pct"] = 100.0 * abs(plain[1] - plain[0]) / mean
    metrics = {
        name: {"value": value, "unit": layer_unit(name)}
        for name, value in layers.items()
    }
    return [before, traced, after], metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Exit through the ``finally`` blocks that stop the running worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {ROOT} is not a checkout of the repository "
              "(src/repro is missing)", file=sys.stderr)
        return 2
    try:
        runs, metrics = (per_layer if args.trace else end_to_end)(args)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted, failed = totals(runs)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
