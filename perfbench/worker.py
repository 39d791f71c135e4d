"""One fresh benchmark process: import, set up, measure, check.

``run.py`` starts this file in a new interpreter for every sample, because
a command-line user pays the imports and benchmark construction on every
call. The protocol on standard output is two lines: ``READY`` once the
inputs exist (the parent times interpreter start to this line as set-up),
then one JSON object with what was measured and checked.

    python3 perfbench/worker.py --workload W --seed N --seconds S \
        --trace 0|1 --mode setup|measure

All timing happens here with tracing off unless ``--trace 1``; the output
checks run after the timed region and after the trace wrappers are
removed, so they cost the measurement nothing.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402  (the import phase is timed from T0)
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import repro  # noqa: E402,F401
from repro import SunFloor3D, verify_design_point  # noqa: E402
from repro.bench import registry  # noqa: E402

IMPORT_S = time.perf_counter() - T0

sys.path.insert(0, str(HERE))
from spans import (  # noqa: E402
    NullTracer, Tracer, layer_table, span_total, wrapper_cost_s)

DIGESTS = HERE / "digests.json"


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def units(seconds: float, unit_s: float) -> int:
    """Units of work that fill ``seconds`` at ``unit_s`` each (at least
    one). A unit's nominal wall time is measured on a 2-CPU container, so
    a run does a fixed amount of work however fast the program is, and a
    faster commit simply finishes sooner."""
    return max(1, round(seconds / unit_s))


def recorded_digest(workload: str, seed: int):
    """The outputs recorded for ``seed`` (``None`` for an unrecorded seed)."""
    if not DIGESTS.exists():
        return None
    return json.loads(DIGESTS.read_text()).get(workload, {}).get(str(seed))


class DesignFlow:
    """One paper design through the three waits of a SunFloor 3D user.

    The workload is the design. Each *round* does, one after another:

    1. **synth**: full default-config 3-D synthesis
       (``SunFloor3D(...).synthesize()``, no store) of
       ``get_benchmark(design)``. The first round runs cold and pays the
       lazy imports a user's first ``synth`` pays.
    2. **sim**: the first round's best-power topology under
       ``bernoulli``, ``hotspot`` and ``bursty`` traffic at a light (0.3)
       and a saturating (1.0) load. Per (scenario, load) cell,
       ``REPLICATIONS`` solo ``WormholeSimulator.run`` calls, then one
       ``run_batch`` over the same seeds.
    3. **campaign**: a ``CampaignService`` on a fresh spool. One client
       queues ``JOBS`` small sweep jobs of the design at once; the last
       repeats the first job's grid (store reads) and the one before it
       shares half of the second job's grid (reads beside writes). The
       service stops after half of its scheduling turns and a
       ``resume=True`` service drains the rest.

    ``--seconds`` buys whole rounds at the design's nominal ``ROUND_S``;
    every metric is a median over the rounds, so a swing of host speed
    within a run moves one sample, not the result.
    """

    #: Nominal wall of one round on a 2-CPU container.
    ROUND_S = {"d26_media": 5.0, "d36_8": 10.0}

    SCENARIOS = ("bernoulli", "hotspot", "bursty")
    LOADS = (0.3, 1.0)
    #: Seeds per cell and round, and so the batch's K.
    REPLICATIONS = 4
    CYCLES = 500
    WARMUP = 50

    JOBS = 8  # the service's default max_queue: a full burst, no refusals
    #: Two frequencies per job, none shared, plus one for the overlap: the
    #: seed moves the values, never how much the jobs share.
    FREQUENCIES = tuple(350.0 + 15.0 * i for i in range(2 * (JOBS - 2) + 1))
    ALPHAS = (0.5, 0.6, 0.7, 0.8)
    SWITCHES = [4, 5]

    def __init__(self, design: str, seed: int, tracer) -> None:
        # run_batch imports batchengine lazily; importing it here keeps
        # that import out of the timed region (and exposes DIRTY_REDOS).
        from repro.campaign.service import CampaignService
        from repro.campaign.spec import CampaignSpec
        from repro.noc import batchengine
        from repro.noc.simulator import WormholeSimulator

        self.design = design
        self.seed = seed
        self.tracer = tracer
        self.batchengine = batchengine
        self.simulator_cls = WormholeSimulator
        self.service_cls = CampaignService
        # The paper's instance of the design, the one campaign jobs naming
        # the design compile. The seed moves the traffic and the grids,
        # not the design: the synthesis cost of another instance differs
        # by up to about 15 %, which would read as a change of speed.
        self.bench = registry.get_benchmark(design)
        self.specs = self._specs(random.Random(seed))
        self.tasks = sum(CampaignSpec.from_dict(s).task_count
                         for s in self.specs)
        self.work = ROOT / ".perfbench_tmp" / f"campaign-{os.getpid()}"
        if self.work.exists():
            shutil.rmtree(self.work)
        self.work.mkdir(parents=True)
        self.syntheses = []  # (tool, result) per round
        self.cells = []  # (scenario, load, seeds, solo stats, batch stats)
        self.campaigns = []  # (spool, {job_id: latency_s}, store)

    # -- synth --------------------------------------------------------------

    def _synth(self) -> float:
        start = time.perf_counter()
        with self.tracer.block("synth"):
            tool = SunFloor3D(self.bench.core_spec_3d, self.bench.comm_spec)
            result = tool.synthesize()
        elapsed = time.perf_counter() - start
        self.syntheses.append((tool, result))
        return elapsed

    # -- sim ----------------------------------------------------------------

    def _seeds(self, round_index: int, cell_index: int) -> list:
        base = (self.seed * 1_000 + round_index) * 100 + cell_index * 10
        return [base + i for i in range(self.REPLICATIONS)]

    def _simulator(self, topology, seed: int):
        with self.tracer.block("noc.simulator_init"):
            return self.simulator_cls(topology, seed=seed)

    def _sim(self, round_index: int) -> tuple:
        """Solo and batch replication-cycles per host second."""
        topology = self.syntheses[0][1].best_power().topology
        solo_s = batch_s = 0.0
        solo_cycles = batch_cycles = 0
        cell_index = 0
        for scenario in self.SCENARIOS:
            for load in self.LOADS:
                seeds = self._seeds(round_index, cell_index)
                cell_index += 1
                run_args = dict(cycles=self.CYCLES, warmup=self.WARMUP,
                                injection_scale=load, scenario=scenario)
                solo = []
                for seed in seeds:
                    t = time.perf_counter()
                    stats = self._simulator(topology, seed).run(**run_args)
                    solo_s += time.perf_counter() - t
                    solo_cycles += stats.cycles
                    solo.append(stats)
                t = time.perf_counter()
                batch = self._simulator(topology, seeds[0]).run_batch(
                    seeds, **run_args)
                batch_s += time.perf_counter() - t
                batch_cycles += sum(s.cycles for s in batch)
                self.cells.append((scenario, load, seeds, solo, batch))
        return solo_cycles / solo_s, batch_cycles / batch_s

    # -- campaign -----------------------------------------------------------

    def _specs(self, rng: random.Random) -> list:
        freqs = rng.sample(self.FREQUENCIES, len(self.FREQUENCIES))
        grids = [
            {"frequencies_mhz": sorted(freqs[2 * i:2 * i + 2]),
             "alphas": sorted(rng.sample(self.ALPHAS, 2))}
            for i in range(self.JOBS - 2)
        ]
        overlap = dict(grids[1], frequencies_mhz=sorted(
            [grids[1]["frequencies_mhz"][0], freqs[-1]]))
        grids += [overlap, dict(grids[0])]
        return [
            {"name": f"job{i}", "kind": "sweep", "benchmark": self.design,
             "grid": g, "config": {"switch_count_range": self.SWITCHES}}
            for i, g in enumerate(grids)
        ]

    def _campaign(self, spool: Path) -> tuple:
        """Drain wall and per-job latency of one crash-and-resume campaign."""
        with self.tracer.block("campaign.open"):
            service = self.service_cls(spool)
        turns = -(-self.tasks // service.batch_size)
        done_at = {}

        def note(svc):
            now = time.perf_counter()
            for job_id in svc.completed:
                done_at.setdefault(job_id, now)

        start = time.perf_counter()
        submitted = {}
        for spec in self.specs:
            submitted[service.submit(spec)] = time.perf_counter()
        for _ in range(turns // 2):
            service.step()
            note(service)
        service.close()
        with self.tracer.block("campaign.resume"):
            service = self.service_cls(spool, resume=True)
        while service.step():
            note(service)
        service.close()
        drain_s = time.perf_counter() - start
        latency = {j: done_at[j] - submitted[j] for j in submitted
                   if j in done_at}
        self.campaigns.append((spool, latency, service.store))
        return drain_s, list(latency.values())

    # -- the run ------------------------------------------------------------

    def measure(self, seconds: float) -> dict:
        redos_before = self.batchengine.DIRTY_REDOS
        rounds = units(seconds, self.ROUND_S[self.design])
        synth, solo, batch, drains, latencies, walls = [], [], [], [], [], []
        for index in range(rounds):
            start = time.perf_counter()
            synth.append(self._synth())
            solo_rate, batch_rate = self._sim(index)
            solo.append(solo_rate)
            batch.append(batch_rate)
            drain_s, latency = self._campaign(self.work / f"c{index}")
            drains.append(drain_s)
            latencies += latency
            walls.append(time.perf_counter() - start)
        median = statistics.median
        return {
            "synth_s": median(synth),
            "sim_solo_cycles_per_s": median(solo),
            "sim_batch_cycles_per_s": median(batch),
            "campaign_drain_s": median(drains),
            "job_latency_s": median(latencies),
            "unit_s": median(walls),
            "dirty_redos": self.batchengine.DIRTY_REDOS - redos_before,
        }

    # -- output checks ------------------------------------------------------

    def synth_outputs(self, result) -> dict:
        rows = [
            [p.switch_count, repr(p.total_power_mw),
             repr(p.avg_latency_cycles), repr(p.die_area_mm2)]
            for p in result.points
        ]
        return {"best": result.best_power().summary(), "points": _sha(rows)}

    def campaign_outputs(self, spool: Path) -> list:
        """Each job's result digest, in job order."""
        state = self.service_cls.status(spool)
        return [state.jobs[j].digest for j in sorted(state.jobs)]

    def outputs(self) -> dict:
        """What ``digests.json`` records for a seed: the first round's."""
        return {"synth": self.synth_outputs(self.syntheses[0][1]),
                "campaign": self.campaign_outputs(self.campaigns[0][0])}

    def check(self) -> tuple:
        expected = recorded_digest(self.design, self.seed)
        checks = (self._check_synth, self._check_sim, self._check_campaign)
        attempted = failed = 0
        problems = []
        for check in checks:
            a, f, p = check(expected)
            attempted += a
            failed += f
            problems += p
        return attempted, failed, problems

    def _check_synth(self, expected) -> tuple:
        """Design rules on every saved point of the first synthesis; every
        later round must give the same points; the recorded seeds' outputs
        must match."""
        problems = []
        bad = set()
        tool, first = self.syntheses[0]
        if not first.points:
            bad.add(0)
            problems.append("synth: no design point")
        for point in first.points:
            report = verify_design_point(point, tool.graph, tool.library)
            if not report.ok:
                bad.add(0)
                problems.append(f"synth: {report.summary()}")
        want = (expected["synth"] if expected is not None
                else self.synth_outputs(first))
        for index, (_tool, result) in enumerate(self.syntheses):
            got = self.synth_outputs(result)
            if got != want:
                bad.add(index)
                problems.append(f"synth round {index}: output differs from "
                                f"the expected one ({got['best']})")
        return len(self.syntheses), len(bad), problems

    def _check_sim(self, expected) -> tuple:
        """Solo and batch stats equal per seed; one solo run per cell equals
        the frozen reference simulator."""
        from repro.noc.reference import ReferenceWormholeSimulator

        topology = self.syntheses[0][1].best_power().topology
        attempted = failed = 0
        problems = []
        referenced = set()
        for scenario, load, seeds, solo, batch in self.cells:
            attempted += len(solo) + len(batch)
            for seed, a, b in zip(seeds, solo, batch):
                if a != b:
                    failed += 1
                    problems.append(
                        f"sim {scenario}@{load} seed {seed}: batch != solo")
            if (scenario, load) in referenced:
                continue
            referenced.add((scenario, load))
            ref = ReferenceWormholeSimulator(topology, seed=seeds[0]).run(
                cycles=self.CYCLES, warmup=self.WARMUP,
                injection_scale=load, scenario=scenario,
            )
            attempted += 1
            if ref != solo[0]:
                failed += 1
                problems.append(
                    f"sim {scenario}@{load} seed {seeds[0]}: "
                    "solo != reference")
        return attempted, failed, problems

    def _check_campaign(self, expected) -> tuple:
        """Every job done, the twin's digest equal to the first job's, the
        recorded seeds' digests matched, the store clean."""
        attempted = failed = 0
        problems = []
        for index, (spool, latency, store) in enumerate(self.campaigns):
            state = self.service_cls.status(spool)
            bad = set()
            for job_id, job in sorted(state.jobs.items()):
                attempted += 1
                if job.state != "done" or job_id not in latency:
                    bad.add(job_id)
                    problems.append(f"campaign {index}: {job_id} {job.state}")
            ids = sorted(state.jobs)
            digests = [state.jobs[j].digest for j in ids]
            if len(ids) == self.JOBS and digests[-1] != digests[0]:
                bad.add(ids[-1])
                problems.append(f"campaign {index}: twin job digest differs")
            if expected is not None and digests != expected["campaign"]:
                bad.update(j for j, d, e in zip(ids, digests,
                                                expected["campaign"])
                           if d != e)
                problems.append(
                    f"campaign {index}: digests differ from the recorded ones")
            report = store.verify()
            if not report.clean:
                problems.append(
                    f"campaign {index}: store has {len(report.bad)} corrupt "
                    "entries")
                bad.add("store")
            failed += len(bad)
        return attempted, failed, problems

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()
        except OSError:
            pass  # another run's spool is still there


WORKLOADS = tuple(DesignFlow.ROUND_S)


# --------------------------------------------------------------------------
# per-layer metrics from a traced run
# --------------------------------------------------------------------------

def layer_metrics(tr: Tracer, measured: dict, wall_s: float) -> dict:
    """Every per-layer metric, from the tracer's spans and counters.

    ``.s`` is self time (outside any nested traced span); ``.calls`` is a
    call count.
    """
    s, calls, counts = tr.self_s, tr.calls, tr.counts
    out = {"import.s": s["import"]}
    for layer in ("bench.get_benchmark", "graphs.kway_min_cut",
                  "core.build_topology_skeleton", "core.compute_paths",
                  "core.optimise_switch_positions", "lp.solve",
                  "noc.build_schedule", "campaign.journal_append"):
        out[f"{layer}.s"] = s[layer]
        out[f"{layer}.calls"] = calls[layer]
    # One floorplan time: place_tsv_macros never runs on d26_media (no
    # vertical-link specs), so a time of its own would read 0 there on
    # every run.
    out["floorplan.s"] = (s["floorplan.insert_components"]
                          + s["floorplan.place_tsv_macros"])
    for layer in ("floorplan.insert_components", "floorplan.place_tsv_macros"):
        out[f"{layer}.calls"] = calls[layer]
    out["core.compute_paths.failed"] = tr.failed["core.compute_paths"]
    out["lp.solve.first_call_s"] = tr.first_call_s.get("lp.solve", 0.0)

    # Pipeline code no kernel wrapper covers: the self time of the
    # synthesis blocks.
    out["synth.residual_s"] = s["synth"]
    out["core.pipeline.evaluate.s"] = s["core.pipeline.evaluate"]
    candidates = calls["core.pipeline.evaluate"]
    points = counts["core.pipeline.points"]
    out["core.pipeline.candidates"] = candidates
    out["core.pipeline.points"] = points
    out["core.pipeline.valid_ratio"] = points / candidates if candidates else 0.0

    out["noc.simulator_init.s"] = s["noc.simulator_init"]
    for engine in ("simengine", "batchengine"):
        base = f"noc.{engine}"
        out[f"{base}.s"] = span_total(base, s)
        out[f"{base}.calls"] = span_total(base, calls)
        for scenario in DesignFlow.SCENARIOS:
            out[f"{base}.{scenario}.s"] = s[f"{base}.{scenario}"]
        flits = counts[f"{base}.flits"]
        out[f"{base}.us_per_flit"] = (
            counts[f"{base}.incl_s"] * 1e6 / flits if flits else 0.0)
    out["noc.batchengine.dirty_redos"] = measured["dirty_redos"]

    for layer in ("campaign.open", "campaign.submit", "campaign.step",
                  "campaign.compile", "campaign.resume"):
        out[f"{layer}.s"] = s[layer]
    out["engine.run_tasks.s"] = s["engine.run_tasks"]
    out["engine.task_s"] = counts["engine.task_s"]
    out["engine.overhead_s"] = (
        counts["engine.run_tasks.incl_s"] - counts["engine.task_s"])
    out["engine.store.get.s"] = s["engine.store.get"]
    out["engine.store.put.s"] = s["engine.store.put"]
    gets = calls["engine.store.get"]
    out["engine.store.calls"] = gets + calls["engine.store.put"]
    out["engine.store.hit_ratio"] = (
        counts["engine.store.hits"] / gets if gets else 0.0)
    out["engine.store.bytes_written"] = counts["engine.store.bytes_written"]

    traced = sum(s.values())
    out["trace.install_s"] = s["trace.install"]
    out["trace.wall_s"] = wall_s
    out["trace.residual_s"] = wall_s - traced
    # What the wrappers themselves cost: every traced call times one
    # wrapper's measured cost.
    out["trace.wrapper_est_s"] = sum(calls.values()) * wrapper_cost_s()
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "measure"),
                        default="measure")
    args = parser.parse_args()

    tracer = Tracer() if args.trace else NullTracer()
    if args.trace:
        tracer.add("import", IMPORT_S)
        t = time.perf_counter()
        tracer.install()
        tracer.add("trace.install", time.perf_counter() - t)
    workload = DesignFlow(args.workload, args.seed, tracer)
    setup_s = time.perf_counter() - T0
    print("READY", flush=True)
    result = {"setup_s": setup_s, "import_s": IMPORT_S}
    try:
        if args.mode == "measure":
            result["measured"] = workload.measure(args.seconds)
            wall_s = time.perf_counter() - T0
            result["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
            if args.trace:
                tracer.restore()
            attempted, failed, problems = workload.check()
            result.update(attempted=attempted, failed=failed,
                          problems=problems, wall_s=wall_s)
            if args.trace:
                result["layers"] = layer_metrics(
                    tracer, result["measured"], wall_s)
                print(layer_table(tracer, wall_s), file=sys.stderr)
    finally:
        workload.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
