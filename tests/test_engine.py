"""The parallel design-space exploration engine (repro.engine)."""

from __future__ import annotations

import json
import pickle

import pytest

from repro.bench.synthetic import synthetic_benchmark
from repro.core.config import SynthesisConfig
from repro.core.pipeline import StageTimings
from repro.engine import (
    GridPoint,
    ParameterGrid,
    SynthesisTask,
    build_tasks,
    resolve_jobs,
    run_task,
    run_tasks,
)
from repro.engine import benchmark as bm
from repro.errors import EngineError, SpecError, SynthesisError
from repro.noc.export import design_point_to_dict


@pytest.fixture(scope="module")
def design():
    """Small seeded synthetic design (bench/synthetic.py) shared here."""
    bench = synthetic_benchmark(
        10, "random", num_layers=2, seed=11, floorplan_moves=300
    )
    return bench.core_spec_3d, bench.comm_spec


@pytest.fixture(scope="module")
def config():
    return SynthesisConfig(max_ill=10, switch_count_range=(2, 4))


def _canonical(results):
    """Byte-comparable form of a merged engine run."""
    return json.dumps(
        [
            {
                "key": str(r.key),
                "points": [design_point_to_dict(p) for p in r.result.points],
                "unmet": r.result.unmet_switch_counts,
            }
            for r in results
        ],
        sort_keys=True,
    )


class TestGrid:
    def test_cross_product_order(self):
        grid = ParameterGrid(frequencies_mhz=(200.0, 400.0), alphas=(0.5,))
        points = grid.points()
        assert points == [
            GridPoint(frequency_mhz=200.0, alpha=0.5),
            GridPoint(frequency_mhz=400.0, alpha=0.5),
        ]
        assert grid.size == 2

    def test_empty_dimensions_inherit_base(self):
        grid = ParameterGrid()
        assert grid.points() == [GridPoint()]
        base = SynthesisConfig(frequency_mhz=123.0)
        assert GridPoint().apply(base) is base

    def test_apply_overrides(self):
        base = SynthesisConfig()
        cfg = GridPoint(frequency_mhz=250.0, link_width_bits=64).apply(base)
        assert cfg.frequency_mhz == 250.0
        assert cfg.link_width_bits == 64
        assert cfg.alpha == base.alpha

    def test_validation_up_front_all_dimensions(self):
        with pytest.raises(SynthesisError, match="frequency"):
            ParameterGrid(frequencies_mhz=(400.0, -1.0)).points()
        with pytest.raises(SynthesisError, match="alpha"):
            ParameterGrid(alphas=(0.5, 1.5)).points()
        with pytest.raises(SynthesisError, match="width"):
            ParameterGrid(link_widths_bits=(0,)).points()
        with pytest.raises(SynthesisError, match="switch_count_range"):
            ParameterGrid(switch_count_ranges=((3, 1),)).points()

    def test_infeasible_point_marked_skip(self, design):
        core_spec, comm_spec = design
        # 10 MHz on 32-bit links: 40 MB/s capacity, far below the flows.
        tasks = build_tasks(
            core_spec, comm_spec,
            ParameterGrid(frequencies_mhz=(10.0, 400.0)),
        )
        assert tasks[0].skip and "capacity" in tasks[0].skip_reason
        assert not tasks[1].skip

    def test_label(self):
        point = GridPoint(frequency_mhz=400.0, alpha=0.5)
        assert "400" in point.label() and "0.5" in point.label()
        assert GridPoint().label() == "base"


class TestTasks:
    def test_task_pickles(self, design, config):
        core_spec, comm_spec = design
        tasks = build_tasks(
            core_spec, comm_spec, ParameterGrid(frequencies_mhz=(400.0,)),
            config,
        )
        clone = pickle.loads(pickle.dumps(tasks[0]))
        assert clone.key == tasks[0].key
        assert clone.config == tasks[0].config

    def test_skip_task_returns_empty_result(self, design, config):
        core_spec, comm_spec = design
        task = SynthesisTask(
            key="x", core_spec=core_spec, comm_spec=comm_spec,
            config=config, skip=True,
        )
        result = run_task(task)
        assert result.skipped and result.ok
        assert result.result.is_empty

    def test_error_captured_not_raised(self, design):
        core_spec, comm_spec = design
        task = SynthesisTask(
            key="bad", core_spec=core_spec, comm_spec=comm_spec,
            config=SynthesisConfig(switch_count_range=(1, 1), phase="phase1"),
            library="not a library",  # type: ignore[arg-type]
        )
        result = run_task(task)
        assert not result.ok
        assert result.error is not None


class TestExecutor:
    def test_resolve_jobs(self, monkeypatch):
        assert resolve_jobs(3) == 3
        assert resolve_jobs(1) == 1
        assert resolve_jobs(None) >= 1
        monkeypatch.setenv("REPRO_ENGINE_JOBS", "5")
        assert resolve_jobs(None) == 5
        assert resolve_jobs(0) == 5
        monkeypatch.setenv("REPRO_ENGINE_JOBS", "nope")
        with pytest.raises(EngineError):
            resolve_jobs(None)
        monkeypatch.delenv("REPRO_ENGINE_JOBS")
        with pytest.raises(EngineError):
            resolve_jobs(-2)

    def test_chunk_size_validated(self, design, config):
        core_spec, comm_spec = design
        tasks = build_tasks(
            core_spec, comm_spec, ParameterGrid(frequencies_mhz=(400.0,)),
            config,
        )
        with pytest.raises(EngineError):
            run_tasks(tasks, chunk_size=0)

    def test_parallel_matches_serial_byte_identical(self, design, config):
        """The regression gate: fan-out must not change a single value."""
        core_spec, comm_spec = design
        grid = ParameterGrid(
            frequencies_mhz=(300.0, 450.0), alphas=(0.4, 0.8)
        )
        tasks = build_tasks(core_spec, comm_spec, grid, config)
        serial = run_tasks(tasks, jobs=1)
        parallel = run_tasks(tasks, jobs=2)
        assert _canonical(serial) == _canonical(parallel)
        assert [r.key for r in parallel] == [t.key for t in tasks]

    def test_parallel_chunked_matches_serial(self, design, config):
        core_spec, comm_spec = design
        grid = ParameterGrid(frequencies_mhz=(300.0, 400.0, 500.0))
        tasks = build_tasks(core_spec, comm_spec, grid, config)
        serial = run_tasks(tasks, jobs=1)
        chunked = run_tasks(tasks, jobs=2, chunk_size=2)
        assert _canonical(serial) == _canonical(chunked)

    def test_progress_monotonic_and_complete(self, design, config):
        core_spec, comm_spec = design
        grid = ParameterGrid(frequencies_mhz=(300.0, 400.0, 500.0))
        tasks = build_tasks(core_spec, comm_spec, grid, config)
        seen = []
        run_tasks(tasks, jobs=2, progress=lambda d, t, k: seen.append((d, t)))
        assert [d for d, _ in seen] == [1, 2, 3]
        assert all(t == 3 for _, t in seen)

    def test_errors_reraised_in_task_order(self, design):
        core_spec, comm_spec = design
        good = SynthesisConfig(max_ill=10, switch_count_range=(2, 3))
        tasks = [
            SynthesisTask(
                key=i, core_spec=core_spec, comm_spec=comm_spec, config=good,
                library="broken" if i in (1, 2) else None,  # type: ignore
            )
            for i in range(3)
        ]
        with pytest.raises(Exception) as excinfo_serial:
            run_tasks(tasks, jobs=1)
        with pytest.raises(Exception) as excinfo_parallel:
            run_tasks(tasks, jobs=2)
        assert type(excinfo_serial.value) is type(excinfo_parallel.value)

    def test_raise_errors_false_returns_all(self, design):
        core_spec, comm_spec = design
        good = SynthesisConfig(max_ill=10, switch_count_range=(2, 3))
        tasks = [
            SynthesisTask(
                key=i, core_spec=core_spec, comm_spec=comm_spec, config=good,
                library="broken" if i == 0 else None,  # type: ignore
            )
            for i in range(2)
        ]
        results = run_tasks(tasks, jobs=1, raise_errors=False)
        assert not results[0].ok
        assert results[1].ok


class TestSuiteDesignSpace:
    def test_suite_fanout_merges_per_benchmark(self):
        from repro.bench.suites import suite_design_space
        from repro.engine.grid import GridPoint

        grid = ParameterGrid(frequencies_mhz=(400.0, 500.0))
        merged = suite_design_space(
            names=("d36_4",), grid=grid,
            base_config=SynthesisConfig(max_ill=25, switch_count_range=(4, 5)),
            jobs=2,
        )
        assert set(merged) == {"d36_4"}
        assert set(merged["d36_4"]) == {
            GridPoint(frequency_mhz=400.0), GridPoint(frequency_mhz=500.0),
        }


class TestSimBatchBenchmarkLeg:
    """Fast smoke over the batch leg of the simulator benchmark: the
    trajectory-identity check and the reps/sec ratios, on the tiny test
    topology with a scaled-down K (the real K and design run under
    ``make bench``)."""

    def test_report_shape_identity_and_ratios(self, contended_topo,
                                              monkeypatch):
        monkeypatch.setattr(bm, "_SIM_BATCH_K_QUICK", 8)
        timings = StageTimings()
        # The solo per-process baselines _bench_sim_batch reuses; in the
        # real benchmark measure() records them at identical load.
        timings.add("sim_engine_gate", 0.05)
        timings.add("sim_naive_gate", 0.50)
        lines = []
        report = bm._bench_sim_batch(
            contended_topo, timings, lines.append,
            cycles=400, warmup=40, quick=True,
        )
        assert report["identical_trajectories"]
        assert report["identity_replications"] == bm._SIM_BATCH_IDENTITY_K
        assert report["replications"] == 8
        assert report["batch_reps_per_s"] > 0
        assert report["batch_s"] > 0
        # The reference baseline is 10x slower than the solo engine here,
        # so its speedup must come out exactly 10x higher.
        assert report["speedup_vs_reference"] == pytest.approx(
            10.0 * report["speedup_vs_solo_engine"], rel=1e-3
        )
        assert len(lines) == 2  # identity line + throughput line
        assert timings.best_s("sim_batch_engine") > 0


class TestInsertBenchmarkLeg:
    """The NoC-insertion leg on the benchmark design: its inputs are the
    floorplan stage's switch insertions and both inserters agree."""

    def test_report_shape_and_identity(self):
        timings = StageTimings()
        lines = []
        report = bm._bench_insert(bm._design(), timings, lines.append)
        assert report["identical_results"]
        assert report["insertions"] > 0
        assert report["components"] >= report["insertions"]
        assert report["naive_s"] > 0 and report["array_s"] > 0
        assert len(lines) == 1
        assert timings.count("insert_array") == 3


class TestBenchmarkGates:
    """The engine benchmark's gate evaluator on synthetic report dicts (no
    leg runs), and ``cli bench``'s exit status on its verdicts."""

    ROWS = (
        bm.Gate("leg.speedup", ">=", 3.0),
        bm.Gate("leg.overhead_pct", "<=", 5.0),
        bm.Gate("leg.pool_speedup", ">=", 2.0, min_cpus=4),
    )

    @staticmethod
    def _report(cpu_count=1, **leg):
        values = {"speedup": 4.0, "overhead_pct": 1.0, "pool_speedup": 1.1}
        return {"cpu_count": cpu_count, "leg": {**values, **leg}}

    def test_passing_and_failing_rows(self):
        passing, failing = bm.evaluate_gates(
            self._report(overhead_pct=28.4), self.ROWS[:2]
        )
        assert passing == {
            "name": "leg.speedup", "value": 4.0, "bound": 3.0,
            "verdict": "pass", "reason": "4.0 >= 3.0",
        }
        assert failing["verdict"] == "fail"
        assert failing["value"] == 28.4
        assert failing["reason"] == "28.4 not <= 5.0"

    def test_cpu_gated_row_skips_below_its_precondition(self):
        row = self.ROWS[2]
        (skipped,) = bm.evaluate_gates(self._report(cpu_count=2), [row])
        assert skipped["verdict"] == "skip"
        assert skipped["value"] == 1.1  # recorded, not asserted
        assert "needs >= 4 CPUs, 2 visible" in skipped["reason"]
        (judged,) = bm.evaluate_gates(self._report(cpu_count=4), [row])
        assert judged["verdict"] == "fail"
        (judged,) = bm.evaluate_gates(
            self._report(cpu_count=4, pool_speedup=2.5), [row]
        )
        assert judged["verdict"] == "pass"

    @pytest.mark.parametrize("report", [
        {"cpu_count": 2, "leg": {"overhead_pct": 1.0}},  # key absent
        {"cpu_count": 2},                                # section absent
        {"cpu_count": 2, "leg": 3.0},                    # not a section
    ])
    def test_missing_key_fails_naming_the_path(self, report):
        rows = bm.evaluate_gates(report, [self.ROWS[0], self.ROWS[2]])
        # Even the CPU-gated row fails rather than skipping.
        assert [r["verdict"] for r in rows] == ["fail", "fail"]
        assert rows[0]["reason"] == "leg.speedup missing from the report"
        assert rows[1]["reason"] == (
            "leg.pool_speedup missing from the report"
        )
        assert rows[0]["value"] is None

    def test_gate_table_well_formed(self):
        paths = [gate.path for gate in bm.GATES]
        assert len(set(paths)) == len(paths)
        assert all(gate.op in bm._COMPARE for gate in bm.GATES)
        gated = {g.path for g in bm.GATES if g.min_cpus > 1}
        assert gated == {
            "sweep.speedup", "floorplan.multistart.speedup",
            "simulator.campaign.speedup",
        }
        assert all(g.min_cpus == bm.SCALING_JOBS for g in bm.GATES
                   if g.path in gated)

    @pytest.mark.parametrize("leg, exit_code", [
        ({}, 0),
        ({"speedup": 1.0}, 1),
    ])
    def test_cli_bench_exit_status(self, monkeypatch, capsys, leg,
                                   exit_code):
        from repro.cli import main

        calls = []

        def fake_runner(**kwargs):
            calls.append(kwargs)
            report = self._report(**leg)
            report["gates"] = bm.evaluate_gates(report, self.ROWS)
            return report

        monkeypatch.setattr(bm, "run_engine_benchmark", fake_runner)
        assert main(["bench", "--quick", "--jobs", "4"]) == exit_code
        assert calls[0]["quick"] is True and calls[0]["jobs"] == 4
        out = capsys.readouterr().out
        fails = 1 if exit_code else 0
        assert f"gates: {2 - fails} pass, {fails} fail, 1 skip" in out
        assert ("fail  leg.speedup" in out) == bool(exit_code)
