"""Array-based simulation engine vs the frozen naive reference.

The contract of the :mod:`repro.noc.simengine` overhaul (the PR 3 / engine
playbook): for identical seeds, scenarios and parameters the engine and
:class:`repro.noc.reference.ReferenceWormholeSimulator` produce
*bit-identical* statistics and per-cycle delivery traces. Plus the two
model fixes both implementations share: at most one flit leaves a link per
cycle, and runs drain in-flight packets after the injection horizon.
"""

import pytest

from _simtopo import contended_topology, cross_contended_topology

from repro.engine import run_tasks
from repro.engine.tasks import SimulationTask, run_task
from repro.noc.reference import ReferenceWormholeSimulator
from repro.noc.simulator import WormholeSimulator


def _both(topo, *, seed=0, packet_len=4, depth=4, cycles=1500, warmup=200,
          scale=1.0, scenario=None, drain_limit=None):
    """Run engine + reference with traces; returns (stats, trace) pairs."""
    te, tr = [], []
    eng = WormholeSimulator(
        topo, seed=seed, packet_length_flits=packet_len, buffer_depth=depth
    ).run(cycles=cycles, warmup=warmup, injection_scale=scale,
          scenario=scenario, drain_limit=drain_limit, trace=te)
    ref = ReferenceWormholeSimulator(
        topo, seed=seed, packet_length_flits=packet_len, buffer_depth=depth
    ).run(cycles=cycles, warmup=warmup, injection_scale=scale,
          scenario=scenario, drain_limit=drain_limit, trace=tr)
    return (eng, te), (ref, tr)


class TestTrajectoryIdentity:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("scale", [0.3, 1.0, 3.0])
    def test_identical_under_bernoulli(self, contended_topo, seed, scale):
        (eng, te), (ref, tr) = _both(contended_topo, seed=seed, scale=scale)
        assert eng == ref
        assert te == tr

    @pytest.mark.parametrize(
        "scenario", ["hotspot", "hotspot:2", "bursty", "bursty:20",
                     "scaled:1.5", "scaled:0"]
    )
    def test_identical_under_every_scenario(self, contended_topo, scenario):
        (eng, te), (ref, tr) = _both(
            contended_topo, seed=3, scale=1.5, scenario=scenario
        )
        assert eng == ref
        assert te == tr

    @pytest.mark.parametrize("packet_len,depth", [(1, 1), (2, 4), (6, 2)])
    def test_identical_across_flit_and_buffer_shapes(
        self, contended_topo, packet_len, depth
    ):
        (eng, te), (ref, tr) = _both(
            contended_topo, seed=5, scale=2.0,
            packet_len=packet_len, depth=depth,
        )
        assert eng == ref
        assert te == tr

    @pytest.mark.parametrize("drain_limit", [0, 37, None])
    def test_identical_drain_accounting(self, contended_topo, drain_limit):
        (eng, _), (ref, _) = _both(
            contended_topo, seed=7, scale=2.0, drain_limit=drain_limit
        )
        assert eng == ref
        assert eng.drain_cycles == ref.drain_cycles

    def test_event_skip_matches_sparse_traffic(self):
        """Near-empty schedules exercise the engine's cycle-skipping."""
        topo = contended_topology(shared_length_mm=12.0)
        (eng, te), (ref, tr) = _both(
            topo, seed=11, scale=0.02, cycles=4000, warmup=0
        )
        assert eng == ref
        assert te == tr
        assert eng.packets_delivered >= 1


class TestLinkDeliveryCap:
    """Regression for the over-delivery bug: a link's pipeline used to dump
    its whole backlog into the downstream buffer once back-pressure
    cleared, exceeding the 1-flit-per-cycle link bandwidth.

    The scenario needs an output contended by *two* input buffers (so the
    shared link's buffer head is refused while the link keeps delivering)
    and a second output interleaved on the same buffer (so two credits can
    free in one cycle): exactly ``cross_contended_topology`` saturated at
    ``buffer_depth >= 2``. The pre-fix ``while``-drain delivers two flits
    on 100+ (link, cycle) pairs of this run; the fixed model never exceeds
    one.
    """

    def _saturate(self, sim_cls, seed=1):
        topo = cross_contended_topology()
        sim = sim_cls(topo, buffer_depth=2, packet_length_flits=4, seed=seed)
        # Saturate every flow: the shared sw0->sw1 link and core 2's
        # ejection link back-pressure constantly.
        for flow in sim._inject_prob:
            sim._inject_prob[flow] = 1.0
        trace = []
        stats = sim.run(cycles=1200, warmup=100, trace=trace)
        return stats, trace

    @pytest.mark.parametrize(
        "sim_cls", [WormholeSimulator, ReferenceWormholeSimulator]
    )
    def test_at_most_one_flit_per_link_per_cycle(self, sim_cls):
        stats, trace = self._saturate(sim_cls)
        assert stats.flits_delivered > 500  # genuinely saturated
        per_link_cycle = {}
        for _event, cycle, lid, _pid in trace:
            key = (lid, cycle)
            per_link_cycle[key] = per_link_cycle.get(key, 0) + 1
        assert max(per_link_cycle.values()) == 1

    def test_backpressure_actually_stalls_deliveries(self):
        """The saturated run must exercise the buggy path: some flits leave
        their link *later* than another flit's delivery on the same cycle
        elsewhere — i.e. deliveries are spread, not all back-to-back."""
        stats, trace = self._saturate(WormholeSimulator)
        # Core 2's ejection link is the bottleneck: it must be busy nearly
        # every cycle of the steady state (the two competing inputs keep
        # its allocation pinned), which is what starves the shared link.
        eject_cycles = {c for ev, c, _lid, _pid in trace if ev == "eject"}
        assert len(eject_cycles) > 900

    @pytest.mark.parametrize("seed", [1, 2])
    def test_saturated_runs_still_identical(self, seed):
        eng_stats, eng_trace = self._saturate(WormholeSimulator, seed)
        ref_stats, ref_trace = self._saturate(ReferenceWormholeSimulator, seed)
        assert eng_stats == ref_stats
        assert eng_trace == ref_trace


class TestDrainPhase:
    def test_light_load_delivers_everything(self, contended_topo):
        stats = WormholeSimulator(contended_topo, seed=2).run(
            cycles=3000, warmup=300, injection_scale=0.3
        )
        assert stats.packets_injected > 20
        assert stats.delivery_ratio == 1.0
        assert stats.packets_delivered == stats.packets_injected

    def test_drain_limit_zero_restores_horizon_cutoff(self, contended_topo):
        drained = WormholeSimulator(contended_topo, seed=2).run(
            cycles=3000, warmup=300, injection_scale=0.3
        )
        cut = WormholeSimulator(contended_topo, seed=2).run(
            cycles=3000, warmup=300, injection_scale=0.3, drain_limit=0
        )
        assert cut.drain_cycles == 0
        assert cut.packets_delivered <= drained.packets_delivered

    def test_drain_bounded_under_saturation(self, contended_topo):
        stats = WormholeSimulator(contended_topo, seed=3).run(
            cycles=1000, warmup=100, injection_scale=10.0, drain_limit=250
        )
        assert stats.drain_cycles <= 250


class TestSimulationTask:
    def _tasks(self, topo):
        return [
            SimulationTask(
                key=(seed, scale), topology=topo, seeds=(seed,),
                cycles=1200, warmup=200, injection_scale=scale,
                scenario=scenario,
            )
            for seed, scale, scenario in [
                (0, 0.4, None), (1, 0.4, "hotspot"),
                (0, 1.0, "bursty"), (2, 1.5, None),
            ]
        ]

    def test_task_matches_direct_run(self, contended_topo):
        task = self._tasks(contended_topo)[0]
        result = run_task(task)
        assert result.ok
        direct = WormholeSimulator(contended_topo, seed=0).run(
            cycles=1200, warmup=200, injection_scale=0.4
        )
        assert result.result == (direct,)

    def test_serial_parallel_bit_identical(self, contended_topo):
        tasks = self._tasks(contended_topo)
        serial = run_tasks(tasks, jobs=1)
        parallel = run_tasks(tasks, jobs=2)
        assert [r.key for r in serial] == [r.key for r in parallel]
        assert [r.result for r in serial] == [r.result for r in parallel]
