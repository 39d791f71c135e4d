"""One wormhole simulation: the K = 1 entry into the shared driver.

:func:`simulate` (``WormholeSimulator.run``) hands its one seed to
:func:`repro.noc.batchengine._simulate`, the driver
:func:`~repro.noc.batchengine.simulate_batch` (``run_batch``) calls too:
one schedule builder, one cycle loop (the C kernel of ``wormhole.c``, or
the numpy lockstep loop where the kernel cannot be built or loaded), one
statistics assembly. Calling the private driver rather than
``simulate_batch`` keeps a solo run out of anything that wraps the batch
entry point. The frozen :mod:`repro.noc.reference` simulator is the oracle
both are tested against, stats and per-cycle traces bit for bit.
"""

from __future__ import annotations

from typing import List, Optional

from repro.noc import batchengine
# ``build_schedule`` stays importable here: perfbench's tracer wraps the
# schedule builder under this name.
from repro.noc.scenarios import ScenarioSpec, build_schedule  # noqa: F401


def simulate(
    sim,
    *,
    cycles: int,
    warmup: int,
    injection_scale: float,
    scenario: ScenarioSpec = None,
    drain_limit: Optional[int] = None,
    trace: Optional[List[tuple]] = None,
):
    """Run one simulation at ``sim.seed``.

    ``sim`` is a :class:`~repro.noc.simulator.WormholeSimulator` (already
    validated); returns its :class:`~repro.noc.simulator.SimulationStats`.
    """
    (stats,) = batchengine._simulate(
        sim, cycles=cycles, warmup=warmup, injection_scale=injection_scale,
        seeds=[sim.seed], scenario=scenario, drain_limit=drain_limit,
        traces=None if trace is None else [trace],
    )
    return stats
