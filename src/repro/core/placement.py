"""Switch position computation — the LP of Sec. VII (Eqs. 2-5).

For a routed topology, the (x, y) of every switch is chosen to minimise the
bandwidth-weighted sum of Manhattan distances to the cores and switches it
connects to::

    obj = sum coredist(i,k) * bw_sw2core(i,k) + sum swdist(i,j) * bw_sw2sw(i,j)

Manhattan distances are linearised with auxiliary variables
(``d >= a - b``, ``d >= b - a``); the LP is solved with the scipy/HiGHS
backend of :mod:`repro.lp` (the paper used lp_solve). TSV macros are excluded
from the LP — "TSVs split the wires in two segments, both carrying the same
bandwidth. Therefore, the placement of the TSV macro is more relaxed."
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple

from repro.errors import LPError
from repro.lp.model import LinearProgram
from repro.noc.topology import Topology


def optimise_switch_positions(
    topology: Topology,
    core_centers: Mapping[int, Tuple[float, float]],
    die_width_mm: float,
    die_height_mm: float,
) -> float:
    """Set every switch's (x, y) to the LP optimum. Returns the objective.

    Args:
        topology: Routed topology; link loads provide the bandwidth weights.
        core_centers: Fixed (x, y) of every attached core.
        die_width_mm / die_height_mm: Bounds for the switch coordinates
            (the input floorplan's extent).
        backend: LP backend, "scipy" (default) or "simplex".
    """
    nsw = len(topology.switches)
    if nsw == 0:
        return 0.0
    if die_width_mm <= 0 or die_height_mm <= 0:
        raise LPError("die bounds must be positive")

    # Aggregate bandwidth between connected component pairs. Both directions
    # of a pair share the same distance, so their loads are summed.
    sw2core: Dict[Tuple[int, int], float] = {}
    sw2sw: Dict[Tuple[int, int], float] = {}
    for link in topology.links:
        skind, sidx = link.src
        dkind, didx = link.dst
        if skind == "switch" and dkind == "switch":
            key = (min(sidx, didx), max(sidx, didx))
            sw2sw[key] = sw2sw.get(key, 0.0) + link.load_mbps
        elif skind == "switch" and dkind == "core":
            key = (sidx, didx)
            sw2core[key] = sw2core.get(key, 0.0) + link.load_mbps
        elif skind == "core" and dkind == "switch":
            key = (didx, sidx)
            sw2core[key] = sw2core.get(key, 0.0) + link.load_mbps

    lp = LinearProgram()
    xs = [lp.add_variable(f"xs{i}", low=0.0, high=die_width_mm) for i in range(nsw)]
    ys = [lp.add_variable(f"ys{i}", low=0.0, high=die_height_mm) for i in range(nsw)]

    # Zero-bandwidth connections still get a tiny pull so disconnected
    # switches don't wander; weight epsilon keeps the LP bounded and tidy.
    eps = 1e-6

    for (i, k), bw in sorted(sw2core.items()):
        cx, cy = core_centers[k]
        dx = lp.add_variable(f"dxc{i}_{k}")
        dy = lp.add_variable(f"dyc{i}_{k}")
        # dx >= xs_i - cx  and  dx >= cx - xs_i
        lp.add_constraint({dx: 1.0, xs[i]: -1.0}, ">=", -cx)
        lp.add_constraint({dx: 1.0, xs[i]: 1.0}, ">=", cx)
        lp.add_constraint({dy: 1.0, ys[i]: -1.0}, ">=", -cy)
        lp.add_constraint({dy: 1.0, ys[i]: 1.0}, ">=", cy)
        weight = max(bw, eps)
        lp.add_objective_term(dx, weight)
        lp.add_objective_term(dy, weight)

    for (i, j), bw in sorted(sw2sw.items()):
        dx = lp.add_variable(f"dxs{i}_{j}")
        dy = lp.add_variable(f"dys{i}_{j}")
        lp.add_constraint({dx: 1.0, xs[i]: -1.0, xs[j]: 1.0}, ">=", 0.0)
        lp.add_constraint({dx: 1.0, xs[i]: 1.0, xs[j]: -1.0}, ">=", 0.0)
        lp.add_constraint({dy: 1.0, ys[i]: -1.0, ys[j]: 1.0}, ">=", 0.0)
        lp.add_constraint({dy: 1.0, ys[i]: 1.0, ys[j]: -1.0}, ">=", 0.0)
        weight = max(bw, eps)
        lp.add_objective_term(dx, weight)
        lp.add_objective_term(dy, weight)

    solution = lp.solve()

    connected = {i for (i, _k) in sw2core} | {
        i for pair in sw2sw for i in pair
    }
    for i, sw in enumerate(topology.switches):
        if i in connected:
            sw.x = solution.value(xs[i])
            sw.y = solution.value(ys[i])
        else:
            # A switch nothing connects to (can only be an unused indirect
            # switch): centre of the die.
            sw.x = die_width_mm / 2.0
            sw.y = die_height_mm / 2.0
    return solution.objective


def placement_objective(
    topology: Topology,
    core_centers: Mapping[int, Tuple[float, float]],
) -> float:
    """Evaluate Eq. (4) for the topology's *current* switch positions."""
    total = 0.0
    for link in topology.links:
        skind, sidx = link.src
        dkind, didx = link.dst
        if skind == "switch":
            a: Optional[Tuple[float, float]] = topology.switches[sidx].center
        else:
            a = core_centers[sidx]
        if dkind == "switch":
            b: Optional[Tuple[float, float]] = topology.switches[didx].center
        else:
            b = core_centers[didx]
        total += link.load_mbps * (abs(a[0] - b[0]) + abs(a[1] - b[1]))
    return total
