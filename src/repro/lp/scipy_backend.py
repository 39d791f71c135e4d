"""Backends lowering :class:`~repro.lp.model.LinearProgram` to solvers.

``solve_with_scipy`` uses ``scipy.optimize.linprog`` (HiGHS). It handles box
bounds natively, and :meth:`~repro.lp.model.LinearProgram.solve` uses it.

``solve_with_simplex`` (the test suite's oracle) lowers to the built-in two-phase simplex of
:mod:`repro.lp.simplex`, which expects non-negative variables: bounded-below
variables are shifted (``x = lo + x'``), free variables are split
(``x = x+ - x-``), and finite upper bounds become extra rows.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np
from scipy.optimize import linprog

from repro.errors import InfeasibleLPError, LPError, UnboundedLPError
from repro.lp.model import LinearProgram, Solution
from repro.lp.simplex import solve_simplex


def solve_with_scipy(lp: LinearProgram) -> Solution:
    """Solve with scipy's HiGHS solver."""
    result = linprog(**_lower_for_linprog(lp), method="highs")
    if result.status == 2:
        raise InfeasibleLPError(result.message)
    if result.status == 3:
        raise UnboundedLPError(result.message)
    if not result.success:
        raise LPError(f"linprog failed: {result.message}")
    return Solution(objective=float(result.fun), values=list(result.x))


def _lower_for_linprog(lp: LinearProgram) -> Dict[str, object]:
    """``linprog`` arguments: dense float64 rows in constraint order.

    ``<=`` rows go to ``A_ub``/``b_ub`` as written, ``>=`` rows negated
    (zero entries included, so they become ``-0.0``), ``==`` rows to
    ``A_eq``/``b_eq``; an empty block is passed as ``None``.
    """
    c, rows, bounds = lp.as_arrays()
    n = len(c)
    n_eq = sum(sense == "==" for _, sense, _ in rows)
    a_ub = np.zeros((len(rows) - n_eq, n))
    b_ub = np.zeros(len(rows) - n_eq)
    a_eq = np.zeros((n_eq, n))
    b_eq = np.zeros(n_eq)
    i_ub = i_eq = 0
    for coeffs, sense, rhs in rows:
        if sense == "==":
            row = a_eq[i_eq]
            b_eq[i_eq] = rhs
            i_eq += 1
        else:
            row = a_ub[i_ub]
            b_ub[i_ub] = -rhs if sense == ">=" else rhs
            i_ub += 1
        for idx, coef in coeffs.items():
            row[idx] = coef
        if sense == ">=":
            np.negative(row, out=row)
    return {
        "c": np.asarray(c, dtype=float),
        "A_ub": a_ub if len(a_ub) else None,
        "b_ub": b_ub if len(b_ub) else None,
        "A_eq": a_eq if len(a_eq) else None,
        "b_eq": b_eq if len(b_eq) else None,
        "bounds": bounds,
    }


def solve_with_simplex(lp: LinearProgram) -> Solution:
    """Solve with the built-in dense simplex (after bound reduction)."""
    c, rows, bounds = lp.as_arrays()
    n = len(c)

    # Build the substitution x_orig = shift + (pos - neg); neg column only
    # for free variables.
    pos_col: List[int] = [0] * n
    neg_col: List[Optional[int]] = [None] * n
    shift: List[float] = [0.0] * n
    next_col = 0
    upper_rows: List[Tuple[int, float]] = []  # (orig var, residual upper)
    for i, (lo, hi) in enumerate(bounds):
        pos_col[i] = next_col
        next_col += 1
        if lo is None:
            neg_col[i] = next_col
            next_col += 1
            shift[i] = 0.0
            if hi is not None:
                upper_rows.append((i, hi))
        else:
            shift[i] = lo
            if hi is not None:
                if hi < lo:
                    raise LPError(f"variable {i}: upper bound below lower bound")
                upper_rows.append((i, hi))

    total = next_col

    def expand(coeffs_dense_pairs) -> List[float]:
        dense = [0.0] * total
        for idx, coef in coeffs_dense_pairs:
            dense[pos_col[idx]] += coef
            if neg_col[idx] is not None:
                dense[neg_col[idx]] -= coef
        return dense

    sim_rows: List[Tuple[List[float], str, float]] = []
    for coeffs, sense, rhs in rows:
        pairs = list(coeffs.items())
        dense = expand(pairs)
        adj_rhs = rhs - sum(coef * shift[idx] for idx, coef in pairs)
        sim_rows.append((dense, sense, adj_rhs))
    for idx, hi in upper_rows:
        dense = expand([(idx, 1.0)])
        sim_rows.append((dense, "<=", hi - shift[idx]))

    sim_c = expand(list(enumerate(c)))
    const_term = sum(ci * si for ci, si in zip(c, shift))

    result = solve_simplex(sim_c, sim_rows)

    values = [0.0] * n
    for i in range(n):
        v = result.x[pos_col[i]]
        if neg_col[i] is not None:
            v -= result.x[neg_col[i]]
        values[i] = shift[i] + v
    return Solution(objective=result.objective + const_term, values=values)
