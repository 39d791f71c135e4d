"""Backends lowering :class:`~repro.lp.model.LinearProgram` to solvers.

``solve_with_scipy`` uses ``scipy.optimize.linprog`` (HiGHS). It handles box
bounds natively, and :meth:`~repro.lp.model.LinearProgram.solve` uses it.

``solve_with_simplex`` (the test suite's oracle) lowers to the built-in two-phase simplex of
:mod:`repro.lp.simplex`, which expects non-negative variables: bounded-below
variables are shifted (``x = lo + x'``), free variables are split
(``x = x+ - x-``), and finite upper bounds become extra rows.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np
from scipy.optimize import linprog

from repro.errors import InfeasibleLPError, LPError, UnboundedLPError
from repro.lp.model import LinearProgram, Solution
from repro.lp.simplex import solve_simplex


def solve_with_scipy(lp: LinearProgram) -> Solution:
    """Solve with scipy's HiGHS solver."""
    c, rows, bounds = lp.as_arrays()
    n = len(c)

    a_ub: List[List[float]] = []
    b_ub: List[float] = []
    a_eq: List[List[float]] = []
    b_eq: List[float] = []
    for coeffs, sense, rhs in rows:
        dense = [0.0] * n
        for idx, coef in coeffs.items():
            dense[idx] = coef
        if sense == "<=":
            a_ub.append(dense)
            b_ub.append(rhs)
        elif sense == ">=":
            a_ub.append([-v for v in dense])
            b_ub.append(-rhs)
        else:
            a_eq.append(dense)
            b_eq.append(rhs)

    result = linprog(
        c=np.asarray(c, dtype=float),
        A_ub=np.asarray(a_ub) if a_ub else None,
        b_ub=np.asarray(b_ub) if b_ub else None,
        A_eq=np.asarray(a_eq) if a_eq else None,
        b_eq=np.asarray(b_eq) if b_eq else None,
        bounds=bounds,
        method="highs",
    )
    if result.status == 2:
        raise InfeasibleLPError(result.message)
    if result.status == 3:
        raise UnboundedLPError(result.message)
    if not result.success:
        raise LPError(f"linprog failed: {result.message}")
    return Solution(objective=float(result.fun), values=list(result.x))


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
