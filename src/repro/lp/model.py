"""A small linear-program modelling layer.

Supports named variables with box bounds, linear constraints with <=, >= or
== sense, and a linear minimisation objective. Problems are solved either by
scipy's HiGHS (default) or by the built-in simplex fallback.

Example::

    lp = LinearProgram()
    x = lp.add_variable("x")                  # x >= 0
    d = lp.add_variable("d")
    lp.add_constraint({d: 1, x: -1}, ">=", -3)   # d >= x - 3  ... d >= |x-3|
    lp.add_constraint({d: 1, x: 1}, ">=", 3)     # d >= 3 - x
    lp.set_objective({d: 1.0})
    sol = lp.solve()
    sol.value(x)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.errors import LPError

SENSES = ("<=", ">=", "==")


@dataclass(frozen=True)
class Variable:
    """Handle for an LP variable (hashable; identity by index)."""

    index: int
    name: str

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Variable({self.name})"


@dataclass
class Constraint:
    coeffs: Dict[int, float]
    sense: str
    rhs: float
    name: str = ""


@dataclass
class Solution:
    """Result of an LP solve."""

    objective: float
    values: List[float]
    status: str = "optimal"

    def value(self, var: Variable) -> float:
        return self.values[var.index]


class LinearProgram:
    """A minimisation LP assembled incrementally."""

    def __init__(self) -> None:
        self._names: List[str] = []
        self._lower: List[Optional[float]] = []
        self._upper: List[Optional[float]] = []
        self._constraints: List[Constraint] = []
        self._objective: Dict[int, float] = {}

    # -- construction ------------------------------------------------------

    def add_variable(
        self,
        name: str = "",
        low: Optional[float] = 0.0,
        high: Optional[float] = None,
    ) -> Variable:
        """Add a variable with bounds ``low <= v <= high``.

        ``low=None`` means unbounded below; ``high=None`` unbounded above.
        Default is a standard non-negative variable.
        """
        if low is not None and high is not None and low > high:
            raise LPError(f"variable {name!r}: lower bound {low} > upper {high}")
        index = len(self._names)
        self._names.append(name or f"v{index}")
        self._lower.append(low)
        self._upper.append(high)
        return Variable(index=index, name=self._names[-1])

    def add_constraint(
        self,
        coeffs: Mapping[Variable, float],
        sense: str,
        rhs: float,
        name: str = "",
    ) -> None:
        """Add ``sum(c * v) <sense> rhs`` with sense one of <=, >=, ==."""
        if sense not in SENSES:
            raise LPError(f"unknown constraint sense {sense!r}")
        flat: Dict[int, float] = {}
        for var, c in coeffs.items():
            self._check_var(var)
            if c:
                flat[var.index] = flat.get(var.index, 0.0) + float(c)
        self._constraints.append(Constraint(flat, sense, float(rhs), name))

    def set_objective(self, coeffs: Mapping[Variable, float]) -> None:
        """Set the minimisation objective ``sum(c * v)``."""
        self._objective = {}
        for var, c in coeffs.items():
            self._check_var(var)
            if c:
                self._objective[var.index] = (
                    self._objective.get(var.index, 0.0) + float(c)
                )

    def add_objective_term(self, var: Variable, coeff: float) -> None:
        """Accumulate ``coeff * var`` into the objective."""
        self._check_var(var)
        if coeff:
            self._objective[var.index] = (
                self._objective.get(var.index, 0.0) + float(coeff)
            )

    # -- introspection -----------------------------------------------------

    @property
    def num_variables(self) -> int:
        return len(self._names)

    @property
    def num_constraints(self) -> int:
        return len(self._constraints)

    def as_arrays(self) -> Tuple[
        List[float],
        List[Tuple[Dict[int, float], str, float]],
        List[Tuple[Optional[float], Optional[float]]],
    ]:
        """Objective vector, constraint triples, and bounds — for backends."""
        c = [0.0] * len(self._names)
        for idx, coeff in self._objective.items():
            c[idx] = coeff
        rows = [(ct.coeffs, ct.sense, ct.rhs) for ct in self._constraints]
        bounds = list(zip(self._lower, self._upper))
        return c, rows, bounds

    # -- solving -----------------------------------------------------------

    def solve(self) -> Solution:
        """Solve the LP with scipy's HiGHS (the dense simplex of
        :mod:`repro.lp.simplex` is the test suite's oracle for it)."""
        from repro.lp.scipy_backend import solve_with_scipy

        return solve_with_scipy(self)

    def _check_var(self, var: Variable) -> None:
        if not isinstance(var, Variable):
            raise LPError(f"expected a Variable, got {type(var).__name__}")
        if not (0 <= var.index < len(self._names)):
            raise LPError(f"variable {var!r} does not belong to this program")
        if self._names[var.index] != var.name:
            raise LPError(f"variable {var!r} does not belong to this program")
