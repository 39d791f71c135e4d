"""LP modelling layer, its HiGHS solve, and the simplex oracle (repro.lp)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from repro.errors import InfeasibleLPError, LPError, UnboundedLPError
from repro.lp.model import LinearProgram
from repro.lp.scipy_backend import (
    _lower_for_linprog,
    solve_with_scipy,
    solve_with_simplex,
)
from repro.lp.simplex import solve_simplex

BACKENDS = ("scipy", "simplex")


def _solve(lp, backend):
    """``LinearProgram.solve`` (HiGHS), or the simplex oracle directly."""
    return lp.solve() if backend == "scipy" else solve_with_simplex(lp)


class TestModel:
    def test_variable_bounds_validated(self):
        lp = LinearProgram()
        with pytest.raises(LPError):
            lp.add_variable("x", low=2.0, high=1.0)

    def test_unknown_sense_rejected(self):
        lp = LinearProgram()
        x = lp.add_variable("x")
        with pytest.raises(LPError):
            lp.add_constraint({x: 1.0}, "<", 1.0)

    def test_foreign_variable_rejected(self):
        lp1, lp2 = LinearProgram(), LinearProgram()
        x1 = lp1.add_variable("x")
        lp2.add_variable("y")
        with pytest.raises(LPError):
            lp2.add_constraint({x1: 1.0}, "<=", 1.0)

    def test_counts(self):
        lp = LinearProgram()
        x = lp.add_variable("x")
        lp.add_constraint({x: 1.0}, "<=", 4.0)
        assert lp.num_variables == 1
        assert lp.num_constraints == 1


@pytest.mark.parametrize("backend", BACKENDS)
class TestSolve:
    def test_simple_minimisation(self, backend):
        # min x + y  s.t. x + y >= 2, x >= 0, y >= 0 -> objective 2.
        lp = LinearProgram()
        x = lp.add_variable("x")
        y = lp.add_variable("y")
        lp.add_constraint({x: 1.0, y: 1.0}, ">=", 2.0)
        lp.set_objective({x: 1.0, y: 1.0})
        sol = _solve(lp, backend)
        assert sol.objective == pytest.approx(2.0)

    def test_equality_constraint(self, backend):
        lp = LinearProgram()
        x = lp.add_variable("x")
        y = lp.add_variable("y")
        lp.add_constraint({x: 1.0, y: 2.0}, "==", 4.0)
        lp.set_objective({x: 3.0, y: 1.0})
        sol = _solve(lp, backend)
        # Cheapest: all weight on y: y = 2, objective 2.
        assert sol.objective == pytest.approx(2.0)
        assert sol.value(y) == pytest.approx(2.0)

    def test_upper_bounds(self, backend):
        # max x (== min -x) with x <= 7 via bound.
        lp = LinearProgram()
        x = lp.add_variable("x", low=0.0, high=7.0)
        lp.set_objective({x: -1.0})
        sol = _solve(lp, backend)
        assert sol.value(x) == pytest.approx(7.0)

    def test_free_variable(self, backend):
        # min |x - (-3)| linearised: d >= x+3, d >= -x-3, x free.
        lp = LinearProgram()
        x = lp.add_variable("x", low=None)
        d = lp.add_variable("d")
        lp.add_constraint({d: 1.0, x: -1.0}, ">=", 3.0)
        lp.add_constraint({d: 1.0, x: 1.0}, ">=", -3.0)
        lp.set_objective({d: 1.0})
        sol = _solve(lp, backend)
        assert sol.objective == pytest.approx(0.0, abs=1e-6)
        assert sol.value(x) == pytest.approx(-3.0, abs=1e-6)

    def test_shifted_lower_bound(self, backend):
        lp = LinearProgram()
        x = lp.add_variable("x", low=5.0)
        lp.set_objective({x: 1.0})
        sol = _solve(lp, backend)
        assert sol.value(x) == pytest.approx(5.0)

    def test_infeasible_detected(self, backend):
        lp = LinearProgram()
        x = lp.add_variable("x", low=0.0, high=1.0)
        lp.add_constraint({x: 1.0}, ">=", 5.0)
        lp.set_objective({x: 1.0})
        with pytest.raises(InfeasibleLPError):
            _solve(lp, backend)

    def test_unbounded_detected(self, backend):
        lp = LinearProgram()
        x = lp.add_variable("x")
        lp.set_objective({x: -1.0})
        with pytest.raises(UnboundedLPError):
            _solve(lp, backend)

    def test_manhattan_median(self, backend):
        # min sum |x - a_i| over a = (0, 4, 10): optimum at the median (4).
        lp = LinearProgram()
        x = lp.add_variable("x")
        total = {}
        for i, a in enumerate((0.0, 4.0, 10.0)):
            d = lp.add_variable(f"d{i}")
            lp.add_constraint({d: 1.0, x: -1.0}, ">=", -a)
            lp.add_constraint({d: 1.0, x: 1.0}, ">=", a)
            total[d] = 1.0
        lp.set_objective(total)
        sol = _solve(lp, backend)
        assert sol.value(x) == pytest.approx(4.0, abs=1e-6)
        assert sol.objective == pytest.approx(10.0, abs=1e-6)


class TestSimplexDirect:
    def test_empty_program_feasible(self):
        result = solve_simplex([1.0, 2.0], [])
        assert result.objective == 0.0

    def test_empty_program_unbounded(self):
        with pytest.raises(UnboundedLPError):
            solve_simplex([-1.0], [])

    def test_row_length_mismatch(self):
        with pytest.raises(LPError):
            solve_simplex([1.0, 1.0], [([1.0], "<=", 1.0)])

    def test_negative_rhs_normalised(self):
        # -x <= -2  <=>  x >= 2.
        result = solve_simplex([1.0], [([-1.0], "<=", -2.0)])
        assert result.objective == pytest.approx(2.0)

    def test_degenerate_redundant_equalities(self):
        rows = [
            ([1.0, 1.0], "==", 2.0),
            ([2.0, 2.0], "==", 4.0),  # redundant
        ]
        result = solve_simplex([1.0, 0.0], rows)
        assert result.objective == pytest.approx(0.0, abs=1e-9)


class TestBackendsAgree:
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_random_bounded_lps_match(self, data):
        """Cross-check the hand-rolled simplex against scipy/HiGHS."""
        n = data.draw(st.integers(min_value=1, max_value=4))
        m = data.draw(st.integers(min_value=1, max_value=4))
        lp_a, lp_b = LinearProgram(), LinearProgram()
        vars_a = [lp_a.add_variable(f"x{i}", low=0.0, high=10.0) for i in range(n)]
        vars_b = [lp_b.add_variable(f"x{i}", low=0.0, high=10.0) for i in range(n)]
        coeff = st.integers(min_value=-3, max_value=3)
        for _ in range(m):
            row = [data.draw(coeff) for _ in range(n)]
            rhs = data.draw(st.integers(min_value=0, max_value=20))
            for lp, vs in ((lp_a, vars_a), (lp_b, vars_b)):
                lp.add_constraint(
                    {v: c for v, c in zip(vs, row)}, "<=", float(rhs)
                )
        obj = [data.draw(st.integers(min_value=0, max_value=3)) for _ in range(n)]
        lp_a.set_objective({v: c for v, c in zip(vars_a, obj)})
        lp_b.set_objective({v: c for v, c in zip(vars_b, obj)})
        sol_a = lp_a.solve()
        sol_b = solve_with_simplex(lp_b)
        assert sol_a.objective == pytest.approx(sol_b.objective, abs=1e-6)


def _list_lowering(lp):
    """The list-of-lists lowering ``solve_with_scipy`` used before it filled
    preallocated arrays: the identity oracle for the array lowering."""
    c, rows, bounds = lp.as_arrays()
    n = len(c)
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
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
    return {
        "c": np.asarray(c, dtype=float),
        "A_ub": np.asarray(a_ub) if a_ub else None,
        "b_ub": np.asarray(b_ub) if b_ub else None,
        "A_eq": np.asarray(a_eq) if a_eq else None,
        "b_eq": np.asarray(b_eq) if b_eq else None,
        "bounds": bounds,
    }


class TestArrayLowering:
    def test_matches_list_lowering_on_d26_media_placement_lps(
        self, monkeypatch
    ):
        from repro import SunFloor3D
        from repro.bench.registry import get_benchmark

        bench = get_benchmark("d26_media")
        lps = []
        solve = LinearProgram.solve
        monkeypatch.setattr(
            LinearProgram, "solve", lambda lp: lps.append(lp) or solve(lp)
        )
        assert SunFloor3D(bench.core_spec_3d, bench.comm_spec).synthesize().points
        assert lps
        for lp in lps:
            old, new = _list_lowering(lp), _lower_for_linprog(lp)
            for key in ("c", "A_ub", "b_ub", "A_eq", "b_eq"):
                if old[key] is None:
                    assert new[key] is None, key
                    continue
                # Same values and the same signed zeros of negated rows.
                np.testing.assert_array_equal(new[key], old[key])
                assert (np.signbit(new[key]) == np.signbit(old[key])).all(), key
            assert new["bounds"] == old["bounds"]
            expected = linprog(**old, method="highs").x
            assert solve_with_scipy(lp).values == list(expected)

    def test_mixed_senses_keep_row_order(self):
        lp = LinearProgram()
        x = lp.add_variable("x", low=0.0)
        y = lp.add_variable("y", low=0.0)
        lp.add_constraint({x: 1.0}, ">=", 0.0)
        lp.add_constraint({x: 1.0, y: 1.0}, "==", 3.0)
        lp.add_constraint({y: 2.0}, "<=", 4.0)
        lp.add_constraint({x: 1.0, y: -1.0}, ">=", -1.0)
        new, old = _lower_for_linprog(lp), _list_lowering(lp)
        np.testing.assert_array_equal(new["A_ub"], old["A_ub"])
        np.testing.assert_array_equal(new["b_ub"], [-0.0, 4.0, 1.0])
        assert np.signbit(new["A_ub"][0, 1]) and np.signbit(new["b_ub"][0])
        np.testing.assert_array_equal(new["A_eq"], [[1.0, 1.0]])
