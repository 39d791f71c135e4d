"""Linear-programming substrate.

Section VII of the paper formulates switch-position computation as an LP
(Eqs. 2-5) and solves it with the external ``lp_solve`` package [37]. This
package replaces it with:

* :mod:`repro.lp.model` — a small modelling layer (named variables with
  bounds, <=/>=/== constraints, linear objective);
* :mod:`repro.lp.scipy_backend` — lowering to ``scipy.optimize.linprog``
  (HiGHS), the solver :meth:`LinearProgram.solve` uses;
* :mod:`repro.lp.simplex` — a self-contained dense two-phase simplex with
  Bland's rule, the test suite's independent oracle for HiGHS.
"""

from repro.lp.model import LinearProgram, Solution
from repro.lp.simplex import SimplexResult, solve_simplex

__all__ = ["LinearProgram", "Solution", "solve_simplex", "SimplexResult"]
