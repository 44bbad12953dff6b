"""Linear / mixed-integer programming substrate.

The paper solved its linearised model (7) with GLPK. We build the whole
stack ourselves:

* a PuLP-like modelling layer (:mod:`repro.solver.expr`,
  :mod:`repro.solver.model`),
* a dense two-phase primal simplex LP solver written from scratch
  (:mod:`repro.solver.simplex`),
* a branch-and-bound MIP solver on top of it
  (:mod:`repro.solver.branch_and_bound`),
* a scipy/HiGHS backend for large models
  (:mod:`repro.solver.scipy_backend`).

``solve_arrays(arrays, backend="auto")`` (and ``MipModel.solve``, which
converts and calls it) picks the from-scratch solver for tiny models and
HiGHS otherwise; both are cross-checked in the tests.  The QP path
builds model (7) directly as :class:`StandardArrays`; the modelling
layer serves the small exact sub-MIPs of the annealer and the tests.
"""

from repro.solver.expr import LinExpr, Variable, Constraint, Sense
from repro.solver.model import MipModel, ObjectiveSense, StandardArrays, solve_arrays
from repro.solver.solution import MipSolution, SolutionStatus
from repro.solver.simplex import SimplexResult, solve_lp_simplex
from repro.solver.branch_and_bound import BranchAndBoundOptions, solve_mip_bnb
from repro.solver.scipy_backend import solve_lp_scipy, solve_mip_scipy

__all__ = [
    "LinExpr",
    "Variable",
    "Constraint",
    "Sense",
    "MipModel",
    "ObjectiveSense",
    "StandardArrays",
    "solve_arrays",
    "MipSolution",
    "SolutionStatus",
    "SimplexResult",
    "solve_lp_simplex",
    "BranchAndBoundOptions",
    "solve_mip_bnb",
    "solve_lp_scipy",
    "solve_mip_scipy",
]
