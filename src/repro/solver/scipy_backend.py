"""LP/MIP backend using scipy's HiGHS bindings.

Used for the full-size linearised models (thousands of variables) where
the from-scratch tableau simplex would be too slow. The from-scratch
and HiGHS backends are cross-checked against each other in the tests.
"""

from __future__ import annotations

import numpy as np
from scipy import optimize, sparse

from repro.solver.expr import Sense
from repro.solver.model import StandardArrays
from repro.solver.simplex import SimplexResult
from repro.solver.solution import MipSolution, SolutionStatus


def _sense_masks(arrays: StandardArrays) -> tuple[np.ndarray, np.ndarray]:
    """Boolean ``(<=, >=)`` row masks; the remaining rows are ``==``."""
    senses = np.array(arrays.senses, dtype=object)
    return senses == Sense.LE, senses == Sense.GE


def _constraint_bounds(arrays: StandardArrays) -> tuple[np.ndarray, np.ndarray]:
    """Row bounds ``lb <= A x <= ub`` of the constraint senses."""
    less, greater = _sense_masks(arrays)
    lb = np.where(less, -np.inf, arrays.rhs)
    ub = np.where(greater, np.inf, arrays.rhs)
    return lb, ub


def solve_lp_scipy(
    arrays: StandardArrays,
    lower: np.ndarray | None = None,
    upper: np.ndarray | None = None,
) -> SimplexResult:
    """Solve the LP relaxation with ``scipy.optimize.linprog`` (HiGHS)."""
    lower = arrays.lower if lower is None else lower
    upper = arrays.upper if upper is None else upper
    less, greater = _sense_masks(arrays)
    inequality = less | greater
    equality = ~inequality
    # ">=" rows enter A_ub negated; rows keep their model order.
    sign = np.where(greater, -1.0, 1.0)[inequality]
    a_ub = b_ub = a_eq = b_eq = None
    if inequality.any():
        a_ub = sparse.diags(sign) @ arrays.matrix[inequality]
        b_ub = sign * arrays.rhs[inequality]
    if equality.any():
        a_eq = arrays.matrix[equality]
        b_eq = arrays.rhs[equality]
    result = optimize.linprog(
        arrays.objective,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=list(zip(lower, upper)),
        method="highs",
    )
    if result.status == 0:
        objective = float(result.fun + arrays.objective_constant)
        return SimplexResult(SolutionStatus.OPTIMAL, objective, np.asarray(result.x))
    if result.status == 2:
        return SimplexResult(SolutionStatus.INFEASIBLE, None, None)
    if result.status == 3:
        return SimplexResult(SolutionStatus.UNBOUNDED, None, None)
    return SimplexResult(SolutionStatus.NO_SOLUTION, None, None)


def solve_mip_scipy(
    arrays: StandardArrays,
    time_limit: float | None = None,
    gap: float = 1e-3,
) -> MipSolution:
    """Solve the MIP with ``scipy.optimize.milp`` (HiGHS branch & cut)."""
    lb, ub = _constraint_bounds(arrays)
    constraints = (
        optimize.LinearConstraint(arrays.matrix, lb, ub)
        if arrays.num_constraints
        else ()
    )
    options: dict[str, object] = {"mip_rel_gap": gap}
    if time_limit is not None:
        options["time_limit"] = float(time_limit)
    result = optimize.milp(
        arrays.objective,
        constraints=constraints,
        integrality=arrays.integrality.astype(int),
        bounds=optimize.Bounds(arrays.lower, arrays.upper),
        options=options,
    )
    nodes = int(getattr(result, "mip_node_count", 0) or 0)
    bound = getattr(result, "mip_dual_bound", None)
    if bound is not None:
        bound = float(bound) + arrays.objective_constant

    if result.status == 0:
        return MipSolution(
            status=SolutionStatus.OPTIMAL,
            objective=float(result.fun + arrays.objective_constant),
            values=np.asarray(result.x),
            bound=bound,
            nodes=nodes,
            backend="scipy-highs",
            message=str(result.message),
        )
    if result.status == 1 and result.x is not None:
        return MipSolution(
            status=SolutionStatus.FEASIBLE,
            objective=float(result.fun + arrays.objective_constant),
            values=np.asarray(result.x),
            bound=bound,
            nodes=nodes,
            backend="scipy-highs",
            message=str(result.message),
        )
    if result.status == 2:
        status = SolutionStatus.INFEASIBLE
    elif result.status == 3:
        status = SolutionStatus.UNBOUNDED
    else:
        status = SolutionStatus.NO_SOLUTION
    return MipSolution(
        status=status,
        objective=None,
        values=None,
        bound=bound,
        nodes=nodes,
        backend="scipy-highs",
        message=str(result.message),
    )
