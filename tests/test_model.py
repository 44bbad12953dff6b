"""MipModel construction and array conversion."""

import numpy as np
import pytest

from repro.exceptions import SolverError
from repro.solver.expr import Sense
from repro.solver.model import MipModel
from repro.solver.solution import SolutionStatus


@pytest.fixture
def model():
    return MipModel("test")


class TestConstruction:
    def test_duplicate_variable_names_rejected(self, model):
        model.add_variable("x")
        with pytest.raises(SolverError, match="duplicate"):
            model.add_variable("x")

    def test_binary_variable_bounds(self, model):
        b = model.binary_variable("b")
        assert b.lower == 0.0 and b.upper == 1.0 and b.is_integer

    def test_boolean_comparison_caught(self, model):
        """A common bug: comparing two plain floats folds to bool."""
        with pytest.raises(SolverError, match="Constraint"):
            model.add_constraint(1 <= 2)  # type: ignore[arg-type]

    def test_counts(self, model):
        x = model.add_variable("x")
        b = model.binary_variable("b")
        model.add_constraint(x + b <= 1)
        assert model.num_variables == 2
        assert model.num_integer_variables == 1
        assert model.num_constraints == 1


class TestStandardArrays:
    def test_objective_vector(self, model):
        x = model.add_variable("x")
        y = model.add_variable("y")
        model.minimize(2 * x - y + 7)
        arrays = model.to_standard_arrays()
        np.testing.assert_array_equal(arrays.objective, [2.0, -1.0])
        assert arrays.objective_constant == 7.0

    def test_maximization_negated(self, model):
        x = model.add_variable("x")
        model.maximize(3 * x + 1)
        arrays = model.to_standard_arrays()
        np.testing.assert_array_equal(arrays.objective, [-3.0])
        assert arrays.objective_constant == -1.0

    def test_matrix_and_senses(self, model):
        x = model.add_variable("x", upper=4)
        y = model.add_variable("y")
        model.add_constraint(x + 2 * y <= 3)
        model.add_constraint(x - y >= 1)
        model.add_constraint(x + y == 2)
        arrays = model.to_standard_arrays()
        assert arrays.senses == (Sense.LE, Sense.GE, Sense.EQ)
        np.testing.assert_array_equal(
            arrays.matrix.toarray(), [[1, 2], [1, -1], [1, 1]]
        )
        np.testing.assert_array_equal(arrays.rhs, [3, 1, 2])
        assert arrays.upper[0] == 4 and np.isinf(arrays.upper[1])

    def test_integrality_mask(self, model):
        model.add_variable("x")
        model.binary_variable("b")
        arrays = model.to_standard_arrays()
        np.testing.assert_array_equal(arrays.integrality, [False, True])

    def test_constraint_bounds_match_row_loop(self, tiny_coefficients):
        """HiGHS row bounds equal, byte for byte, the per-row rule on a
        model (7) mixing all three senses and ``-0.0`` right-hand sides."""
        from repro.qp.linearize import build_linearized_model
        from repro.solver.scipy_backend import _constraint_bounds

        arrays = build_linearized_model(
            tiny_coefficients, 3, allow_replication=False
        ).model
        assert set(arrays.senses) == set(Sense)
        lb = np.full(arrays.num_constraints, -np.inf)
        ub = np.full(arrays.num_constraints, np.inf)
        for row, sense in enumerate(arrays.senses):
            if sense is not Sense.LE:
                lb[row] = arrays.rhs[row]
            if sense is not Sense.GE:
                ub[row] = arrays.rhs[row]
        fast_lb, fast_ub = _constraint_bounds(arrays)
        assert fast_lb.tobytes() == lb.tobytes()
        assert fast_ub.tobytes() == ub.tobytes()


class TestSolve:
    def test_maximize_reports_original_sign(self, model):
        x = model.add_variable("x", upper=5)
        model.maximize(x)
        for backend in ("scratch", "scipy"):
            solution = model.solve(backend=backend)
            assert solution.status is SolutionStatus.OPTIMAL
            assert solution.objective == pytest.approx(5.0)

    def test_unknown_backend(self, model):
        model.add_variable("x", upper=1)
        model.minimize(model.variables[0].to_expr())
        with pytest.raises(SolverError, match="unknown backend"):
            model.solve(backend="gurobi")

    def test_auto_picks_scratch_for_tiny_models(self, model):
        x = model.add_variable("x", upper=1)
        model.minimize(-x)
        solution = model.solve(backend="auto")
        assert solution.backend in ("scratch-bnb",)

    def test_solution_value_accessor(self, model):
        x = model.add_variable("x", upper=2)
        model.maximize(x)
        solution = model.solve(backend="scratch")
        assert solution.value(x) == pytest.approx(2.0)

    def test_no_values_raises(self, model):
        x = model.add_variable("x", upper=2)
        model.add_constraint(x >= 5)
        model.minimize(x)
        solution = model.solve(backend="scratch")
        assert solution.status is SolutionStatus.INFEASIBLE
        with pytest.raises(ValueError, match="no values"):
            solution.value(x)

    def test_gap_property(self):
        from repro.solver.solution import MipSolution

        solution = MipSolution(
            status=SolutionStatus.FEASIBLE, objective=100.0, values=None, bound=95.0
        )
        assert solution.gap == pytest.approx(0.05)
