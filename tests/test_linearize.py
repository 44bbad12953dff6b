"""The linearised model (7): construction, extraction, consistency."""

import hashlib

import numpy as np
import pytest

from repro.api import SolveRequest, advise
from repro.costmodel.coefficients import CoefficientCache, attach_migration, build_coefficients
from repro.costmodel.config import CostParameters, WriteAccounting
from repro.costmodel.evaluator import SolutionEvaluator
from repro.exceptions import SolverError
from repro.instances.library import named_instance
from repro.partition.current_layout import CurrentLayout
from repro.qp.linearize import LinearizationCache, build_linearized_model, model_layout
from repro.solver.expr import Sense
from repro.solver.model import solve_arrays
from tests.conftest import small_random_instance
from tests.oracles import linexpr_linearized_model


def _family(linearized, name):
    """``(senses, matrix rows, rhs)`` of one constraint family."""
    rows = linearized.rows[name]
    model = linearized.model
    return model.senses[rows], model.matrix[rows], model.rhs[rows]


class TestConstruction:
    def test_variable_counts(self, tiny_coefficients):
        linearized = build_linearized_model(tiny_coefficients, 2)
        model = linearized.model
        # 2 transactions * 2 sites + 5 attributes * 2 sites binaries.
        assert model.num_integer_variables == 4 + 10
        assert linearized.m_var is not None  # lambda < 1 by default

    def test_pure_cost_has_no_load_variable(self, tiny_instance):
        coefficients = build_coefficients(
            tiny_instance, CostParameters(load_balance_lambda=1.0)
        )
        linearized = build_linearized_model(coefficients, 2)
        assert linearized.m_var is None
        assert linearized.rows["load"] == slice(
            linearized.rows["load"].start, linearized.rows["load"].start
        )

    def test_u_variables_only_for_nonzero_pairs(self, tiny_coefficients):
        linearized = build_linearized_model(tiny_coefficients, 2)
        c1, c3 = tiny_coefficients.c1, tiny_coefficients.c3
        pairs = {(int(t), int(a)) for t, a in linearized.u_pairs}
        assert pairs
        for t, a in pairs:
            assert c1[a, t] != 0 or c3[a, t] != 0

    def test_replication_flag_changes_constraint(self, tiny_coefficients):
        replicated = build_linearized_model(tiny_coefficients, 2)
        disjoint = build_linearized_model(
            tiny_coefficients, 2, allow_replication=False
        )
        # Same sizes; only senses differ on the y-placement rows.
        assert replicated.rows == disjoint.rows
        replicated_senses, _, _ = _family(replicated, "place_y")
        disjoint_senses, _, _ = _family(disjoint, "place_y")
        assert replicated_senses and all(s is Sense.GE for s in replicated_senses)
        assert all(s is Sense.EQ for s in disjoint_senses)
        differs = [
            a is not b
            for a, b in zip(replicated.model.senses, disjoint.model.senses)
        ]
        place_y = replicated.rows["place_y"]
        assert not any(differs[:place_y.start] + differs[place_y.stop:])

    def test_rejects_relevant_accounting(self, tiny_instance):
        coefficients = build_coefficients(
            tiny_instance,
            CostParameters(write_accounting=WriteAccounting.RELEVANT_ATTRIBUTES),
        )
        with pytest.raises(SolverError, match="RELEVANT"):
            build_linearized_model(coefficients, 2)

    def test_rejects_zero_sites(self, tiny_coefficients):
        with pytest.raises(SolverError, match="at least one site"):
            build_linearized_model(tiny_coefficients, 0)

    def test_symmetry_breaking_pins_first_transactions(self, tiny_coefficients):
        linearized = build_linearized_model(tiny_coefficients, 2)
        senses, rows, rhs = _family(linearized, "symmetry")
        # x[0, 1] <= 0: transaction 0 is pinned to site 0.
        assert senses == (Sense.LE,)
        assert rows.indices.tolist() == [linearized.x_vars[0, 1]]
        assert rows.data.tolist() == [1.0] and rhs.tolist() == [0.0]
        unbroken = build_linearized_model(
            tiny_coefficients, 2, symmetry_breaking=False
        )
        symmetry = unbroken.rows["symmetry"]
        assert symmetry.start == symmetry.stop == unbroken.model.num_constraints

    def test_row_families_tile_the_matrix(self, tiny_coefficients):
        """Families are contiguous, in order, and carry their senses."""
        linearized = build_linearized_model(tiny_coefficients, 3)
        families = list(linearized.rows.values())
        assert families[0].start == 0
        assert families[-1].stop == linearized.model.num_constraints
        for before, after in zip(families, families[1:]):
            assert before.stop == after.start
        senses, _, rhs = _family(linearized, "linearization")
        assert senses == (Sense.LE, Sense.LE, Sense.GE) * linearized.u_vars.size
        np.testing.assert_array_equal(rhs[2::3], -1.0)
        senses, rows, _ = _family(linearized, "coloc")
        phi = tiny_coefficients.phi_bool
        assert len(senses) == phi.sum() * 3 and set(senses) == {Sense.GE}
        np.testing.assert_array_equal(np.sort(rows.data.reshape(-1, 2)), [[-1.0, 1.0]] * len(senses))


# ----------------------------------------------------------------------
# Byte pin against the LinExpr reference builder
# ----------------------------------------------------------------------
def _assert_same_arrays(first, second):
    """Two array models must be equal byte for byte."""
    a = first.to_standard_arrays()
    b = second.to_standard_arrays()
    for name in ("objective", "rhs", "lower", "upper", "integrality"):
        left, right = getattr(a, name), getattr(b, name)
        assert left.dtype == right.dtype and left.shape == right.shape, name
        assert left.tobytes() == right.tobytes(), name
    assert a.matrix.shape == b.matrix.shape
    for name in ("indptr", "indices", "data"):
        left, right = getattr(a.matrix, name), getattr(b.matrix, name)
        assert left.dtype == right.dtype, name
        assert left.tobytes() == right.tobytes(), name
    assert a.senses == b.senses
    assert a.objective_constant == b.objective_constant


def _rotated_layout(instance, num_sites):
    """An incumbent with attribute ``a`` on site ``a mod |S|``."""
    y = np.zeros((len(instance.attributes), num_sites), dtype=bool)
    y[np.arange(y.shape[0]), np.arange(y.shape[0]) % num_sites] = True
    return CurrentLayout.from_matrix(instance, y)


#: (instance, |S|, replicated, lambda, latency, migration): every flag
#: value is covered, the sizes stop at rndAt16x100.
ORACLE_CASES = [
    ("tpcc", 3, True, 0.9, False, False),
    ("tpcc", 4, False, 1.0, True, True),
    ("tatp", 2, True, 1.0, True, False),
    ("smallbank", 4, False, 0.9, True, True),
    ("voter", 1, True, 0.5, False, True),
    ("rndAt4x15", 2, False, 0.9, False, True),
    ("rndAt8x15", 3, True, 1.0, False, False),
    ("rndAt16x15", 4, True, 0.7, True, False),
    ("rndAt8x15u50", 4, False, 0.9, True, False),
    ("rndBt16x15", 3, True, 0.9, True, True),
    ("rndBt4x100", 4, False, 0.5, False, False),
    ("rndAt4x100", 1, False, 0.9, True, False),
    ("rndAt16x100", 2, True, 0.9, False, True),
]


@pytest.mark.parametrize(
    "name, num_sites, replicated, lam, latency, migration",
    ORACLE_CASES,
    ids=[f"{case[0]}-S{case[1]}" for case in ORACLE_CASES],
)
def test_arrays_match_linexpr_oracle(name, num_sites, replicated, lam, latency, migration):
    """Cache miss and hit both give the reference builder's arrays."""
    instance = named_instance(name)
    coefficient_cache = CoefficientCache(instance)
    cache = LinearizationCache()
    for penalty in (8.0, 2.0):  # the second point re-prices the skeleton
        coefficients = coefficient_cache.coefficients(CostParameters(
            network_penalty=penalty, load_balance_lambda=lam,
            latency_penalty=3.0 if latency else 0.0,
        ))
        if migration:
            coefficients = attach_migration(
                coefficients, _rotated_layout(instance, num_sites), 0.25, num_sites
            )
        flags = dict(allow_replication=replicated, latency=latency)
        built = build_linearized_model(coefficients, num_sites, cache=cache, **flags)
        reference = linexpr_linearized_model(coefficients, num_sites, **flags)
        _assert_same_arrays(built.model, reference)
        assert built.rows == model_layout(
            coefficients, num_sites, latency
        ).row_families()
    assert (cache.misses, cache.hits) == (1, 1)


#: SHA-256 of ``x.tobytes() + y.tobytes()`` and ``repr(objective)`` of
#: the QP layouts of the benchmark's exact rows, recorded with the
#: LinExpr builder.
QP_RESULT_PINS = [
    ("tpcc", 2, False, "ac9ddbec536c5fee9569396f5a9b9795b3c52632087ddc55e912808cc45b3f07", "36613.0"),
    ("tpcc", 3, False, "4ea28f937e764685200342d63debaa5b88cf9551cf5ded3c6757e7face939719", "36484.0"),
    ("tpcc", 4, False, "b3a50db96f3e6abd2b6c7e1e850718f5a7460d609eae47b43d5d3c5d56c89a40", "36484.0"),
    ("tpcc", 3, True, "e1b75c5a97273797c015181810bf86640e29188256a5c16cee464e143a37d43a", "49679.0"),
    ("rndBt4x100", 4, False, "6143def83d0bdc799dc3db445d33c4bc5cb03e16197a9d0038ca10e2a78c4a14", "1832568.0"),
    ("rndBt32x15", 4, False, "29ea9ffe26ce3fcfbf4d45ae5d48e43a78104e67521757e171d7ff1680aa08b0", "751028.0"),
    ("rndBt8x15", 4, False, "6e7c99cc3c9aae260d10843eb48121b6ad567e87df66bd4d3a851925d95c10a8", "657204.0"),
    ("rndBt4x15", 3, True, "639711eea8bfdf257a278ce03136a29b062d93a9106c58fc3dc7588efa389567", "297204.0"),
]


@pytest.mark.parametrize(
    "name, num_sites, disjoint, digest, objective",
    QP_RESULT_PINS,
    ids=[f"{pin[0]}-S{pin[1]}{'-disjoint' if pin[2] else ''}" for pin in QP_RESULT_PINS],
)
def test_qp_results_pinned(name, num_sites, disjoint, digest, objective):
    result = advise(SolveRequest(
        named_instance(name), num_sites=num_sites,
        allow_replication=not disjoint, strategy="qp",
    )).result
    assert hashlib.sha256(result.x.tobytes() + result.y.tobytes()).hexdigest() == digest
    assert repr(result.objective) == objective


class TestLinearizationCache:
    """The sweep-level skeleton cache must never change the model."""

    def test_penalty_sweep_hits_and_matches_uncached(self):
        instance = small_random_instance(4)
        coefficient_cache = CoefficientCache(instance)
        cache = LinearizationCache()
        for penalty in (1.0, 4.0, 16.0, 64.0):
            coefficients = coefficient_cache.coefficients(
                CostParameters(network_penalty=penalty)
            )
            cached = build_linearized_model(coefficients, 2, cache=cache)
            plain = build_linearized_model(coefficients, 2)
            _assert_same_arrays(cached.model, plain.model)
        assert cache.hits == 3  # first point builds, the rest re-price

    def test_lambda_regime_change_misses(self):
        """Crossing lambda = 1 adds/removes the load side; the cache
        must rebuild, not reuse."""
        instance = small_random_instance(4)
        coefficient_cache = CoefficientCache(instance)
        cache = LinearizationCache()
        for lam in (1.0, 0.5):
            coefficients = coefficient_cache.coefficients(
                CostParameters(load_balance_lambda=lam)
            )
            cached = build_linearized_model(coefficients, 2, cache=cache)
            plain = build_linearized_model(coefficients, 2)
            assert (cached.m_var is None) == (lam >= 1.0)
            _assert_same_arrays(cached.model, plain.model)
        assert cache.hits == 0

    def test_different_instance_misses(self):
        cache = LinearizationCache()
        for seed in (4, 5):
            coefficients = build_coefficients(
                small_random_instance(seed), CostParameters()
            )
            cached = build_linearized_model(coefficients, 2, cache=cache)
            plain = build_linearized_model(coefficients, 2)
            _assert_same_arrays(cached.model, plain.model)
        assert cache.hits == 0

    def test_cached_solutions_identical(self):
        """Solving the re-priced skeleton gives the same optimum."""
        instance = small_random_instance(1)
        coefficient_cache = CoefficientCache(instance)
        cache = LinearizationCache()
        for penalty in (2.0, 8.0):
            coefficients = coefficient_cache.coefficients(
                CostParameters(network_penalty=penalty)
            )
            cached = build_linearized_model(coefficients, 2, cache=cache)
            plain = build_linearized_model(coefficients, 2)
            solved_cached = solve_arrays(cached.model, backend="scipy", gap=1e-9)
            solved_plain = solve_arrays(plain.model, backend="scipy", gap=1e-9)
            assert solved_cached.objective == pytest.approx(
                solved_plain.objective, rel=1e-9
            )

    def test_latency_models_cacheable(self):
        instance = small_random_instance(2)
        cache = LinearizationCache()
        coefficient_cache = CoefficientCache(instance)
        for penalty in (5.0, 10.0):
            coefficients = coefficient_cache.coefficients(
                CostParameters(latency_penalty=penalty)
            )
            cached = build_linearized_model(coefficients, 2, latency=True, cache=cache)
            plain = build_linearized_model(coefficients, 2, latency=True)
            np.testing.assert_array_equal(cached.psi_queries, plain.psi_queries)
            _assert_same_arrays(cached.model, plain.model)
        assert cache.hits == 1


class TestCoefficientCache:
    def test_bitwise_identical_to_uncached(self):
        instance = small_random_instance(0)
        coefficient_cache = CoefficientCache(instance)
        for parameters in (
            CostParameters(),
            CostParameters(network_penalty=0.0),
            CostParameters(network_penalty=32.0, load_balance_lambda=0.5),
            CostParameters(write_accounting=WriteAccounting.NO_ATTRIBUTES),
        ):
            cached = coefficient_cache.coefficients(parameters)
            plain = build_coefficients(instance, parameters)
            for name in ("c1", "c2", "c3", "c4", "weights"):
                np.testing.assert_array_equal(
                    getattr(cached, name), getattr(plain, name)
                )

    def test_same_parameters_share_object(self):
        instance = small_random_instance(0)
        coefficient_cache = CoefficientCache(instance)
        first = coefficient_cache.coefficients(CostParameters(network_penalty=8.0))
        second = coefficient_cache.coefficients(CostParameters(network_penalty=8.0))
        assert first is second


class TestSolutionConsistency:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mip_objective_matches_evaluator(self, seed):
        """At the MIP optimum, the model's objective equals the
        evaluator's objective (6) of the extracted solution, and every
        u variable equals x*y."""
        instance = small_random_instance(seed)
        coefficients = build_coefficients(instance, CostParameters())
        linearized = build_linearized_model(coefficients, 2)
        solution = solve_arrays(linearized.model, backend="scipy", gap=1e-9)
        x, y = linearized.extract(solution.values)
        evaluator = SolutionEvaluator(coefficients)
        assert solution.objective == pytest.approx(
            evaluator.objective6(x, y), rel=1e-6
        )
        transactions, attributes = linearized.u_pairs.T
        np.testing.assert_allclose(
            solution.values[linearized.u_vars],
            (x[transactions] & y[attributes]).astype(float),
            atol=1e-6,
        )

    def test_incumbent_vector_round_trips(self, tiny_coefficients):
        linearized = build_linearized_model(tiny_coefficients, 2)
        x = np.array([[True, False], [False, True]])
        phi = tiny_coefficients.phi_bool
        y = (phi @ x).astype(bool)
        y[~y.any(axis=1), 0] = True
        values = linearized.incumbent_vector(x, y)
        x2, y2 = linearized.extract(values)
        np.testing.assert_array_equal(x, x2)
        np.testing.assert_array_equal(y, y2)
        # The incumbent must satisfy the model's constraints.
        from repro.solver.branch_and_bound import solution_violations

        assert solution_violations(linearized.model, values) == 0.0

    def test_latency_variables_created_for_writes(self, tiny_instance):
        coefficients = build_coefficients(
            tiny_instance, CostParameters(latency_penalty=10.0)
        )
        linearized = build_linearized_model(coefficients, 2, latency=True)
        assert len(linearized.psi_vars) == 1  # one write query
        solution = solve_arrays(linearized.model, backend="scipy", gap=1e-9)
        x, y = linearized.extract(solution.values)
        evaluator = SolutionEvaluator(coefficients)
        psi_value = solution.values[linearized.psi_vars[0]]
        assert psi_value == pytest.approx(
            evaluator.latency(x, y) / 10.0, abs=1e-6
        )

    @pytest.mark.parametrize("seed", [0, 3])
    def test_latency_incumbent_matches_oracle_loop(self, seed):
        """The vectorised psi fill equals the per-query definition, and
        the warm start is feasible."""
        from repro.solver.branch_and_bound import solution_violations
        from tests.conftest import random_feasible_solution

        coefficients = build_coefficients(
            small_random_instance(seed), CostParameters(latency_penalty=4.0)
        )
        linearized = build_linearized_model(
            coefficients, 3, latency=True, symmetry_breaking=False
        )
        assert linearized.psi_queries.size
        x, y = random_feasible_solution(coefficients, 3, seed)
        values = linearized.incumbent_vector(x, y)
        indicators = coefficients.indicators
        owner = coefficients.instance.query_transaction
        home = np.argmax(x, axis=1)
        for q_index, column in zip(linearized.psi_queries, linearized.psi_vars):
            site = home[owner[q_index]]
            updated = np.flatnonzero(indicators.alpha[:, q_index] > 0)
            remote = int(y[updated].sum() - y[updated, site].sum())
            assert values[column] == (1.0 if remote > 0 else 0.0)
        assert solution_violations(linearized.model, values) == 0.0
