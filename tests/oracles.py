"""Parity oracles: the reference paths production code is pinned to.

Production keeps one path per job; the slower reference semantics it
must reproduce live here, where only the tests import them.

* :class:`LoopSubproblemSolver` — the balance-aware (``lambda < 1``)
  greedy placements as plain loops, one numpy argmin per item.  The
  fast scalar scans in :mod:`repro.sa.subsolve` must return bitwise
  equal layouts (same IEEE operations in the same order).
* :class:`DenseAnnealer` — Algorithm 1 with every candidate costed by
  the dense :class:`~repro.costmodel.evaluator.SolutionEvaluator` and
  every sub-problem fed from dense products, through
  :class:`DenseEvaluator`.  For a fixed seed it visits the same
  candidates as the incremental annealer, so the two return the same
  result.
* :func:`linexpr_linearized_model` — model (7) built one
  :class:`~repro.solver.expr.LinExpr` row at a time.  The array
  assembly in :mod:`repro.qp.linearize` must convert to byte-identical
  :class:`~repro.solver.model.StandardArrays` (same objective, CSR
  structure, senses, right-hand sides and bounds), so HiGHS sees the
  same input.
"""

from __future__ import annotations

import numpy as np

from repro.costmodel.coefficients import CostCoefficients
from repro.costmodel.evaluator import SolutionEvaluator
from repro.sa.annealer import SimulatedAnnealer
from repro.sa.subsolve import SubproblemSolver
from repro.solver.expr import LinExpr, Variable
from repro.solver.model import MipModel


class LoopSubproblemSolver(SubproblemSolver):
    """:class:`SubproblemSolver` with the reference placement loops.

    The disjoint free-attribute placement scores sites exactly like
    balance-aware covering, so overriding :meth:`_cover_balance` also
    swaps in its reference loop.
    """

    def _cover_balance(
        self, y: np.ndarray, k: np.ndarray, load_weight: np.ndarray, order: np.ndarray
    ) -> None:
        """Reference loop: one numpy argmin per uncovered attribute."""
        loads = (load_weight * y).sum(axis=0)
        for a in order:
            current_max = loads.max()
            delta = np.maximum(loads + load_weight[a], current_max)
            delta -= current_max
            score = self.lam * k[a] + (1.0 - self.lam) * delta
            site = int(np.argmin(score))
            y[a, site] = True
            loads[site] += load_weight[a, site]

    def _negative_balance(
        self,
        y: np.ndarray,
        k: np.ndarray,
        load_weight: np.ndarray,
        candidates: np.ndarray,
    ) -> None:
        """Reference loop over candidates in increasing-k order."""
        loads = (load_weight * y).sum(axis=0)
        order = np.argsort(k[candidates[:, 0], candidates[:, 1]])
        for idx in order:
            a, s = candidates[idx]
            gain = k[a, s]
            current_max = loads.max()
            new_max = max(current_max, loads[s] + load_weight[a, s])
            delta = gain + (1.0 - self.lam) * (new_max - current_max)
            if delta < 0:
                y[a, s] = True
                loads[s] += load_weight[a, s]

    def _place_x_balance(
        self,
        cost: np.ndarray,
        read_load: np.ndarray,
        missing: np.ndarray,
        allowed: np.ndarray,
        static_load: np.ndarray,
        order: np.ndarray,
    ) -> np.ndarray:
        """Reference LPT loop: one numpy argmin per transaction."""
        num_transactions = cost.shape[0]
        x = np.zeros((num_transactions, self.num_sites), dtype=bool)
        loads = static_load.copy()
        for t in order:
            if allowed[t].any():
                candidate_sites = np.flatnonzero(allowed[t])
            else:
                min_missing = missing[t].min()
                candidate_sites = np.flatnonzero(missing[t] == min_missing)
            current_max = loads.max()
            delta = np.maximum(
                loads[candidate_sites] + read_load[t, candidate_sites],
                current_max,
            ) - current_max
            score = cost[t, candidate_sites] + (1.0 - self.lam) * delta
            best = candidate_sites[np.argmin(score)]
            x[t, best] = True
            loads[best] += read_load[t, best]
        return x


class DenseEvaluator:
    """The :class:`~repro.costmodel.incremental.IncrementalEvaluator`
    surface the annealer uses, recomputed from scratch on every call.

    Objective (6) comes from :class:`SolutionEvaluator`; the sub-problem
    inputs are the dense products :class:`SubproblemSolver` computes
    when none are supplied.  A trial snapshots the two matrices.
    """

    def __init__(self, coefficients: CostCoefficients, num_sites: int):
        self.evaluator = SolutionEvaluator(coefficients)
        self.subsolver = SubproblemSolver(coefficients, num_sites)
        self.x = self.y = None
        self._saved = None

    def reset(self, x: np.ndarray, y: np.ndarray) -> None:
        self.x, self.y = x, y
        self._saved = None

    def objective6(self) -> float:
        return self.evaluator.objective6(self.x, self.y)

    def begin_trial(self) -> None:
        self._saved = (self.x, self.y)

    def commit(self) -> None:
        self._saved = None

    def rollback(self) -> None:
        self.x, self.y = self._saved
        self._saved = None

    def assign_x(self, x: np.ndarray) -> None:
        self.x = x

    def assign_y(self, y: np.ndarray) -> None:
        self.y = y

    def forced_y(self) -> np.ndarray:
        return self.subsolver.forced_y(self.x)

    def y_subproblem_inputs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        solver = self.subsolver
        xs = self.x.astype(float)
        k = solver.lam * (solver.c1 @ xs + solver.c2[:, None])
        load_weight = solver.c3 @ xs + solver.c4[:, None]
        return k, load_weight, solver.forced_y(self.x)

    def x_subproblem_inputs(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        solver = self.subsolver
        ys = self.y.astype(float)
        cost = solver.lam * (solver.c1.T @ ys)
        read_load = solver.c3.T @ ys
        missing = solver.phi.T @ (1.0 - ys)
        return cost, read_load, missing, solver.c4 @ ys


class DenseAnnealer(SimulatedAnnealer):
    """:class:`SimulatedAnnealer` costing every candidate densely."""

    def _make_incremental(self, x: np.ndarray, y: np.ndarray) -> DenseEvaluator:
        dense = DenseEvaluator(self.coefficients, self.num_sites)
        dense.reset(x, y)
        return dense


def linexpr_linearized_model(
    coefficients: CostCoefficients,
    num_sites: int,
    allow_replication: bool = True,
    latency: bool = False,
    symmetry_breaking: bool = True,
) -> MipModel:
    """Reference model (7): one expression object per row and term."""
    parameters = coefficients.parameters
    lam = parameters.load_balance_lambda
    num_transactions = coefficients.num_transactions
    num_attributes = coefficients.num_attributes
    instance = coefficients.instance

    need_pair = (coefficients.c1 != 0) | ((lam < 1.0) & (coefficients.c3 != 0))
    if latency:
        indicators = coefficients.indicators
        write_alpha = (
            indicators.alpha * indicators.delta[None, :]
        ) @ indicators.gamma  # (|A|, |T|)
        need_pair = need_pair | (write_alpha > 0)
    load_side = lam < 1.0
    latency_active = latency and parameters.latency_penalty > 0

    model = MipModel(f"qp[{instance.name},S={num_sites}]")
    x_vars = np.empty((num_transactions, num_sites), dtype=object)
    for t in range(num_transactions):
        name = instance.transactions[t].name
        for s in range(num_sites):
            x_vars[t, s] = model.binary_variable(f"x[{name},{s}]")
    y_vars = np.empty((num_attributes, num_sites), dtype=object)
    for a in range(num_attributes):
        name = instance.attributes[a].qualified_name
        for s in range(num_sites):
            y_vars[a, s] = model.binary_variable(f"y[{name},{s}]")

    for t in range(num_transactions):
        model.add_constraint(
            LinExpr.from_terms((x_vars[t, s], 1.0) for s in range(num_sites)) == 1,
            name=f"place_x[{t}]",
        )
    for a in range(num_attributes):
        total = LinExpr.from_terms((y_vars[a, s], 1.0) for s in range(num_sites))
        if allow_replication:
            model.add_constraint(total >= 1, name=f"place_y[{a}]")
        else:
            model.add_constraint(total == 1, name=f"place_y[{a}]")

    for a, t in zip(*np.nonzero(coefficients.phi_bool)):
        for s in range(num_sites):
            model.add_constraint(
                y_vars[a, s] - x_vars[t, s] >= 0, name=f"coloc[{a},{t},{s}]"
            )

    u_vars: dict[tuple[int, int, int], Variable] = {}
    for a, t in zip(*np.nonzero(need_pair)):
        for s in range(num_sites):
            u = model.add_variable(f"u[{t},{a},{s}]", lower=0.0, upper=1.0)
            u_vars[(int(t), int(a), int(s))] = u
            model.add_constraint(u - x_vars[t, s] <= 0)
            model.add_constraint(u - y_vars[a, s] <= 0)
            model.add_constraint(u - x_vars[t, s] - y_vars[a, s] >= -1)

    m_var: Variable | None = None
    if load_side:
        m_var = model.add_variable("m", lower=0.0)
        for s in range(num_sites):
            load_terms: list[tuple[Variable, float]] = []
            for (t, a, s2), u in u_vars.items():
                if s2 == s and coefficients.c3[a, t] != 0.0:
                    load_terms.append((u, coefficients.c3[a, t]))
            for a in range(num_attributes):
                if coefficients.c4[a] != 0.0:
                    load_terms.append((y_vars[a, s], coefficients.c4[a]))
            load_terms.append((m_var, -1.0))
            model.add_constraint(
                LinExpr.from_terms(load_terms) <= 0, name=f"load[{s}]"
            )

    psi_vars: dict[int, Variable] = {}
    if latency_active:
        indicators = coefficients.indicators
        for q_index in np.flatnonzero(indicators.delta > 0):
            t = instance.query_transaction[q_index]
            updated = np.flatnonzero(indicators.alpha[:, q_index] > 0)
            if updated.size == 0:
                continue
            psi = model.binary_variable(f"psi[{instance.queries[q_index].name}]")
            psi_vars[int(q_index)] = psi
            n_terms: list[tuple[Variable, float]] = []
            for a in updated:
                for s in range(num_sites):
                    n_terms.append((y_vars[a, s], 1.0))
                    n_terms.append((u_vars[(int(t), int(a), int(s))], -1.0))
            big_m = float(updated.size * num_sites)
            model.add_constraint(
                LinExpr.from_terms(n_terms) - psi >= 0, name=f"psi_ub[{q_index}]"
            )
            model.add_constraint(
                LinExpr.from_terms(n_terms) - big_m * psi <= 0,
                name=f"psi_lb[{q_index}]",
            )

    if symmetry_breaking:
        for t in range(min(num_transactions, num_sites - 1)):
            for s in range(t + 1, num_sites):
                model.add_constraint(x_vars[t, s] <= 0, name=f"sym[{t},{s}]")

    objective_terms: list[tuple[Variable, float]] = []
    for (t, a, s), u in u_vars.items():
        coefficient = lam * coefficients.c1[a, t]
        if coefficient != 0.0:
            objective_terms.append((u, coefficient))
    for a in range(num_attributes):
        coefficient = lam * coefficients.c2[a]
        if coefficient != 0.0:
            for s in range(num_sites):
                objective_terms.append((y_vars[a, s], coefficient))
    if coefficients.migration is not None:
        # Accumulates onto the c2 price of the same y (LinExpr.from_terms).
        c5 = coefficients.migration.c5
        for a in range(num_attributes):
            for s in range(num_sites):
                coefficient = lam * c5[a, s]
                if coefficient != 0.0:
                    objective_terms.append((y_vars[a, s], coefficient))
    if m_var is not None:
        objective_terms.append((m_var, 1.0 - lam))
    frequencies = [query.frequency for query in instance.queries]
    for q_index, psi in psi_vars.items():
        objective_terms.append(
            (psi, lam * parameters.latency_penalty * float(frequencies[q_index]))
        )
    model.minimize(LinExpr.from_terms(objective_terms))
    return model
