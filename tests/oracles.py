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
"""

from __future__ import annotations

import numpy as np

from repro.costmodel.coefficients import CostCoefficients
from repro.costmodel.evaluator import SolutionEvaluator
from repro.sa.annealer import SimulatedAnnealer
from repro.sa.subsolve import SubproblemSolver


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
