"""The QP partitioner: solve the linearised model with a MIP backend."""

from __future__ import annotations

import time

import numpy as np

from repro.costmodel.coefficients import CostCoefficients, build_coefficients
from repro.costmodel.config import CostParameters
from repro.costmodel.evaluator import SolutionEvaluator
from repro.exceptions import SolverError, SolverLimitError
from repro.model.instance import ProblemInstance
from repro.partition.assignment import PartitioningResult
from repro.qp.linearize import LinearizationCache, build_linearized_model, model_layout
from repro.solver.model import solve_arrays
from repro.solver.solution import SolutionStatus

#: The paper's MIP tolerance gap (Section 5: 0.1%).
PAPER_GAP = 1e-3


class QpPartitioner:
    """Optimal (to within a MIP gap) vertical partitioning via model (7).

    >>> from repro.instances import tpcc_instance
    >>> partitioner = QpPartitioner(tpcc_instance(), num_sites=2)
    >>> result = partitioner.solve(time_limit=60)   # doctest: +SKIP
    """

    def __init__(
        self,
        instance: ProblemInstance | CostCoefficients,
        num_sites: int,
        parameters: CostParameters | None = None,
        allow_replication: bool = True,
        latency: bool = False,
        symmetry_breaking: bool = True,
        linearization_cache: LinearizationCache | None = None,
    ):
        if isinstance(instance, CostCoefficients):
            self.coefficients = instance
            if parameters is not None and parameters != instance.parameters:
                raise SolverError(
                    "pass either prebuilt coefficients or parameters, not "
                    "conflicting versions of both"
                )
        else:
            self.coefficients = build_coefficients(instance, parameters)
        self.num_sites = num_sites
        self.allow_replication = allow_replication
        self.latency = latency
        self.symmetry_breaking = symmetry_breaking
        self.linearized = build_linearized_model(
            self.coefficients,
            num_sites,
            allow_replication=allow_replication,
            latency=latency,
            symmetry_breaking=symmetry_breaking,
            cache=linearization_cache,
        )

    @property
    def model_size(self) -> dict[str, int]:
        """Variable/constraint counts of the linearised model."""
        model = self.linearized.model
        return {
            "variables": model.num_variables,
            "integer_variables": model.num_integer_variables,
            "constraints": model.num_constraints,
            "u_variables": self.linearized.u_vars.size,
        }

    @staticmethod
    def estimate_model_size(
        coefficients: CostCoefficients,
        num_sites: int,
        allow_replication: bool = True,
        latency: bool = False,
        symmetry_breaking: bool = True,
    ) -> dict[str, int]:
        """:attr:`model_size` computed without building the model.

        Counts the variables and constraint rows
        :func:`~repro.qp.linearize.build_linearized_model` would create,
        from the coefficient sparsity alone — cheap enough to drive the
        ``"auto"`` strategy's QP-vs-SA cutoff (the paper's Section VI
        scalability limit) on every request.  ``allow_replication``
        only changes the sense of the ``place_y`` rows, not the counts.
        """
        return model_layout(coefficients, num_sites, latency, symmetry_breaking).sizes()

    def _greedy_warm_start(self) -> PartitioningResult:
        """A feasible starting solution from the SA greedy sub-solvers."""
        import numpy as np

        from repro.costmodel.evaluator import SolutionEvaluator
        from repro.sa.subsolve import SubproblemSolver

        subsolver = SubproblemSolver(self.coefficients, self.num_sites)
        num_transactions = self.coefficients.num_transactions
        x = np.zeros((num_transactions, self.num_sites), dtype=bool)
        if self.allow_replication:
            x[np.arange(num_transactions),
              np.arange(num_transactions) % self.num_sites] = True
        else:
            x[:, 0] = True  # trivially co-locatable without replication
        y = subsolver.optimize_y_greedy(x, disjoint=not self.allow_replication)
        evaluator = SolutionEvaluator(self.coefficients)
        return PartitioningResult(
            coefficients=self.coefficients,
            x=x,
            y=y,
            objective=evaluator.objective4(x, y),
            solver="greedy-warmstart",
        )

    def solve(
        self,
        time_limit: float | None = None,
        gap: float = PAPER_GAP,
        backend: str = "auto",
        warm_start: PartitioningResult | None = None,
    ) -> PartitioningResult:
        """Solve and return the best partitioning found.

        Raises :class:`SolverLimitError` when the time limit passes with
        no feasible solution (the paper's "t/o" cells).
        """
        started = time.perf_counter()
        incumbent = None
        if warm_start is None and backend == "scratch":
            # The from-scratch branch & bound rarely stumbles on an
            # integer-feasible node of the linearised model by itself
            # (rounding x/y breaks co-location), so seed it with a
            # greedy feasible solution.
            warm_start = self._greedy_warm_start()
        if warm_start is not None:
            if warm_start.num_sites != self.num_sites:
                raise SolverError(
                    f"warm start has {warm_start.num_sites} sites, "
                    f"model has {self.num_sites}"
                )
            if self.symmetry_breaking:
                # The symmetry-breaking cuts may exclude the warm start's
                # site labelling; relabel sites into canonical order.
                warm_x, warm_y = _canonical_site_order(warm_start.x, warm_start.y)
            else:
                warm_x, warm_y = warm_start.x, warm_start.y
            incumbent = self.linearized.incumbent_vector(warm_x, warm_y)
        solution = solve_arrays(
            self.linearized.model,
            backend=backend,
            time_limit=time_limit,
            gap=gap,
            incumbent=incumbent,
        )
        wall_time = time.perf_counter() - started
        if not solution.status.has_solution:
            if solution.status is SolutionStatus.NO_SOLUTION:
                raise SolverLimitError(
                    f"QP solver found no integer solution within limits "
                    f"(model {self.linearized.name})"
                )
            raise SolverError(
                f"QP solve failed with status {solution.status.value} "
                f"(model {self.linearized.name})"
            )
        x, y = self.linearized.extract(solution.values)
        evaluator = SolutionEvaluator(self.coefficients)
        return PartitioningResult(
            coefficients=self.coefficients,
            x=x,
            y=y,
            objective=evaluator.objective4(x, y),
            solver="qp",
            wall_time=wall_time,
            proven_optimal=solution.status is SolutionStatus.OPTIMAL,
            metadata={
                "backend": solution.backend,
                "mip_objective6": solution.objective,
                "mip_bound": solution.bound,
                "mip_gap": solution.gap,
                "nodes": solution.nodes,
                **self.model_size,
            },
        )


def _canonical_site_order(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Permute site columns so transaction 0 is at site 0, etc.

    Matches the symmetry-breaking cuts ``x[t,s] = 0 for s > t``: sites
    are ordered by the smallest transaction index they host (unused
    sites last).
    """
    num_sites = x.shape[1]
    first_transaction = []
    for s in range(num_sites):
        hosted = np.flatnonzero(x[:, s])
        first_transaction.append(int(hosted[0]) if hosted.size else x.shape[0] + s)
    order = np.argsort(first_transaction, kind="stable")
    return x[:, order], y[:, order]


def solve_qp(
    instance: ProblemInstance | CostCoefficients,
    num_sites: int,
    parameters: CostParameters | None = None,
    allow_replication: bool = True,
    latency: bool = False,
    time_limit: float | None = None,
    gap: float = PAPER_GAP,
    backend: str = "auto",
    warm_start: PartitioningResult | None = None,
) -> PartitioningResult:
    """One-call convenience wrapper: a thin shim over the unified
    advisor API (``advise`` with strategy ``"qp"``), kept for
    compatibility and pinned by test to return the same result as the
    direct :class:`QpPartitioner` call.

    Prebuilt :class:`CostCoefficients` skip the advisor (which would
    rebuild them from the instance) and go to the partitioner directly.
    """
    from repro.api.advisor import advise
    from repro.api.request import SolveRequest

    if isinstance(instance, CostCoefficients):
        return QpPartitioner(
            instance,
            num_sites,
            parameters=parameters,
            allow_replication=allow_replication,
            latency=latency,
        ).solve(
            time_limit=time_limit, gap=gap, backend=backend,
            warm_start=warm_start,
        )
    request = SolveRequest(
        instance=instance,
        num_sites=num_sites,
        parameters=parameters or CostParameters(),
        allow_replication=allow_replication,
        strategy="qp",
        options={"latency": latency, "gap": gap, "backend": backend},
        time_limit=time_limit,
    )
    return advise(request, warm_start=warm_start).result
