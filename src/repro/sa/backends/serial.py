"""In-process sequential execution of the restart portfolio."""

from __future__ import annotations

from repro.sa.backends.base import BackendRun, PortfolioPlan, run_restart


class SerialBackend:
    """Run every restart sequentially in the calling process.

    This is the default for ``jobs=1`` and the reference semantics the
    other backends are pinned against: restarts execute in index order,
    each publishing to the shared incumbent before the next prune check,
    so with pruning enabled the serial backend skips the longest
    possible suffix of doomed restarts.
    """

    name = "serial"

    def run(self, plan: PortfolioPlan) -> BackendRun:
        run = BackendRun(outcomes=[], kind=self.name)
        for task in plan.tasks():
            if plan.skip(task.restart, run):
                continue
            outcome = run_restart(
                plan.coefficients,
                plan.num_sites,
                plan.options,
                task.restart,
                task.seed,
                plan.deadline,
            )
            plan.publish(outcome)
            run.outcomes.append(outcome)
        return run
