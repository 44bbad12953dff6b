"""Bench target: the calibration sweep and its persisted table.

Reproduces the equal-CPU-budget reading of Table 3's SA column — a
best-of-N restart portfolio given ``T/N`` of the budget per restart
against a single anneal given all of ``T`` — with the budget measured
in *outer annealing loops*, not wall-clock, so every ratio is a pure
function of the master seed and regression-gateable in CI.  Alongside
the ratio rows, the run serves each solve through an
``Advisor(calibration=...)`` recording hook and persists the resulting
:class:`~repro.calibration.CalibrationTable` inside the artifact: the
emitted ``BENCH_calibration.json`` is both the repo's perf-trajectory
record and a ready-to-load table for calibrated ``"auto"`` routing
(``repro-partition advise --calibration BENCH_calibration.json``).

Two contracts are asserted in-bench: the portfolio really consumed the
reduced per-restart budget (equal total CPU by construction), and the
recorded table's :meth:`~repro.calibration.CalibrationTable.recommend`
is non-None for every class the sweep touched — the artifact can always
drive calibrated routing.  The ratio regression gate itself lives in
``benchmarks/test_calibration_bench.py`` and the ``calibration`` CI
job; its tolerance band ships inside the artifact under ``"gate"``.
"""

from __future__ import annotations

import time

from repro.api import Advisor, SolveRequest
from repro.bench.artifact import write_artifact
from repro.bench.config import BenchProfile, get_profile
from repro.bench.formatting import BenchTable
from repro.calibration import CalibrationTable, instance_class
from repro.costmodel.config import CostParameters
from repro.instances.library import named_instance

#: File name of the JSON artifact (see :mod:`repro.bench.artifact`).
ARTIFACT_NAME = "BENCH_calibration.json"

NUM_SITES = 4
#: Portfolio sizes N for the best-of-N-at-T/N sweep.
RESTART_COUNTS = (2, 4)
#: Instances swept (small rndB, larger rndA — two distinct classes).
INSTANCES = ("rndBt4x15", "rndAt4x15")
#: The rndB class is small enough for an exact QP observation too.
QP_INSTANCES = ("rndBt4x15",)

#: Regression-gate tolerance band on the equal-budget ratio
#: (portfolio objective / single-anneal objective).  Seed-pinned and
#: iteration-budgeted, so drift beyond this band means the annealer,
#: the portfolio seeding, or the cost model changed behaviour.
GATE = {"min_ratio": 0.5, "max_ratio": 1.1}


def _sa_request(instance, profile: BenchProfile, parameters: CostParameters,
                *, restarts: int, outer_loops: int) -> SolveRequest:
    base = profile.sa_for(instance.num_attributes)
    options = {
        "inner_loops": base.inner_loops,
        "max_outer_loops": outer_loops,
        # Patience must not undercut the loop budget, or the comparison
        # would measure early-stopping luck instead of the budget split.
        "patience": outer_loops,
        "restarts": restarts,
    }
    return SolveRequest(
        instance, num_sites=NUM_SITES, parameters=parameters,
        strategy="sa" if restarts == 1 else "sa-portfolio",
        options=options, seed=profile.seed,
    )


def calibrate(profile: BenchProfile | None = None) -> BenchTable:
    """The runner-facing table; also writes ``BENCH_calibration.json``."""
    profile = profile or get_profile()
    parameters = CostParameters()
    calibration = CalibrationTable()
    advisor = Advisor(calibration=calibration)
    budget = max(profile.sa_options.max_outer_loops, len(RESTART_COUNTS) * 4)

    rows = []
    for name in INSTANCES:
        instance = named_instance(name, seed=profile.seed)
        klass = instance_class(
            instance.num_attributes, instance.num_transactions
        )
        single = advisor.advise(
            _sa_request(instance, profile, parameters,
                        restarts=1, outer_loops=budget)
        )
        for restarts in RESTART_COUNTS:
            per_restart = max(1, budget // restarts)
            portfolio = advisor.advise(
                _sa_request(instance, profile, parameters,
                            restarts=restarts, outer_loops=per_restart)
            )
            # Contract: the portfolio really ran N restarts on the
            # reduced budget — equal total CPU by construction.
            assert portfolio.result.metadata["restarts"] == restarts
            rows.append({
                "instance": name,
                "instance_class": klass,
                "restarts": restarts,
                "single_objective": round(single.objective, 4),
                "portfolio_objective": round(portfolio.objective, 4),
                "ratio": round(portfolio.objective / single.objective, 4),
                "single_outer_loops": budget,
                "portfolio_outer_loops": per_restart,
            })

    # Exact-solver observations for the classes the QP can still serve,
    # so the persisted table carries qp-vs-sa evidence for recommend().
    for name in QP_INSTANCES:
        instance = named_instance(name, seed=profile.seed)
        advisor.advise(SolveRequest(
            instance, num_sites=NUM_SITES, parameters=parameters,
            strategy="qp", seed=profile.seed,
            options={"gap": profile.qp_gap,
                     "time_limit": profile.qp_time_limit},
        ))

    # Contract: every swept class now has a calibrated recommendation.
    for name in INSTANCES:
        instance = named_instance(name, seed=profile.seed)
        klass = instance_class(
            instance.num_attributes, instance.num_transactions
        )
        recommendation = calibration.recommend(klass, num_sites=NUM_SITES)
        assert recommendation is not None, klass

    table = BenchTable(
        title="Calibration — equal-CPU-budget portfolio vs single anneal "
        "(best-of-N at budget/N outer loops, budget in loops not seconds)",
        columns=["instance", "instance_class", "restarts",
                 "single_objective", "portfolio_objective", "ratio",
                 "single_outer_loops", "portfolio_outer_loops"],
        notes=[
            f"{len(calibration)} observations recorded into the embedded "
            f"calibration table",
            f"regression gate: ratio in "
            f"[{GATE['min_ratio']}, {GATE['max_ratio']}]",
        ],
    )
    for row in rows:
        table.add_row(**row)

    payload = {
        "bench": "calibration",
        "profile": profile.name,
        "seed": profile.seed,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "rows": rows,
        "gate": dict(GATE),
        "calibration": calibration.to_dict(),
    }
    write_artifact(ARTIFACT_NAME, payload, table.notes)
    return table
