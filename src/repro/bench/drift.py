"""Bench target: online re-partitioning under workload drift.

Sweeps drift magnitudes over a two-writer workload whose optimal layout
follows whichever writer dominates (the flash-crowd shape of
``examples/trace_driven_advisor.py``), and answers two questions as
ratios:

* **re-solve vs stay** — the migration-augmented objective of
  ``Advisor.readvise``'s re-solve against the deterministic stay-put
  cost of the deployed incumbent.  Near 1.0 at zero drift (nothing to
  gain), falling as the drift grows;
* **warm vs cold iterations** — annealing iterations of the
  incumbent-warm-started SA against a cold start on the same drifted
  instance.  The warm start begins at the stay-put solution instead of
  a random placement; at zero drift that start is already the optimum
  and the anneal freezes immediately, while large drifts make the
  warm run work (and often search longer) to escape the incumbent.

Two contracts are asserted in-bench on every magnitude: the warm
re-solve's total never exceeds the stay-put cost (restart 0 replays the
incumbent), and a layout-carrying request with ``migration_cost=0``
served by a layout-ignoring strategy (greedy) is bitwise identical to
the layout-free request.  Besides the rendered table the run emits
``BENCH_drift.json`` (into ``REPRO_BENCH_ARTIFACT_DIR``, default: the
working directory).
"""

from __future__ import annotations

import time

import numpy as np

from repro.api import Advisor, SolveRequest
from repro.bench.artifact import write_artifact
from repro.bench.config import BenchProfile, get_profile
from repro.bench.formatting import BenchTable
from repro.costmodel.config import CostParameters
from repro.model.instance import ProblemInstance
from repro.model.schema import SchemaBuilder
from repro.model.workload import Query, Transaction, Workload
from repro.partition.current_layout import CurrentLayout

#: File name of the JSON artifact (see :mod:`repro.bench.artifact`).
ARTIFACT_NAME = "BENCH_drift.json"

NUM_SITES = 2
DRIFTS = (0.0, 0.25, 0.5, 0.75, 1.0)
MIGRATION_COST = 1.0

#: Per-query frequency at drift 0 (steady) and drift 1 (flash crowd):
#: user writes dominate, then order traffic takes over.
STEADY_FREQ = {
    "UserOps.get": 30.0, "UserOps.update": 45.0,
    "OrderOps.get": 12.0, "OrderOps.update": 3.0,
    "Report.join": 10.0,
}
FLASH_FREQ = {
    "UserOps.get": 12.0, "UserOps.update": 3.0,
    "OrderOps.get": 30.0, "OrderOps.update": 45.0,
    "Report.join": 10.0,
}

SA_OPTIONS = {"inner_loops": 8, "max_outer_loops": 30, "patience": 8}


def _shop_instance(drift: float) -> ProblemInstance:
    """The two-writer workload at ``drift`` in [0, 1] between mixes."""
    schema = (
        SchemaBuilder("drift-shop")
        .table("Users", key=8, name=40, prefs=200)
        .table("Orders", key=8, item=40, status=160)
        .build()
    )

    def freq(name: str) -> float:
        return (1.0 - drift) * STEADY_FREQ[name] + drift * FLASH_FREQ[name]

    workload = Workload(
        [
            Transaction("UserOps", (
                Query.read("UserOps.get", ["Users.key", "Users.name"],
                           frequency=freq("UserOps.get")),
                Query.write("UserOps.update", ["Users.prefs"], rows=2.0,
                            frequency=freq("UserOps.update")),
            )),
            Transaction("OrderOps", (
                Query.read("OrderOps.get", ["Orders.key", "Orders.item"],
                           frequency=freq("OrderOps.get")),
                Query.write("OrderOps.update", ["Orders.status"], rows=2.0,
                            frequency=freq("OrderOps.update")),
            )),
            Transaction("Report", (
                Query.read("Report.join",
                           ["Users.prefs", "Orders.status"], rows=5.0,
                           frequency=freq("Report.join")),
            )),
        ],
        name=f"drift-{drift:g}",
    )
    return ProblemInstance(schema, workload, name=f"drift-shop-{drift:g}")


def drift(profile: BenchProfile | None = None) -> BenchTable:
    """The runner-facing table; also writes the JSON artifact."""
    profile = profile or get_profile()
    parameters = CostParameters(load_balance_lambda=0.5)
    advisor = Advisor()

    # Deploy once under the steady mix; every drifted readvise measures
    # against this incumbent.
    deployed = advisor.advise(SolveRequest(
        _shop_instance(0.0), num_sites=NUM_SITES, parameters=parameters,
        strategy="sa", options=dict(SA_OPTIONS), seed=profile.seed,
    )).result
    incumbent = CurrentLayout.from_result(deployed)

    rows = []
    for magnitude in DRIFTS:
        instance = _shop_instance(magnitude)
        warm = advisor.readvise(SolveRequest(
            instance, num_sites=NUM_SITES, parameters=parameters,
            strategy="sa", options=dict(SA_OPTIONS), seed=profile.seed,
            current_layout=incumbent, migration_cost=MIGRATION_COST,
        ))
        verdict = warm.migration
        # Contract: restart 0 replays the incumbent, so the migrated
        # best can never lose to staying put.
        assert verdict.total_cost <= verdict.stay_cost + 1e-9 * max(
            1.0, verdict.stay_cost
        ), (verdict.total_cost, verdict.stay_cost)

        cold = advisor.advise(SolveRequest(
            instance, num_sites=NUM_SITES, parameters=parameters,
            strategy="sa", options=dict(SA_OPTIONS), seed=profile.seed,
        ))
        warm_iters = int(warm.result.metadata["iterations"])
        cold_iters = int(cold.result.metadata["iterations"])

        # Contract: with migration_cost=0 a layout-ignoring strategy is
        # bitwise unaffected by the layout riding the request.
        plain = advisor.advise(SolveRequest(
            instance, num_sites=NUM_SITES, parameters=parameters,
            strategy="greedy",
        ))
        carried = advisor.advise(SolveRequest(
            instance, num_sites=NUM_SITES, parameters=parameters,
            strategy="greedy", current_layout=incumbent, migration_cost=0.0,
        ))
        assert np.array_equal(plain.result.x, carried.result.x)
        assert np.array_equal(plain.result.y, carried.result.y)
        assert plain.result.objective == carried.result.objective

        rows.append({
            "drift": magnitude,
            "resolve_vs_stay": round(
                verdict.total_cost / verdict.stay_cost, 4
            ),
            "warm_vs_cold_iters": round(
                warm_iters / cold_iters if cold_iters else 1.0, 3
            ),
            "verdict": verdict.recommendation,
            "detail": (
                f"stay {verdict.stay_cost:.0f}, re-solve total "
                f"{verdict.total_cost:.0f} (move {verdict.move_cost:.0f}); "
                f"{warm_iters} warm vs {cold_iters} cold iterations"
            ),
        })

    table = BenchTable(
        title="Online re-partitioning — re-solve vs stay-put across "
        "drift magnitudes (warm-started SA)",
        columns=["drift", "resolve_vs_stay", "warm_vs_cold_iters",
                 "verdict", "detail"],
        notes=[
            "asserted in-bench: warm total <= stay-put on every "
            "magnitude; layout + migration_cost=0 leaves layout-"
            "ignoring strategies bitwise unchanged",
        ],
    )
    for row in rows:
        table.add_row(**row)

    payload = {
        "bench": "drift",
        "profile": profile.name,
        "seed": profile.seed,
        "migration_cost": MIGRATION_COST,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "rows": rows,
    }
    write_artifact(ARTIFACT_NAME, payload, table.notes)
    return table
