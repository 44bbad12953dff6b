"""Bench target: compression-ratio vs. objective-gap curves.

For each duplicate-heavy instance class the bench solves directly and
through the compression pipeline (lossless, then the lossy tier over a
tolerance curve) with the same strategy and seed, and reports the
transaction-count reduction, the coefficient-array memory saved
(:attr:`~repro.costmodel.coefficients.CostCoefficients.nbytes`) and the
measured objective gap next to the tier's reported error bound.

Runs use pure cost minimisation (``lambda = 1``), where the lossless
tier is provably objective-preserving — its gap column is exactly 0.

Besides the rendered table the run emits a ``BENCH_compression.json``
artifact (into ``REPRO_BENCH_ARTIFACT_DIR``, default: the working
directory) so successive runs leave a machine-readable perf trajectory.
"""

from __future__ import annotations

import time

from repro.api import Advisor, SolveRequest
from repro.bench.artifact import write_artifact
from repro.bench.config import BenchProfile, get_profile
from repro.bench.formatting import BenchTable
from repro.costmodel.coefficients import build_coefficients
from repro.costmodel.config import CostParameters
from repro.instances.library import named_instance
from repro.reduction.compress import compress_instance

#: File name of the JSON artifact (see :mod:`repro.bench.artifact`).
ARTIFACT_NAME = "BENCH_compression.json"

#: Instance classes of the curve: exact duplicates (lossless-mergeable)
#: and jittered near-duplicates (lossy-tier material).
CURVE_INSTANCES = ("rndDupAt8x120", "rndDupAt8x120j")

#: Lossy-tier tolerance sweep (fractions of the single-site cost).
TOLERANCE_CURVE = (0.02, 0.1)

#: The solve every point uses: deterministic, fast, and pinned
#: merge-equivariant by the lifting property tests.
CURVE_STRATEGY = "greedy"


def _request(
    instance, compression: str = "off", tolerance: float = 0.0
) -> SolveRequest:
    return SolveRequest(
        instance=instance,
        num_sites=3,
        parameters=CostParameters(load_balance_lambda=1.0),
        strategy=CURVE_STRATEGY,
        compression=compression,
        compression_tolerance=tolerance,
    )



def compression(profile: BenchProfile | None = None) -> BenchTable:
    """The runner-facing table; also writes the JSON artifact."""
    profile = profile or get_profile()
    advisor = Advisor()
    table = BenchTable(
        title="Workload compression — ratio vs. objective gap "
        f"({CURVE_STRATEGY}, |S|=3, lambda=1)",
        columns=["instance", "tier", "tol", "|T|", "|T_c|", "ratio",
                 "coeff MB", "objective", "gap %", "bound %"],
        notes=[],
    )
    records = []
    for name in CURVE_INSTANCES:
        instance = named_instance(name, seed=profile.seed)
        direct = advisor.advise(_request(instance))
        direct_nbytes = advisor.coefficients_for(
            _request(instance)
        ).nbytes
        points = [("off", 0.0), ("lossless", 0.0)] + [
            ("lossy", tolerance) for tolerance in TOLERANCE_CURVE
        ]
        for tier, tolerance in points:
            if tier == "off":
                report, ratio, bound = direct, 1.0, 0.0
                compressed_transactions = instance.num_transactions
                nbytes = direct_nbytes
            else:
                report = advisor.advise(
                    _request(instance, compression=tier, tolerance=tolerance)
                )
                ratio = report.metadata.get("compression_ratio", 1.0)
                bound = report.metadata.get("objective_error_bound", 0.0)
                compressed_transactions = report.metadata.get(
                    "compressed_transactions", instance.num_transactions
                )
                # The real compressed-view coefficient footprint (the
                # arrays the solver actually touched).
                compressed_view = compress_instance(
                    instance, tier=tier, tolerance=tolerance,
                    parameters=_request(instance).parameters,
                ).compressed
                nbytes = build_coefficients(
                    compressed_view, _request(instance).parameters
                ).nbytes
            gap = report.objective - direct.objective
            row = {
                "instance": name,
                "tier": tier,
                "tol": tolerance,
                "|T|": instance.num_transactions,
                "|T_c|": compressed_transactions,
                "ratio": round(ratio, 2),
                "coeff MB": round(nbytes / 1e6, 2),
                "objective": round(report.objective),
                "gap %": round(100.0 * gap / direct.objective, 4),
                "bound %": round(100.0 * bound / direct.objective, 4),
            }
            table.add_row(**row)
            records.append(
                {**row,
                 "objective": report.objective,
                 "direct_objective": direct.objective,
                 "gap": gap,
                 "bound": bound,
                 "coeff_nbytes": int(nbytes),
                 "wall_time": report.wall_time}
            )
    table.notes.append(
        "lossless gap is exactly 0 under lambda=1 (provably "
        "objective-preserving merges); lossy gap is bounded by the "
        "reported bound"
    )
    payload = {
        "bench": "compression",
        "profile": profile.name,
        "seed": profile.seed,
        "strategy": CURVE_STRATEGY,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "rows": records,
    }
    write_artifact(ARTIFACT_NAME, payload, table.notes)
    return table


def run_curve(profile: BenchProfile | None = None) -> list[dict]:
    """The artifact rows alone (used by the bench-smoke test)."""
    table = compression(profile)
    return table.rows
