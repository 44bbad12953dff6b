"""Bench smoke: online re-partitioning under workload drift.

Drives the ``drift`` target end to end (runner dispatch included) and
asserts the shape of its contract: the re-solve-vs-stay ratio is 1.0
at zero drift and strictly improves as the drift grows, the verdict
flips from stay to migrate somewhere along the sweep, and a
machine-readable ``BENCH_drift.json`` artifact lands.  The hard
guarantees — warm total <= stay-put, and bitwise identity of
layout-carrying zero-cost requests — are asserted inside the bench
itself (and exhaustively by ``tests/test_repartition.py``).
"""

from __future__ import annotations

import json

from benchmarks.conftest import run_and_print
from repro.bench.artifact import ARTIFACT_ENV_VAR
from repro.bench.drift import ARTIFACT_NAME, DRIFTS
from repro.bench.runner import run_table


def run_table_target(profile):
    return run_table("drift", profile)


def test_bench_drift_table(benchmark, profile, tmp_path, monkeypatch):
    monkeypatch.setenv(ARTIFACT_ENV_VAR, str(tmp_path))
    table = run_and_print(benchmark, run_table_target, profile)

    assert len(table.rows) == len(DRIFTS)
    by_drift = {row["drift"]: row for row in table.rows}

    # No drift: the incumbent is optimal, re-solving buys nothing.
    assert by_drift[0.0]["resolve_vs_stay"] == 1.0
    assert by_drift[0.0]["verdict"] == "stay"

    # Ratios are monotone non-increasing as the drift grows, and the
    # full flash crowd makes migration a clear win.
    ratios = [by_drift[d]["resolve_vs_stay"] for d in DRIFTS]
    assert all(a >= b for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] < 0.9
    assert by_drift[DRIFTS[-1]]["verdict"] == "migrate"

    for row in table.rows:
        assert row["resolve_vs_stay"] > 0.0
        assert row["warm_vs_cold_iters"] > 0.0

    artifact = json.loads((tmp_path / ARTIFACT_NAME).read_text())
    assert artifact["bench"] == "drift"
    assert len(artifact["rows"]) == len(table.rows)
    assert [row["drift"] for row in artifact["rows"]] == list(DRIFTS)
