"""Bench smoke: advisor-service coalescing and shedding throughput.

Drives the ``service`` target end to end (runner dispatch included) and
asserts the shape of its contract: ratio-only reporting, coalescing
that actually deduplicated the storm, shedding that actually degraded
under pressure, and a machine-readable ``BENCH_service.json``
artifact.  Result *identity* (service answers bitwise equal to the
sequential advise loop) is asserted inside the bench itself — and,
exhaustively, by ``tests/test_service.py``.  No wall-clock parallelism
is asserted: the CI container is single-core, the ratios come from
doing strictly less work.
"""

from __future__ import annotations

import json

from benchmarks.conftest import run_and_print
from repro.bench.runner import run_table
from repro.bench.artifact import ARTIFACT_ENV_VAR
from repro.bench.service import ARTIFACT_NAME, STORM_SIZE


def run_table_target(profile):
    return run_table("service", profile)


def test_bench_service_table(benchmark, profile, tmp_path, monkeypatch):
    monkeypatch.setenv(ARTIFACT_ENV_VAR, str(tmp_path))
    table = run_and_print(benchmark, run_table_target, profile)

    by_metric = {row["metric"]: row for row in table.rows}
    # Ratios only: every reported number is dimensionless and positive.
    for row in table.rows:
        assert row["ratio"] > 0.0

    # Coalescing solved the storm once; the ratio reflects doing 1/N of
    # the work (generous bound: just require a clear win).
    storm = by_metric["coalesced duplicate storm vs sequential loop"]
    assert storm["ratio"] < 0.9
    assert f"{STORM_SIZE - 1} coalesced/cached" in storm["detail"]

    artifact = json.loads((tmp_path / ARTIFACT_NAME).read_text())
    assert artifact["bench"] == "service"
    assert len(artifact["rows"]) == len(table.rows)
    # The storm coalesced to a single solve, and pressure actually shed.
    assert artifact["counters"]["storm"]["served"] == 1
    assert artifact["counters"]["storm"]["coalesced"] >= 1
    assert artifact["counters"]["shed"]["shed_hard"] >= 1
    assert artifact["counters"]["shed"]["rejected_queue_full"] == 0
