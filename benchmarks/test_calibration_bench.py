"""Bench smoke: the calibration sweep and its regression gate.

Drives the ``calibrate`` target end to end (runner dispatch included)
and gates the equal-CPU-budget portfolio-vs-single-anneal ratios
against the tolerance band shipped inside the artifact: every ratio is
a pure function of the master seed and the loop budget (no wall-clock
anywhere), so a ratio outside the band means the annealer, the
portfolio seeding, or the cost model changed behaviour — exactly what
this gate exists to catch.  The same check runs in the ``calibration``
CI job over the uploaded ``BENCH_calibration.json``.
"""

from __future__ import annotations

import json

from benchmarks.conftest import run_and_print
from repro.bench.artifact import ARTIFACT_ENV_VAR
from repro.bench.calibrate import (
    ARTIFACT_NAME,
    INSTANCES,
    RESTART_COUNTS,
)
from repro.bench.runner import run_table
from repro.calibration import CalibrationTable


def run_table_target(profile):
    return run_table("calibrate", profile)


def test_bench_calibrate_table(benchmark, profile, tmp_path, monkeypatch):
    monkeypatch.setenv(ARTIFACT_ENV_VAR, str(tmp_path))
    table = run_and_print(benchmark, run_table_target, profile)

    assert len(table.rows) == len(INSTANCES) * len(RESTART_COUNTS)

    artifact = json.loads((tmp_path / ARTIFACT_NAME).read_text())
    assert artifact["bench"] == "calibration"
    assert len(artifact["rows"]) == len(table.rows)

    # THE regression gate: every equal-budget ratio inside the band the
    # artifact itself declares.  Equal CPU is by construction — the
    # loop budgets in each row must multiply out to (at most) the
    # single-anneal budget.
    gate = artifact["gate"]
    for row in artifact["rows"]:
        assert gate["min_ratio"] <= row["ratio"] <= gate["max_ratio"], row
        assert (
            row["restarts"] * row["portfolio_outer_loops"]
            <= row["single_outer_loops"]
        ), row

    # The embedded calibration table round-trips and can actually drive
    # calibrated auto-routing for every class the sweep touched.
    calibration = CalibrationTable.from_dict(artifact["calibration"])
    assert len(calibration) > 0
    for klass in {row["instance_class"] for row in artifact["rows"]}:
        assert calibration.recommend(klass, num_sites=4) is not None
