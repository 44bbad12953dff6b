"""Bench smoke: the workload-compression ratio/gap curve.

Drives the ``compression`` target end to end (runner dispatch included)
and asserts the layer's headline contract on the duplicate-heavy
instances: >= 5x transaction-count reduction with *zero* objective gap
in the lossless tier, measured lossy gap within its reported bound, and
a machine-readable ``BENCH_compression.json`` perf-trajectory artifact.
"""

from __future__ import annotations

import json

from benchmarks.conftest import run_and_print
from repro.bench.artifact import ARTIFACT_ENV_VAR
from repro.bench.compression import ARTIFACT_NAME
from repro.bench.runner import run_table


def run_table_target(profile):
    return run_table("compression", profile)


def test_bench_compression_table(benchmark, profile, tmp_path, monkeypatch):
    monkeypatch.setenv(ARTIFACT_ENV_VAR, str(tmp_path))
    table = run_and_print(benchmark, run_table_target, profile)

    by_key = {(row["instance"], row["tier"], row["tol"]): row
              for row in table.rows}
    # Headline: the exact-duplicate instance compresses >= 5x with a
    # bit-identical objective in the lossless tier.
    direct = by_key[("rndDupAt8x120", "off", 0.0)]
    lossless = by_key[("rndDupAt8x120", "lossless", 0.0)]
    assert lossless["ratio"] >= 5.0
    assert lossless["objective"] == direct["objective"]
    assert lossless["gap %"] == 0.0
    # Coefficient-array memory shrinks along with the transaction count.
    assert lossless["coeff MB"] < direct["coeff MB"] / 5.0

    # Lossy tier: monotone in tolerance, measured gap within the bound.
    for row in table.rows:
        if row["tier"] == "lossy":
            assert row["gap %"] <= row["bound %"] + 1e-9

    artifact = json.loads((tmp_path / ARTIFACT_NAME).read_text())
    assert artifact["bench"] == "compression"
    assert len(artifact["rows"]) == len(table.rows)
    for row in artifact["rows"]:
        assert row["gap"] <= row["bound"] + 1e-9


def test_lossy_tier_merges_more_under_larger_tolerance(profile, tmp_path,
                                                       monkeypatch):
    monkeypatch.setenv(ARTIFACT_ENV_VAR, str(tmp_path))
    table = run_table("compression", profile)
    jittered = [row for row in table.rows
                if row["instance"] == "rndDupAt8x120j"]
    ratios = {(row["tier"], row["tol"]): row["ratio"] for row in jittered}
    # Near-duplicates are invisible to the lossless tier but merge under
    # a budget; a larger budget merges at least as much.
    assert ratios[("lossy", 0.02)] >= ratios[("lossless", 0.0)]
    assert ratios[("lossy", 0.1)] >= ratios[("lossy", 0.02)]
