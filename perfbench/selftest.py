"""The benchmark's own tests.

Run from the repository root (they take a minute or two; the file name
keeps them out of the repository's default pytest collection)::

    python -m pytest perfbench/selftest.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def bench(workload: str, trace: int, seed: int = 7, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.01", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result(workload: str, trace: int) -> dict:
    completed = bench(workload, trace)
    assert completed.returncode == 0, completed.stderr[-3000:]
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def runs() -> dict:
    """Two tiny runs per workload and trace mode, with one seed."""
    return {
        (workload, trace): [result(workload, trace), result(workload, trace)]
        for workload in WORKLOADS for trace in (0, 1)
    }


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_smoke_prints_every_metric_with_its_unit(runs, workload, trace):
    document = runs[workload, trace][0]
    assert set(document) == {"correct", "attempted", "failed", "metrics"}
    assert document["correct"] is True and document["failed"] == 0
    assert document["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: value["unit"] for name, value in document["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in expected
    }
    if not trace:
        assert all(value["value"] > 0 for value in document["metrics"].values())


EXACT = {
    ("qp-exact", 0): ["cost_ratio"],
    ("sa-anneal", 0): ["cost_ratio"],
    ("service-mix", 0): ["cost_ratio"],
    ("qp-exact", 1): ["qp.model.variables", "qp.model.constraints",
                      "solver.arrays.nonzeros", "cli.modules_loaded"],
    ("sa-anneal", 1): ["sa.iterations", "sa.anneal.calls"],
}


@pytest.mark.parametrize("key", sorted(EXACT))
def test_one_seed_gives_identical_exact_values(runs, key):
    first, second = runs[key]
    for name in EXACT[key]:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    if key[1]:
        assert first["metrics"][EXACT[key][0]]["value"] > 0


def test_traced_run_reports_coverage_and_overhead(runs):
    for workload in ("qp-exact", "sa-anneal"):
        metrics = runs[workload, 1][0]["metrics"]
        assert metrics["trace.coverage"]["value"] >= 0.9
        assert metrics["trace.overhead"]["value"] > 0
    # The SQL row parses its files through sqlio inside the traced window.
    assert runs["sa-anneal", 1][0]["metrics"]["sqlio.load.s"]["value"] > 0


def test_every_recorded_span_feeds_a_per_layer_metric():
    # trace.coverage counts all time inside child spans of api.advise as
    # measured, so a span no metric reports would hide its self time.
    import common

    names = {name for _, _, name, _ in tracing.BOUNDARIES if isinstance(name, str)}
    names |= {"sa.anneal.replicated", "sa.anneal.disjoint"}
    for name in names:
        stats = {name: {"calls": 1, "total_s": 1.0, "self_s": 1.0, "outer_s": 1.0}}
        metrics = common.layer_metrics(stats, {}, 1)
        del metrics["trace.coverage"]
        assert any(metrics.values()), name


def test_cost_ratio_is_unmeasured_without_a_checked_report():
    import common

    assert common.cost_ratio([]) == {}
    assert common.cost_ratio([0.5, 1.0]) == {"cost_ratio": 0.75}


def test_wrappers_are_removed_and_change_no_result():
    from repro.api import SolveRequest, advise
    from repro.instances.library import named_instance

    request = SolveRequest(named_instance("rndAt4x15"), num_sites=2,
                           strategy="sa", seed=3)
    untraced = advise(request)
    before = tracing.current_attributes()
    recorder = tracing.SpanRecorder()
    patches = tracing.install(recorder)
    try:
        assert len(patches) == len(tracing.BOUNDARIES)
        assert all(
            hasattr(getattr(current, "__func__", current), "__perfbench_original__")
            for current in tracing.current_attributes()
        )
        recorder.enabled = True
        traced = advise(request)
        recorder.enabled = False
    finally:
        patches.remove()
    assert tracing.current_attributes() == before
    assert recorder.stats()["api.advise"]["calls"] == 1
    assert traced.objective == untraced.objective
    assert (traced.x == untraced.x).all() and (traced.y == untraced.y).all()


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    completed = bench("qp-exact", 0, cwd=tmp_path)
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
