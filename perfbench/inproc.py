"""The in-process workloads: ``qp-exact`` and ``sa-anneal``.

Each request goes through a fresh :class:`~repro.api.Advisor` (the
one-off ``advise`` a library caller makes), one after another, in
whole cycles of the workload's mix until ``--seconds`` of solve time
have been measured.  A row on SQL files parses them inside its timed
window, as ``advise --schema/--workload`` does.  Output checks run
between requests, outside the timed window.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

import common
import tracing
from repro.api.advisor import Advisor
from repro.api.request import SolveRequest
from repro.instances.library import named_instance
from repro.sqlio import workload_loader

#: SQL fixtures of the ``shop`` rows: (schema file, workload file).
SQL_FIXTURES = {"shop": (common.HERE / "fixtures" / "shop_schema.sql",
                         common.HERE / "fixtures" / "shop_workload.sql")}


@dataclass(frozen=True)
class Row:
    """One request of a workload's mix."""

    instance: str
    sites: int
    strategy: str
    disjoint: bool = False
    options: dict[str, Any] = field(default_factory=dict)
    sql: bool = False  # the instance is parsed from SQL_FIXTURES per request

    @property
    def label(self) -> str:
        mode = ",disjoint" if self.disjoint else ""
        return f"{self.strategy}:{self.instance}|S|={self.sites}{mode}"


#: Table 3/5 QP rows that HiGHS closes quickly.
QP_EXACT = (
    Row("tpcc", 2, "qp"),
    Row("tpcc", 3, "qp"),
    Row("tpcc", 4, "qp"),
    Row("tpcc", 3, "qp", disjoint=True),
    Row("rndBt4x100", 4, "qp"),
    Row("rndBt32x15", 4, "qp"),
    Row("rndBt8x15", 4, "qp"),
    Row("rndBt4x15", 3, "qp", disjoint=True),
)

#: Table 3 SA rows plus the disjoint, update-heavy and portfolio paths.
SA_ANNEAL = (
    Row("tpcc", 3, "sa"),
    Row("rndAt16x100", 4, "sa"),
    Row("rndAt64x100", 4, "sa"),
    Row("rndBt64x100", 4, "sa"),
    Row("rndAt64x100", 4, "sa", disjoint=True),
    Row("rndAt8x15u50", 4, "sa"),
    Row("shop", 3, "sa", sql=True),
    Row("rndAt32x100", 4, "sa-portfolio",
        options={"restarts": 4, "jobs": 2, "backend": "process"}),
)

#: Small stand-ins used by the benchmark's own smoke tests (``--tiny``).
TINY = {
    "qp-exact": (Row("rndBt4x15", 2, "qp"), Row("rndBt4x15", 2, "qp", disjoint=True)),
    "sa-anneal": (
        Row("rndAt4x15", 2, "sa"),
        Row("rndAt4x15", 2, "sa", disjoint=True),
        Row("shop", 2, "sa", sql=True),
        Row("rndAt4x15", 2, "sa-portfolio",
            options={"restarts": 2, "jobs": 2, "backend": "process"}),
    ),
}

MIXES = {"qp-exact": QP_EXACT, "sa-anneal": SA_ANNEAL}
#: The untimed warm-up request of each workload's set-up.
WARMUP = {"qp-exact": Row("rndBt32x15", 4, "qp"), "sa-anneal": Row("tpcc", 3, "sa")}


def generate_instances(rows: tuple[Row, ...]) -> dict[str, Any]:
    """Each row's instance by name; for a SQL row, its two SQL texts."""
    return {
        row.instance: (
            tuple(path.read_text() for path in SQL_FIXTURES[row.instance])
            if row.sql else named_instance(row.instance)
        )
        for row in rows
    }


def make_request(row: Row, instances: dict[str, Any], seed: int) -> SolveRequest:
    """The request of ``row``; a SQL row parses its instance here."""
    instance = instances[row.instance]
    if row.sql:
        instance = workload_loader.load_instance_from_sql(*instance, name=row.instance)
    return SolveRequest(
        instance, num_sites=row.sites, allow_replication=not row.disjoint,
        strategy=row.strategy, options=row.options, seed=seed,
    )


def solver_seeds(count: int) -> list[int]:
    """Solver seeds of a mix's requests, the same in every cycle.

    They do not depend on ``--seed``: annealing run lengths differ 2-3x
    between solver seeds, so seed-dependent solver seeds would make the
    timings measure the seed draw instead of the code.  Repeating them
    in every cycle makes a run's work independent of how many cycles fit
    in its time.
    """
    rng = np.random.default_rng(0)
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]


def cycle_requests(rows, seed: int, cycle: int) -> list[tuple[Row, int]]:
    """``(row, solver seed)`` of one cycle's requests, in an order drawn
    from ``(seed, cycle)``."""
    order = np.random.default_rng([seed, cycle]).permutation(len(rows))
    seeds = solver_seeds(len(rows))
    return [(rows[index], seeds[index]) for index in order]


def serve(row: Row, instances: dict[str, Any], seed: int) -> tuple[Any, float, float]:
    """Build one request and ``advise`` it through a fresh advisor:
    (report, wall s, CPU s).  The garbage of earlier requests is
    collected first, outside the timed window, so a request does not pay
    for a collection its predecessor in the cycle's order left due."""
    gc.collect()
    cpu = common.own_cpu()
    started = time.perf_counter()
    report = Advisor().advise(make_request(row, instances, seed))
    elapsed = time.perf_counter() - started
    return report, elapsed, common.own_cpu() - cpu


def setup(workload: str, rows) -> tuple[dict[str, Any], float, float]:
    """Instance generation plus one untimed warm-up request, repeated;
    returns (instances, median set-up s, median generation s)."""
    totals, generation = [], []
    warm = WARMUP[workload]
    for _ in range(common.SETUP_REPEATS):
        started = time.perf_counter()
        instances = generate_instances(rows + (warm,))
        generation.append(time.perf_counter() - started)
        serve(warm, instances, 0)
        totals.append(time.perf_counter() - started)
    return instances, common.median(totals), common.median(generation)


def run_cycle(requests, instances, outcome: common.Outcome, workload: str,
              recorder: tracing.SpanRecorder | None = None):
    """Serve one cycle; returns ({label: (wall s, CPU s)}, objectives,
    ratios), the last two in request order."""
    timings, objectives, ratios = {}, [], []
    for index, (row, seed) in enumerate(requests):
        if recorder is not None:
            recorder.set_request(f"{index}:{row.label}")
            recorder.enabled = True
        try:
            report, elapsed, used = serve(row, instances, seed)
        except Exception as error:  # a failed cell is a row, not an abort
            outcome.record(f"{type(error).__name__}: {error}", row.label)
            continue
        finally:
            if recorder is not None:
                recorder.enabled = False
        timings[row.label] = (elapsed, used)
        error, ratio = common.check_report(
            report, require_optimal=workload == "qp-exact"
        )
        outcome.record(error, row.label)
        objectives.append(report.objective)
        ratios.append(ratio)
    return timings, objectives, ratios


def run(workload: str, seed: int, seconds: float, trace: bool,
        tiny: bool = False) -> common.Outcome:
    rows = TINY[workload] if tiny else MIXES[workload]
    outcome = common.Outcome()
    instances, setup_s, generate_s = setup(workload, rows)
    if not trace:
        return _timed(workload, rows, instances, seed, seconds, outcome, setup_s)
    return _traced(workload, rows, instances, seed, seconds, outcome, generate_s)


def _timed(workload, rows, instances, seed, seconds, outcome, setup_s):
    samples: dict[str, list[tuple[float, float]]] = {}
    ratios, measured, cycle = [], 0.0, 0
    while cycle == 0 or measured < seconds:
        requests = cycle_requests(rows, seed, cycle)
        timings, _, cycle_ratios = run_cycle(requests, instances, outcome, workload)
        for label, timing in timings.items():
            samples.setdefault(label, []).append(timing)
            measured += timing[0]
        if cycle == 0:
            ratios = cycle_ratios  # exact per seed
        cycle += 1
    outcome.metrics.update(common.typical_cycle(samples))
    outcome.metrics.update({
        "setup_s": setup_s,
        "peak_rss_mb": common.own_peak_rss_mb(),
    })
    outcome.metrics.update(common.cost_ratio(ratios))
    outcome.notes.update({"cycles": cycle, "rows": len(samples)})
    return outcome


def _traced(workload, rows, instances, seed, seconds, outcome, generate_s):
    """Alternate untraced and traced cycles of the same requests until
    ``seconds`` have passed; spans come from the traced cycles only."""
    requests = cycle_requests(rows, seed, 0)
    recorder = tracing.SpanRecorder()
    untraced, traced, reference = [], [], None
    while not traced or sum(untraced) + sum(traced) < seconds:
        timings, objectives, _ = run_cycle(requests, instances, outcome, workload)
        untraced.append(sum(wall for wall, _ in timings.values()))
        reference = reference or objectives
        patches = tracing.install(recorder)
        try:
            timings, objectives, _ = run_cycle(requests, instances, outcome, workload,
                                               recorder)
        finally:
            patches.remove()
        traced.append(sum(wall for wall, _ in timings.values()))
        outcome.record(
            None if objectives == reference
            else f"traced objectives {objectives} != untraced {reference}",
            "traced-vs-untraced",
        )
    metrics = common.layer_metrics(recorder.stats(), recorder.counters(), len(traced))
    metrics.update(common.not_measured_here("service"))
    metrics.update(common.cli_probe())
    metrics.update({
        "instances.generate.s": generate_s,
        "trace.overhead": common.median(traced) / common.median(untraced),
    })
    outcome.metrics.update(metrics)
    outcome.notes.update({
        "traced_cycles": len(traced),
        "trace_file": _write_trace(workload, {1: recorder.events()}),
        "events_dropped": recorder.dropped,
    })
    return outcome


def _write_trace(workload: str, processes: dict[int, list]) -> str:
    common.OUT.mkdir(exist_ok=True)
    path = common.OUT / f"trace-{workload}.json"
    tracing.write_json(str(path), tracing.chrome_trace(processes))
    return str(path.relative_to(common.ROOT))
