"""Bench target: advisor-service throughput under duplicates and pressure.

Three questions, answered as *ratios only* (absolute wall-clock is
machine noise, and the CI container is single-core — the ratios are
what coalescing and shedding control, no wall-clock parallelism is
asserted):

* **coalesced duplicate storm** — N identical requests through the
  service versus the same N requests through a sequential
  ``advisor.advise`` loop.  Coalescing solves once and fans the report
  out, so the ratio falls towards 1/N;
* **mixed workload** — a batch of distinct-seed requests with
  duplicates mixed in, service versus the sequential loop over the full
  batch.  The service solves only the deduplicated work;
* **shed under pressure** — the same deep queue of SA requests served
  with shedding off versus shedding on (hard level: ``greedy`` floor).
  Degraded answers are near-free, so the ratio shows what admission
  pressure buys.

Every scenario asserts its result contract in-bench: coalesced reports
are *the same object*, every served report is bitwise identical to the
sequential loop over the deduplicated sequence, and shed reports carry
``degraded_from`` provenance.  Besides the rendered table the run
emits ``BENCH_service.json`` (into ``REPRO_BENCH_ARTIFACT_DIR``,
default: the working directory).
"""

from __future__ import annotations

import asyncio
import time

import numpy as np

from repro.api import Advisor, SolveRequest
from repro.bench.artifact import write_artifact
from repro.bench.config import BenchProfile, get_profile
from repro.bench.formatting import BenchTable
from repro.instances.random_gen import InstanceParameters, generate_instance
from repro.service.config import ServiceConfig
from repro.service.core import AsyncAdvisor

#: File name of the JSON artifact (see :mod:`repro.bench.artifact`).
ARTIFACT_NAME = "BENCH_service.json"

NUM_SITES = 2
STORM_SIZE = 12          # identical requests in the duplicate storm
MIXED_UNIQUE = 4         # distinct seeds in the mixed workload
MIXED_COPIES = 3         # each distinct request appears this often
PRESSURE_DEPTH = 8       # queued solves in the shedding scenario

SA_OPTIONS = {"inner_loops": 8, "max_outer_loops": 20, "patience": 6}


def _bench_instance(seed: int):
    return generate_instance(
        InstanceParameters(
            name="service-bench",
            num_transactions=6,
            num_tables=4,
            max_queries_per_transaction=3,
            update_percent=30.0,
            max_attributes_per_table=5,
            max_table_refs_per_query=2,
            max_attribute_refs_per_query=4,
            attribute_widths=(2.0, 8.0),
            max_frequency=5,
            max_rows=3,
        ),
        seed=seed,
    )


def _sa_request(instance, seed: int) -> SolveRequest:
    return SolveRequest(
        instance=instance,
        num_sites=NUM_SITES,
        strategy="sa",
        options=dict(SA_OPTIONS),
        seed=seed,
    )


def _sequential_wall(requests: list[SolveRequest]) -> tuple[list, float]:
    """The comparison target: a fresh Advisor, one advise per request."""
    advisor = Advisor()
    started = time.perf_counter()
    reports = [advisor.advise(request) for request in requests]
    return reports, time.perf_counter() - started


def _service_wall(
    requests: list[SolveRequest], config: ServiceConfig
) -> tuple[list, dict, float]:
    """All requests submitted concurrently; queue built *before* the
    worker starts so every request sees deterministic queue depth."""

    async def run():
        service = AsyncAdvisor(config=config)
        tasks = [
            asyncio.ensure_future(service.submit(request))
            for request in requests
        ]
        # Let every submit reach the queue before the worker runs.
        for _ in range(3 * len(requests)):
            await asyncio.sleep(0)
        async with service:
            reports = await asyncio.gather(*tasks)
        return reports, service.stats()

    started = time.perf_counter()
    reports, stats = asyncio.run(run())
    return reports, stats, time.perf_counter() - started


def _assert_identical(report, reference) -> None:
    assert np.array_equal(report.result.x, reference.result.x)
    assert np.array_equal(report.result.y, reference.result.y)
    assert report.result.objective == reference.result.objective
    assert report.strategy == reference.strategy


def service(profile: BenchProfile | None = None) -> BenchTable:
    """The runner-facing table; also writes the JSON artifact."""
    profile = profile or get_profile()
    instance = _bench_instance(profile.seed)
    no_shed = ServiceConfig(max_pending=256)

    # -- coalesced duplicate storm ------------------------------------
    storm = [_sa_request(instance, seed=1)] * STORM_SIZE
    seq_reports, seq_wall = _sequential_wall(storm)
    svc_reports, svc_stats, svc_wall = _service_wall(storm, no_shed)
    assert all(report is svc_reports[0] for report in svc_reports)
    _assert_identical(svc_reports[0], seq_reports[0])
    storm_ratio = svc_wall / seq_wall if seq_wall else 1.0
    storm_detail = (
        f"{STORM_SIZE} identical requests, "
        f"{svc_stats['coalesced'] + svc_stats['result_cache_hits']} "
        f"coalesced/cached, {svc_stats['served']} solved"
    )

    # -- mixed workload ------------------------------------------------
    mixed = [
        _sa_request(instance, seed=seed)
        for seed in range(MIXED_UNIQUE)
        for _ in range(MIXED_COPIES)
    ]
    unique = mixed[::MIXED_COPIES]
    seq_mixed, seq_mixed_wall = _sequential_wall(mixed)
    svc_mixed, mixed_stats, svc_mixed_wall = _service_wall(mixed, no_shed)
    # Bitwise contract: each service answer equals the sequential loop
    # over the deduplicated sequence (cache_stats included).
    dedup_reports, _ = _sequential_wall(unique)
    for index, report in enumerate(svc_mixed):
        reference = dedup_reports[index // MIXED_COPIES]
        _assert_identical(report, reference)
    for report, reference in zip(svc_mixed[::MIXED_COPIES], dedup_reports):
        assert report.cache_stats == reference.cache_stats
    mixed_ratio = svc_mixed_wall / seq_mixed_wall if seq_mixed_wall else 1.0
    mixed_detail = (
        f"{len(mixed)} requests over {MIXED_UNIQUE} distinct seeds, "
        f"{mixed_stats['served']} solved"
    )

    # -- shed under pressure -------------------------------------------
    pressure = [
        _sa_request(instance, seed=100 + index)
        for index in range(PRESSURE_DEPTH)
    ]
    _, _, unshed_wall = _service_wall(pressure, no_shed)
    shed_config = ServiceConfig(
        max_pending=256, shed_threshold=1, shed_hard_threshold=2
    )
    shed_reports, shed_stats, shed_wall = _service_wall(
        pressure, shed_config
    )
    # First request admitted at depth 0 runs as asked; everything at
    # hard depth is served by the greedy floor with provenance.
    assert shed_reports[0].degraded_from is None
    for report in shed_reports[2:]:
        assert report.degraded_from == "sa"
        assert report.strategy == "greedy"
        assert report.result.metadata["degraded_from"] == "sa"
    shed_ratio = shed_wall / unshed_wall if unshed_wall else 1.0
    shed_detail = (
        f"depth {PRESSURE_DEPTH} queue, {shed_stats['shed_hard']} hard "
        f"+ {shed_stats['shed_light']} light sheds"
    )

    rows = [
        {
            "metric": "coalesced duplicate storm vs sequential loop",
            "ratio": round(storm_ratio, 3),
            "detail": storm_detail,
        },
        {
            "metric": "mixed workload vs sequential loop",
            "ratio": round(mixed_ratio, 3),
            "detail": mixed_detail,
        },
        {
            "metric": "shed under pressure vs unshed service",
            "ratio": round(shed_ratio, 3),
            "detail": shed_detail,
        },
    ]
    table = BenchTable(
        title="Advisor service — coalescing and shedding throughput "
        "(ratios only; result identity asserted)",
        columns=["metric", "ratio", "detail"],
        notes=[
            "service answers asserted bitwise-identical to a sequential "
            "advise loop over the deduplicated request sequence "
            "(cache_stats included); shed answers carry degraded_from",
        ],
    )
    for row in rows:
        table.add_row(**row)

    payload = {
        "bench": "service",
        "profile": profile.name,
        "seed": profile.seed,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "rows": rows,
        "counters": {
            "storm": svc_stats,
            "mixed": mixed_stats,
            "shed": shed_stats,
        },
    }
    write_artifact(ARTIFACT_NAME, payload, table.notes)
    return table
