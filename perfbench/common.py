"""Metric definitions, statistics, resource probes and output checks
shared by every workload of the benchmark."""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: The metric catalogue: names, units and bounds of every metric.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: name -> unit of every end-to-end metric (printed with ``--trace 0``).
END_TO_END = {metric["name"]: metric["unit"] for metric in SPEC["end_to_end"]}
#: name -> unit of every per-layer metric (printed with ``--trace 1``).
#: Counts and ``.s`` self times are per cycle of the workload's mix.
PER_LAYER = {metric["name"]: metric["unit"] for metric in SPEC["per_layer"]}

#: How many times set-up is repeated; ``setup_s`` is the median.
SETUP_REPEATS = 5
#: How many fresh interpreters import ``repro``; ``cli.import_s`` is the
#: median.
CLI_PROBE_REPEATS = 3


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def p90(values: list[float]) -> float:
    """90th percentile (inclusive interpolation; the median below 2)."""
    if len(values) < 2:
        return median(values)
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def typical_cycle(samples: dict[str, list[tuple[float, float]]]) -> dict[str, float]:
    """Timing metrics of the typical cycle of a mix.

    ``samples`` maps each request of the mix to its ``(wall s, CPU s)``
    in every cycle run.  Each request contributes its median over the
    cycles, which keeps a burst of machine noise in one cycle out of
    the figures; latency percentiles are taken over those medians and
    throughput is the mix's size over their sum.
    """
    walls = [median([wall for wall, _ in runs]) for runs in samples.values()]
    cpus = [median([cpu for _, cpu in runs]) for runs in samples.values()]
    return {
        "solves_per_s": len(walls) / sum(walls),
        "latency_p50_s": median(walls),
        "latency_p90_s": p90(walls),
        "cpu_per_solve_s": sum(cpus) / len(cpus),
    }


# ----------------------------------------------------------------------
# resource probes
# ----------------------------------------------------------------------
def own_cpu() -> float:
    """CPU seconds (user + system) of this process and its reaped
    children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def own_peak_rss_mb() -> float:
    """Peak RSS of this process or any reaped child (Linux: KiB)."""
    peak = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak / 1024.0


_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def pid_cpu(pid: int) -> float:
    """CPU seconds (user + system) of a live process, from /proc."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def pid_peak_rss_mb(pid: int) -> float:
    """Peak RSS (VmHWM) of a live process, from /proc."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def child_env() -> dict[str, str]:
    """Environment for child interpreters: ``src`` on the import path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def cli_probe() -> dict[str, float]:
    """``cli.import_s``, the median wall time of a fresh
    ``python -c "import repro"``, and ``cli.modules_loaded``, the number
    of modules it loads (an exact count)."""
    code = "import sys, repro; print(len(sys.modules))"
    times, counts = [], []
    for _ in range(CLI_PROBE_REPEATS):
        started = time.perf_counter()
        completed = subprocess.run(
            [sys.executable, "-c", code], env=child_env(), cwd=ROOT,
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(time.perf_counter() - started)
        counts.append(int(completed.stdout.strip()))
    if len(set(counts)) != 1:
        raise RuntimeError(f"module count differs between runs: {counts}")
    return {"cli.import_s": median(times), "cli.modules_loaded": counts[0]}


def cost_ratio(ratios: list[float]) -> dict[str, float]:
    """``cost_ratio``, the mean objective over single-site cost of the
    checked reports.  Without one (every report failed) the metric is
    left unmeasured, so the run fails instead of reading as a gain."""
    return {"cost_ratio": statistics.fmean(ratios)} if ratios else {}


def not_measured_here(layer: str) -> dict[str, float]:
    """Zeros for the per-layer metrics of a layer the workload does not
    run."""
    return {name: 0.0 for name in PER_LAYER if name.startswith(layer + ".")}


# ----------------------------------------------------------------------
# output checks (always outside the timed window)
# ----------------------------------------------------------------------
def check_report(report: Any, *, require_optimal: bool = False) -> tuple[str | None, float]:
    """Validate one :class:`~repro.api.SolveReport`.

    Returns ``(error or None, objective / single-site cost)``.  The
    layout must be feasible, its re-evaluated objective (4) must equal
    the reported one, and it must be no worse than the one-site layout.
    """
    from repro.costmodel.evaluator import SolutionEvaluator, check_solution_feasible
    from repro.partition.assignment import single_site_partitioning

    result = report.result
    coefficients = result.coefficients
    single = single_site_partitioning(coefficients).objective
    ratio = result.objective / single
    if not check_solution_feasible(coefficients, result.x, result.y):
        return "infeasible layout", ratio
    evaluated = SolutionEvaluator(coefficients).objective4(result.x, result.y)
    if evaluated != result.objective:
        return f"objective {result.objective!r} != re-evaluated {evaluated!r}", ratio
    if result.objective > single:
        return f"objective {result.objective!r} > single-site {single!r}", ratio
    if require_optimal and not result.proven_optimal:
        return "QP report not proven optimal", ratio
    return None, ratio


@dataclass
class Outcome:
    """What one run of a workload prints as its last line."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    notes: dict[str, Any] = field(default_factory=dict)

    def record(self, error: str | None, label: str) -> None:
        """Count one attempted operation; ``error`` marks it failed."""
        self.attempted += 1
        if error is not None:
            self.failed += 1
            self.errors.append(f"{label}: {error}")

    def document(self, units: dict[str, str]) -> dict[str, Any]:
        missing = sorted(set(units) - set(self.metrics))
        if missing:
            raise RuntimeError(f"metrics not measured: {missing}")
        return {
            "correct": self.failed == 0,
            "attempted": max(self.attempted, 1),
            "failed": self.failed,
            "metrics": {
                name: {"value": float(self.metrics[name]), "unit": unit}
                for name, unit in units.items()
            },
        }


# ----------------------------------------------------------------------
# per-layer metrics from recorded spans
# ----------------------------------------------------------------------
def layer_metrics(
    stats: dict[str, dict[str, float]],
    counters: dict[str, float],
    cycles: float,
) -> dict[str, float]:
    """Per-cycle per-layer metrics from merged span statistics."""

    def own(*names: str) -> float:
        return sum(stats.get(name, {}).get("self_s", 0.0) for name in names) / cycles

    def calls(*names: str) -> float:
        return sum(stats.get(name, {}).get("calls", 0) for name in names) / cycles

    def counter(name: str) -> float:
        return counters.get(name, 0) / cycles

    def ratio(part: str, whole: str) -> float:
        total = counters.get(whole, 0)
        return counters.get(part, 0) / total if total else 0.0

    anneal = ("sa.anneal.replicated", "sa.anneal.disjoint")
    compress_calls = stats.get("reduction.compress", {}).get("calls", 0)
    metrics = {
        "sqlio.load.s": own("sqlio.load"),
        "instances.generate.s": own("instances.generate"),
        "api.advise.calls": calls("api.advise"),
        "api.advise.self_s": own("api.advise"),
        "api.request_codec.s": own("api.request_codec"),
        "costmodel.coefficients.calls": calls("costmodel.coefficients"),
        "costmodel.coefficients.s": own("costmodel.coefficients"),
        "costmodel.coefficients.hit_ratio": ratio(
            "costmodel.coefficients.hits", "costmodel.coefficients.lookups"),
        "costmodel.incremental.calls": calls("costmodel.incremental"),
        "costmodel.incremental.s": own("costmodel.incremental"),
        "costmodel.evaluator.s": own("costmodel.evaluator"),
        "qp.build.calls": calls("qp.build"),
        "qp.build.s": own("qp.build", "qp.linearization"),
        "qp.linearization.hit_ratio": ratio(
            "qp.linearization.hits", "qp.linearization.lookups"),
        "qp.model.variables": counter("qp.model.variables"),
        "qp.model.constraints": counter("qp.model.constraints"),
        "solver.arrays.s": own("solver.arrays"),
        "solver.arrays.nonzeros": counter("solver.arrays.nonzeros"),
        "solver.highs.calls": calls("solver.highs"),
        "solver.highs.s": own("solver.highs"),
        "solver.highs.nodes": counter("solver.highs.nodes"),
        "sa.anneal.calls": calls(*anneal),
        "sa.anneal.replicated_s": own("sa.anneal.replicated"),
        "sa.anneal.disjoint_s": own("sa.anneal.disjoint"),
        "sa.iterations": counter("sa.iterations"),
        "sa.accept_ratio": ratio("sa.accepted", "sa.iterations"),
        "sa.neighborhood.calls": calls("sa.neighborhood"),
        "sa.neighborhood.s": own("sa.neighborhood"),
        "sa.cover.calls": calls("sa.cover"),
        "sa.cover.s": own("sa.cover"),
        "sa.place.calls": calls("sa.place"),
        "sa.place.s": own("sa.place"),
        "sa.portfolio.s": own("sa.portfolio"),
        "sa.portfolio.restarts": counter("sa.portfolio.restarts"),
        "reduction.compress.calls": calls("reduction.compress"),
        "reduction.compress.s": own("reduction.compress"),
        "reduction.lift.s": own("reduction.lift"),
        "reduction.ratio": (
            counters.get("reduction.ratio_sum", 0) / compress_calls
            if compress_calls else 0.0
        ),
    }
    metrics["trace.coverage"] = coverage(stats)
    return metrics


def merge_stats(into: dict, stats: dict) -> None:
    """Add one process's span statistics into ``into``."""
    for name, values in stats.items():
        entry = into.setdefault(name, dict.fromkeys(values, 0))
        for key, value in values.items():
            entry[key] += value


def coverage(stats: dict[str, dict[str, float]]) -> float:
    """Share of outermost ``api.advise`` time spent inside the listed
    layer spans (what is left is the advisor's own bookkeeping).

    Every span a boundary of :mod:`tracing` records feeds a per-layer
    metric, so no span covers time that no metric reports."""
    advise = stats.get("api.advise")
    if not advise or not advise["outer_s"]:
        return 0.0
    return 1.0 - advise["self_s"] / advise["outer_s"]


def environment() -> dict[str, Any]:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
