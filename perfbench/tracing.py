"""Span recording around the public functions of the ``repro`` layers.

The benchmark measures each layer from outside: :func:`install` replaces
a fixed list of public attributes (module functions and class methods)
with thin wrappers that record one span per call, and
:meth:`Patches.remove` puts the originals back.  Nothing under ``src/``
is modified.

A span is ``(name, start, end, parent, request id)``.  Self time (a
span's duration minus the time its child spans cover) and call counts
are accumulated online per span name, so memory stays bounded however
long the run; raw spans are kept up to :data:`MAX_EVENTS` for the
Chrome trace-event file written at the end.

Wrappers never touch arguments or results beyond reading counters, so a
traced solve returns exactly what an untraced one does.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from typing import Any, Callable

_now = time.perf_counter_ns
#: Raw spans kept per recorder for the Chrome trace; later ones are only
#: counted in :attr:`SpanRecorder.dropped`.
MAX_EVENTS = 50_000


class _ThreadState:
    __slots__ = ("stack", "stats", "counters", "events", "request_id", "tid")

    def __init__(self, tid: int):
        self.stack: list[list] = []
        # name -> [calls, total_ns, self_ns, outer_ns]; outer time
        # counts only spans not nested in a span of the same name.
        self.stats: dict[str, list[int]] = {}
        self.counters: dict[str, float] = {}
        self.events: list[tuple] = []
        self.request_id: Any = None
        self.tid = tid


class SpanRecorder:
    """Per-thread span stacks, merged on read.

    Each thread records into its own state, so the event-loop thread and
    the solve thread of the advisor service never contend on a lock in
    the hot path.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.dropped = 0
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()

    # -- per-thread state ------------------------------------------------
    def state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            with self._lock:
                state = _ThreadState(len(self._states) + 1)
                self._states.append(state)
            self._local.state = state
        return state

    def set_request(self, request_id: Any) -> None:
        """Tag the calling thread's following spans with ``request_id``."""
        self.state().request_id = request_id

    def count(self, name: str, value: float = 1) -> None:
        counters = self.state().counters
        counters[name] = counters.get(name, 0) + value

    def span(self, name: str, fn: Callable, /, *args: Any, **kwargs: Any) -> Any:
        """Call ``fn`` inside a span named ``name`` (when enabled)."""
        if not self.enabled:
            return fn(*args, **kwargs)
        state = self.state()
        frame = [name, _now(), 0]  # name, start, child time
        parent = state.stack[-1] if state.stack else None
        state.stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = _now()
            state.stack.pop()
            duration = end - frame[1]
            entry = state.stats.get(name)
            if entry is None:
                entry = state.stats[name] = [0, 0, 0, 0]
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - frame[2]
            if parent is None:
                entry[3] += duration
            else:
                parent[2] += duration
                if parent[0] != name:
                    entry[3] += duration
            if len(state.events) < MAX_EVENTS:
                state.events.append(
                    (name, frame[1], end,
                     parent[0] if parent is not None else None,
                     state.request_id, state.tid)
                )
            else:
                self.dropped += 1

    # -- merged views ----------------------------------------------------
    def stats(self) -> dict[str, dict[str, float]]:
        """``{name: {"calls", "total_s", "self_s", "outer_s"}}`` over all
        threads."""
        merged: dict[str, list[int]] = {}
        for state in self._states:
            for name, values in state.stats.items():
                entry = merged.setdefault(name, [0, 0, 0, 0])
                for index, value in enumerate(values):
                    entry[index] += value
        return {
            name: {"calls": calls, "total_s": total / 1e9,
                   "self_s": own / 1e9, "outer_s": outer / 1e9}
            for name, (calls, total, own, outer) in merged.items()
        }

    def counters(self) -> dict[str, float]:
        merged: dict[str, float] = {}
        for state in self._states:
            for name, value in state.counters.items():
                merged[name] = merged.get(name, 0) + value
        return merged

    def events(self) -> list[tuple]:
        return [event for state in self._states for event in state.events]

    def reset(self) -> None:
        """Forget everything recorded so far (threads keep their state
        objects, so wrappers running elsewhere stay valid)."""
        with self._lock:
            for state in self._states:
                state.stats.clear()
                state.counters.clear()
                state.events.clear()
            self.dropped = 0

    def snapshot(self) -> dict[str, Any]:
        """Aggregates plus raw events as one JSON-compatible document."""
        return {
            "stats": self.stats(),
            "counters": self.counters(),
            "events": [list(event) for event in self.events()],
            "dropped": self.dropped,
        }


def chrome_trace(processes: dict[int, list[list]]) -> dict[str, Any]:
    """Chrome trace-event JSON (``ph: "X"`` complete events, µs) for
    ``{pid: [event, ...]}`` with events as recorded by
    :class:`SpanRecorder`."""
    trace = []
    for pid, events in processes.items():
        for name, start, end, parent, request_id, tid in events:
            trace.append({
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "X",
                "ts": start / 1000.0,
                "dur": (end - start) / 1000.0,
                "pid": pid,
                "tid": tid,
                "args": {"parent": parent, "request": request_id},
            })
    return {"traceEvents": trace, "displayTimeUnit": "ms"}


# ----------------------------------------------------------------------
# The instrumented boundaries
# ----------------------------------------------------------------------
# A hook runs the span through ``call()`` and reads counters around it.
def _count_anneal(recorder: SpanRecorder, args: tuple, call: Callable) -> Any:
    result = call()
    recorder.count("sa.iterations", args[0].trace.iterations)
    recorder.count("sa.accepted", args[0].trace.accepted)
    return result


def _anneal_name(args: tuple) -> str:
    return "sa.anneal.disjoint" if args[0].options.disjoint else "sa.anneal.replicated"


def _count_model(recorder: SpanRecorder, args: tuple, call: Callable) -> Any:
    result = call()
    recorder.count("qp.model.variables", result.model.num_variables)
    recorder.count("qp.model.constraints", result.model.num_constraints)
    return result


def _count_nonzeros(recorder: SpanRecorder, args: tuple, call: Callable) -> Any:
    result = call()
    recorder.count("solver.arrays.nonzeros", result.matrix.nnz)
    return result


def _count_nodes(recorder: SpanRecorder, args: tuple, call: Callable) -> Any:
    result = call()
    recorder.count("solver.highs.nodes", result.nodes)
    return result


def _count_skeleton_hits(recorder: SpanRecorder, args: tuple, call: Callable) -> Any:
    result = call()
    recorder.count("qp.linearization.lookups")
    if result is not None:
        recorder.count("qp.linearization.hits")
    return result


def _count_coefficient_hits(recorder: SpanRecorder, args: tuple, call: Callable) -> Any:
    hits = args[0].hits
    result = call()
    recorder.count("costmodel.coefficients.lookups")
    if args[0].hits > hits:
        recorder.count("costmodel.coefficients.hits")
    return result


def _count_compression(recorder: SpanRecorder, args: tuple, call: Callable) -> Any:
    result = call()
    recorder.count("reduction.ratio_sum", result.compression_ratio)
    return result


def _count_restarts(recorder: SpanRecorder, args: tuple, call: Callable) -> Any:
    result = call()
    recorder.count("sa.portfolio.restarts", len(result.outcomes))
    return result


#: (module, attribute path, span name, hook).  The attribute path
#: is ``"function"`` or ``"Class.method"``; functions are patched where
#: the caller looks them up, i.e. in the importing module's namespace.
BOUNDARIES: tuple[tuple[str, str, Any, Any], ...] = (
    ("repro.api.advisor", "Advisor.advise", "api.advise", None),
    ("repro.api.request", "SolveRequest.to_dict", "api.request_codec", None),
    ("repro.api.request", "SolveRequest.from_dict", "api.request_codec", None),
    ("repro.api.request", "SolveRequest.to_json", "api.request_codec", None),
    ("repro.api.request", "SolveRequest.from_json", "api.request_codec", None),
    ("repro.api.request", "SolveRequest.canonical_key", "api.request_codec", None),
    ("repro.sqlio.workload_loader", "load_instance_from_sql", "sqlio.load", None),
    ("repro.instances.library", "generate_instance", "instances.generate", None),
    ("repro.instances.library", "tpcc_instance", "instances.generate", None),
    ("repro.costmodel.coefficients", "CoefficientCache.__init__",
     "costmodel.coefficients", None),
    ("repro.costmodel.coefficients", "CoefficientCache.coefficients",
     "costmodel.coefficients", _count_coefficient_hits),
    ("repro.partition.assignment", "feasibility_violations",
     "costmodel.evaluator", None),
    ("repro.costmodel.evaluator", "SolutionEvaluator.objective4",
     "costmodel.evaluator", None),
    ("repro.costmodel.evaluator", "SolutionEvaluator.objective6",
     "costmodel.evaluator", None),
    ("repro.qp.solver", "build_linearized_model", "qp.build", _count_model),
    ("repro.qp.linearize", "LinearizationCache.lookup", "qp.linearization",
     _count_skeleton_hits),
    ("repro.solver.model", "MipModel.to_standard_arrays", "solver.arrays",
     _count_nonzeros),
    ("repro.solver.scipy_backend", "solve_mip_scipy", "solver.highs", _count_nodes),
    ("repro.sa.annealer", "SimulatedAnnealer.run", _anneal_name, _count_anneal),
    ("repro.sa.annealer", "merge_sites", "sa.neighborhood", None),
    ("repro.sa.annealer", "move_transactions", "sa.neighborhood", None),
    ("repro.sa.annealer", "extend_replication", "sa.neighborhood", None),
    ("repro.sa.annealer", "move_components", "sa.neighborhood", None),
    ("repro.sa.subsolve", "SubproblemSolver.optimize_y_greedy", "sa.cover", None),
    ("repro.sa.subsolve", "SubproblemSolver.optimize_x_greedy", "sa.place", None),
    ("repro.sa.subsolve", "SubproblemSolver.repair_y", "sa.cover", None),
    ("repro.sa.solver", "run_portfolio", "sa.portfolio", _count_restarts),
    ("repro.api.strategies", "compress_instance", "reduction.compress",
     _count_compression),
    ("repro.api.strategies", "lift_result", "reduction.lift", None),
) + tuple(
    ("repro.costmodel.incremental", f"IncrementalEvaluator.{method}",
     "costmodel.incremental", None)
    for method in (
        "__init__", "reset", "objective6", "begin_trial", "commit",
        "rollback", "assign_x", "assign_y", "forced_y",
        "y_subproblem_inputs", "x_subproblem_inputs",
    )
)


def _make_wrapper(recorder: SpanRecorder, original: Callable, name: Any,
                  hook: Any) -> Callable:
    span = recorder.span

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        if not recorder.enabled:
            return original(*args, **kwargs)
        label = name(args) if callable(name) else name
        if hook is None:
            return span(label, original, *args, **kwargs)
        return hook(recorder, args, lambda: span(label, original, *args, **kwargs))

    wrapper.__perfbench_original__ = original
    return wrapper


class Patches:
    """The installed wrappers; :meth:`remove` restores every original."""

    def __init__(self) -> None:
        self._applied: list[tuple[Any, str, Any]] = []

    def apply(self, owner: Any, attribute: str, replacement: Any) -> None:
        original = owner.__dict__[attribute]
        self._applied.append((owner, attribute, original))
        setattr(owner, attribute, replacement)

    def remove(self) -> None:
        while self._applied:
            owner, attribute, original = self._applied.pop()
            setattr(owner, attribute, original)

    def __len__(self) -> int:
        return len(self._applied)


def _resolve(module_name: str, path: str) -> tuple[Any, str]:
    """The object owning a boundary's attribute, and the attribute."""
    owner: Any = importlib.import_module(module_name)
    *owners, attribute = path.split(".")
    for part in owners:
        owner = getattr(owner, part)
    return owner, attribute


def install(recorder: SpanRecorder) -> Patches:
    """Wrap every boundary in :data:`BOUNDARIES`; returns the patches."""
    patches = Patches()
    try:
        for module_name, path, name, hook in BOUNDARIES:
            owner, attribute = _resolve(module_name, path)
            original = owner.__dict__[attribute]
            if isinstance(original, (classmethod, staticmethod)):
                replacement = type(original)(
                    _make_wrapper(recorder, original.__func__, name, hook)
                )
            else:
                replacement = _make_wrapper(recorder, original, name, hook)
            patches.apply(owner, attribute, replacement)
    except BaseException:
        patches.remove()
        raise
    return patches


def current_attributes() -> list[Any]:
    """The attribute currently at every boundary, for checking that
    :meth:`Patches.remove` restored the originals."""
    return [
        owner.__dict__[attribute]
        for owner, attribute in (_resolve(module, path) for module, path, _, _ in BOUNDARIES)
    ]


def write_json(path: str, document: Any) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle)
