"""The ``service-mix`` workload: a ``python -m repro.service`` process
with default config, driven by a closed loop of two client connections
from this process.

The request sequence is built in cycles of six blocks, one block per
request template.  A block is nine requests: one with a canonical key
never sent before (the template's instance under the cycle's tenant
name), the same request again (it usually
arrives while the first is in flight, so it coalesces), and seven
repeats, one per template plus one more of the block's own, each of a
key of that template drawn from the earlier blocks.  One request in nine
is therefore fresh however long the run, so throughput does not drift
as the result cache fills, and every cycle holds the same number of
requests of each template.

The latency metrics are those of the requests that need a solve (the
fresh ones), taken as in process: each template's median over the
cycles, then percentiles over the templates.  Result-cache hits wait
for the interpreter lock behind the solve thread in steps of its switch
interval, so their latencies form clusters and a percentile over all
requests jumps between clusters from run to run; hits are reported per
layer (``service.repeat_p50_s``) and count in ``solves_per_s``.

A tenant's schema and workload equal the template's and the solver
seeds are the same in every cycle, so every cycle does the same solving
work: fresh keys differ from earlier ones by instance name only.
"""

from __future__ import annotations

import json
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any

import numpy as np

import common
import tracing
from inproc import Row, generate_instances, solver_seeds
from repro.api.request import SolveRequest
from repro.exceptions import ReproError, TransportError
from repro.model.instance import ProblemInstance
from repro.sa.transport.protocol import encode_frame
from repro.service.wire import KIND_ADVISE, KIND_REPORT, report_from_wire

#: The request templates: (row, compression).
TEMPLATES = (
    (Row("tpcc", 2, "auto"), "off"),
    (Row("tpcc", 3, "auto"), "off"),
    (Row("rndAt16x100", 4, "sa"), "off"),
    (Row("rndBt16x15", 4, "qp"), "off"),
    (Row("rndDupAt8x120", 4, "sa"), "lossless"),
    (Row("rndAt8x15u50", 4, "sa", disjoint=True), "off"),
)
TINY_TEMPLATES = (
    (Row("rndAt4x15", 2, "sa"), "off"),
    (Row("rndBt4x15", 2, "qp"), "off"),
)
#: Duration of one cycle on the 2-core machine the benchmark was tuned
#: on; sets the number of cycles a run of ``--seconds`` serves.
CYCLE_SECONDS = 3.5
#: Seeds of the untimed warm-up requests lie outside the drawn range.
WARMUP_SEED = 2**31


@dataclass
class Item:
    key: str
    label: str
    frame: bytes  # the ADVISE frame, encoded once outside the timed window


class Sequence:
    """The deterministic request sequence of one seed."""

    def __init__(self, templates, instances, seed: int):
        self.templates = templates
        self.instances = instances
        self.rng = np.random.default_rng(seed)
        self.items: list[Item] = []
        self.cycles = 0
        self.seeds = solver_seeds(len(templates))
        self.sent: list[list[Item]] = [[] for _ in templates]
        self.cycle_length = len(templates) * (3 + len(templates))

    def request(self, template: int, seed: int, tenant: str | None = None) -> SolveRequest:
        row, compression = self.templates[template]
        instance = self.instances[row.instance]
        if tenant is not None:
            instance = ProblemInstance(instance.schema, instance.workload,
                                       name=f"{instance.name}@{tenant}")
        return SolveRequest(
            instance, num_sites=row.sites,
            allow_replication=not row.disjoint, strategy=row.strategy,
            seed=seed, compression=compression,
        )

    def extend(self, cycles: int) -> None:
        """Append ``cycles`` cycles; the template order and the repeats
        come from the workload seed."""
        for _ in range(cycles):
            tenant = f"tenant{self.cycles}"
            self.cycles += 1
            for template in self.rng.permutation(len(self.templates)):
                request = self.request(int(template), self.seeds[template], tenant)
                fresh = Item(request.canonical_key(),
                             self.templates[template][0].label,
                             encode_frame(KIND_ADVISE, id=1, request=request.to_dict()))
                self.items += [fresh, fresh]
                for other in self.rng.permutation([*range(len(self.templates)), template]):
                    # Before a template's first block, its only key is
                    # the fresh one of this block.
                    earlier = self.sent[other] or [fresh]
                    self.items.append(earlier[int(self.rng.integers(len(earlier)))])
                self.sent[template].append(fresh)


class Server:
    """One advisor service process (untraced, or through
    ``traced_entry.py`` writing its spans to ``spans``)."""

    def __init__(self, spans: str | None = None):
        if spans is None:
            command = [sys.executable, "-m", "repro.service"]
        else:
            command = [sys.executable, str(common.HERE / "traced_entry.py"), spans]
        self.process = subprocess.Popen(
            command, cwd=common.ROOT, env=common.child_env(),
            stdout=subprocess.PIPE, text=True,
        )
        line = self.process.stdout.readline()
        if "listening on" not in line:
            self.process.kill()
            self.process.wait()
            raise RuntimeError(f"service did not start: {line!r}")
        host, port = line.rsplit(" ", 1)[1].strip().rsplit(":", 1)
        self.host, self.port = host, int(port)

    def client(self):
        from repro.service.client import ServiceClient

        return ServiceClient(self.host, self.port, timeout=120.0)

    def stop(self) -> None:
        try:
            with self.client() as client:
                client.shutdown()
            self.process.wait(timeout=60)
        finally:
            if self.process.poll() is None:
                self.process.kill()
                self.process.wait()
            self.process.stdout.close()


def start_and_warm(templates, instances, spans: str | None = None) -> Server:
    server = Server(spans)
    with server.client() as client:
        sequence = Sequence(templates, instances, 0)
        client.advise(sequence.request(0, WARMUP_SEED))
    return server


class Phase:
    """Drive ``cycles`` whole cycles of the sequence over two
    connections."""

    def __init__(self, server: Server, sequence: Sequence, cycles: int,
                 outcome: common.Outcome, *, client_events: list | None = None,
                 after: "Phase | None" = None):
        self.server = server
        self.sequence = sequence
        self.outcome = outcome
        self.client_events = client_events
        self.lock = threading.Lock()
        # A phase that continues another one on the same server picks up
        # its position in the sequence and the keys it already sent.
        self.start = after.position if after is not None else 0
        self.end = self.start + cycles * sequence.cycle_length
        self.position = self.start
        self.seen: set[str] = set(after.seen) if after is not None else set()
        self.samples: list[tuple[bool, str, float]] = []  # (fresh, label, latency)
        self.cycle_starts: list[float] = []
        self.replies: dict[str, Any] = {}

    def _next(self) -> tuple[Item, bool] | None:
        with self.lock:
            length = self.sequence.cycle_length
            if self.position >= self.end:
                return None
            if self.position % length == 0:
                self.cycle_starts.append(time.perf_counter())
            if self.position >= len(self.sequence.items):
                self.sequence.extend(1)
            item = self.sequence.items[self.position]
            self.position += 1
            fresh = item.key not in self.seen
            self.seen.add(item.key)
            return item, fresh

    def _client_loop(self, name: str) -> None:
        """A closed loop on one connection.  Requests go out as frames
        encoded before the timed window; replies are decoded as the
        client library decodes them.  Later replies for a key must equal
        the first one (a cached or coalesced report is the same object);
        :class:`~repro.api.SolveReport` objects are rebuilt after the
        timed window, for the checks."""
        with self.server.client() as client:
            endpoint = client.endpoint
            while (claimed := self._next()) is not None:
                item, fresh = claimed
                started = time.perf_counter_ns()
                try:
                    endpoint.send_raw(item.frame)
                    frame = endpoint.recv(120.0)
                    if frame is None:
                        raise TransportError("no reply within 120 s")
                except ReproError as error:
                    with self.lock:
                        self.outcome.record(f"connection lost: {error}", item.label)
                    return
                ended = time.perf_counter_ns()
                if frame.get("kind") != KIND_REPORT:
                    with self.lock:
                        self.outcome.record(
                            f"{frame.get('kind')}: {frame.get('message')}", item.label)
                    continue
                report = frame["report"]
                with self.lock:
                    self.samples.append((fresh, item.label, (ended - started) / 1e9))
                    if self.client_events is not None:
                        self.client_events.append(
                            ("client.advise", started, ended, None,
                             item.key[:16], name))
                    first = self.replies.setdefault(item.key, report)
                error = (None if first is report or first == report
                         else "reply differs from the first one for its canonical key")
                with self.lock:
                    self.outcome.record(error, item.label)

    def run(self) -> float:
        self.started = time.perf_counter()
        threads = [threading.Thread(target=self._client_loop, args=(f"client-{n}",))
                   for n in (1, 2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        self.ended = time.perf_counter()
        return self.ended - self.started

    def per_cycle(self) -> list[float]:
        """Requests answered per second in each cycle, a cycle lasting
        from its first request to the next cycle's first."""
        bounds = self.cycle_starts + [self.ended]
        return [
            self.sequence.cycle_length / (end - start)
            for start, end in zip(bounds, bounds[1:])
        ]

    def check_replies(self) -> list[float]:
        """Full output checks on the first reply of every key; returns
        objective / single-site cost of the keys of the first cycle (the
        same keys whatever the run's length)."""
        first_cycle = {item.key for item in self.sequence.items[:self.sequence.cycle_length]}
        ratios = []
        for key, payload in self.replies.items():
            error, ratio = common.check_report(report_from_wire(payload))
            self.outcome.record(error, f"check {key[:12]}")
            if key in first_cycle:
                ratios.append(ratio)
        return ratios


def _answer(report: dict) -> tuple:
    """What a traced reply must share with the untraced one (its timings
    differ)."""
    result = report["result"]
    return result["objective"], report["strategy"], result["x"], result["y"]


def _stats_delta(before: dict, after: dict) -> dict:
    """Counter increments between two service STATS documents."""
    delta = {}
    for key, value in after.items():
        if isinstance(value, dict):
            delta[key] = _stats_delta(before[key], value)
        else:
            delta[key] = value - before[key]
    return delta


def run(workload: str, seed: int, seconds: float, trace: bool,
        tiny: bool = False) -> common.Outcome:
    templates = TINY_TEMPLATES if tiny else TEMPLATES
    outcome = common.Outcome()
    rows = tuple(row for row, _ in templates)
    totals, generation = [], []
    server = None
    try:
        for repeat in range(common.SETUP_REPEATS):
            started = time.perf_counter()
            instances = generate_instances(rows)
            generation.append(time.perf_counter() - started)
            server = start_and_warm(templates, instances)
            totals.append(time.perf_counter() - started)
            if repeat + 1 < common.SETUP_REPEATS:
                server.stop()
        sequence = Sequence(templates, instances, seed)
        sequence.extend(cycle_count(seconds))
        if trace:
            return _traced(server, sequence, seconds, outcome, common.median(generation))
        return _timed(server, sequence, seconds, outcome, common.median(totals))
    finally:
        if server is not None and server.process.poll() is None:
            server.stop()


def _server_stats(server: Server) -> dict:
    with server.client() as client:
        return client.stats()


def cycle_count(seconds: float) -> int:
    """Cycles of a run of about ``seconds``.  The count, not a deadline,
    ends the run: each cycle adds results to the service's cache, so
    runs of one length must serve the same cycles for their memory
    figures to compare."""
    return max(1, round(seconds / CYCLE_SECONDS))


def _timed(server, sequence, seconds, outcome, setup_s):
    before = _server_stats(server)
    cpu = common.pid_cpu(server.process.pid)
    phase = Phase(server, sequence, cycle_count(seconds), outcome)
    phase.run()
    cpu = common.pid_cpu(server.process.pid) - cpu
    peak = common.pid_peak_rss_mb(server.process.pid)
    stats = _stats_delta(before, _server_stats(server))
    server.stop()
    answered = len(phase.samples)
    solved: dict[str, list[float]] = {}
    for fresh, label, latency in phase.samples:
        if fresh:
            solved.setdefault(label, []).append(latency)
    per_template = [common.median(latencies) for latencies in solved.values()]
    ratios = phase.check_replies()
    outcome.metrics.update({
        "setup_s": setup_s,
        "solves_per_s": common.median(phase.per_cycle()),
        "latency_p50_s": common.median(per_template),
        "latency_p90_s": common.p90(per_template),
        "cpu_per_solve_s": cpu / answered,
        "peak_rss_mb": peak,
    })
    outcome.metrics.update(common.cost_ratio(ratios))
    outcome.notes.update({
        "samples": answered,
        "cycle_throughputs": [round(x, 2) for x in phase.per_cycle()],
        "cycles": phase.position // sequence.cycle_length,
        "service": stats,
    })
    return outcome


def _traced(server, sequence, seconds, outcome, generate_s):
    """One untraced cycle on the warm server, then a traced server
    serving the same cycle (the reference for identical replies and the
    overhead) and the rest of the run's cycles."""
    before = _server_stats(server)
    reference = Phase(server, sequence, 1, outcome)
    untraced_s = reference.run()
    stats = _stats_delta(before, _server_stats(server))
    server.stop()
    reference.check_replies()

    common.OUT.mkdir(exist_ok=True)
    spans = common.OUT / "spans-service-mix.json"
    traced_server = start_and_warm(
        sequence.templates, sequence.instances, str(spans)
    )
    client_events: list = []
    try:
        _server_stats(traced_server)  # drops the warm-up's spans
        first = Phase(traced_server, sequence, 1, outcome,
                      client_events=client_events)
        traced_first_s = first.run()
        rest = Phase(traced_server, sequence, cycle_count(seconds) - 1,
                     outcome, client_events=client_events, after=first)
        rest.run()
    finally:
        traced_server.stop()
    for key, reply in first.replies.items():
        outcome.record(
            None if _answer(reference.replies[key]) == _answer(reply)
            else "traced reply differs from untraced", f"traced {key[:12]}",
        )
    document = json.loads(spans.read_text())
    cycles = cycle_count(seconds)
    metrics = common.layer_metrics(document["stats"], document["counters"], cycles)
    fresh = [latency for is_fresh, _, latency in reference.samples if is_fresh]
    repeat = [latency for is_fresh, _, latency in reference.samples if not is_fresh]
    metrics.update(common.cli_probe())
    metrics.update({
        "instances.generate.s": generate_s,
        "service.result_cache.hit_ratio": stats["result_cache_hits"] / stats["received"],
        "service.coalesced": stats["coalesced"],
        "service.rejected": stats["rejected_queue_full"] + stats["rejected_rate_limited"],
        "service.fresh_p50_s": common.median(fresh),
        "service.repeat_p50_s": common.median(repeat),
        "trace.overhead": traced_first_s / untraced_s,
    })
    outcome.metrics.update(metrics)
    path = common.OUT / "trace-service-mix.json"
    tracing.write_json(str(path), tracing.chrome_trace(
        {1: client_events, 2: document["events"]}
    ))
    outcome.notes.update({
        "traced_cycles": cycles,
        "trace_file": str(path.relative_to(common.ROOT)),
        "service": stats,
    })
    return outcome
