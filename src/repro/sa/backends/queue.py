"""The restart wire format: JSON task envelopes in, result envelopes out.

This is the wire format for moving the portfolio beyond one box.  Each
restart is serialised into a *task envelope* — a JSON document built on
:class:`~repro.api.request.SolveRequest`'s exact round-trip format, so a
task carries everything a remote worker needs (instance, parameters,
single-run options, seed) and nothing it doesn't (no pickled arrays, no
process state).  A worker decodes the envelope, rebuilds the
coefficients, runs the anneal and returns a *result envelope*; both
sides are plain JSON strings, so any transport (the socket driver's
in-process loop, a TCP connection, a real message queue) can carry
them.

Determinism contract:

* task envelopes contain only deterministic fields and are dumped with
  sorted keys, so encoding the same restart twice — including on retry,
  whose attempt bookkeeping stays driver-side — yields identical bytes
  (absent a running portfolio deadline, which is folded into the
  per-run ``time_limit`` at dispatch time);
* result envelopes exclude wall-clock measurements, so *replaying* a
  task envelope returns a byte-identical result envelope — the
  at-least-once delivery of a real queue (retries, duplicate
  deliveries) cannot change the portfolio's best;
* a worker that raises mid-restart is retried: the task is requeued
  (bounded by ``max_retries`` attempts per restart) and, because the
  task is a pure function of the envelope, the retry reproduces exactly
  the outcome the failed attempt would have returned.

The ``"queue"`` backend is
:class:`~repro.sa.transport.socket_backend.SocketTransportBackend` with
zero workers: its driver runs every envelope through a
:class:`QueueWorker` in-process, so the whole protocol is testable
locally; ``jobs`` does not parallelise it (that is what the
``"process"`` backend is for).
"""

from __future__ import annotations

import json
from dataclasses import asdict
from typing import Any

import numpy as np

from repro.costmodel.coefficients import CostCoefficients, build_coefficients
from repro.exceptions import OptionsError
from repro.sa.backends.base import (
    RestartOutcome,
    RestartTask,
    restart_options,
    run_restart,
)
from repro.sa.options import SaOptions

#: Version stamp of both envelope documents.  Version 2 extended the
#: task envelope's options with the transport tuning fields added for
#: the socket backend (``workers``, ``max_retries``, heartbeat/backoff
#: knobs) — reset to defaults by ``restart_options``, but present in
#: the document, so a version-1 reader would reject the constructor
#: keywords.  Version 3 added the online re-partitioning fields: the
#: ``warm_start`` options keyword (a new ``SaOptions`` constructor
#: argument present in every options document) and, when a migration
#: block is attached, the request's ``current_layout``/
#: ``migration_cost`` members.  Version 4 dropped the ``incremental``
#: options keyword (the annealer always evaluates incrementally), so a
#: version-3 task would carry a keyword this reader refuses.  The socket
#: transport negotiates this version at connect.
ENVELOPE_FORMAT_VERSION = 4
TASK_KIND = "sa-restart"
RESULT_KIND = "sa-restart-result"


# ----------------------------------------------------------------------
# Task envelopes (driver -> worker)
# ----------------------------------------------------------------------
def encode_restart_task(
    coefficients: CostCoefficients,
    num_sites: int,
    options: SaOptions,
    task: RestartTask,
    remaining: float | None = None,
) -> str:
    """Serialise one restart into its JSON task envelope.

    The payload's ``request`` member is a full
    :class:`~repro.api.request.SolveRequest` document (strategy
    ``"sa"``, single-run options, the task's seed), so the envelope
    round-trips through the same format a service front end would
    accept.  ``remaining`` folds what is left of a portfolio budget into
    the run's ``time_limit`` at dispatch time.  Retry bookkeeping stays
    driver-side (:class:`~repro.sa.backends.retry.RetryTracker`) so a
    retried task re-encodes to the exact same bytes — transports can
    use the envelope itself as a dedup/idempotency key.
    """
    from repro.api.request import SolveRequest

    single = restart_options(options, task.seed, remaining)
    option_fields = asdict(single)
    # disjoint rides on the request's replication mode, exactly like the
    # advisor's "sa" strategy adapter expects it.
    disjoint = option_fields.pop("disjoint")
    # A migration block rides as the request's layout fields; the
    # worker reattaches it canonically (c5 is a pure function of the
    # instance's widths and the layout, so the rebuild is bitwise).
    migration = coefficients.migration
    request = SolveRequest(
        instance=coefficients.instance,
        num_sites=num_sites,
        parameters=coefficients.parameters,
        allow_replication=not disjoint,
        strategy="sa",
        options=option_fields,
        seed=task.seed,
        current_layout=None if migration is None else migration.layout,
        migration_cost=0.0 if migration is None else migration.migration_cost,
    )
    envelope = {
        "format_version": ENVELOPE_FORMAT_VERSION,
        "kind": TASK_KIND,
        "restart": task.restart,
        "request": request.to_dict(),
    }
    return json.dumps(envelope, sort_keys=True)


def _load_envelope(envelope: str, kind: str) -> dict[str, Any]:
    """Parse an envelope and check its version stamp and kind."""
    payload = json.loads(envelope)
    version = payload.get("format_version")
    if version != ENVELOPE_FORMAT_VERSION:
        raise OptionsError(
            f"unsupported {kind!r} envelope format_version {version!r} "
            f"(this build reads version {ENVELOPE_FORMAT_VERSION})"
        )
    if payload.get("kind") != kind:
        raise OptionsError(
            f"expected a {kind!r} envelope, got kind {payload.get('kind')!r}"
        )
    return payload


def decode_restart_task(envelope: str) -> dict[str, Any]:
    """Parse and validate a task envelope (returns the payload dict)."""
    return _load_envelope(envelope, TASK_KIND)


# ----------------------------------------------------------------------
# Result envelopes (worker -> driver)
# ----------------------------------------------------------------------
def encode_restart_result(outcome: RestartOutcome) -> str:
    """Serialise one finished restart.  Deterministic fields only — no
    wall-clock — so replaying a task envelope is byte-identical."""
    envelope = {
        "format_version": ENVELOPE_FORMAT_VERSION,
        "kind": RESULT_KIND,
        "restart": outcome.restart,
        "seed": outcome.seed,
        "objective6": float(outcome.objective6),
        "x": np.asarray(outcome.x, dtype=int).tolist(),
        "y": np.asarray(outcome.y, dtype=int).tolist(),
        "iterations": int(outcome.iterations),
        "accepted": int(outcome.accepted),
        "accepted_worse": int(outcome.accepted_worse),
        "outer_loops": int(outcome.outer_loops),
    }
    return json.dumps(envelope, sort_keys=True)


def decode_restart_result(envelope: str, wall_time: float = 0.0) -> RestartOutcome:
    """Rebuild a :class:`RestartOutcome` from a result envelope.

    ``wall_time`` is supplied by the driver (it is transport-dependent
    and deliberately not part of the wire format).
    """
    payload = _load_envelope(envelope, RESULT_KIND)
    return RestartOutcome(
        restart=int(payload["restart"]),
        seed=payload["seed"],
        x=np.asarray(payload["x"], dtype=bool),
        y=np.asarray(payload["y"], dtype=bool),
        objective6=float(payload["objective6"]),
        iterations=int(payload["iterations"]),
        accepted=int(payload["accepted"]),
        accepted_worse=int(payload["accepted_worse"]),
        outer_loops=int(payload["outer_loops"]),
        wall_time=wall_time,
    )


def _check_wire_safe(coefficients: CostCoefficients) -> None:
    """Reject coefficients the wire format cannot represent faithfully.

    A task envelope carries only ``(instance, parameters)`` — the
    worker *rebuilds* the coefficient arrays canonically.  Coefficients
    built non-canonically (custom indicators, hand-tweaked weights)
    would silently anneal a different problem on the queue than on the
    serial/process backends, breaking the cross-backend bitwise
    contract, so they are refused up front.  One canonical rebuild per
    portfolio run — the same work every queue worker does per task.
    """

    def arrays(c: CostCoefficients) -> tuple[np.ndarray, ...]:
        ind = c.indicators
        return (c.weights, c.c1, c.c2, c.c3, c.c4, ind.alpha, ind.beta,
                ind.gamma, ind.delta, ind.phi, ind.rows)

    rebuilt = build_coefficients(coefficients.instance, coefficients.parameters)
    for shipped, canonical in zip(arrays(coefficients), arrays(rebuilt)):
        if shipped.shape != canonical.shape or not np.array_equal(
            shipped, canonical
        ):
            raise OptionsError(
                "the queue and socket backends ship (instance, "
                "parameters) and rebuild coefficients canonically, but these "
                "coefficients differ from build_coefficients(instance, "
                "parameters) — non-canonical coefficients (custom "
                "indicators or edited arrays) cannot go over the wire; "
                "use the serial or process backend for them"
            )


class QueueWorker:
    """The worker side of the queue protocol: one envelope in, one out.

    Stateless and pure: the returned result envelope is a function of
    the task envelope alone, which is what makes retries and duplicate
    deliveries safe.  Subclass and override :meth:`run` (calling
    ``super().run``) to inject faults in tests.
    """

    def run(self, envelope: str) -> str:
        from repro.api.request import SolveRequest

        payload = decode_restart_task(envelope)
        request = SolveRequest.from_dict(payload["request"])
        options = SaOptions(
            **dict(request.options), disjoint=not request.allow_replication
        )
        coefficients = build_coefficients(request.instance, request.parameters)
        if request.current_layout is not None:
            from repro.costmodel.coefficients import attach_migration

            coefficients = attach_migration(
                coefficients,
                request.current_layout,
                request.migration_cost,
                request.num_sites,
            )
        # The envelope already holds single-run options, so the
        # restart_options pass inside run_restart changes nothing.
        return encode_restart_result(
            run_restart(
                coefficients,
                request.num_sites,
                options,
                int(payload["restart"]),
                request.seed,
                deadline=None,
            )
        )
