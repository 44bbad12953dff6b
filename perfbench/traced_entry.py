"""Run the advisor service with the benchmark's span wrappers.

    python perfbench/traced_entry.py SPANS.json [service args...]

Installs :mod:`tracing`'s wrappers before anything of ``repro`` runs,
serves as ``python -m repro.service`` would, then writes the recorded spans (aggregates
plus raw events) to ``SPANS.json``.  The service tags every span of a
solve with the request's canonical key, which the benchmark client
uses to correlate server spans with its own requests, and a STATS frame
discards everything recorded so far: the client sends one after its
warm-up request, so the spans cover the measured requests only.
"""

from __future__ import annotations

import sys

import tracing


def main(argv: list[str]) -> int:
    spans_path, *rest = argv
    recorder = tracing.SpanRecorder()
    patches = tracing.install(recorder)
    from repro.service.__main__ import main as entry
    from repro.service.core import AsyncAdvisor

    solve = AsyncAdvisor._solve

    def keyed_solve(self, pending):
        recorder.set_request(pending.key[:16])
        return solve(self, pending)

    patches.apply(AsyncAdvisor, "_solve", keyed_solve)
    stats = AsyncAdvisor.stats

    def marking_stats(self):
        recorder.reset()
        return stats(self)

    patches.apply(AsyncAdvisor, "stats", marking_stats)
    recorder.enabled = True
    try:
        code = entry(rest)
    finally:
        recorder.enabled = False
        patches.remove()
        tracing.write_json(spans_path, recorder.snapshot())
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
