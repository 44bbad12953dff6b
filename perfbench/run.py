"""Benchmark of the ``repro`` partitioning advisor.

Run from the repository root::

    python3 perfbench/run.py --workload qp-exact --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1``
runs the same requests with span wrappers installed around the layer
boundaries and prints the per-layer metrics instead (see README.md).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# One BLAS thread, in this process and (inherited) in every child it
# starts: the benchmark runs on a few shared cores, where BLAS threads
# spinning next to the solver would time the scheduler, not the code.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

WORKLOADS = ("qp-exact", "sa-anneal", "service-mix")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="solve time to measure (whole cycles)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a full "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import common

    if args.workload in ("qp-exact", "sa-anneal"):
        import inproc as module
    else:
        import service_mix as module
    outcome = module.run(args.workload, args.seed, args.seconds,
                         bool(args.trace), tiny=args.tiny)
    units = common.PER_LAYER if args.trace else common.END_TO_END
    for error in outcome.errors:
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps({"environment": common.environment(), **outcome.notes}))
    print(json.dumps(outcome.document(units)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
