"""``python -m benchmarks.layerbench {run,trace,bench,compare} ...``

``run``      one workload, untraced: every end-to-end metric, oracle checks
``trace``    one workload, traced: every per-layer metric
``bench``    the driver's form: ``--trace 0`` is ``run``, ``--trace 1`` is ``trace``
``compare``  two result sets against the bounds in ``BENCHMARK.json``
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from . import env
from .workloads import GRID, WORKLOADS


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="python -m benchmarks.layerbench",
                                description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)
    spec = env.load_spec()
    for name in ("run", "trace", "bench"):
        s = sub.add_parser(name)
        s.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
        s.add_argument("--seed", type=int, default=0,
                       help="seeds the right-hand sides (the matrix is fixed)")
        s.add_argument("--seconds", type=float, default=spec["run_seconds"],
                       help="how long the untraced run measures")
        s.add_argument("--grid", type=int, default=GRID,
                       help="grid edge (smoke tests only; the metrics are "
                            "defined at the default)")
        s.add_argument("--out", type=Path, default=None,
                       help="result file (default: "
                            "benchmarks/layerbench/results/)")
        if name == "bench":
            s.add_argument("--trace", type=int, choices=(0, 1), required=True)
    c = sub.add_parser("compare")
    c.add_argument("a", type=Path, help="base result set (directory)")
    c.add_argument("b", type=Path, help="result set to judge against it")
    return p


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "compare":
        from .compare import compare

        return compare(args.a, args.b)
    env.pin()
    from . import harness
    from .run import run
    from .trace import trace

    traced = args.command == "trace" or getattr(args, "trace", 0) == 1
    problem = harness.setup(args.workload, args.grid, args.seed)
    result = trace(problem) if traced else run(problem, args.seconds)
    print(f"result file: {result.write(args.out)}")
    result.report()
    return 0


if __name__ == "__main__":
    sys.exit(main())
