"""``python -m tools.benchdiff`` — CI gate comparing two benchmark files.

Usage::

    python -m tools.benchdiff BASELINE CURRENT \
        [--time-warn 0.25] [--bytes-fail 0.10] [--error-fail 10] \
        [--speedup-floor 2.0] [--fail-on-warn]

Exit codes: 0 no findings (or warnings only), 1 failures (or warnings
under ``--fail-on-warn``), 2 usage errors (unreadable/mismatched files).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from tools.benchdiff import Thresholds, compare, load_artifact, render_findings


def run(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchdiff",
        description="compare two BENCH_*.json / RunReport artifacts")
    parser.add_argument("baseline", help="baseline JSON artifact")
    parser.add_argument("current", help="current JSON artifact")
    parser.add_argument("--time-warn", type=float, default=0.25,
                        metavar="RATIO",
                        help="warn when a time metric grows by more than "
                             "this fraction (default 0.25)")
    parser.add_argument("--bytes-fail", type=float, default=0.10,
                        metavar="RATIO",
                        help="fail when a byte metric grows by more than "
                             "this fraction (default 0.10)")
    parser.add_argument("--error-fail", type=float, default=10.0,
                        metavar="FACTOR",
                        help="fail when the backward error degrades by "
                             "more than this factor (default 10)")
    parser.add_argument("--speedup-floor", type=float, default=2.0,
                        metavar="FACTOR",
                        help="fail when a speedup metric (e.g. the blocked "
                             "multi-RHS solve) drops below this absolute "
                             "factor (default 2.0)")
    parser.add_argument("--fail-on-warn", action="store_true",
                        help="treat warnings as failures (exit 1)")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors already
        return int(exc.code or 0)

    if (args.time_warn < 0 or args.bytes_fail < 0 or args.error_fail < 1.0
            or args.speedup_floor < 0):
        print("benchdiff: thresholds must be >= 0 (error factor >= 1)",
              file=sys.stderr)
        return 2

    try:
        baseline = load_artifact(args.baseline)
        current = load_artifact(args.current)
        findings, notes = compare(
            baseline, current,
            Thresholds(time_warn=args.time_warn,
                       bytes_fail=args.bytes_fail,
                       error_fail=args.error_fail,
                       speedup_floor=args.speedup_floor))
    except ValueError as exc:
        print(f"benchdiff: {exc}", file=sys.stderr)
        return 2

    print(render_findings(findings, notes))
    if any(f.severity == "fail" for f in findings):
        return 1
    if findings and args.fail_on_warn:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(run())
