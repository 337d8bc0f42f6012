"""``python -m tools.repin`` — recompute every pin of ``tests/golden/pins.json``.

Usage::

    PYTHONPATH=src python -m tools.repin --check
    PYTHONPATH=src python -m tools.repin --pr N --reason "what moved and why"

Every entry is recomputed by ``tests/pins.py``.  ``--check`` writes nothing
and exits 1 when a pin moved.  Otherwise only the entries that moved are
rewritten, with ``pr`` and ``why`` set to ``--pr`` and ``--reason``, and one
row is printed per moved factor pin: η∞ before and after for b = ones and
for b = A·x₀, ``total_flops``, factor bytes and peak bytes ("before" is what
the entry kept).  Other moved pins print ``key: old → new``.

Exit codes: 0 nothing moved (or moved and re-pinned), 1 moved under
``--check``, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Dict, List, Optional

from tests import pins

COLUMNS = (("eta_inf_ones", "η∞ b=1", "{:.4e}"),
           ("eta_inf_ax0", "η∞ b=Ax₀", "{:.4e}"),
           ("total_flops", "total_flops", "{:.10g}"),
           ("factor_bytes", "factor B", "{:d}"),
           ("peak_bytes", "peak B", "{:d}"))


def table(rows: List[Any]) -> str:
    """One markdown row per moved factor pin: ``before → after`` per fact."""
    lines = ["| pin | " + " | ".join(h for _, h, _ in COLUMNS) + " |",
             "|---" * (len(COLUMNS) + 1) + "|"]
    for key, old, new in rows:
        cells = [f"{fmt.format(old[f])} → {fmt.format(new[f])}"
                 for f, _, fmt in COLUMNS]
        lines.append(f"| {key} | " + " | ".join(cells) + " |")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    p = argparse.ArgumentParser(prog="python -m tools.repin",
                                description=__doc__.splitlines()[0])
    p.add_argument("--check", action="store_true",
                   help="recompute only: exit 1 if a pin moved")
    p.add_argument("--pr", type=int, help="number of the change re-pinning")
    p.add_argument("--reason", help="why the moved pins moved")
    args = p.parse_args(argv)
    if not args.check and (args.pr is None or not args.reason):
        p.error("re-pinning needs --pr and --reason (or pass --check)")

    current = pins.load()
    moved: Dict[str, Dict[str, Any]] = {}
    for key, entry in current.items():
        got = pins.compute(key)
        if any(entry.get(field) != got[field] for field in got):
            moved[key] = got
    if not moved:
        print(f"{len(current)} pins, none moved")
        return 0

    rows = [(k, current[k]["facts"], got["facts"])
            for k, got in moved.items() if "facts" in got]
    for key, got in moved.items():
        if "facts" not in got:
            print(f"{key}: {current[key]['value']!r} → {got['value']!r}")
    if rows:
        print(table(rows))
    if args.check:
        print(f"{len(moved)} of {len(current)} pins moved; re-pin with "
              "`python -m tools.repin --pr N --reason ...` if that is meant",
              file=sys.stderr)
        return 1
    for key, got in moved.items():
        current[key] = {**current[key], **got,
                        "pr": args.pr, "why": args.reason}
    pins.PINS.write_text(pins.dump(current), encoding="utf-8")
    print(f"re-pinned {len(moved)} of {len(current)} pins in {pins.PINS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
