"""Saving and loading factorizations.

A factorization of a large matrix is expensive; production workflows save
it to disk and reload it for later solve campaigns (many right-hand sides
arriving over time).  The on-disk format is a single ``.npz`` archive
holding every block array plus a small JSON header describing the symbolic
structure, configuration, and permutation — no pickle, so archives are
portable and safe to load.

The compressed representation is stored as-is: a Minimal Memory
factorization's archive is proportionally smaller than a dense one, which
is itself part of the paper's value proposition (a τ-accurate factorization
as a compact reusable preconditioner).
"""

from __future__ import annotations

import io
import json
import zipfile
from dataclasses import asdict, fields, replace
from pathlib import Path
from typing import Any, Dict, List, Union

import numpy as np

from repro.config import SolverConfig
from repro.core.factor import NumericFactor
from repro.lowrank.block import LowRankBlock
from repro.symbolic.structure import (
    SymbolicBlock,
    SymbolicColumnBlock,
    SymbolicFactor,
)

#: format version written into every factor archive
FORMAT_VERSION = 1

#: ``SolverConfig`` fields that no longer exist but that archives written
#: while they did still carry.  ``adaptive`` was only ever non-null beside
#: ``strategy="adaptive"``, which ``SolverConfig`` itself now rejects;
#: ``backend`` named the kernel implementation, and ``"numpy"`` — today's
#: one kernel module — was the only one left when it retired; ``seed`` was
#: never read.  ``storage_dtype`` did change the stored factors: it
#: narrowed every off-diagonal block.  Those blocks load in the dtype they
#: were saved in, so such an archive solves as it did.
#: ``variant`` pinned a loop order; an explicit one names the strategy it
#: ran under (:func:`config_from_header`).  ``recompress_updates=False``
#: only changed how the stored factors were computed, and
#: ``left_looking=True`` only when their storage was allocated — every
#: column block now is, in its own task.  ``watchdog_timeout`` and
#: ``sanitize`` only guarded the retired worker pool.
#: ``pivot_growth_limit`` and ``pivot_threshold`` were never set by a
#: caller or moved by the ladder: the pivoting kernels' own bound
#: (``1e8``) and static-pivot floor (``1e-14``) are the ones in force.
RETIRED_CONFIG_FIELDS = ("accumulate_updates", "trace", "scheduler",
                         "adaptive", "backend", "seed", "storage_dtype",
                         "variant", "recompress_updates", "left_looking",
                         "watchdog_timeout", "sanitize", "pivot_growth_limit",
                         "pivot_threshold")

#: ``RecoveryPolicy`` fields that no longer exist but that a stored
#: ``config.recovery`` may still carry: the cadence and on-fault switch of
#: the retired mid-factorization restart archives, the seeded retry
#: backoff and its seed, which only spaced the retired worker pool's
#: competing retries, and the ladder's shape knobs, now the constants of
#: :mod:`repro.runtime.recovery` (no caller set them; an armed run always
#: keeps a block dense on a compression fault).
RETIRED_POLICY_FIELDS = ("checkpoint_every", "checkpoint_on_fault",
                         "retry_backoff", "seed", "tau_shrink", "tau_floor",
                         "strategy_downgrade", "dense_fallback",
                         "pivot_relax", "pivot_u_floor", "refine_window",
                         "refine_drop")


def config_from_header(stored: Dict[str, Any]) -> SolverConfig:
    """The :class:`SolverConfig` stored in an archive header.

    Exactly the :data:`RETIRED_CONFIG_FIELDS` (and, inside a stored
    recovery policy, the :data:`RETIRED_POLICY_FIELDS`) are dropped, so
    archives outlive the options they were written under; any other
    unknown key is rejected by name — a header is outside input.  A
    stored explicit ``variant`` first re-derives the strategy: ``cuf`` is
    minimal-memory, every later loop order just-in-time.  A stored
    ``threads`` reads as 1: the worker pool is retired, and its factors
    were bit-identical to the sequential engine's.
    """
    known = {f.name for f in fields(SolverConfig)}
    unknown = sorted(set(stored) - known - set(RETIRED_CONFIG_FIELDS))
    if unknown:
        raise ValueError(
            f"archive config carries unknown field(s) {unknown}")
    cfg = {k: v for k, v in stored.items() if k in known}
    if "threads" in cfg:
        cfg["threads"] = 1
    if stored.get("variant") is not None:
        cfg["strategy"] = {"cuf": "minimal-memory"}.get(stored["variant"],
                                                        "just-in-time")
    if isinstance(cfg.get("recovery"), dict):
        cfg["recovery"] = {k: v for k, v in cfg["recovery"].items()
                           if k not in RETIRED_POLICY_FIELDS}
    return SolverConfig(**cfg)


def _symbolic_to_json(symb: SymbolicFactor) -> dict:
    return {
        "n": symb.n,
        "cblks": [
            {
                "id": c.id,
                "first_col": c.first_col,
                "ncols": c.ncols,
                "snode": c.snode,
                "blocks": [[b.first_row, b.nrows, b.facing,
                            bool(b.lr_candidate)] for b in c.blocks],
            }
            for c in symb.cblks
        ],
    }


def _symbolic_from_json(data: dict) -> SymbolicFactor:
    cblks = []
    for c in data["cblks"]:
        blocks = [SymbolicBlock(fr, nr, facing, cand)
                  for fr, nr, facing, cand in c["blocks"]]
        cblks.append(SymbolicColumnBlock(
            id=c["id"], first_col=c["first_col"], ncols=c["ncols"],
            snode=c["snode"], blocks=blocks))
    return SymbolicFactor(int(data["n"]), cblks)


def save_factor(fac: NumericFactor, perm: np.ndarray,
                path: Union[str, Path]) -> Path:
    """Write a factorization (blocks + symbolic + config + perm) to disk."""
    path = Path(path)
    if fac.faults is not None:
        fac.faults.on_serialize(str(path))
    arrays: Dict[str, np.ndarray] = {"perm": np.asarray(perm,
                                                        dtype=np.int64)}
    kinds: List[List[Any]] = []  # (cblk, side, index, kind) bookkeeping
    for k, nc in enumerate(fac.cblks):
        if nc.diag is None or not nc.factored:
            raise ValueError("cannot save an unfactored NumericFactor")
        arrays[f"d{k}"] = nc.diag
        # threshold-pivoting sidecars, keyed by presence: archives written
        # by static-pivoting runs (and older versions) simply omit them
        if nc.pivperm is not None:
            arrays[f"pp{k}"] = nc.pivperm
        if nc.pivd21 is not None:
            arrays[f"pd{k}"] = nc.pivd21
        for side, i, b in nc.stored():
            if i < 0:
                arrays[f"{side}p{k}"] = b
                kinds.append([k, side, -1, "panel"])
            elif isinstance(b, LowRankBlock):
                arrays[f"{side}{k}_{i}u"] = b.u
                arrays[f"{side}{k}_{i}v"] = b.v
                kinds.append([k, side, i, "lr"])
            else:
                arrays[f"{side}{k}_{i}d"] = b
                kinds.append([k, side, i, "dense"])
    header = {
        "format_version": FORMAT_VERSION,
        "dtype": np.dtype(fac.dtype).name,
        "storage_dtype": (np.dtype(fac.storage_dtype).name
                          if fac.storage_dtype is not None else None),
        # the telemetry store and the profiler are runtime objects —
        # archives store them as null and a reloaded config starts detached
        "config": asdict(replace(fac.config, telemetry=None,
                                 profiler=None)),
        "symbolic": _symbolic_to_json(fac.symb),
        "kinds": kinds,
        "nperturbed": fac.nperturbed,
    }
    buf = io.BytesIO()
    np.savez_compressed(buf, **arrays)
    with zipfile.ZipFile(path, "w", compression=zipfile.ZIP_DEFLATED) as zf:
        zf.writestr("header.json", json.dumps(header))
        zf.writestr("arrays.npz", buf.getvalue())
    return path


def load_factor(path: Union[str, Path]) -> tuple:
    """Load ``(NumericFactor, perm)`` saved by :func:`save_factor`.

    Every column block comes back factored, in the storage mode and
    dtypes it was saved in."""
    path = Path(path)
    with zipfile.ZipFile(path) as zf:
        header = json.loads(zf.read("header.json"))
        with zf.open("arrays.npz") as fh:
            arrays = np.load(io.BytesIO(fh.read()))
            arrays = {k: arrays[k] for k in arrays.files}
    if header.get("format_version") != FORMAT_VERSION:
        raise ValueError(
            f"unsupported factor archive version "
            f"{header.get('format_version')!r}")

    config = config_from_header(header["config"])
    symb = _symbolic_from_json(header["symbolic"])
    fac = NumericFactor(symb, config)
    fac.nperturbed = int(header["nperturbed"])
    # archives predating the dtype field are float64 full-precision
    fac.dtype = np.dtype(header.get("dtype", "float64"))
    storage = header.get("storage_dtype")
    fac.storage_dtype = np.dtype(storage) if storage else None

    panel_sides = {(k, side) for k, side, i, kind in header["kinds"]
                   if kind == "panel"}
    for k, nc in enumerate(fac.cblks):
        nc.diag = arrays[f"d{k}"]
        nc.pivperm = arrays.get(f"pp{k}")
        nc.pivd21 = arrays.get(f"pd{k}")
        nc.lpanel = nc.upanel = nc.lblocks = nc.ublocks = None
        if (k, "l") in panel_sides:
            nc.lpanel = arrays[f"lp{k}"]
            if (k, "u") in panel_sides:
                nc.upanel = arrays[f"up{k}"]
        else:
            nc.lblocks = [None] * nc.sym.noff
            if not config.is_symmetric_facto:
                nc.ublocks = [None] * nc.sym.noff
        nc.factored = True
    for k, side, i, kind in header["kinds"]:
        if kind != "panel":
            nc = fac.cblks[k]
            (nc.lblocks if side == "l" else nc.ublocks)[i] = (
                LowRankBlock(arrays[f"{side}{k}_{i}u"],
                             arrays[f"{side}{k}_{i}v"])
                if kind == "lr" else arrays[f"{side}{k}_{i}d"])
    for k, nc in enumerate(fac.cblks):
        for blocks in (nc.lblocks, nc.ublocks):
            if blocks is not None and any(b is None for b in blocks):
                raise ValueError(f"corrupt factor archive: missing blocks "
                                 f"in column block {k}")
    return fac, arrays["perm"]
