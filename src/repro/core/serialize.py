"""Saving and loading factorizations — and partial-run checkpoints.

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

**Checkpoints** reuse the same container for *partial* factorizations: a
completed-column-block bitmap, only the completed blocks' arrays, the
config, and a fingerprint of the (permuted) input matrix.  A resume run
(:meth:`repro.core.solver.Solver.resume_from`) restores the completed
blocks and re-runs the pull-mode sequential sweep over the rest — for
sequential float64 runs the resumed factors are bit-identical to an
uninterrupted run (see docs/robustness.md for the compatibility rules).
"""

from __future__ import annotations

import hashlib
import io
import json
import zipfile
from dataclasses import asdict, fields, replace
from pathlib import Path
from typing import Any, Dict, Iterable, List, Tuple, Union

import numpy as np

from repro.config import SolverConfig
from repro.core.factor import NumericColumnBlock, NumericFactor
from repro.lowrank.block import LowRankBlock
from repro.sparse.csc import CSCMatrix
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
#: were saved in, so such an archive solves as it did; a checkpoint resume
#: keeps the restored column blocks as stored and factors the rest under
#: the discarded-error rule of :func:`repro.core.factor.compress_column_block`.
RETIRED_CONFIG_FIELDS = ("accumulate_updates", "trace", "scheduler",
                         "adaptive", "backend", "seed", "storage_dtype")

#: format version written into every checkpoint archive
CHECKPOINT_VERSION = 1


def config_from_header(stored: Dict[str, Any]) -> SolverConfig:
    """The :class:`SolverConfig` stored in an archive header.

    Exactly the :data:`RETIRED_CONFIG_FIELDS` are dropped, so archives
    outlive the options they were written under; any other unknown key is
    rejected by name — a header is outside input.
    """
    known = {f.name for f in fields(SolverConfig)}
    unknown = sorted(set(stored) - known - set(RETIRED_CONFIG_FIELDS))
    if unknown:
        raise ValueError(
            f"archive config carries unknown field(s) {unknown}")
    return SolverConfig(**{k: v for k, v in stored.items() if k in known})


def matrix_fingerprint(a: CSCMatrix) -> str:
    """sha256 digest of a matrix's structure and values.

    Guards checkpoint resume: restoring a partial factorization onto a
    different matrix (or the same pattern with different values or dtype)
    would silently produce garbage factors.
    """
    h = hashlib.sha256()
    h.update(str(a.n).encode())
    h.update(np.ascontiguousarray(a.colptr, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(a.rowind, dtype=np.int64).tobytes())
    h.update(a.values.dtype.name.encode())
    h.update(np.ascontiguousarray(a.values).tobytes())
    return h.hexdigest()


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


def _pack_cblk(nc: NumericColumnBlock, k: int, arrays: Dict[str, np.ndarray],
               kinds: List[List[Any]]) -> None:
    """Append column block ``k``'s arrays + bookkeeping to the archive
    staging dicts (shared by :func:`save_factor` and
    :func:`save_checkpoint`)."""
    arrays[f"d{k}"] = nc.diag
    # threshold-pivoting sidecars, keyed by presence: archives written by
    # static-pivoting runs (and older versions) simply omit them
    if nc.pivperm is not None:
        arrays[f"pp{k}"] = nc.pivperm
    if nc.pivd21 is not None:
        arrays[f"pd{k}"] = nc.pivd21
    for side in ("l", "u"):
        if nc.panel_mode:
            panel = nc.lpanel if side == "l" else nc.upanel
            if panel is None:
                continue
            arrays[f"{side}p{k}"] = panel
            kinds.append([k, side, -1, "panel"])
            continue
        blocks = nc.lblocks if side == "l" else nc.ublocks
        if blocks is None:
            continue
        for i, b in enumerate(blocks):
            if isinstance(b, LowRankBlock):
                arrays[f"{side}{k}_{i}u"] = b.u
                arrays[f"{side}{k}_{i}v"] = b.v
                kinds.append([k, side, i, "lr"])
            else:
                arrays[f"{side}{k}_{i}d"] = b
                kinds.append([k, side, i, "dense"])


def _header(fac: NumericFactor, kinds: List[List[Any]]) -> dict:
    """The header fields factor archives and checkpoints share."""
    return {
        "dtype": np.dtype(fac.dtype).name,
        "storage_dtype": (np.dtype(fac.storage_dtype).name
                          if fac.storage_dtype is not None else None),
        # the telemetry store is a runtime object (locks, live metrics) —
        # archives store it as null and a reloaded config starts detached
        "config": asdict(replace(fac.config, telemetry=None,
                                 profiler=None)),
        "symbolic": _symbolic_to_json(fac.symb),
        "kinds": kinds,
        "nperturbed": fac.nperturbed,
    }


def _write_archive(path: Path, member: str, header: dict,
                   arrays: Dict[str, np.ndarray]) -> None:
    buf = io.BytesIO()
    np.savez_compressed(buf, **arrays)
    with zipfile.ZipFile(path, "w", compression=zipfile.ZIP_DEFLATED) as zf:
        zf.writestr(member, json.dumps(header))
        zf.writestr("arrays.npz", buf.getvalue())


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
        _pack_cblk(nc, k, arrays, kinds)
    header = {"format_version": FORMAT_VERSION, **_header(fac, kinds)}
    _write_archive(path, "header.json", header, arrays)
    return path


def load_factor(path: Union[str, Path]) -> tuple:
    """Load ``(NumericFactor, perm)`` saved by :func:`save_factor`."""
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

    _unpack(fac, header, arrays, range(len(fac.cblks)), "factor archive")
    perm = arrays["perm"]
    return fac, perm


# ----------------------------------------------------------------------
# partial-factorization checkpoints
# ----------------------------------------------------------------------

def save_checkpoint(fac: NumericFactor, perm: np.ndarray,
                    path: Union[str, Path], fingerprint: str) -> Path:
    """Snapshot a (possibly partial) factorization for later resume.

    Only *completed* column blocks are stored, together with the
    completed bitmap, the config (telemetry detached), the symbolic
    structure, the permutation, and the input-matrix ``fingerprint``
    (:func:`matrix_fingerprint` of the permuted matrix) that
    :meth:`~repro.core.solver.Solver.resume_from` validates against.
    """
    path = Path(path)
    if fac.faults is not None:
        fac.faults.on_serialize(str(path))
    arrays: Dict[str, np.ndarray] = {"perm": np.asarray(perm,
                                                        dtype=np.int64)}
    kinds: List[List[Any]] = []
    completed: List[bool] = []
    for k, nc in enumerate(fac.cblks):
        done = bool(nc.factored and nc.diag is not None)
        completed.append(done)
        if done:
            _pack_cblk(nc, k, arrays, kinds)
    header = {"format_version": CHECKPOINT_VERSION, "kind": "checkpoint",
              **_header(fac, kinds), "completed": completed,
              "matrix_fingerprint": fingerprint}
    _write_archive(path, "checkpoint.json", header, arrays)
    return path


def load_checkpoint(path: Union[str, Path]
                    ) -> Tuple[dict, Dict[str, np.ndarray]]:
    """Load ``(header, arrays)`` written by :func:`save_checkpoint`."""
    path = Path(path)
    with zipfile.ZipFile(path) as zf:
        header = json.loads(zf.read("checkpoint.json"))
        with zf.open("arrays.npz") as fh:
            npz = np.load(io.BytesIO(fh.read()))
            arrays = {k: npz[k] for k in npz.files}
    if header.get("kind") != "checkpoint":
        raise ValueError("not a checkpoint archive")
    if header.get("format_version") != CHECKPOINT_VERSION:
        raise ValueError(
            f"unsupported checkpoint version "
            f"{header.get('format_version')!r}")
    return header, arrays


def checkpoint_config(path: Union[str, Path]) -> SolverConfig:
    """The :class:`SolverConfig` a checkpoint was written under (header
    only — the block arrays are not decompressed)."""
    with zipfile.ZipFile(Path(path)) as zf:
        header = json.loads(zf.read("checkpoint.json"))
    if header.get("kind") != "checkpoint":
        raise ValueError("not a checkpoint archive")
    return config_from_header(header["config"])


def restore_checkpoint(fac: NumericFactor, header: dict,
                       arrays: Dict[str, np.ndarray]) -> int:
    """Overwrite ``fac``'s completed column blocks from a checkpoint.

    ``fac`` must be freshly assembled over the checkpoint's symbolic
    structure; returns the number of restored column blocks.  Restored
    blocks are marked ``factored`` so the pull-mode sweep skips them.
    """
    done = [k for k, ok in enumerate(header["completed"]) if ok]
    befores = {k: fac.cblks[k].nbytes(fac.sides) for k in done}
    _unpack(fac, header, arrays, done, "checkpoint")
    for k, before in befores.items():
        fac.tracker.resize(before, fac.cblks[k].nbytes(fac.sides))
    return len(done)


def _unpack(fac: NumericFactor, header: dict, arrays: Dict[str, np.ndarray],
            ks: Iterable[int], what: str) -> None:
    """Install column blocks ``ks`` from an archive's ``arrays``, marked
    factored, in the storage mode and dtypes they were saved in."""
    ks = list(ks)
    panel_sides = {(k, side) for k, side, i, kind in header["kinds"]
                   if kind == "panel"}
    for k in ks:
        nc = fac.cblks[k]
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
            if not fac.config.is_symmetric_facto:
                nc.ublocks = [None] * nc.sym.noff
        nc.factored = True
    for k, side, i, kind in header["kinds"]:
        if kind != "panel":
            nc = fac.cblks[k]
            (nc.lblocks if side == "l" else nc.ublocks)[i] = (
                LowRankBlock(arrays[f"{side}{k}_{i}u"],
                             arrays[f"{side}{k}_{i}v"])
                if kind == "lr" else arrays[f"{side}{k}_{i}d"])
    for k in ks:
        nc = fac.cblks[k]
        for blocks in (nc.lblocks, nc.ublocks):
            if blocks is not None and any(b is None for b in blocks):
                raise ValueError(f"corrupt {what}: missing blocks in "
                                 f"column block {k}")


class CheckpointWriter:
    """Cadence- and fault-driven checkpoint writes during a sequential run.

    Armed by :meth:`Solver.factorize(checkpoint=...)`; the pull-mode
    sequential sweep calls :meth:`task_done` after every factored column
    block (writes every ``every`` completions; 0 = never on cadence) and
    :meth:`on_fault` when the sweep dies (writes when ``write_on_fault``).
    With a recovery state armed, write failures are recorded and swallowed
    (a failing checkpoint disk must not kill a healthy factorization);
    without one they propagate.
    """

    def __init__(self, path: Union[str, Path], perm: np.ndarray,
                 fingerprint: str, every: int = 0,
                 write_on_fault: bool = True) -> None:
        self.path = Path(path)
        self.perm = np.asarray(perm, dtype=np.int64)
        self.fingerprint = fingerprint
        self.every = int(every)
        self.write_on_fault = write_on_fault
        #: number of checkpoint archives successfully written
        self.writes = 0
        self._since = 0

    def task_done(self, fac: NumericFactor, k: int) -> None:
        self._since += 1
        if self.every > 0 and self._since >= self.every:
            self._since = 0
            self.write(fac)

    def on_fault(self, fac: NumericFactor) -> None:
        if self.write_on_fault:
            self.write(fac)

    def write(self, fac: NumericFactor) -> None:
        rec = fac.recovery
        try:
            save_checkpoint(fac, self.perm, self.path, self.fingerprint)
        except Exception as exc:
            if rec is None:
                raise
            rec.record("checkpoint_failed", site="serialize",
                       error=type(exc).__name__, path=str(self.path))
            return
        self.writes += 1
        if rec is not None:
            completed = sum(1 for nc in fac.cblks if nc.factored)
            rec.record("checkpoint", site="serialize", completed=completed,
                       path=str(self.path))
