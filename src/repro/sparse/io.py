"""Minimal Matrix Market (coordinate) reader / writer.

Supports ``matrix coordinate {real|complex} {general|symmetric}`` — the
format of the SuiteSparse collection the paper draws its matrices from, so a
user who *does* have Atmosmodj/Audi/... on disk can feed the genuine article
to the solver.  Complex files keep their complex128 values end-to-end.
"""

from __future__ import annotations

import gzip
from pathlib import Path
from typing import IO, Union

import numpy as np

from repro.sparse.csc import CSCMatrix


def _open(path: Union[str, Path], mode: str) -> IO[str]:
    path = Path(path)
    if path.suffix == ".gz":
        return gzip.open(path, mode + "t")
    return open(path, mode)


def read_matrix_market(path: Union[str, Path]) -> CSCMatrix:
    """Read a square real or complex matrix in MatrixMarket coordinate
    format."""
    with _open(path, "r") as fh:
        header = fh.readline()
        if not header.startswith("%%MatrixMarket"):
            raise ValueError("not a MatrixMarket file")
        tokens = header.strip().split()
        if len(tokens) < 5:
            raise ValueError(f"malformed header: {header!r}")
        _, obj, fmt, field, sym = tokens[:5]
        if obj.lower() != "matrix" or fmt.lower() != "coordinate":
            raise ValueError("only 'matrix coordinate' files are supported")
        field = field.lower()
        if field not in ("real", "integer", "pattern", "complex"):
            raise ValueError(f"unsupported field {field!r}")
        sym = sym.lower()
        if sym not in ("general", "symmetric"):
            raise ValueError(f"unsupported symmetry {sym!r}")

        line = fh.readline()
        while line.startswith("%"):
            line = fh.readline()
        m, n, nnz = (int(t) for t in line.split())
        if m != n:
            raise ValueError("only square matrices are supported")

        is_complex = field == "complex"
        rows = np.empty(nnz, dtype=np.int64)
        cols = np.empty(nnz, dtype=np.int64)
        vals = np.empty(nnz,
                        dtype=np.complex128 if is_complex else np.float64)
        pattern = field == "pattern"
        for i in range(nnz):
            parts = fh.readline().split()
            rows[i] = int(parts[0]) - 1
            cols[i] = int(parts[1]) - 1
            if pattern:
                vals[i] = 1.0
            elif is_complex:
                vals[i] = complex(float(parts[2]), float(parts[3]))
            else:
                vals[i] = float(parts[2])

    if sym == "symmetric":
        off = rows != cols
        mirror_rows, mirror_cols = cols[off], rows[off]
        rows = np.concatenate([rows, mirror_rows])
        cols = np.concatenate([cols, mirror_cols])
        vals = np.concatenate([vals, vals[off]])
    return CSCMatrix.from_coo(n, rows, cols, vals)


def write_matrix_market(a: CSCMatrix, path: Union[str, Path],
                        symmetric: bool = False) -> None:
    """Write in ``coordinate {real|complex} {general|symmetric}`` format
    (1-based); the field follows the matrix dtype."""
    sym = "symmetric" if symmetric else "general"
    is_complex = a.values.dtype.kind == "c"
    field = "complex" if is_complex else "real"
    with _open(path, "w") as fh:
        fh.write(f"%%MatrixMarket matrix coordinate {field} {sym}\n")
        cols = a.col_indices()
        if symmetric:
            keep = a.rowind >= cols
            rows, cs, vals = a.rowind[keep], cols[keep], a.values[keep]
        else:
            rows, cs, vals = a.rowind, cols, a.values
        fh.write(f"{a.n} {a.n} {len(rows)}\n")
        if is_complex:
            for r, c, v in zip(rows, cs, vals):
                fh.write(f"{r + 1} {c + 1} {v.real!r} {v.imag!r}\n")
        else:
            for r, c, v in zip(rows, cs, vals):
                fh.write(f"{r + 1} {c + 1} {float(v)!r}\n")
