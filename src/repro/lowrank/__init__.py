"""Low-rank block representations and kernels (paper §3).

Off-diagonal blocks of the factor are stored either dense (``numpy.ndarray``)
or as a :class:`~repro.lowrank.block.LowRankBlock` ``u @ v.T`` with ``u``
orthonormal.  Two compression families are provided — SVD
(:mod:`repro.lowrank.svd`) and rank-revealing QR (:mod:`repro.lowrank.rrqr`,
a from-scratch column-pivoted Householder QR with τ-based early exit) — and
the low-rank arithmetic of §3.3: the product of two low-rank blocks with
T-matrix recompression (eqs. 1–4), the low-rank-to-dense update ``LR2GE``,
and the low-rank-to-low-rank extend-add ``LR2LR`` with padding (Figure 4)
followed by SVD (eqs. 7–8) or RRQR (eqs. 9–12) recompression.
"""

from repro.lowrank.block import LowRankBlock
from repro.lowrank.svd import svd_compress, svd_truncate
from repro.lowrank.rrqr import rrqr, rrqr_compress
from repro.lowrank.recompress import recompress_svd, recompress_rrqr
from repro.lowrank.kernels import (
    compress_block,
    lr_product,
    lr2ge_update,
    lr2lr_update,
)

__all__ = [
    "LowRankBlock",
    "svd_compress",
    "svd_truncate",
    "rrqr",
    "rrqr_compress",
    "recompress_svd",
    "recompress_rrqr",
    "compress_block",
    "lr_product",
    "lr2ge_update",
    "lr2lr_update",
]
