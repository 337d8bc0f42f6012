"""Composable BLR variant policies (the Higham–Mary variant space).

The paper exposes two compression strategies — Minimal Memory and
Just-In-Time — but they are only two points in the larger space the BLR
stability literature enumerates: a *loop order* (when each block is
compressed relative to the update / factor steps), a *threshold mode*
(what norm the truncation tolerance is measured against, the
``betatype`` axis), and an *intermediate recompression* toggle.  This
module makes the three axes explicit and orthogonal:

**Loop orders** (right-looking, per column block ``k``):

``cuf``  Compress-Update-Factor: candidates are compressed directly from
         their assembled sparse entries, before any update touches them;
         trailing updates run in low-rank arithmetic (LR2LR).  This is
         exactly the paper's *Minimal Memory* strategy — the dense factor
         structure never exists.
``ucf``  Update-Compress-Factor: panels accumulate every incoming update
         dense, are compressed once fully updated, and the panel solve
         then runs on the compressed ``v`` factors.  This is the paper's
         *Just-In-Time* strategy (Algorithm 2: the diagonal factorization
         and the compression commute — both read disjoint storage).
``ufc``  Update-Factor-Compress: the panel solve runs dense and the
         *solved* panels are compressed, so outgoing updates still run in
         low-rank form but the triangular solves keep full accuracy.
``fuc``  Factor-Update-Compress: compression is deferred until every
         outgoing update of the column block has been applied (dense,
         full-accuracy GEMM updates); compression is entirely off the
         critical path and only reduces the *stored* factor.

**Threshold modes** (``betatype``): the truncation rule of every kernel
is ``||A - Â||_F <= tol_eff * max(||A||_F, norm_ref)``.  The four modes
select ``(tol_eff, norm_ref)``:

=================  ===========================  =========================
mode               tol_eff                      norm_ref
=================  ===========================  =========================
``local``          τ                            — (block norm only)
``local-scaled``   τ / p                        —
``global``         τ                            ``||A||_F`` (global)
``global-scaled``  τ / p                        ``||A||_F``
=================  ===========================  =========================

with ``p`` the number of column blocks.  ``local`` is the paper's rule
(and the bit-identical default); the scaled modes divide τ by ``p`` so
the *global* backward error stays at τ-level when per-block errors
accumulate, per the BLR error analysis; the global modes measure the
tail against the whole matrix instead of the block, which lets blocks
that are small relative to ``||A||`` truncate harder.

**Recompression toggle**: with ``recompress=False`` the T core of a
LR·LR product (eqs. 1–4) is not recompressed — the product keeps rank
``min(rA, rB)``.  Structural extend-add recompression (LR2LR) is always
on; the toggle only affects the intermediate product.

The legacy strategy names remain first-class aliases —
``minimal-memory`` ≡ ``cuf``, ``just-in-time`` ≡ ``ucf`` — and resolve
through :func:`resolve_variant`; their float64 factorizations are pinned
bit-identical to the pre-variant engine.  (The issue text glosses the
mapping as MM≈UCF / JIT≈UFC; operationally Minimal Memory compresses
*before* any update reaches the block and Just-In-Time compresses *after
the updates, before the solve*, which by the letter ordering is CUF and
UCF — the mapping implemented and documented in ``docs/variants.md``.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Tuple

if TYPE_CHECKING:
    from repro.config import SolverConfig

__all__ = [
    "ORDERS",
    "ORDER_LADDER",
    "THRESHOLD_MODES",
    "BlrVariant",
    "resolve_variant",
]

#: the four update/factor/compress loop orders
ORDERS = ("cuf", "ucf", "ufc", "fuc")

#: the four truncation-threshold modes (the ``betatype`` axis)
THRESHOLD_MODES = ("local", "local-scaled", "global", "global-scaled")

#: legacy strategy aliases → loop order
ALIAS_ORDERS: Dict[str, str] = {
    "minimal-memory": "cuf",
    "just-in-time": "ucf",
}

#: escalation ladder through the variant space: each rung compresses
#: *later* (hence denser intermediates, better stability) than the one
#: before; after ``fuc`` the only rung left is the dense strategy
ORDER_LADDER: Dict[str, Optional[str]] = {
    "cuf": "ucf",
    "ucf": "ufc",
    "ufc": "fuc",
    "fuc": None,
}


@dataclass(frozen=True)
class BlrVariant:
    """One point of the variant space: the three orthogonal axes."""

    order: str = "ucf"
    threshold_mode: str = "local"
    recompress: bool = True

    def __post_init__(self) -> None:
        if self.order not in ORDERS:
            raise ValueError(
                f"loop order must be one of {ORDERS}, got {self.order!r}")
        if self.threshold_mode not in THRESHOLD_MODES:
            raise ValueError(
                f"threshold_mode must be one of {THRESHOLD_MODES}, got "
                f"{self.threshold_mode!r}")

    # -- loop-order predicates (one compression point per order) ---------
    @property
    def compress_at_assembly(self) -> bool:
        """``cuf``: compress candidates from their assembled entries."""
        return self.order == "cuf"

    @property
    def compress_before_solve(self) -> bool:
        """``ucf``: compress the updated panels before the panel solve."""
        return self.order == "ucf"

    @property
    def compress_after_solve(self) -> bool:
        """``ufc``: compress the solved panels before outgoing updates."""
        return self.order == "ufc"

    @property
    def compress_after_updates(self) -> bool:
        """``fuc``: compress once every outgoing update has been applied."""
        return self.order == "fuc"

    # -- threshold computation -------------------------------------------
    def compress_scale(self, tolerance: float, ncblk: int,
                       global_norm: float
                       ) -> Tuple[float, Optional[float]]:
        """The ``(tol_eff, norm_ref)`` pair of this threshold mode.

        Every compression kernel truncates at
        ``tol_eff * max(||block||_F, norm_ref)``; ``norm_ref=None`` keeps
        the purely block-local rule (bit-identical to the pre-variant
        engine for ``local``).
        """
        tol_eff = tolerance
        if self.threshold_mode in ("local-scaled", "global-scaled"):
            tol_eff = tolerance / max(ncblk, 1)
        norm_ref: Optional[float] = None
        if self.threshold_mode in ("global", "global-scaled"):
            norm_ref = float(global_norm)
        return tol_eff, norm_ref


def resolve_variant(config: "SolverConfig") -> Optional[BlrVariant]:
    """The :class:`BlrVariant` a configuration runs under.

    ``None`` for the ``dense`` strategy (no compression axis at all).
    An explicit ``config.variant`` wins over the alias order of
    ``config.strategy``.
    """
    if config.strategy == "dense":
        return None
    order = config.variant or ALIAS_ORDERS[config.strategy]
    return BlrVariant(order=order,
                      threshold_mode=config.threshold_mode,
                      recompress=config.recompress_updates)

