"""The paper's two BLR strategies and the truncation-threshold axis.

A BLR run has two orthogonal settings, resolved once into a
:class:`BlrVariant`:

**Loop order** (right-looking, per column block ``k``) — named by the
strategy, the one way to select it:

``cuf``  Compress-Update-Factor (``strategy="minimal-memory"``):
         candidates are compressed directly from their assembled sparse
         entries, before any update touches them; trailing updates run
         in low-rank arithmetic (LR2LR).  The dense factor structure
         never exists.
``ucf``  Update-Compress-Factor (``strategy="just-in-time"``): panels
         accumulate every incoming update dense, are compressed once
         fully updated, and the panel solve then runs on the compressed
         ``v`` factors (Algorithm 2: the diagonal factorization and the
         compression commute — both read disjoint storage).

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

The T core of every LR·LR product (eqs. 1–4) is always recompressed.
The other loop orders of the BLR literature are not implemented
(``docs/variants.md`` records why).
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

#: the two loop orders: Minimal Memory's and Just-In-Time's
ORDERS = ("cuf", "ucf")

#: the four truncation-threshold modes (the ``betatype`` axis)
THRESHOLD_MODES = ("local", "local-scaled", "global", "global-scaled")

#: strategy → loop order
ALIAS_ORDERS: Dict[str, str] = {
    "minimal-memory": "cuf",
    "just-in-time": "ucf",
}

#: loop order → strategy
ORDER_STRATEGIES: Dict[str, str] = {o: s for s, o in ALIAS_ORDERS.items()}

#: escalation ladder: each rung compresses *later* (hence denser
#: intermediates, better stability) than the one before; after ``ucf``
#: the only rung left is the dense strategy
ORDER_LADDER: Dict[str, Optional[str]] = {
    "cuf": "ucf",
    "ucf": None,
}


@dataclass(frozen=True)
class BlrVariant:
    """One BLR run's loop order and threshold mode."""

    order: str = "ucf"
    threshold_mode: str = "local"

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
    """
    if config.strategy == "dense":
        return None
    return BlrVariant(order=ALIAS_ORDERS[config.strategy],
                      threshold_mode=config.threshold_mode)

