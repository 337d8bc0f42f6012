"""Rule modules; importing this package registers every rule."""

from tools.solverlint.rules import (  # noqa: F401  -- registration side effect
    annotations,
    backend_bypass,
    conjugation,
    dtype_promotion,
    hot_loop,
    telemetry_guard,
    variant_literal,
)

__all__ = [
    "annotations",
    "backend_bypass",
    "conjugation",
    "dtype_promotion",
    "hot_loop",
    "telemetry_guard",
    "variant_literal",
]
