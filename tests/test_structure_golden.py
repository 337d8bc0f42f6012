"""Golden analysis structure: the value-free front end (ordering, supernode
partition, block-symbolic factorization) must reproduce, bit for bit, the
permutation, partition list and block structure pinned in
``tests/golden/pins.json`` (``structure/…``, and ``nd/lap24`` for the
benchmark's nested dissection), as ``tests/pins.py`` computes them.

A change that alters any of them changes the factorization downstream.  If
it is meant to, re-pin with ``PYTHONPATH=src python -m tools.repin --pr N
--reason "..."``, which rewrites only the entries that moved.
"""

from __future__ import annotations

import pytest

from tests import pins


@pytest.mark.parametrize("key", pins.cases("structure", sep="/"))
def test_structure_matches_golden(key):
    pins.check(key)


def test_golden_covers_every_case():
    """Every matrix × ordering × setting the analysis can run is pinned."""
    pinned = {k[len("structure/"):] for k in pins.load()
              if k.startswith("structure/")}
    assert pinned == set(pins.structure_cases())


def test_lap24_nested_dissection_digest():
    pins.check("nd/lap24")
