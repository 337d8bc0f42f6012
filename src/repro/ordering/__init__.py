"""Fill-reducing orderings and graph infrastructure.

The paper relies on Scotch for nested dissection (cmin = 15, frat = 0.08).
This package is our from-scratch replacement: an adjacency-graph substrate,
level-set vertex separators, recursive nested dissection that returns both the
permutation and the separator/leaf partition (the supernodal partition of the
paper's §1), a minimum-degree ordering as an alternative, elimination-tree
utilities, and the intra-supernode reordering of Pichon et al. [21] that packs
off-diagonal blocks together.
"""

from repro.ordering.graph import Graph
from repro.ordering.separator import find_vertex_separator
from repro.ordering.nested_dissection import nested_dissection, NDResult, NDPartition
from repro.ordering.amd import minimum_degree
from repro.ordering.geometric import geometric_nested_dissection, grid_coords
from repro.ordering.elimination_tree import elimination_tree, postorder

__all__ = [
    "Graph",
    "find_vertex_separator",
    "nested_dissection",
    "NDResult",
    "NDPartition",
    "minimum_degree",
    "geometric_nested_dissection",
    "grid_coords",
    "elimination_tree",
    "postorder",
]
