"""Ligra-style local graph processing layer: vertexSubset, vertexMap, edgeMap.

The paper implements its algorithms in Ligra [41] precisely because Ligra
"only does work proportional to the number of active vertices (and their
edges) in each iteration".  This subpackage reproduces that contract in
bulk-synchronous form.
"""

from .ops import (
    charge_edge_map,
    charge_gather,
    edge_map,
    edge_map_gather,
    expand_by_degree,
    vertex_map,
)
from .vertex_subset import VertexSubset

__all__ = [
    "VertexSubset",
    "vertex_map",
    "edge_map",
    "charge_gather",
    "charge_edge_map",
    "edge_map_gather",
    "expand_by_degree",
]
