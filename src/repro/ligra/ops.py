"""``vertexMap`` / ``edgeMap`` — Ligra's data-parallel operators.

Section 2: *vertexMap takes a vertexSubset U and a function F and applies F
to all vertices in U.  edgeMap takes a graph, a vertexSubset U and an update
function F and applies F to all edges (u, v) with u in U. ... edgeMap is
implemented by doing work proportional to the number of vertices in its
input vertexSubset and the sum of their outgoing degrees.*

In this bulk-synchronous realisation the user function receives *whole
arrays* rather than single elements: one ``vertex_map`` call applies F to
the full frontier at once and one ``edge_map`` call applies F to every
incident edge at once.  That is the same programming contract — F must be
correct under concurrent application to all elements, which is why the
paper's Fs resolve write conflicts with fetch-and-add (here: the batched
``SparseVector.add``) — expressed at batch granularity.

The optional boolean return of F keeps Ligra's output-frontier semantics:
``edge_map`` returns the vertexSubset of targets for which F returned true.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..graph.csr import CSRGraph
from ..runtime import log2ceil, record
from .vertex_subset import VertexSubset

__all__ = [
    "vertex_map",
    "edge_map",
    "charge_gather",
    "charge_edge_map",
    "edge_map_gather",
    "expand_by_degree",
]

VertexFunction = Callable[[np.ndarray], np.ndarray | None]
EdgeFunction = Callable[[np.ndarray, np.ndarray], np.ndarray | None]


def vertex_map(subset: VertexSubset, fn: VertexFunction) -> VertexSubset:
    """Apply ``fn`` to the frontier's vertex array; O(|U|) work.

    ``fn`` may side-effect per-vertex data (the paper's usage) and may
    return a boolean mask selecting an output subset; returning ``None``
    yields the empty subset, mirroring Ligra's F returning false.
    """
    vertices = subset.vertices
    record(work=len(vertices), depth=log2ceil(len(vertices)), category="vertex_map")
    mask = fn(vertices)
    if mask is None:
        return VertexSubset.empty()
    return subset.where(np.asarray(mask, dtype=bool))


def edge_map(graph: CSRGraph, subset: VertexSubset, fn: EdgeFunction) -> VertexSubset:
    """Apply ``fn`` to every edge leaving the frontier; O(vol(U)) work.

    ``fn(sources, targets)`` receives the full gathered edge arrays
    (grouped by source, sources ascending) and may return a boolean
    per-edge mask; the output subset contains the distinct targets of
    selected edges.
    """
    sources, targets = graph.gather_edges(subset.vertices)
    record(work=len(sources), depth=log2ceil(len(sources)), category="edge_map")
    mask = fn(sources, targets)
    if mask is None:
        return VertexSubset.empty()
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != targets.shape:
        raise ValueError("edge function must return one flag per edge")
    return VertexSubset(targets[mask])


def charge_gather(size: int, volume: int) -> None:
    """Replay the ``record()`` calls of :meth:`CSRGraph.gather_edges` over
    ``size`` vertices of total degree ``volume``: the offset scan, then
    the gather.  A compiled kernel that gathered the same edges charges
    through this, so its profile matches the numpy path's."""
    if size == 0:
        return
    record(work=size, depth=log2ceil(size), category="scan")
    record(work=size + volume, depth=log2ceil(volume), category="edge_map")


def charge_edge_map(size: int, volume: int) -> None:
    """Replay the ``record()`` calls of one :func:`edge_map` over a
    frontier of ``size`` vertices and total degree ``volume``: the gather
    (:func:`charge_gather`), then the edge pass."""
    charge_gather(size, volume)
    record(work=volume, depth=log2ceil(volume), category="edge_map")


def edge_map_gather(graph: CSRGraph, subset: VertexSubset) -> tuple[np.ndarray, np.ndarray]:
    """The raw gathered ``(sources, targets)`` arrays of ``edge_map``.

    For algorithms that combine the edge pass with per-source scalars (all
    the diffusions do: the pushed mass is ``r[s] / d(s)``), gathering once
    and processing the arrays directly avoids re-reading per-source values
    per edge; :func:`expand_by_degree` aligns per-frontier-vertex values
    with the gathered edge order.
    """
    return graph.gather_edges(subset.vertices)


def expand_by_degree(
    graph: CSRGraph, subset: VertexSubset, per_vertex: np.ndarray
) -> np.ndarray:
    """Repeat ``per_vertex[i]`` once per edge of frontier vertex ``i``.

    The result aligns element-for-element with the edge arrays returned by
    :func:`edge_map_gather` for the same subset, because
    :meth:`CSRGraph.gather_edges` groups edges by source in input order.
    """
    per_vertex = np.asarray(per_vertex)
    if per_vertex.shape[0] != len(subset):
        raise ValueError("need one value per frontier vertex")
    return np.repeat(per_vertex, graph.degrees(subset.vertices))
