"""Nibble — truncated lazy random walk diffusion (paper Section 3.2).

Spielman and Teng's first local clustering algorithm: starting from unit
mass on the seed, repeatedly apply one step of the lazy random walk, but
truncate entries below ``eps * d(v)`` to zero so the support (and hence the
work) stays proportional to the cluster, not the graph.  After at most T
steps the mass vector is handed to the sweep cut.

Per the paper's modification, no per-iteration sweep is performed: the
algorithm runs for T iterations and returns ``p_T``, unless some iteration
leaves no vertex above threshold, in which case ``p_{i-1}`` is returned.

Both implementations follow the pseudocode of Figure 3 exactly:

* ``UpdateSelf`` (vertexMap): ``p'[v] = p[v] / 2``;
* ``UpdateNgh`` (edgeMap):   ``p'[w] += p[v] / (2 d(v))`` via fetch-and-add;
* new frontier: ``{v | p'[v] >= eps * d(v)}`` via filter — checking only
  the old frontier and its neighbors (the keys of ``p'``), which is what
  keeps each iteration's work local (Theorem 2: O(T / eps) work,
  O(T log(1 / eps)) depth).

The parallel algorithm applies the *same* updates as the sequential one, so
both return the same vector (up to floating-point summation order).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graph.csr import CSRGraph
from ..ligra import VertexSubset, edge_map, expand_by_degree, vertex_map
from ..prims.sparse import SparseDict, SparseVector
from ..runtime import log2ceil, record
from .result import DiffusionResult

__all__ = ["NibbleParams", "nibble_sequential", "nibble_parallel", "nibble"]


@dataclass(frozen=True)
class NibbleParams:
    """Inputs of Nibble: iteration cap T and truncation threshold eps.

    The paper's Table 3 setting is ``T=20, eps=1e-8`` on billion-edge
    graphs; on smaller graphs eps should scale up correspondingly (the
    threshold is per unit of degree).
    """

    max_iterations: int = 20
    eps: float = 1e-6

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not 0.0 < self.eps < 1.0:
            raise ValueError("eps must be in (0, 1)")


def _seed_array(seeds: int | np.ndarray) -> np.ndarray:
    array = np.unique(np.atleast_1d(np.asarray(seeds, dtype=np.int64)))
    if len(array) == 0:
        raise ValueError("at least one seed vertex is required")
    return array


def nibble_sequential(
    graph: CSRGraph, seeds: int | np.ndarray, params: NibbleParams
) -> DiffusionResult:
    """Reference sequential Nibble over dict-backed sparse sets."""
    seed_list = _seed_array(seeds)
    initial = 1.0 / len(seed_list)
    p = SparseDict({int(s): initial for s in seed_list})
    frontier = [int(s) for s in seed_list]
    iterations = 0
    pushes = 0
    touched_edges = 0

    for _ in range(params.max_iterations):
        p_next = SparseDict()
        for vertex in frontier:
            mass = p[vertex]
            degree = graph.degree(vertex)
            p_next.add(vertex, mass / 2.0)
            if degree > 0:
                share = mass / (2.0 * degree)
                for neighbor in graph.neighbors_of(vertex).tolist():
                    p_next.add(neighbor, share)
            pushes += 1
            touched_edges += degree
        iterations += 1
        new_frontier = [
            vertex
            for vertex, value in p_next.items()
            if value >= params.eps * graph.degree(vertex)
        ]
        if not new_frontier:
            break  # return the previous vector p_{i-1} (Figure 3, line 15)
        p = p_next
        frontier = new_frontier
    record(work=float(touched_edges + 2 * pushes), depth=0.0, category="sequential")
    return DiffusionResult(
        vector=p, iterations=iterations, pushes=pushes, touched_edges=touched_edges
    )


def nibble_parallel(
    graph: CSRGraph, seeds: int | np.ndarray, params: NibbleParams
) -> DiffusionResult:
    """Parallel Nibble (Figure 3): one vertexMap + edgeMap + filter per step."""
    seed_list = _seed_array(seeds)
    p = SparseVector.from_pairs(seed_list, 1.0 / len(seed_list))
    frontier = VertexSubset(seed_list)
    iterations = 0
    pushes = 0
    touched_edges = 0
    frontier_sizes: list[int] = []

    for _ in range(params.max_iterations):
        p_next = SparseVector(capacity_hint=p.nnz)
        frontier_values = p.get(frontier.vertices)
        frontier_degrees = graph.degrees(frontier.vertices)

        def update_self(vertices: np.ndarray) -> None:
            p_next.set(vertices, frontier_values / 2.0)

        vertex_map(frontier, update_self)

        per_edge_share = expand_by_degree(
            graph, frontier, frontier_values / (2.0 * np.maximum(frontier_degrees, 1))
        )

        def update_ngh(sources: np.ndarray, targets: np.ndarray) -> None:
            p_next.add(targets, per_edge_share)

        edge_map(graph, frontier, update_ngh)

        iterations += 1
        pushes += len(frontier)
        touched_edges += int(frontier_degrees.sum())
        frontier_sizes.append(len(frontier))

        candidates = p_next.keys()
        above = p_next.get(candidates) >= params.eps * graph.degrees(candidates)
        record(work=len(candidates), depth=log2ceil(len(candidates)), category="filter")
        survivors = candidates[above]
        if len(survivors) == 0:
            break  # keep p = p_{i-1}
        p = p_next
        frontier = VertexSubset(survivors)

    return DiffusionResult(
        vector=p,
        iterations=iterations,
        pushes=pushes,
        touched_edges=touched_edges,
        extras={"frontier_sizes": frontier_sizes},
    )


def nibble(
    graph: CSRGraph,
    seeds: int | np.ndarray,
    params: NibbleParams | None = None,
    parallel: bool = True,
    kernel: str | None = None,
) -> DiffusionResult:
    """Run Nibble with default or supplied parameters.

    ``kernel`` is accepted for API uniformity with the other methods and
    validated (:func:`repro.kernels.resolve_kernel`), but Nibble has no
    compiled twin yet: both paths run the reference code under every
    kernel, including the default.
    """
    from ..kernels import resolve_kernel

    resolve_kernel(kernel)
    params = params or NibbleParams()
    if parallel:
        return nibble_parallel(graph, seeds, params)
    return nibble_sequential(graph, seeds, params)
