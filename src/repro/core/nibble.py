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
from ..kernels import get_kernels, resolve_kernel
from ..ligra import VertexSubset, charge_edge_map, edge_map, expand_by_degree, vertex_map
from ..prims.hashtable import TableCharges
from ..prims.sparse import SparseDict, SparseVector
from ..runtime import log2ceil, record
from .result import DiffusionResult, check_count, check_real, seed_array

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
        check_count("max_iterations", self.max_iterations, 1)
        check_real("eps", self.eps)
        if not 0.0 < self.eps < 1.0:
            raise ValueError("eps must be in (0, 1)")


def nibble_sequential(
    graph: CSRGraph, seeds: int | np.ndarray, params: NibbleParams
) -> DiffusionResult:
    """Reference sequential Nibble over dict-backed sparse sets."""
    seed_list = seed_array(seeds, graph.num_vertices)
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
    graph: CSRGraph,
    seeds: int | np.ndarray,
    params: NibbleParams,
    kernel: str | None = None,
) -> DiffusionResult:
    """Parallel Nibble (Figure 3): one vertexMap + edgeMap + filter per step.

    ``kernel`` selects the implementation (see :mod:`repro.kernels`): a
    compiled kernel runs the same steps over the raw CSR arrays and is
    bit-identical to the numpy rounds below (``kernel="python"``) — entry
    order, values, counters, frontier sizes and the recorded work/depth
    profile.
    """
    seed_list = seed_array(seeds, graph.num_vertices)
    kernel_name = resolve_kernel(kernel)
    if kernel_name != "python":
        return _nibble_parallel_compiled(
            get_kernels(kernel_name), graph, seed_list, params
        )
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


def _nibble_parallel_compiled(
    kernels, graph: CSRGraph, seed_list: np.ndarray, params: NibbleParams,
) -> DiffusionResult:
    """:func:`nibble_parallel` through a compiled frontier kernel, replaying
    the numpy steps' ``record()`` calls, in order, from per-step counts."""
    p_keys, p_values, stats = kernels.nibble_bsp(
        graph.offsets, graph.neighbors, seed_list, params.eps, params.max_iterations
    )
    p_charges = TableCharges(len(seed_list))
    p_charges.insert(len(seed_list), len(seed_list))  # SparseVector.from_pairs
    for size, volume, distinct, candidates, survivors in stats.tolist():
        next_charges = TableCharges(p_charges.size)  # p_next sized by p.nnz
        p_charges.lookup(size)  # p.get(frontier)
        record(work=size, depth=log2ceil(size), category="vertex_map")
        next_charges.insert(size, size)  # p_next.set(frontier)
        charge_edge_map(size, volume)
        next_charges.insert(distinct, candidates - size)  # p_next.add(targets)
        next_charges.scan()  # p_next.keys()
        next_charges.lookup(candidates)  # p_next.get(candidates)
        record(work=candidates, depth=log2ceil(candidates), category="filter")
        if survivors:
            p_charges = next_charges
    return DiffusionResult(
        vector=SparseVector.from_sorted(p_keys, p_values, p_charges),
        iterations=len(stats),
        pushes=int(stats[:, 0].sum()),
        touched_edges=int(stats[:, 1].sum()),
        extras={"frontier_sizes": stats[:, 0].tolist()},
    )


def nibble(
    graph: CSRGraph,
    seeds: int | np.ndarray,
    params: NibbleParams | None = None,
    parallel: bool = True,
    kernel: str | None = None,
) -> DiffusionResult:
    """Run Nibble with default or supplied parameters.

    ``kernel`` selects the implementation of the parallel steps
    (:mod:`repro.kernels`); the default runs compiled code when a C
    compiler is present.  The sequential reference has no compiled twin:
    it validates the knob and runs the Python loop.
    """
    params = params or NibbleParams()
    if parallel:
        return nibble_parallel(graph, seeds, params, kernel=kernel)
    resolve_kernel(kernel)
    return nibble_sequential(graph, seeds, params)
