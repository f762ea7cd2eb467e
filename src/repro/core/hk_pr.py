"""Deterministic heat kernel PageRank (HK-PR) of Kloster & Gleich (§3.4).

The heat kernel PageRank vector is ``h = e^{-t} * sum_k (t^k / k!) P^k s``
with ``P = A D^{-1}``.  Kloster and Gleich approximate the series by its
degree-N Taylor polynomial and solve the resulting linear system with a
queue-driven push procedure ("hk-relax") over residual entries ``r[(v, j)]``
indexed by (vertex, Taylor level).

Coefficients ``psi_k = sum_{m=0}^{N-k} k! / (m+k)! * t^m`` control the push
thresholds; they satisfy ``psi_N = 1`` and the backward recurrence
``psi_k = 1 + t / (k + 1) * psi_{k+1}``, which is how :func:`psi_coefficients`
computes them (O(N) work; the prefix-sums formulation the paper charges
O(N^2) work for is tested against it).

A residual entry is pushed when it reaches the threshold
``thr_j(w) = e^t * eps * d(w) / (2 N psi_j(t))`` (note: the unnormalised
residuals grow like ``t^j / j!``, so the threshold carries the ``e^t``
factor of the final rescaling; the transcription of the threshold in the
paper's Section 3.4 is garbled — this is the rule from Kloster & Gleich's
original algorithm, which the paper states it follows).

Parallelisation (Figure 7): entries with the same level j can be processed
together, in increasing j — level-j pushes only ever update level j+1 — so
the parallel algorithm runs one vertexMap + edgeMap per level and produces
*exactly* the same output vector as the sequential queue (Section 3.4:
"This parallel algorithm applies the same updates as the sequential
algorithm and thus the vector returned is the same").  On the last level
(j + 1 = N) neighbor contributions go directly into ``p``.

Work O(N^2 + N e^t / eps), depth O(N t log(1 / eps)) (Theorem 4).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from ..graph.csr import CSRGraph
from ..kernels import get_kernels, resolve_kernel
from ..ligra import VertexSubset, charge_edge_map, edge_map, expand_by_degree, vertex_map
from ..prims.hashtable import TableCharges
from ..prims.sparse import SparseDict, SparseVector
from ..runtime import log2ceil, record
from .result import DiffusionResult, check_count, check_real, seed_array

__all__ = [
    "HKPRParams",
    "psi_coefficients",
    "hk_pr_sequential",
    "hk_pr_parallel",
    "hk_pr",
]


@dataclass(frozen=True)
class HKPRParams:
    """Inputs of HK-PR: temperature t, Taylor degree N, tolerance eps.

    The paper's Table 3 setting is ``t=10, N=20, eps=1e-7``; Kloster &
    Gleich set N to at most ``2 t log(1/eps)`` in practice, making the
    O(N^2) coefficient precomputation a lower-order term.
    """

    t: float = 10.0
    taylor_degree: int = 20
    eps: float = 1e-6

    def __post_init__(self) -> None:
        check_real("t", self.t)
        check_real("eps", self.eps)
        if self.t <= 0.0:
            raise ValueError("t must be positive")
        check_count("taylor_degree", self.taylor_degree, 1)
        if not 0.0 < self.eps < 1.0:
            raise ValueError("eps must be in (0, 1)")


def psi_coefficients(t: float, taylor_degree: int) -> np.ndarray:
    """``psi_k`` for k = 0..N via the backward recurrence (see module doc)."""
    n = taylor_degree
    psi = np.empty(n + 1, dtype=np.float64)
    psi[n] = 1.0
    for k in range(n - 1, -1, -1):
        psi[k] = 1.0 + t / (k + 1.0) * psi[k + 1]
    record(work=float(n * n), depth=log2ceil(n), category="scan")
    return psi


def _threshold_scale(params: HKPRParams, psi: np.ndarray, level: int) -> float:
    """``e^t * eps / (2 N psi_level)`` — multiply by d(w) for the threshold."""
    return math.exp(params.t) * params.eps / (2.0 * params.taylor_degree * psi[level])


def hk_pr_sequential(
    graph: CSRGraph, seeds: int | np.ndarray, params: HKPRParams
) -> DiffusionResult:
    """Queue-driven sequential hk-relax, exactly as described in Section 3.4."""
    seed_list = seed_array(seeds, graph.num_vertices)
    n_taylor = params.taylor_degree
    psi = psi_coefficients(params.t, n_taylor)
    p = SparseDict()
    residual: dict[tuple[int, int], float] = {
        (int(s), 0): 1.0 / len(seed_list) for s in seed_list
    }
    queue: deque[tuple[int, int]] = deque(residual.keys())
    pushes = 0
    touched_edges = 0

    while queue:
        vertex, level = queue.popleft()
        value = residual[(vertex, level)]
        degree = graph.degree(vertex)
        p.add(vertex, value)
        pushes += 1
        touched_edges += degree
        if degree == 0:
            continue
        if level + 1 == n_taylor:
            share = value / degree
            for neighbor in graph.neighbors_of(vertex).tolist():
                p.add(neighbor, share)
            continue
        mass = params.t * value / ((level + 1.0) * degree)
        scale = _threshold_scale(params, psi, level + 1)
        for neighbor in graph.neighbors_of(vertex).tolist():
            key = (neighbor, level + 1)
            old = residual.get(key, 0.0)
            threshold = scale * graph.degree(neighbor)
            if old < threshold and old + mass >= threshold:
                queue.append(key)
            residual[key] = old + mass
    record(work=float(touched_edges + 2 * pushes), depth=0.0, category="sequential")
    return DiffusionResult(
        vector=p, iterations=pushes, pushes=pushes, touched_edges=touched_edges
    )


def hk_pr_parallel(
    graph: CSRGraph,
    seeds: int | np.ndarray,
    params: HKPRParams,
    kernel: str | None = None,
) -> DiffusionResult:
    """Level-synchronous parallel HK-PR (Figure 7).

    The level index j is implicit in the iteration number, so the residual
    needs only the current level's sparse vector ``r`` and the next level's
    ``r'``.

    ``kernel`` selects the implementation (see :mod:`repro.kernels`): a
    compiled kernel runs the same levels over the raw CSR arrays and is
    bit-identical to the numpy levels below (``kernel="python"``) — entry
    order, values, counters, ``levels``, frontier sizes and the recorded
    work/depth profile.
    """
    seed_list = seed_array(seeds, graph.num_vertices)
    n_taylor = params.taylor_degree
    psi = psi_coefficients(params.t, n_taylor)
    kernel_name = resolve_kernel(kernel)
    if kernel_name != "python":
        return _hk_pr_parallel_compiled(
            get_kernels(kernel_name), graph, seed_list, params, psi
        )
    p = SparseVector()
    r = SparseVector.from_pairs(seed_list, 1.0 / len(seed_list))
    frontier = VertexSubset(seed_list)
    iterations = 0
    pushes = 0
    touched_edges = 0
    frontier_sizes: list[int] = []

    level = 0
    while not frontier.is_empty():
        frontier_values = r.get(frontier.vertices)
        frontier_degrees = np.maximum(graph.degrees(frontier.vertices), 1)

        def update_self(vertices: np.ndarray) -> None:
            p.add(vertices, frontier_values)

        vertex_map(frontier, update_self)
        iterations += 1
        pushes += len(frontier)
        touched_edges += int(graph.degrees(frontier.vertices).sum())
        frontier_sizes.append(len(frontier))

        if level + 1 == n_taylor:
            per_edge = expand_by_degree(graph, frontier, frontier_values / frontier_degrees)

            def update_ngh_last(sources: np.ndarray, targets: np.ndarray) -> None:
                p.add(targets, per_edge)

            edge_map(graph, frontier, update_ngh_last)
            break

        r_next = SparseVector(capacity_hint=r.nnz)
        per_edge = expand_by_degree(
            graph,
            frontier,
            params.t * frontier_values / ((level + 1.0) * frontier_degrees),
        )

        def update_ngh(sources: np.ndarray, targets: np.ndarray) -> None:
            r_next.add(targets, per_edge)

        edge_map(graph, frontier, update_ngh)

        candidates = r_next.keys()
        scale = _threshold_scale(params, psi, level + 1)
        above = r_next.get(candidates) >= scale * graph.degrees(candidates)
        record(work=len(candidates), depth=log2ceil(len(candidates)), category="filter")
        r = r_next
        frontier = VertexSubset(candidates[above])
        level += 1

    return DiffusionResult(
        vector=p,
        iterations=iterations,
        pushes=pushes,
        touched_edges=touched_edges,
        extras={"levels": level, "frontier_sizes": frontier_sizes},
    )


def _hk_pr_parallel_compiled(
    kernels, graph: CSRGraph, seed_list: np.ndarray, params: HKPRParams,
    psi: np.ndarray,
) -> DiffusionResult:
    """:func:`hk_pr_parallel` through a compiled frontier kernel, replaying
    the numpy levels' ``record()`` calls, in order, from per-level counts."""
    n_taylor = params.taylor_degree
    scales = [_threshold_scale(params, psi, level) for level in range(n_taylor)]
    p_keys, p_values, levels, stats = kernels.hkpr_bsp(
        graph.offsets, graph.neighbors, seed_list, params.t, n_taylor, scales
    )
    p_charges = TableCharges()
    r_charges = TableCharges(len(seed_list))
    r_charges.insert(len(seed_list), len(seed_list))  # SparseVector.from_pairs
    for level, (size, volume, new_p, distinct, new_target_p) in enumerate(stats.tolist()):
        r_charges.lookup(size)  # r.get(frontier)
        record(work=size, depth=log2ceil(size), category="vertex_map")
        p_charges.insert(size, new_p)  # p.add(frontier)
        if level + 1 == n_taylor:
            charge_edge_map(size, volume)
            p_charges.insert(distinct, new_target_p)  # p.add(targets)
            break
        next_charges = TableCharges(r_charges.size)  # r_next sized by r.nnz
        charge_edge_map(size, volume)
        next_charges.insert(distinct, distinct)  # r_next.add(targets)
        next_charges.scan()  # r_next.keys()
        next_charges.lookup(distinct)  # r_next.get(candidates)
        record(work=distinct, depth=log2ceil(distinct), category="filter")
        r_charges = next_charges
    return DiffusionResult(
        vector=SparseVector.from_sorted(p_keys, p_values, p_charges),
        iterations=len(stats),
        pushes=int(stats[:, 0].sum()),
        touched_edges=int(stats[:, 1].sum()),
        extras={"levels": levels, "frontier_sizes": stats[:, 0].tolist()},
    )


def hk_pr(
    graph: CSRGraph,
    seeds: int | np.ndarray,
    params: HKPRParams | None = None,
    parallel: bool = True,
    kernel: str | None = None,
) -> DiffusionResult:
    """Run deterministic HK-PR with default or supplied parameters.

    ``kernel`` selects the implementation of the parallel levels
    (:mod:`repro.kernels`); the default runs compiled code when a C
    compiler is present.  The sequential queue has no compiled twin: it
    validates the knob and runs the Python loop.
    """
    params = params or HKPRParams()
    if parallel:
        return hk_pr_parallel(graph, seeds, params, kernel=kernel)
    resolve_kernel(kernel)
    return hk_pr_sequential(graph, seeds, params)
