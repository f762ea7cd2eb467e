"""PageRank-Nibble — approximate personalised PageRank push (Section 3.3).

Andersen, Chung and Lang's algorithm maintains a PageRank vector ``p`` and a
residual vector ``r`` (initially unit mass on the seed) and repeatedly
*pushes* from vertices whose residual is large relative to their degree
(``r[v] >= eps * d(v)``), until none remain.

Update rules (a push from ``v``):

* **original** (as in [2]):
    ``p[v] += alpha * r[v]``;
    ``r[w] += (1 - alpha) * r[v] / (2 d(v))`` for each neighbor ``w``;
    ``r[v] = (1 - alpha) * r[v] / 2``.
* **optimized** (the paper's Section 3.3 optimization, 1.4-6.4x faster in
  their Figure 4):
    ``p[v] += (2 alpha / (1 + alpha)) * r[v]``;
    ``r[w] += ((1 - alpha) / (1 + alpha)) * r[v] / d(v)``;
    ``r[v] = 0``.

Both conserve ``|p|_1 + |r|_1`` exactly and approximate the same linear
system; both give the O(1 / (eps * alpha)) work bound.

The **sequential** implementation is the queue-based algorithm of [2]: pop a
vertex, push from it repeatedly until its residual drops below threshold,
enqueueing neighbors as they cross the threshold.

The **parallel** implementation (Figures 5-6) pushes from *every*
above-threshold vertex in one iteration, reading the residuals as they were
at the start of the iteration (the two-vector r/r' discipline).  It may
perform more pushes than the sequential algorithm — the paper's Table 1
measures at most 1.6x more — but Theorem 3 shows the total work is still
O(1 / (eps * alpha)).

The **beta-fraction variant** mentioned at the end of Section 3.3 processes
only the top ``beta``-fraction of eligible vertices by ``r[v]/d(v)`` per
iteration, trading parallelism against total work.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from ..graph.csr import CSRGraph
from ..kernels import get_kernels, resolve_kernel
from ..ligra import VertexSubset, charge_edge_map, edge_map, expand_by_degree, vertex_map
from ..prims.hashtable import TableCharges
from ..prims.sparse import SparseDict, SparseVector
from ..runtime import log2ceil, record
from .result import DiffusionResult, check_count, check_flag, check_real, seed_array

__all__ = [
    "PRNibbleParams",
    "pr_nibble_sequential",
    "pr_nibble_parallel",
    "pr_nibble",
]


@dataclass(frozen=True)
class PRNibbleParams:
    """Inputs of PR-Nibble.

    The paper's Table 3 setting is ``alpha=0.01, eps=1e-7`` on billion-edge
    graphs.  ``optimized`` selects the paper's faster update rule
    (Figure 6); ``beta`` enables the top-fraction frontier variant
    (``beta=1`` processes every eligible vertex, the Figure 5 behaviour).
    """

    alpha: float = 0.01
    eps: float = 1e-6
    optimized: bool = True
    beta: float = 1.0
    max_iterations: int = 10**9

    def __post_init__(self) -> None:
        for name in ("alpha", "eps", "beta"):
            check_real(name, getattr(self, name))
        check_flag("optimized", self.optimized)
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        if not 0.0 < self.eps < 1.0:
            raise ValueError("eps must be in (0, 1)")
        if not 0.0 < self.beta <= 1.0:
            raise ValueError("beta must be in (0, 1]")
        check_count("max_iterations", self.max_iterations, 1)


def pr_nibble_sequential(
    graph: CSRGraph,
    seeds: int | np.ndarray,
    params: PRNibbleParams,
    kernel: str | None = None,
) -> DiffusionResult:
    """Queue-based sequential PR-Nibble (either update rule).

    ``kernel`` selects the push-loop implementation (see
    :mod:`repro.kernels`): a compiled kernel runs the identical loop over
    the raw CSR arrays and is bit-identical to ``kernel="python"`` —
    including sparse-vector entry order, push counts, and the recorded
    work profile.
    """
    seed_list = seed_array(seeds, graph.num_vertices)
    alpha = params.alpha
    eps = params.eps
    kernel_name = resolve_kernel(kernel)
    if kernel_name != "python":
        p_keys, p_values, r_keys, r_values, pushes, touched_edges = get_kernels(
            kernel_name
        ).ppr_push(graph.offsets, graph.neighbors, seed_list, alpha, eps, params.optimized)
        p = SparseDict(dict(zip(p_keys.tolist(), p_values.tolist())))
        r = SparseDict(dict(zip(r_keys.tolist(), r_values.tolist())))
        record(work=float(touched_edges + 2 * pushes), depth=0.0, category="sequential")
        return DiffusionResult(
            vector=p,
            iterations=pushes,
            pushes=pushes,
            touched_edges=touched_edges,
            extras={"residual_mass": r.l1_norm(), "residual": r},
        )
    p = SparseDict()
    r = SparseDict({int(s): 1.0 / len(seed_list) for s in seed_list})
    queue: deque[int] = deque(int(s) for s in seed_list)
    queued = set(queue)
    pushes = 0
    touched_edges = 0

    while queue:
        vertex = queue.popleft()
        queued.discard(vertex)
        degree = graph.degree(vertex)
        if degree == 0:
            continue
        threshold = eps * degree
        # "We repeatedly push from v until it is below the threshold."
        while r[vertex] >= threshold:
            residual = r[vertex]
            if params.optimized:
                p.add(vertex, (2.0 * alpha / (1.0 + alpha)) * residual)
                share = ((1.0 - alpha) / (1.0 + alpha)) * residual / degree
                r[vertex] = 0.0
            else:
                p.add(vertex, alpha * residual)
                share = (1.0 - alpha) * residual / (2.0 * degree)
                r[vertex] = (1.0 - alpha) * residual / 2.0
            pushes += 1
            touched_edges += degree
            for neighbor in graph.neighbors_of(vertex).tolist():
                r.add(neighbor, share)
                if neighbor not in queued and r[neighbor] >= eps * graph.degree(neighbor):
                    queue.append(neighbor)
                    queued.add(neighbor)
    record(work=float(touched_edges + 2 * pushes), depth=0.0, category="sequential")
    # For sequential PR-Nibble the iteration count equals the push count
    # (each iteration pushes one vertex) — the Table 1 convention.
    return DiffusionResult(
        vector=p,
        iterations=pushes,
        pushes=pushes,
        touched_edges=touched_edges,
        extras={"residual_mass": r.l1_norm(), "residual": r},
    )


def _select_beta_fraction(
    eligible: np.ndarray, scores: np.ndarray, beta: float
) -> np.ndarray:
    """Top ``ceil(beta * |eligible|)`` vertices by score (r[v]/d(v))."""
    keep = int(np.ceil(beta * len(eligible)))
    if keep >= len(eligible):
        return eligible
    record(
        work=len(eligible) * max(log2ceil(len(eligible)), 1.0),
        depth=log2ceil(len(eligible)),
        category="sort",
    )
    order = np.lexsort((eligible, -scores))
    return eligible[order[:keep]]


def pr_nibble_parallel(
    graph: CSRGraph,
    seeds: int | np.ndarray,
    params: PRNibbleParams,
    kernel: str | None = None,
) -> DiffusionResult:
    """Frontier-parallel PR-Nibble (Figures 5-6), optionally beta-fraction.

    Reads all residuals at the start of the iteration, then applies
    ``UpdateSelf`` (vertexMap) before ``UpdateNgh`` (edgeMap), matching the
    r / r' two-vector discipline of the pseudocode: pushes use only
    residuals from previous iterations.

    ``kernel`` selects the implementation (see :mod:`repro.kernels`): a
    compiled kernel runs the same rounds over the raw CSR arrays and is
    bit-identical to the numpy rounds below (``kernel="python"``) — entry
    order, values, ``residual_mass``, counters, frontier sizes and the
    recorded work/depth profile.  The numpy rounds also serve
    ``beta < 1``.
    """
    seed_list = seed_array(seeds, graph.num_vertices)
    kernel_name = resolve_kernel(kernel)
    if kernel_name != "python" and params.beta == 1.0:
        return _pr_nibble_parallel_compiled(
            get_kernels(kernel_name), graph, seed_list, params
        )
    alpha = params.alpha
    eps = params.eps
    p = SparseVector()
    r = SparseVector.from_pairs(seed_list, 1.0 / len(seed_list))
    # Degree-0 vertices can never push: the sequential reference pops and
    # skips them, leaving their residual in place.  They must not enter
    # the frontier here either — ``eps * degree`` is 0 for them, so once
    # admitted they stay "eligible" forever (p would also gain mass the
    # reference never grants).
    frontier = VertexSubset(seed_list[graph.degrees(seed_list) > 0])
    iterations = 0
    pushes = 0
    touched_edges = 0
    frontier_sizes: list[int] = []

    while not frontier.is_empty() and iterations < params.max_iterations:
        frontier_values = r.get(frontier.vertices)
        frontier_degrees = np.maximum(graph.degrees(frontier.vertices), 1)

        if params.optimized:
            self_gain = (2.0 * alpha / (1.0 + alpha)) * frontier_values
            new_residual = np.zeros(len(frontier))
            per_vertex_share = (
                ((1.0 - alpha) / (1.0 + alpha)) * frontier_values / frontier_degrees
            )
        else:
            self_gain = alpha * frontier_values
            new_residual = (1.0 - alpha) * frontier_values / 2.0
            per_vertex_share = (1.0 - alpha) * frontier_values / (2.0 * frontier_degrees)

        def update_self(vertices: np.ndarray) -> None:
            p.add(vertices, self_gain)
            r.set(vertices, new_residual)

        vertex_map(frontier, update_self)

        per_edge_share = expand_by_degree(graph, frontier, per_vertex_share)
        pushed_targets: list[np.ndarray] = []

        def update_ngh(sources: np.ndarray, targets: np.ndarray) -> None:
            r.add(targets, per_edge_share)
            pushed_targets.append(targets)

        edge_map(graph, frontier, update_ngh)

        iterations += 1
        pushes += len(frontier)
        touched_edges += int(graph.degrees(frontier.vertices).sum())
        frontier_sizes.append(len(frontier))

        # Only the old frontier and the pushed-to vertices can now be above
        # threshold (everything else is unchanged) — the local filter.
        # edge_map currently delivers all edges in one callback, but the
        # contract allows several; fold every chunk into the candidates.
        if pushed_targets:
            targets = (
                pushed_targets[0]
                if len(pushed_targets) == 1
                else np.concatenate(pushed_targets)
            )
        else:
            targets = np.empty(0, dtype=np.int64)
        candidates = np.unique(np.concatenate([frontier.vertices, targets]))
        candidate_degrees = graph.degrees(candidates)
        residuals = r.get(candidates)
        # Degree-0 candidates are excluded for the same reason as above:
        # an ``eps * 0`` threshold would hold them eligible forever.
        above = (candidate_degrees > 0) & (residuals >= eps * candidate_degrees)
        record(work=len(candidates), depth=log2ceil(len(candidates)), category="filter")
        eligible = candidates[above]
        if params.beta < 1.0 and len(eligible) > 0:
            scores = residuals[above] / np.maximum(candidate_degrees[above], 1)
            eligible = _select_beta_fraction(eligible, scores, params.beta)
        frontier = VertexSubset(eligible)

    return DiffusionResult(
        vector=p,
        iterations=iterations,
        pushes=pushes,
        touched_edges=touched_edges,
        extras={"residual_mass": r.l1_norm(), "residual": r, "frontier_sizes": frontier_sizes},
    )


def _pr_nibble_parallel_compiled(
    kernels, graph: CSRGraph, seed_list: np.ndarray, params: PRNibbleParams,
) -> DiffusionResult:
    """:func:`pr_nibble_parallel` through a compiled frontier kernel.

    The kernel reports per-round counts; this replays, in order, every
    ``record()`` call the numpy rounds make — the hash-table charges
    through the same :class:`TableCharges` the table uses — so the work,
    depth, per-category split and round count match.
    """
    p_keys, p_values, r_keys, r_values, stats = kernels.ppr_bsp(
        graph.offsets, graph.neighbors, seed_list,
        params.alpha, params.eps, params.optimized, params.max_iterations,
    )
    p_charges = TableCharges()
    r_charges = TableCharges(len(seed_list))
    r_charges.insert(len(seed_list), len(seed_list))  # SparseVector.from_pairs
    for size, volume, distinct, candidates, new_p, new_r in stats.tolist():
        r_charges.lookup(size)  # r.get(frontier)
        record(work=size, depth=log2ceil(size), category="vertex_map")
        p_charges.insert(size, new_p)  # p.add(frontier)
        r_charges.insert(size, 0)  # r.set(frontier): frontier keys are stored
        charge_edge_map(size, volume)
        r_charges.insert(distinct, new_r)  # r.add(targets)
        r_charges.lookup(candidates)  # r.get(candidates)
        record(work=candidates, depth=log2ceil(candidates), category="filter")
    p = SparseVector.from_sorted(p_keys, p_values, p_charges)
    r = SparseVector.from_sorted(r_keys, r_values, r_charges)
    return DiffusionResult(
        vector=p,
        iterations=len(stats),
        pushes=int(stats[:, 0].sum()),
        touched_edges=int(stats[:, 1].sum()),
        extras={
            "residual_mass": r.l1_norm(),
            "residual": r,
            "frontier_sizes": stats[:, 0].tolist(),
        },
    )


def pr_nibble(
    graph: CSRGraph,
    seeds: int | np.ndarray,
    params: PRNibbleParams | None = None,
    parallel: bool = True,
    kernel: str | None = None,
) -> DiffusionResult:
    """Run PR-Nibble with default or supplied parameters.

    ``kernel`` selects the push-loop implementation of either path
    (:mod:`repro.kernels`); the default runs compiled code when a C
    compiler is present.  An explicitly requested but unavailable kernel
    raises — better loud than silently different from what was asked for.
    """
    params = params or PRNibbleParams()
    if parallel:
        return pr_nibble_parallel(graph, seeds, params, kernel=kernel)
    return pr_nibble_sequential(graph, seeds, params, kernel=kernel)

