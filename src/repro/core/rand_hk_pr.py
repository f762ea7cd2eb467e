"""Randomized heat kernel PageRank of Chung & Simpson (paper Section 3.5).

Approximates the heat kernel PageRank by Monte Carlo: run ``N`` lazy-free
random walks from the seed, where a walk's length is ``k`` with probability
``e^{-t} t^k / k!`` (Poisson, truncated at ``K``); the returned vector is
``p / N`` with ``p[v]`` counting the walks that *ended* on ``v``.

* The **sequential** algorithm executes one walk at a time, incrementing a
  dict-backed sparse counter.
* The **parallel** algorithm runs all walks simultaneously (each walk is an
  independent lane of a vectorised step loop).  The paper found that
  aggregating destinations with fetch-and-adds "led to poor speed up since
  many random walks end up on the same vertex causing high memory
  contention"; instead it writes destination ``i`` of walk ``i`` into an
  array ``A``, **integer-sorts** ``A`` (after compressing vertex ids into
  ``[0, N)`` with a parallel hash table) and reads counts off the run
  boundaries with prefix sums and filter.  Both aggregation strategies are
  implemented; the sort-based one is the default, and the ablation
  benchmark compares them.

Work O(N K), depth O(K + log N) (Theorem 5).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graph.csr import CSRGraph
from ..kernels import get_kernels, resolve_kernel
from ..prims.compact import pack_index
from ..prims.hashtable import IntFloatHashTable, TableCharges
from ..prims.sort import charge_integer_sort, integer_sort_order
from ..prims.sparse import SparseDict, SparseVector
from ..runtime import log2ceil, record
from .result import DiffusionResult, check_count, check_real, seed_array

__all__ = [
    "RandHKPRParams",
    "rand_hk_pr_sequential",
    "rand_hk_pr_parallel",
    "rand_hk_pr",
    "aggregate_by_sort",
    "aggregate_by_fetch_add",
]


@dataclass(frozen=True)
class RandHKPRParams:
    """Inputs of rand-HK-PR: temperature t, max walk length K, walk count N.

    The paper's Table 3 setting is ``t=10, K=10, N=1e8``; the walk count
    trades accuracy for time (Figure 8(g,h)) and scales down with graph
    size.
    """

    t: float = 10.0
    max_walk_length: int = 10
    num_walks: int = 100_000

    def __post_init__(self) -> None:
        check_real("t", self.t)
        if self.t <= 0.0:
            raise ValueError("t must be positive")
        check_count("max_walk_length", self.max_walk_length, 0)
        check_count("num_walks", self.num_walks, 1)


def sample_walk_lengths(
    rng: np.random.Generator, params: RandHKPRParams
) -> np.ndarray:
    """Walk lengths: ``min(Poisson(t), K)`` per walk."""
    lengths = rng.poisson(params.t, size=params.num_walks)
    return np.minimum(lengths, params.max_walk_length).astype(np.int64)


def rand_hk_pr_sequential(
    graph: CSRGraph,
    seeds: int | np.ndarray,
    params: RandHKPRParams,
    rng: np.random.Generator | int = 0,
) -> DiffusionResult:
    """One walk at a time, dict-backed counter (the paper's sequential code)."""
    rng = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng
    seed_list = seed_array(seeds, graph.num_vertices)
    p = SparseDict()
    steps = 0
    for _ in range(params.num_walks):
        length = min(rng.poisson(params.t), params.max_walk_length)
        vertex = int(seed_list[rng.integers(len(seed_list))])
        for _ in range(length):
            adjacency = graph.neighbors_of(vertex)
            if len(adjacency) == 0:
                break
            vertex = int(adjacency[rng.integers(len(adjacency))])
            steps += 1
        p.add(vertex, 1.0 / params.num_walks)
    record(work=float(steps + params.num_walks), depth=0.0, category="sequential")
    return DiffusionResult(
        vector=p, iterations=params.num_walks, pushes=params.num_walks, touched_edges=steps
    )


def aggregate_by_sort(destinations: np.ndarray, num_walks: int) -> SparseVector:
    """The paper's contention-free aggregation: hash-compress, sort, count.

    1. insert all destinations into a parallel hash table, mapping each
       distinct vertex to an index in ``[0, U)`` with ``U <= N``;
    2. integer-sort the mapped array (keys bounded by N);
    3. mark run boundaries (the ``B[i] = i`` / ``-1`` + filter construction)
       and difference consecutive offsets for the counts.
    """
    table = IntFloatHashTable(capacity_hint=len(destinations))
    table.accumulate(destinations, 0.0)  # materialise the distinct key set
    distinct, _ = table.items()
    table.assign(distinct, np.arange(len(distinct), dtype=np.float64))
    mapped = table.lookup(destinations).astype(np.int64)
    order = integer_sort_order(mapped, max_key=max(len(distinct) - 1, 0))
    sorted_mapped = mapped[order]
    boundary = np.concatenate([sorted_mapped[1:] != sorted_mapped[:-1], np.asarray([True])])
    ends = pack_index(boundary)
    counts = np.diff(np.concatenate([np.asarray([-1]), ends]))
    record(work=len(destinations), depth=log2ceil(len(destinations)), category="scan")
    vertices = destinations[order[ends]]
    return SparseVector.from_pairs(vertices, counts.astype(np.float64) / num_walks)


def _aggregate_by_sort_compiled(
    kernels, num_vertices: int, destinations: np.ndarray, num_walks: int
) -> SparseVector:
    """:func:`aggregate_by_sort` through the compiled endpoint count,
    replaying its ``record()`` calls, in order, from the walk and
    distinct-endpoint counts."""
    vertices, counts = kernels.endpoint_count(num_vertices, destinations)
    walks, distinct = len(destinations), len(vertices)
    table = TableCharges(walks)
    table.insert(distinct, distinct)  # table.accumulate(destinations, 0.0)
    table.scan()  # table.items()
    table.insert(distinct, 0)  # table.assign(distinct keys, their indices)
    table.lookup(walks)  # table.lookup(destinations)
    charge_integer_sort(walks, max(distinct - 1, 0))
    record(work=walks, depth=log2ceil(walks), category="filter")  # run ends
    record(work=walks, depth=log2ceil(walks), category="scan")
    charges = TableCharges(distinct)
    charges.insert(distinct, distinct)  # SparseVector.from_pairs
    return SparseVector.from_sorted(
        vertices, counts.astype(np.float64) / num_walks, charges
    )


def aggregate_by_fetch_add(destinations: np.ndarray, num_walks: int) -> SparseVector:
    """Naive aggregation: a round of fetch-and-adds into the sparse set.

    This is the variant the paper rejects for its memory contention; it is
    kept for the ablation benchmark.  (In bulk-synchronous form the
    contention shows up as the duplicate-heavy combine inside
    ``SparseVector.add``.)
    """
    p = SparseVector(capacity_hint=len(destinations))
    p.add(destinations, 1.0 / num_walks)
    return p


def rand_hk_pr_parallel(
    graph: CSRGraph,
    seeds: int | np.ndarray,
    params: RandHKPRParams,
    rng: np.random.Generator | int = 0,
    aggregation: str = "sort",
    kernel: str | None = None,
) -> DiffusionResult:
    """All walks in parallel; destination aggregation per ``aggregation``.

    Each vectorised step advances every still-active walk by one uniformly
    random neighbor (walks at dead-end vertices stop early).  Depth is
    O(K + log N): the step loop plus the aggregation.

    ``kernel`` selects the per-step filter/advance implementation and
    the sort aggregation's (:mod:`repro.kernels`): compiled kernels fuse
    the degree filter and the ``neighbor_at`` gather, and count the walk
    endpoints in place of the hash-compress-sort of
    :func:`aggregate_by_sort`, recording the same work/depth.  The uniform
    draws stay in this wrapper — between the filter (which fixes how many
    are drawn) and the advance — so the rng stream, and therefore every
    walk, is bit-identical to the numpy path.  ``aggregation="fetch_add"``
    takes the numpy path.
    """
    if aggregation not in ("sort", "fetch_add"):
        raise ValueError("aggregation must be 'sort' or 'fetch_add'")
    rng = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng
    seed_list = seed_array(seeds, graph.num_vertices)
    kernel_name = resolve_kernel(kernel)
    kernels = get_kernels(kernel_name) if kernel_name != "python" else None
    lengths = sample_walk_lengths(rng, params)
    current = seed_list[rng.integers(len(seed_list), size=params.num_walks)].copy()
    steps = 0
    for step in range(params.max_walk_length):
        active = np.flatnonzero(lengths > step)
        if len(active) == 0:
            break
        if kernels is not None:
            active, vertices = kernels.walk_filter(graph.offsets, current, active)
            if len(active) == 0:
                break
            uniforms = rng.random(len(active))
            kernels.walk_advance(
                graph.offsets, graph.neighbors, current, active, vertices, uniforms
            )
        else:
            vertices = current[active]
            degrees = graph.degrees(vertices)
            walkable = degrees > 0
            active = active[walkable]
            if len(active) == 0:
                break
            vertices = vertices[walkable]
            degrees = degrees[walkable]
            pick = (rng.random(len(active)) * degrees).astype(np.int64)
            current[active] = graph.neighbor_at(vertices, pick)
        steps += len(active)
        record(work=len(active), depth=1.0, category="walk")
    record(work=params.num_walks, depth=log2ceil(params.num_walks), category="walk")

    if aggregation == "sort" and kernels is not None:
        vector = _aggregate_by_sort_compiled(
            kernels, graph.num_vertices, current, params.num_walks
        )
    elif aggregation == "sort":
        vector = aggregate_by_sort(current, params.num_walks)
    else:
        vector = aggregate_by_fetch_add(current, params.num_walks)
    return DiffusionResult(
        vector=vector,
        iterations=params.max_walk_length,
        pushes=params.num_walks,
        touched_edges=steps,
        extras={"aggregation": aggregation},
    )


def rand_hk_pr(
    graph: CSRGraph,
    seeds: int | np.ndarray,
    params: RandHKPRParams | None = None,
    parallel: bool = True,
    rng: np.random.Generator | int = 0,
    kernel: str | None = None,
) -> DiffusionResult:
    """Run rand-HK-PR with default or supplied parameters.

    ``kernel`` accelerates the parallel step loop (:mod:`repro.kernels`).
    The sequential variant draws from the rng once per individual step,
    an interleaving no batched kernel can reproduce bit-identically, so
    it always runs the reference loop (the knob is still validated).
    """
    params = params or RandHKPRParams()
    if parallel:
        return rand_hk_pr_parallel(graph, seeds, params, rng=rng, kernel=kernel)
    resolve_kernel(kernel)
    return rand_hk_pr_sequential(graph, seeds, params, rng=rng)
