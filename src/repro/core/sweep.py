"""Sweep cut: rounding a diffusion vector into a cluster (paper Section 3.1).

The sweep cut sorts the vertices with positive mass by non-increasing
degree-normalised mass ``p[v]/d(v)`` and returns the prefix set with the
lowest conductance.  Two implementations:

* :func:`sweep_cut_sequential` — the standard incremental algorithm: insert
  vertices one by one, maintaining ``vol(S)`` and ``∂(S)`` with a membership
  set; O(N log N + vol(S_N)) work.
* :func:`sweep_cut_parallel` — the work-efficient parallel algorithm of
  **Theorem 1**: build the signed pair array ``Z`` of size ``2 vol(S_N)``
  (case (a): ``(1, rank(v)), (-1, rank(w))`` for edges pointing forward in
  the ordering; case (b): ``(0, ·), (0, ·)`` for their mirror images), sort
  ``Z`` by rank with an integer sort, prefix-sum the signs, and read off
  ``∂(S_i)`` as the running sum at the end of each rank's run.  Work
  O(N log N + vol(S_N)), depth O(log vol(S_N)) w.h.p.

Both return the identical :class:`~repro.core.result.SweepResult` profile
(the tests check this on random inputs); ties in ``p[v]/d(v)`` break
towards the smaller vertex id in both.
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import CSRGraph
from ..kernels import get_kernels, resolve_kernel
from ..ligra import charge_gather
from ..prims.compact import pack_index
from ..prims.hashtable import IntFloatHashTable, TableCharges
from ..prims.scan import argmin_via_scan, prefix_sum
from ..prims.sort import charge_integer_sort, integer_sort_order
from ..runtime import log2ceil, record
from .result import SweepResult, vector_items

__all__ = ["sweep_cut", "sweep_cut_sequential", "sweep_cut_parallel", "sweep_order"]


def sweep_order(
    graph: CSRGraph, vector, category: str = "sort"
) -> tuple[np.ndarray, np.ndarray]:
    """Vertices with positive mass sorted by non-increasing ``p[v]/d(v)``.

    Returns ``(ordered_vertices, their_degrees)``.  Zero-degree vertices
    cannot affect any cut and are excluded.  Ties break towards the smaller
    vertex id so that the sequential and parallel sweeps scan prefixes in
    the same order.  ``category`` controls cost accounting: the sequential
    sweep records its sort as non-parallelisable work.  A key outside the
    graph's vertex range raises ``ValueError``.
    """
    keys, values = vector_items(vector)
    if len(keys) and (keys.min() < 0 or keys.max() >= graph.num_vertices):
        raise ValueError(
            f"vector key out of range for a {graph.num_vertices}-vertex graph"
        )
    degrees = graph.degrees(keys)
    positive = (values > 0.0) & (degrees > 0)
    keys = keys[positive]
    values = values[positive]
    degrees = degrees[positive]
    n = len(keys)
    record(work=n * max(log2ceil(n), 1.0), depth=log2ceil(n), category=category)
    # lexsort: last key is primary.  Negated score => non-increasing order;
    # vertex id ascending breaks ties deterministically.
    order = np.lexsort((keys, -values / degrees))
    return keys[order], degrees[order]


def _guarded_conductance(cuts: np.ndarray, volumes: np.ndarray, total_volume: int) -> np.ndarray:
    """φ per prefix with the 0/0 = 1.0 convention for full-volume prefixes."""
    denominator = np.minimum(volumes, total_volume - volumes)
    phi = np.ones(len(cuts), dtype=np.float64)
    valid = denominator > 0
    phi[valid] = cuts[valid] / denominator[valid]
    return phi


def sweep_cut_sequential(graph: CSRGraph, vector, kernel: str | None = None) -> SweepResult:
    """Reference sequential sweep: incremental volume/boundary bookkeeping.

    For each arriving vertex ``v_i``: ``vol += d(v_i)`` and for each edge
    ``(v_i, w)``, decrement the cut if ``w`` is already a member (the edge
    stops crossing) else increment it — exactly the update rule described
    in Section 3.1.  ``kernel`` selects the scan implementation
    (:mod:`repro.kernels`); the scan is all-integer, so compiled kernels
    are bit-identical by construction.
    """
    ordered, degrees = sweep_order(graph, vector, category="sequential")
    n = len(ordered)
    if n == 0:
        raise ValueError("sweep cut needs at least one vertex with positive mass")
    total_volume = graph.total_volume
    kernel_name = resolve_kernel(kernel)
    if kernel_name != "python":
        volumes, cuts = get_kernels(kernel_name).sweep_scan(
            graph.offsets, graph.neighbors, ordered, degrees
        )
        vol = int(volumes[-1])
    else:
        members: set[int] = set()
        vol = 0
        cut = 0
        volumes = np.empty(n, dtype=np.int64)
        cuts = np.empty(n, dtype=np.int64)
        for i, (vertex, degree) in enumerate(zip(ordered.tolist(), degrees.tolist())):
            vol += degree
            for neighbor in graph.neighbors_of(vertex).tolist():
                if neighbor in members:
                    cut -= 1
                else:
                    cut += 1
            members.add(vertex)
            volumes[i] = vol
            cuts[i] = cut
    record(work=float(vol + n), depth=0.0, category="sequential")
    conductances = _guarded_conductance(cuts, volumes, total_volume)
    best = int(np.argmin(conductances))
    return SweepResult(
        order=ordered, conductances=conductances, volumes=volumes, cuts=cuts, best_index=best
    )


def sweep_cut_parallel(graph: CSRGraph, vector, kernel: str | None = None) -> SweepResult:
    """Work-efficient parallel sweep cut (Theorem 1).

    Follows the construction in the paper's proof and worked example:

    1. sort candidates by ``p[v]/d(v)`` (comparison sort);
    2. build the ``rank`` sparse set mapping vertex -> 1-based rank, with
       non-members implicitly at rank N+1;
    3. prefix-sum the degrees in rank order -> ``vol(S_i)`` for every i;
    4. emit two pairs per gathered edge into ``Z``: ``(1, rank(v))`` and
       ``(-1, rank(w))`` when ``rank(w) > rank(v)`` (case a), two zero
       pairs otherwise (case b);
    5. integer-sort ``Z`` by rank, prefix-sum the signs; the running sum at
       the last entry of rank i's run is ``|∂(S_i)|``;
    6. a min-scan over the N conductances selects the best prefix.

    ``kernel`` selects how steps 2-5 run (:mod:`repro.kernels`).  They are
    all-integer, so a compiled kernel takes the volumes and cuts from the
    membership scan (``sweep_scan``), which yields the same arrays, and
    records the same work/depth as the numpy steps (``kernel="python"``).
    """
    ordered, degrees = sweep_order(graph, vector)
    n = len(ordered)
    if n == 0:
        raise ValueError("sweep cut needs at least one vertex with positive mass")
    kernel_name = resolve_kernel(kernel)
    if kernel_name != "python":
        volumes, cuts = get_kernels(kernel_name).sweep_scan(
            graph.offsets, graph.neighbors, ordered, degrees
        )
        _charge_prefix_steps(n, int(volumes[-1]))
    else:
        volumes, cuts = _prefix_steps(graph, ordered, degrees)
    conductances = _guarded_conductance(cuts, volumes, graph.total_volume)
    best = argmin_via_scan(conductances)
    return SweepResult(
        order=ordered, conductances=conductances, volumes=volumes, cuts=cuts, best_index=best
    )


def _prefix_steps(
    graph: CSRGraph, ordered: np.ndarray, degrees: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Steps 2-5 of Theorem 1: ``(volumes, cuts)`` of every prefix."""
    n = len(ordered)

    # Step 2: rank sparse set (hash table), ranks are 1-based.
    rank_table = IntFloatHashTable(capacity_hint=n)
    ranks = np.arange(1, n + 1, dtype=np.int64)
    rank_table.assign(ordered, ranks.astype(np.float64))

    # Step 3: volumes of all prefixes via prefix sum over sorted degrees.
    volumes = prefix_sum(degrees)

    # Step 4: gather the edges of S_N in rank order and build Z.
    sources, targets = graph.gather_edges(ordered)
    source_rank = np.repeat(ranks, degrees)
    target_rank = rank_table.lookup(targets, default=float(n + 1)).astype(np.int64)
    forward = target_rank > source_rank  # case (a)

    num_edges = len(sources)
    z_sign = np.zeros(2 * num_edges, dtype=np.int64)
    z_rank = np.empty(2 * num_edges, dtype=np.int64)
    z_sign[0::2] = np.where(forward, 1, 0)
    z_rank[0::2] = source_rank
    z_sign[1::2] = np.where(forward, -1, 0)
    z_rank[1::2] = target_rank
    record(work=2.0 * num_edges, depth=log2ceil(max(num_edges, 1)), category="misc")

    # Step 5: integer sort by rank (max key N+1 = O(vol)), prefix sum signs.
    z_order = integer_sort_order(z_rank, max_key=n + 1)
    sorted_rank = z_rank[z_order]
    running = prefix_sum(z_sign[z_order])

    # Every rank 1..N appears in Z (each member vertex has degree >= 1 and
    # contributes a pair with its own rank per incident edge); the last
    # entry of each rank's run carries |∂(S_i)|.
    run_end = pack_index(
        np.concatenate([sorted_rank[1:] != sorted_rank[:-1], np.asarray([True])])
    )
    run_rank = sorted_rank[run_end]
    member_runs = run_rank <= n
    cuts = np.zeros(n, dtype=np.int64)
    cuts[run_rank[member_runs] - 1] = running[run_end[member_runs]]
    return volumes, cuts


def _charge_prefix_steps(n: int, volume: int) -> None:
    """Replay, in order, the ``record()`` calls of :func:`_prefix_steps`
    for N candidates of total degree ``volume`` (>= N)."""
    rank_charges = TableCharges(n)
    rank_charges.insert(n, n)  # step 2: rank_table.assign
    record(work=n, depth=log2ceil(n), category="scan")  # step 3: prefix_sum
    charge_gather(n, volume)  # step 4: gather_edges, rank lookups, Z build
    rank_charges.lookup(volume)
    record(work=2.0 * volume, depth=log2ceil(volume), category="misc")
    # step 5: integer sort, sign prefix sum, run-end pack over 2 vol pairs
    charge_integer_sort(2 * volume, n + 1)
    record(work=2 * volume, depth=log2ceil(2 * volume), category="scan")
    record(work=2 * volume, depth=log2ceil(2 * volume), category="filter")


def sweep_cut(
    graph: CSRGraph, vector, parallel: bool = True, kernel: str | None = None
) -> SweepResult:
    """Dispatch to the parallel (default) or sequential sweep cut.

    ``kernel`` selects the membership-scan implementation of either path
    (:mod:`repro.kernels`); the default runs compiled code when a C
    compiler is present.
    """
    if parallel:
        return sweep_cut_parallel(graph, vector, kernel=kernel)
    return sweep_cut_sequential(graph, vector, kernel=kernel)
