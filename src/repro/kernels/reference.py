"""Pure-Python array-level twins of the compiled kernels.

These functions define the *kernel contract*: flat CSR arrays in, flat
key/value arrays out, with every floating-point operation performed in
exactly the order the sequential reference algorithms in
:mod:`repro.core` perform it.  The C (:mod:`repro.kernels._ckernels`)
implementation is a line-for-line transliteration of these loops, which is what makes the differential
suite's bit-identity assertions meaningful: any divergence is a kernel
bug, never a tolerance question.

They are *not* the implementations the ``kernel="python"`` path runs —
that path is the original object-level code in :mod:`repro.core`
(``SparseDict`` + ``deque``), kept untouched as the behavioural anchor.
These twins exist so the always-available fallback and the compiled
kernels share one shape, and so the compiled kernels can be tested
against a second, independent Python rendering of the same loop.

Two ordering invariants matter beyond the numerics, because
:func:`repro.core.result.vector_items` serialises ``SparseDict`` entries
in dict **insertion** order (never sorted):

* ``p`` keys appear in first-push order;
* ``r`` keys appear seeds-first (ascending — the seed array is already
  ``np.unique``-sorted), then in first-touch order.

All kernels replicate both, so rebuilt sparse vectors — and therefore
cached payloads and cross-process outcomes — are bit-identical to the
reference including entry order.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ppr_push", "sweep_scan", "walk_filter", "walk_advance"]


def ppr_push(
    offsets: np.ndarray,
    neighbors: np.ndarray,
    seeds: np.ndarray,
    alpha: float,
    eps: float,
    optimized: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int, int]:
    """The queue-based PR-Nibble push loop over raw CSR arrays.

    Mirrors :func:`repro.core.pr_nibble.pr_nibble_sequential` operation
    for operation.  Returns ``(p_keys, p_values, r_keys, r_values,
    pushes, touched_edges)`` with keys in dict-insertion order (see the
    module docstring).
    """
    n = len(offsets) - 1
    p = np.zeros(n, dtype=np.float64)
    r = np.zeros(n, dtype=np.float64)
    in_p = np.zeros(n, dtype=np.bool_)
    in_r = np.zeros(n, dtype=np.bool_)
    queued = np.zeros(n, dtype=np.bool_)
    p_order = np.empty(n, dtype=np.int64)
    r_order = np.empty(n, dtype=np.int64)
    num_p = 0
    num_r = 0

    num_seeds = len(seeds)
    r0 = 1.0 / num_seeds
    queue: list[int] = []
    for s in seeds.tolist():
        r[s] = r0
        in_r[s] = True
        r_order[num_r] = s
        num_r += 1
        queue.append(s)
        queued[s] = True

    pushes = 0
    touched_edges = 0
    head = 0
    while head < len(queue):
        vertex = queue[head]
        head += 1
        queued[vertex] = False
        degree = int(offsets[vertex + 1] - offsets[vertex])
        if degree == 0:
            continue
        threshold = eps * degree
        while r[vertex] >= threshold:
            residual = float(r[vertex])
            if optimized:
                gain = (2.0 * alpha / (1.0 + alpha)) * residual
                share = ((1.0 - alpha) / (1.0 + alpha)) * residual / degree
                r[vertex] = 0.0
            else:
                gain = alpha * residual
                share = (1.0 - alpha) * residual / (2.0 * degree)
                r[vertex] = (1.0 - alpha) * residual / 2.0
            if not in_p[vertex]:
                in_p[vertex] = True
                p_order[num_p] = vertex
                num_p += 1
            p[vertex] += gain
            pushes += 1
            touched_edges += degree
            for edge in range(int(offsets[vertex]), int(offsets[vertex + 1])):
                neighbor = int(neighbors[edge])
                if not in_r[neighbor]:
                    in_r[neighbor] = True
                    r_order[num_r] = neighbor
                    num_r += 1
                r[neighbor] += share
                if not queued[neighbor]:
                    nb_degree = int(offsets[neighbor + 1] - offsets[neighbor])
                    if r[neighbor] >= eps * nb_degree:
                        queue.append(neighbor)
                        queued[neighbor] = True
    p_keys = p_order[:num_p].copy()
    r_keys = r_order[:num_r].copy()
    return p_keys, p[p_keys], r_keys, r[r_keys], pushes, touched_edges


def sweep_scan(
    offsets: np.ndarray,
    neighbors: np.ndarray,
    ordered: np.ndarray,
    degrees: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The incremental sweep-cut membership scan over raw CSR arrays.

    Mirrors the loop body of :func:`repro.core.sweep.sweep_cut_sequential`
    (all-integer arithmetic, so bit-identity is structural).  Returns the
    ``(volumes, cuts)`` prefix profiles.
    """
    n = len(ordered)
    members = np.zeros(len(offsets) - 1, dtype=np.bool_)
    volumes = np.empty(n, dtype=np.int64)
    cuts = np.empty(n, dtype=np.int64)
    vol = 0
    cut = 0
    for i in range(n):
        vertex = int(ordered[i])
        vol += int(degrees[i])
        for edge in range(int(offsets[vertex]), int(offsets[vertex + 1])):
            if members[neighbors[edge]]:
                cut -= 1
            else:
                cut += 1
        members[vertex] = True
        volumes[i] = vol
        cuts[i] = cut
    return volumes, cuts


def walk_filter(
    offsets: np.ndarray,
    current: np.ndarray,
    active: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Drop walks whose current vertex is a dead end.

    Returns ``(active_kept, vertices_kept)`` in input order — the lanes
    that will consume one uniform draw each this step, matching the
    ``degrees > 0`` filter in
    :func:`repro.core.rand_hk_pr.rand_hk_pr_parallel` exactly (integer
    comparisons only).
    """
    vertices = current[active]
    walkable = (offsets[vertices + 1] - offsets[vertices]) > 0
    return active[walkable], vertices[walkable]


def walk_advance(
    offsets: np.ndarray,
    neighbors: np.ndarray,
    current: np.ndarray,
    active: np.ndarray,
    vertices: np.ndarray,
    uniforms: np.ndarray,
) -> None:
    """Advance each kept walk by one uniformly random neighbor, in place.

    ``pick = trunc(u * degree)`` reproduces numpy's
    ``(rng.random(k) * degrees).astype(np.int64)`` — one multiply and one
    truncation per lane, in the same order.
    """
    degrees = offsets[vertices + 1] - offsets[vertices]
    pick = (uniforms * degrees).astype(np.int64)
    current[active] = neighbors[offsets[vertices] + pick]
