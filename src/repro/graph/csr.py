"""Compressed-sparse-row graph — the in-memory representation.

All graphs in the paper are undirected and unweighted (Section 2); Ligra
stores them in CSR so that the edges of a vertex subset can be gathered with
work proportional to the subset's volume.  :class:`CSRGraph` mirrors that:
``offsets`` (length n+1) indexes into ``neighbors`` (length 2m, each
undirected edge stored in both directions).

The key bulk operation is :meth:`CSRGraph.gather_edges`, which materialises
the ``(source, destination)`` pairs of all edges incident to a frontier in
O(volume) work and O(log volume) depth — exactly the cost Ligra's
``edgeMap`` is charged in the paper.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING

import numpy as np

from ..prims.scan import exclusive_prefix_sum
from ..runtime import log2ceil, record

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .shared import SharedCSR, SharedCSRHandle

__all__ = ["CSRGraph", "FINGERPRINT_BLOCK"]

#: Vertices per fingerprint block.  Each block of consecutive vertices is
#: hashed once; an update re-hashes only the blocks it touches.
FINGERPRINT_BLOCK = 32
_BLOCK_DIGEST = 20


class CSRGraph:
    """Undirected, unweighted graph in compressed-sparse-row form.

    Build instances with :mod:`repro.graph.builder` (which symmetrises,
    deduplicates and removes self-loops) or a generator from
    :mod:`repro.graph.generators`; the constructor itself only validates
    structural consistency of pre-built arrays.
    """

    __slots__ = ("offsets", "neighbors", "_fingerprint", "_blocks", "__weakref__")

    def __init__(self, offsets: np.ndarray, neighbors: np.ndarray) -> None:
        offsets = np.ascontiguousarray(offsets, dtype=np.int64)
        neighbors = np.ascontiguousarray(neighbors, dtype=np.int64)
        if offsets.ndim != 1 or neighbors.ndim != 1:
            raise ValueError("offsets and neighbors must be 1-D arrays")
        if len(offsets) == 0 or offsets[0] != 0:
            raise ValueError("offsets must start with 0")
        if offsets[-1] != len(neighbors):
            raise ValueError("offsets must end at len(neighbors)")
        if len(offsets) > 1 and (np.diff(offsets) < 0).any():
            raise ValueError("offsets must be non-decreasing")
        if len(neighbors) > 0 and (neighbors.min() < 0 or neighbors.max() >= len(offsets) - 1):
            raise ValueError("neighbor ids out of range")
        self.offsets = offsets
        self.neighbors = neighbors

    # ------------------------------------------------------------------
    # Sizes (paper notation: n = |V|, m = |E| undirected, vol(V) = 2m)
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """n — number of vertices."""
        return len(self.offsets) - 1

    @property
    def num_edges(self) -> int:
        """m — number of *undirected* edges."""
        return len(self.neighbors) // 2

    @property
    def total_volume(self) -> int:
        """vol(V) = 2m — the sum of all degrees."""
        return len(self.neighbors)

    def __repr__(self) -> str:
        return f"CSRGraph(n={self.num_vertices}, m={self.num_edges})"

    # ------------------------------------------------------------------
    # Content fingerprint (the cache's graph identity)
    # ------------------------------------------------------------------
    def fingerprint(self) -> str:
        """Stable content hash of the CSR arrays, memoised on the instance.

        Two graphs have equal fingerprints iff their ``offsets`` and
        ``neighbors`` arrays are element-wise identical, so the value
        survives any lossless round-trip through :mod:`repro.graph.io` and
        changes when any edge is added, removed, or rewired.  ``CSRGraph``
        itself is unweighted (``__slots__`` admits no ``weights``), but a
        subclass that adds a ``weights`` array gets it folded in, so a
        weighted variant can never alias its unweighted skeleton.  The CSR
        arrays are treated as immutable after construction (everything in
        this codebase reads but never writes them); mutating them in place
        would silently invalidate the memo.

        The hash is a two-level blake2b: one 20-byte digest per block of
        :data:`FINGERPRINT_BLOCK` consecutive vertices (over the block's
        degrees and its slice of ``neighbors``), then one digest over the
        sizes and the block digests in order.  The block digests are
        memoised too, so an updated version re-hashes only the blocks
        holding vertices whose adjacency changed
        (:meth:`inherit_fingerprint`).
        """
        cached = getattr(self, "_fingerprint", None)
        if cached is not None:
            return cached
        count = -(-self.num_vertices // FINGERPRINT_BLOCK)
        blocks = bytearray(count * _BLOCK_DIGEST)
        self._hash_blocks(blocks, np.arange(count, dtype=np.int64))
        return self._seal(blocks)

    def inherit_fingerprint(self, parent: "CSRGraph", touched: np.ndarray) -> str:
        """Memoise this graph's fingerprint from ``parent``'s block digests.

        ``touched`` must hold every vertex whose degree or adjacency list
        differs between ``parent`` and this graph (same vertex count); only
        their blocks are re-hashed, every other block digest is copied.
        The value equals :meth:`fingerprint` from scratch.
        """
        parent.fingerprint()
        if any(getattr(graph, "weights", None) is not None for graph in (parent, self)):
            return self.fingerprint()  # weights are not tracked per update
        blocks = bytearray(parent._blocks)
        touched = np.asarray(touched, dtype=np.int64)
        self._hash_blocks(blocks, np.unique(touched // FINGERPRINT_BLOCK))
        return self._seal(blocks)

    def _hash_blocks(self, blocks: bytearray, which: np.ndarray) -> None:
        """Write the digests of the blocks numbered ``which`` into ``blocks``."""
        offsets = self.offsets
        n = self.num_vertices
        low = which * FINGERPRINT_BLOCK
        high = np.minimum(low + FINGERPRINT_BLOCK, n)
        degrees = memoryview(np.diff(offsets))
        edges = memoryview(self.neighbors)
        weights = getattr(self, "weights", None)
        if weights is not None:
            weights = memoryview(np.ascontiguousarray(weights))
        for block, first, last, start, stop in zip(
            which.tolist(), low.tolist(), high.tolist(),
            offsets[low].tolist(), offsets[high].tolist(),
        ):
            digest = hashlib.blake2b(degrees[first:last], digest_size=_BLOCK_DIGEST)
            digest.update(edges[start:stop])
            if weights is not None:
                digest.update(weights[start:stop])
            blocks[block * _BLOCK_DIGEST : (block + 1) * _BLOCK_DIGEST] = digest.digest()

    def _seal(self, blocks: bytearray) -> str:
        """The fingerprint over the sizes and the block digests; memoises both."""
        digest = hashlib.blake2b(digest_size=20)
        sizes = [FINGERPRINT_BLOCK, self.num_vertices, len(self.neighbors)]
        weights = getattr(self, "weights", None)
        if weights is not None:
            digest.update(b"weights" + str(weights.dtype).encode("ascii"))
            sizes.append(len(weights))
        digest.update(np.asarray(sizes, dtype=np.int64).tobytes())
        digest.update(blocks)
        self._blocks = blocks
        self._fingerprint = digest.hexdigest()
        return self._fingerprint

    # ------------------------------------------------------------------
    # Shared-memory export (the engine's cross-process graph plane)
    # ------------------------------------------------------------------
    def share(self) -> "SharedCSR":
        """Export the CSR arrays into shared-memory segments.

        Returns an owning :class:`repro.graph.shared.SharedCSR`; pass its
        ``handle()`` to worker processes and rebuild the graph there with
        :meth:`attach`.  The caller (or an ``atexit`` guard) must
        ``unlink()`` the segments — ``with graph.share() as shared: ...``
        does so deterministically.
        """
        from .shared import SharedCSR

        return SharedCSR.create(self)

    @classmethod
    def attach(cls, handle: "SharedCSRHandle") -> "SharedCSR":
        """Attach zero-copy to a graph exported by :meth:`share`.

        Works under any ``multiprocessing`` start method; the returned
        :class:`SharedCSR`'s ``graph`` attribute is a read-only
        :class:`CSRGraph` view over the shared segments.
        """
        from .shared import SharedCSR

        return SharedCSR.attach(handle)

    # ------------------------------------------------------------------
    # Degrees and adjacency
    # ------------------------------------------------------------------
    def degree(self, vertex: int) -> int:
        """d(v) — number of edges incident on ``vertex``."""
        return int(self.offsets[vertex + 1] - self.offsets[vertex])

    def degrees(self, vertices: np.ndarray | None = None) -> np.ndarray:
        """Degrees of ``vertices`` (or of every vertex when omitted)."""
        if vertices is None:
            return np.diff(self.offsets)
        vertices = np.asarray(vertices, dtype=np.int64)
        return self.offsets[vertices + 1] - self.offsets[vertices]

    def neighbors_of(self, vertex: int) -> np.ndarray:
        """Read-only view of the adjacency list of ``vertex``."""
        return self.neighbors[self.offsets[vertex] : self.offsets[vertex + 1]]

    def volume(self, vertices: np.ndarray) -> int:
        """vol(S) — sum of degrees over the vertex set ``vertices``."""
        return int(self.degrees(np.asarray(vertices, dtype=np.int64)).sum())

    def neighbor_at(self, vertices: np.ndarray, pick: np.ndarray) -> np.ndarray:
        """The ``pick``-th neighbor of each vertex (vectorised walk step)."""
        vertices = np.asarray(vertices, dtype=np.int64)
        pick = np.asarray(pick, dtype=np.int64)
        return self.neighbors[self.offsets[vertices] + pick]

    def has_edge(self, u: int, v: int) -> bool:
        """Membership test via binary search (adjacency lists are sorted)."""
        adjacency = self.neighbors_of(u)
        position = np.searchsorted(adjacency, v)
        return bool(position < len(adjacency) and adjacency[position] == v)

    # ------------------------------------------------------------------
    # Bulk edge gather (the engine under edgeMap)
    # ------------------------------------------------------------------
    def gather_edges(self, vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """All directed edges leaving ``vertices`` as ``(sources, targets)``.

        Work O(|vertices| + vol(vertices)), depth O(log vol): per-vertex
        degrees are scanned into write offsets and every edge slot is filled
        independently — the data-parallel edge gather Ligra performs inside
        ``edgeMap``.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        if len(vertices) == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        degs = self.degrees(vertices)
        starts, total = exclusive_prefix_sum(degs)
        total = int(total)
        record(work=len(vertices) + total, depth=log2ceil(max(total, 1)), category="edge_map")
        if total == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        slot = np.arange(total, dtype=np.int64)
        per_vertex_base = np.repeat(self.offsets[vertices], degs)
        within = slot - np.repeat(starts, degs)
        sources = np.repeat(vertices, degs)
        targets = self.neighbors[per_vertex_base + within]
        return sources, targets

    # ------------------------------------------------------------------
    # Validation (used by tests and the builder)
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Raise ``ValueError`` unless the graph is simple and symmetric."""
        n = self.num_vertices
        for vertex in range(n):
            adjacency = self.neighbors_of(vertex)
            if len(adjacency) > 1 and (np.diff(adjacency) <= 0).any():
                raise ValueError(f"adjacency of {vertex} not strictly increasing")
            if (adjacency == vertex).any():
                raise ValueError(f"self-loop at {vertex}")
        sources, targets = self.gather_edges(np.arange(n, dtype=np.int64))
        forward = set(zip(sources.tolist(), targets.tolist()))
        for u, v in forward:
            if (v, u) not in forward:
                raise ValueError(f"edge ({u}, {v}) missing its reverse")
