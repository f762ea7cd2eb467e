"""Evolving-graph plane: immutable versions over batched edge updates.

Production graphs mutate under traffic, but every execution plane (engine,
cache, serving) assumes one frozen :class:`~repro.graph.csr.CSRGraph`.
This module reconciles the two: an update batch (edge insertions and
deletions) produces a **new immutable version** rather than mutating in
place, so every existing invariant — content fingerprints as cache
identity, zero-copy shared exports, bit-identical parallel execution —
keeps holding per version.

Three pieces:

* :func:`apply_updates` / :meth:`GraphVersion.apply` — apply one batch,
  producing a :class:`GraphVersion` that carries the materialised graph,
  its own content fingerprint, a parent link, and the **touched-vertex
  set** of the delta (the vertices whose adjacency lists changed).  The
  touched set is what cache migration consumes:
  :func:`repro.cache.advance_version` carries results across versions and
  invalidates only entries whose recorded support intersects the delta
  region.
* Two materialisation paths with a **rebuild threshold**: small batches
  take the delta path — one pass that block-copies the parent's
  ``neighbors`` between change positions into a preallocated array
  (O(changes · log d) search work plus one memcpy, no global re-sort) —
  while batches touching more than ``rebuild_threshold`` of the
  directed-edge volume rebuild from the full edge list.  Both paths land
  on the *identical canonical arrays*: CSR with sorted, deduplicated
  adjacency is a canonical form, so the fingerprint depends only on the
  edge set, never on the update path or ordering that produced it (the
  version-identity invariant the property suite pins).  A new version's
  fingerprint re-hashes only the blocks holding touched vertices
  (:meth:`~repro.graph.csr.CSRGraph.inherit_fingerprint`).
* :class:`EvolvingGraph` — the version chain: ``apply_updates`` appends,
  ``at(k)`` addresses any historical version, ``latest`` tracks the head.
  Engines and services built over an :class:`EvolvingGraph` resolve a
  ``graph_version`` knob against this chain.  Versions are kept as
  deltas: the chain holds CSRs only for the root, the latest version and
  its parent, and an older version's ``graph`` is replayed from the
  nearest ancestor whose CSR is still alive.

>>> from repro.graph import cycle_graph
>>> from repro.graph.evolving import EvolvingGraph
>>> chain = EvolvingGraph(cycle_graph(6))
>>> v1 = chain.apply_updates(insertions=[(0, 3)])
>>> (v1.version, sorted(v1.touched.tolist()), v1.graph.has_edge(0, 3))
(1, [0, 3], True)
>>> chain.apply_updates(deletions=[(0, 3)]).graph.fingerprint() == chain.at(0).graph.fingerprint()
True
"""

from __future__ import annotations

import weakref
from typing import Iterable, Sequence

import numpy as np

from .builder import edge_arrays_of, from_edge_arrays
from .csr import CSRGraph

__all__ = [
    "DEFAULT_REBUILD_THRESHOLD",
    "EvolvingGraph",
    "GraphVersion",
    "apply_updates",
    "normalize_update_edges",
]

#: Directed-change fraction above which a batch rebuilds the CSR from the
#: full edge list instead of splicing rows into the parent's arrays.
DEFAULT_REBUILD_THRESHOLD = 0.25


def normalize_update_edges(
    edges: Iterable[Sequence[int]] | np.ndarray, num_vertices: int
) -> np.ndarray:
    """Update pairs as a deduplicated ``(k, 2)`` int64 array with ``u < v``.

    Updates are explicit user input, so unlike the bulk builders nothing is
    silently altered: non-integer endpoints (floats, strings, bools),
    self-loops and out-of-range endpoints raise.
    """
    pairs = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges)
    if pairs.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    if pairs.dtype.kind not in "iu":
        raise ValueError(f"update endpoints must be integers, got dtype {pairs.dtype}")
    pairs = pairs.astype(np.int64, copy=False).reshape(-1, 2)
    if pairs.min() < 0 or pairs.max() >= num_vertices:
        raise ValueError(
            f"update endpoints must be in [0, {num_vertices}); got "
            f"[{pairs.min()}, {pairs.max()}]"
        )
    if np.any(pairs[:, 0] == pairs[:, 1]):
        raise ValueError("edge updates must not contain self-loops")
    lo = np.minimum(pairs[:, 0], pairs[:, 1])
    hi = np.maximum(pairs[:, 0], pairs[:, 1])
    encoded = np.unique(lo * np.int64(num_vertices) + hi)
    return np.stack([encoded // num_vertices, encoded % num_vertices], axis=1)


def _directed_encodings(pairs: np.ndarray, num_vertices: int) -> np.ndarray:
    """Both directions of each ``u < v`` pair as sorted ``src * n + dst`` keys."""
    n = np.int64(num_vertices)
    forward = pairs[:, 0] * n + pairs[:, 1]
    backward = pairs[:, 1] * n + pairs[:, 0]
    return np.sort(np.concatenate([forward, backward]))


def _row_positions(graph: CSRGraph, sources: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Where each ``target`` sits, or would be inserted, in its source's row.

    One vectorised binary search over every pair at once: adjacency rows
    are sorted, so this is ``offsets[s] + searchsorted(row(s), t)``.
    """
    low = graph.offsets[sources]
    high = graph.offsets[sources + 1]
    while True:
        open_ = low < high
        if not open_.any():
            return low
        middle = (low + high) // 2
        right = open_ & (graph.neighbors[np.where(open_, middle, 0)] < targets)
        low = np.where(right, middle + 1, low)
        high = np.where(open_ & ~right, middle, high)


def _present_mask(graph: CSRGraph, pairs: np.ndarray) -> np.ndarray:
    """Which ``u < v`` pairs are existing edges of ``graph``."""
    sources, targets = pairs[:, 0], pairs[:, 1]
    positions = _row_positions(graph, sources, targets)
    present = positions < graph.offsets[sources + 1]
    present[present] = graph.neighbors[positions[present]] == targets[present]
    return present


def _splice(graph: CSRGraph, insert: np.ndarray, delete: np.ndarray) -> CSRGraph:
    """Delta path: one pass over the parent's arrays, patching changed rows.

    Each directed change is located by a binary search in its source's
    sorted row.  The new ``neighbors`` is one preallocated array: the
    parent's runs between change positions are block-copied, inserted
    targets written between them and deleted entries skipped.  Offsets
    shift by the running degree change.  The result is the same canonical
    array a full rebuild would produce.
    """
    n = graph.num_vertices
    add = _directed_encodings(insert, n)
    remove = _directed_encodings(delete, n)

    def located(keys: np.ndarray, deleted: int) -> list[tuple[int, int, int]]:
        positions = _row_positions(graph, keys // n, keys % n).tolist()
        return [(position, deleted, key) for position, key in zip(positions, keys.tolist())]

    # At one position an insertion goes before the parent entry a deletion
    # skips; insertions sharing a position (the end of one row and the
    # start of the next) keep key order.
    changes = sorted(located(add, 0) + located(remove, 1))
    old = graph.neighbors
    neighbors = np.empty(len(old) + len(add) - len(remove), dtype=np.int64)
    read = write = 0
    for position, deleted, key in changes:
        neighbors[write : write + position - read] = old[read:position]
        write += position - read
        if deleted:
            read = position + 1
        else:
            neighbors[write] = key % n
            write += 1
            read = position
    neighbors[write:] = old[read:]
    shift = np.bincount(add // n + 1, minlength=n + 1) - np.bincount(
        remove // n + 1, minlength=n + 1
    )
    return CSRGraph(graph.offsets + np.cumsum(shift), neighbors)


def _rebuild(graph: CSRGraph, insert: np.ndarray, delete: np.ndarray) -> CSRGraph:
    """Rebuild path: full canonical rebuild from the updated edge list."""
    n = graph.num_vertices
    sources, targets = edge_arrays_of(graph)
    encoded = sources * np.int64(n) + targets  # u < v, unique
    if len(delete):
        remove = delete[:, 0] * np.int64(n) + delete[:, 1]
        encoded = encoded[~np.isin(encoded, remove)]
    if len(insert):
        encoded = np.concatenate([encoded, insert[:, 0] * np.int64(n) + insert[:, 1]])
    return from_edge_arrays(encoded // n, encoded % n, num_vertices=n)


def _derive(
    graph: CSRGraph, insert: np.ndarray, delete: np.ndarray, touched: np.ndarray, rebuild: bool
) -> CSRGraph:
    """``graph`` with one batch of effective changes applied, its
    fingerprint memoised from ``graph``'s block digests."""
    if not len(insert) and not len(delete):
        return graph
    updated = (_rebuild if rebuild else _splice)(graph, insert, delete)
    updated.inherit_fingerprint(graph, touched)
    return updated


class GraphVersion:
    """One immutable version of an evolving graph.

    ``graph`` is a plain canonical :class:`~repro.graph.csr.CSRGraph` —
    every downstream plane (kernels, shared memory, caching)
    consumes it unchanged.  ``touched`` is the sorted vertex set whose
    adjacency differs from ``parent``; ``insert`` and ``delete`` are the
    batch's *effective* changes (``(k, 2)`` arrays of ``u < v`` pairs);
    ``rebuilt`` records which materialisation path produced the arrays
    (the content is identical either way).

    A version holds its CSR strongly until its chain releases it
    (:class:`EvolvingGraph` keeps only the root, the latest version and
    the latest's parent).  After that it holds the CSR weakly, and
    ``graph`` on a version whose CSR was collected rebuilds the identical
    arrays by replaying the deltas from the nearest ancestor whose CSR is
    still alive.  The fingerprint is memoised on the version, so cache
    identity never needs the arrays.
    """

    __slots__ = ("version", "parent", "touched", "rebuilt", "insert", "delete",
                 "_graph", "_graph_ref", "_fingerprint")

    def __init__(
        self,
        graph: CSRGraph,
        version: int = 0,
        parent: "GraphVersion | None" = None,
        touched: np.ndarray | None = None,
        rebuilt: bool = False,
        insert: np.ndarray | None = None,
        delete: np.ndarray | None = None,
    ) -> None:
        self._graph: CSRGraph | None = graph
        self._graph_ref: "weakref.ref[CSRGraph] | None" = None
        self._fingerprint: str | None = getattr(graph, "_fingerprint", None)
        self.version = int(version)
        self.parent = parent
        self.touched = (
            np.empty(0, dtype=np.int64)
            if touched is None
            else np.unique(np.asarray(touched, dtype=np.int64))
        )
        self.rebuilt = bool(rebuilt)
        no_edges = np.empty((0, 2), dtype=np.int64)
        self.insert = no_edges if insert is None else insert
        self.delete = no_edges if delete is None else delete

    @property
    def graph(self) -> CSRGraph:
        """This version's CSR, replayed from an ancestor if it was dropped."""
        graph = self._live_graph()
        return graph if graph is not None else self._replay()

    def _live_graph(self) -> CSRGraph | None:
        if self._graph is not None:
            return self._graph
        return self._graph_ref() if self._graph_ref is not None else None

    def _release(self) -> None:
        """Hold the CSR weakly from now on (a version with a parent only)."""
        if self._graph is not None:
            self._graph_ref = weakref.ref(self._graph)
            self._graph = None

    def _replay(self) -> CSRGraph:
        """Re-apply the deltas from the nearest ancestor whose CSR is alive.

        Every path to a version's edge set lands on the same canonical
        arrays, so the replayed CSR is identical to the one first built.
        """
        pending = []
        version: GraphVersion = self
        graph = None
        while graph is None:  # ends at the latest: the root holds its CSR
            pending.append(version)
            version = version.parent  # type: ignore[assignment]
            graph = version._live_graph()
        for version in reversed(pending):
            graph = _derive(graph, version.insert, version.delete, version.touched, version.rebuilt)
            version._graph_ref = weakref.ref(graph)
        return graph

    def fingerprint(self) -> str:
        """Content fingerprint of this version's edge set (cache identity)."""
        if self._fingerprint is None:
            self._fingerprint = self.graph.fingerprint()
        return self._fingerprint

    def apply(
        self,
        insertions: Iterable[Sequence[int]] | np.ndarray = (),
        deletions: Iterable[Sequence[int]] | np.ndarray = (),
        rebuild_threshold: float = DEFAULT_REBUILD_THRESHOLD,
    ) -> "GraphVersion":
        """One update batch applied to this version (see :func:`apply_updates`)."""
        return apply_updates(
            self, insertions, deletions, rebuild_threshold=rebuild_threshold
        )

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"GraphVersion(v{self.version}, touched={len(self.touched)}, "
            f"fingerprint={self.fingerprint()[:12]})"
        )


def apply_updates(
    base: GraphVersion | CSRGraph,
    insertions: Iterable[Sequence[int]] | np.ndarray = (),
    deletions: Iterable[Sequence[int]] | np.ndarray = (),
    rebuild_threshold: float = DEFAULT_REBUILD_THRESHOLD,
) -> GraphVersion:
    """Apply one batched update, producing the next immutable version.

    Inserting an edge that already exists (or deleting one that does not)
    is a no-op: the touched set and the delta cost count only *effective*
    changes, so the version identity depends purely on the resulting edge
    set.  An edge named in both lists of one batch is ambiguous and raises.

    ``rebuild_threshold`` picks the materialisation path: batches whose
    effective directed changes exceed that fraction of the parent's
    directed-edge volume rebuild from the edge list; smaller batches splice
    rows into the parent's arrays.  ``0.0`` forces rebuild, ``1.0``
    (almost) always splices; the arrays — and therefore the fingerprint —
    are identical either way.
    """
    if not 0.0 <= rebuild_threshold <= 1.0:
        raise ValueError("rebuild_threshold must be in [0, 1]")
    parent = base if isinstance(base, GraphVersion) else GraphVersion(base)
    graph = parent.graph
    insert = normalize_update_edges(insertions, graph.num_vertices)
    delete = normalize_update_edges(deletions, graph.num_vertices)
    if len(insert) and len(delete):
        n = np.int64(graph.num_vertices)
        overlap = np.intersect1d(
            insert[:, 0] * n + insert[:, 1], delete[:, 0] * n + delete[:, 1]
        )
        if len(overlap):
            u, v = int(overlap[0] // n), int(overlap[0] % n)
            raise ValueError(
                f"edge ({u}, {v}) appears in both insertions and deletions "
                "of one batch"
            )
    # Only effective changes count: no-op updates must not perturb the
    # touched set (or the cache invalidation region derived from it).
    insert = insert[~_present_mask(graph, insert)]
    delete = delete[_present_mask(graph, delete)]
    directed_changes = 2 * (len(insert) + len(delete))
    rebuild = directed_changes > rebuild_threshold * max(len(graph.neighbors), 1)
    touched = np.unique(np.concatenate([insert.ravel(), delete.ravel()]))
    return GraphVersion(
        _derive(graph, insert, delete, touched, rebuild),
        version=parent.version + 1,
        parent=parent,
        touched=touched,
        rebuilt=rebuild,
        insert=insert,
        delete=delete,
    )


class EvolvingGraph:
    """The version chain of a graph evolving under update batches.

    Versions are numbered densely from 0 (the root graph); every version
    stays addressable through :meth:`at`, so engines pinned to an old
    version (``graph_version=k``) and the serving plane's
    admitted-against-version semantics both resolve against one chain.
    Appending is the only mutation and versions are immutable, so readers
    on other threads see a consistent chain without locking.

    The chain holds CSRs strongly only for the root, the latest version
    and the latest's parent; every older version is kept as its delta and
    holds its CSR weakly, so memory stays at a few graphs however long the
    chain grows.  ``at(k).graph`` on a version whose CSR was collected
    replays the deltas from the nearest live ancestor — usually the root,
    so one O(m) splice per version between them — and yields the
    identical arrays.
    """

    def __init__(
        self,
        graph: CSRGraph | GraphVersion,
        rebuild_threshold: float = DEFAULT_REBUILD_THRESHOLD,
    ) -> None:
        if not 0.0 <= rebuild_threshold <= 1.0:
            raise ValueError("rebuild_threshold must be in [0, 1]")
        root = graph if isinstance(graph, GraphVersion) else GraphVersion(graph)
        if root.version != 0 or root.parent is not None:
            raise ValueError("an EvolvingGraph must start from a root version")
        self._versions: list[GraphVersion] = [root]
        self.rebuild_threshold = float(rebuild_threshold)

    @property
    def latest(self) -> GraphVersion:
        return self._versions[-1]

    @property
    def num_vertices(self) -> int:
        """Vertex count (stable across versions: updates never add vertices)."""
        return self._versions[0].graph.num_vertices

    def at(self, version: int | None) -> GraphVersion:
        """The version numbered ``version`` (``None`` means the latest)."""
        if version is None:
            return self.latest
        index = int(version)
        if not 0 <= index < len(self._versions):
            raise ValueError(
                f"graph_version {index} does not exist (have versions "
                f"0..{len(self._versions) - 1})"
            )
        return self._versions[index]

    def apply_updates(
        self,
        insertions: Iterable[Sequence[int]] | np.ndarray = (),
        deletions: Iterable[Sequence[int]] | np.ndarray = (),
    ) -> GraphVersion:
        """Apply one batch to the latest version and append the result."""
        version = apply_updates(
            self.latest, insertions, deletions, rebuild_threshold=self.rebuild_threshold
        )
        self._versions.append(version)
        # Only the root, the latest version and its parent (which cache
        # migration reads) keep their CSRs; older ones replay on demand.
        stale = version.parent.parent  # type: ignore[union-attr]
        if stale is not None and stale.parent is not None:
            stale._release()
        return version

    def __len__(self) -> int:
        return len(self._versions)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"EvolvingGraph(versions={len(self._versions)}, "
            f"latest={self.latest.fingerprint()[:12]})"
        )
