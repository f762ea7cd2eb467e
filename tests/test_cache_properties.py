"""Property tests (hypothesis) for graph fingerprints.

The cache's correctness rests on the fingerprint being a faithful content
address: invariant under every lossless serialisation round-trip in
:mod:`repro.graph.io`, and different whenever any edge changes.
"""

from __future__ import annotations

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.graph import CSRGraph, from_edge_arrays
from repro.graph.csr import FINGERPRINT_BLOCK
from repro.graph.builder import edge_arrays_of
from repro.graph.io import (
    load_npz,
    read_adjacency_graph,
    read_edge_list,
    save_npz,
    write_adjacency_graph,
    write_edge_list,
)

MAX_VERTICES = 24


@st.composite
def graphs(draw, min_edges=0, max_vertices=MAX_VERTICES):
    """A small simple undirected graph from an arbitrary edge list."""
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    vertex = st.integers(min_value=0, max_value=n - 1)
    edges = draw(
        st.lists(st.tuples(vertex, vertex), min_size=min_edges, max_size=60).filter(
            lambda pairs: sum(u != v for u, v in pairs) >= min_edges
        )
    )
    sources = np.asarray([u for u, _ in edges], dtype=np.int64)
    targets = np.asarray([v for _, v in edges], dtype=np.int64)
    return from_edge_arrays(sources, targets, num_vertices=n)


@given(graphs())
def test_fingerprint_deterministic_across_rebuilds(graph):
    rebuilt = CSRGraph(graph.offsets.copy(), graph.neighbors.copy())
    assert rebuilt.fingerprint() == graph.fingerprint()


@settings(max_examples=25)
@given(graph=graphs())
def test_fingerprint_invariant_under_io_round_trips(tmp_path_factory, graph):
    directory = tmp_path_factory.mktemp("roundtrip")
    reference = graph.fingerprint()

    save_npz(graph, directory / "g.npz")
    assert load_npz(directory / "g.npz").fingerprint() == reference

    write_adjacency_graph(graph, directory / "g.adj")
    assert read_adjacency_graph(directory / "g.adj").fingerprint() == reference

    write_edge_list(graph, directory / "g.txt")
    loaded = read_edge_list(directory / "g.txt", num_vertices=graph.num_vertices)
    assert loaded.fingerprint() == reference


@given(graphs(min_edges=1), st.data())
def test_fingerprint_changes_when_an_edge_is_removed(graph, data):
    sources, targets = edge_arrays_of(graph)
    drop = data.draw(st.integers(min_value=0, max_value=len(sources) - 1))
    keep = np.ones(len(sources), dtype=bool)
    keep[drop] = False
    smaller = from_edge_arrays(
        sources[keep], targets[keep], num_vertices=graph.num_vertices
    )
    assert smaller.fingerprint() != graph.fingerprint()


@given(graphs(), st.data())
def test_fingerprint_changes_when_an_edge_is_added(graph, data):
    n = graph.num_vertices
    sources, targets = edge_arrays_of(graph)
    present = set(zip(sources.tolist(), targets.tolist()))
    absent = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if (u, v) not in present
    ]
    assume(absent)  # complete graphs have nothing to add
    u, v = absent[data.draw(st.integers(min_value=0, max_value=len(absent) - 1))]
    bigger = from_edge_arrays(
        np.append(sources, u), np.append(targets, v), num_vertices=n
    )
    assert bigger.fingerprint() != graph.fingerprint()


@given(graphs(min_edges=1))
def test_fingerprint_sensitive_to_weights_if_present(graph):
    # CSRGraph is unweighted today; the fingerprint is nevertheless
    # specified to fold in a ``weights`` array should one be attached, so
    # a future weighted variant cannot silently alias unweighted entries.
    class Weighted(CSRGraph):
        __slots__ = ("weights",)

    weighted = Weighted(graph.offsets, graph.neighbors)
    weighted.weights = np.ones(len(graph.neighbors), dtype=np.float64)
    reweighted = Weighted(graph.offsets, graph.neighbors)
    reweighted.weights = np.full(len(graph.neighbors), 2.0)
    assert weighted.fingerprint() != graph.fingerprint()
    assert weighted.fingerprint() != reweighted.fingerprint()


# ----------------------------------------------------------------------
# Version identity: the evolving plane's cache reuse rests on the
# fingerprint depending only on the resulting edge set — never on the
# update path (batch order, batch grouping, splice vs rebuild) that
# materialised it.

def update_edges_for(graph, min_size=1):
    """Update pairs bounded by ``graph``'s vertex set (no self-loops)."""
    n = graph.num_vertices
    return st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
            lambda pair: pair[0] != pair[1]
        ),
        min_size=min_size,
        max_size=8,
        unique_by=lambda pair: tuple(sorted(pair)),
    )


@given(graph=graphs(), data=st.data())
def test_splice_and_rebuild_share_version_identity(graph, data):
    from repro.graph import apply_updates

    insertions = data.draw(update_edges_for(graph))
    spliced = apply_updates(graph, insertions, rebuild_threshold=1.0)
    rebuilt = apply_updates(graph, insertions, rebuild_threshold=0.0)
    assert np.array_equal(spliced.graph.offsets, rebuilt.graph.offsets)
    assert np.array_equal(spliced.graph.neighbors, rebuilt.graph.neighbors)
    assert spliced.fingerprint() == rebuilt.fingerprint()


@given(graph=graphs(), data=st.data())
def test_batch_grouping_and_order_do_not_change_version_identity(graph, data):
    from repro.graph import EvolvingGraph

    insertions = data.draw(update_edges_for(graph))
    one_batch = EvolvingGraph(graph)
    one_batch.apply_updates(insertions=insertions)

    split = data.draw(st.integers(0, len(insertions)))
    reordered = data.draw(st.permutations(insertions))
    two_batches = EvolvingGraph(graph)
    if reordered[:split]:
        two_batches.apply_updates(insertions=reordered[:split])
    if reordered[split:]:
        two_batches.apply_updates(insertions=reordered[split:])

    assert (
        one_batch.latest.fingerprint() == two_batches.latest.fingerprint()
    ), "same edge set, different update path: version identity must agree"


@given(graph=graphs(min_edges=3))
def test_delete_then_reinsert_restores_version_identity(graph):
    from repro.graph import EvolvingGraph
    from repro.graph.builder import edge_arrays_of as arrays_of

    sources, targets = arrays_of(graph)
    edge = (int(sources[0]), int(targets[0]))
    chain = EvolvingGraph(graph)
    chain.apply_updates(deletions=[edge])
    chain.apply_updates(insertions=[edge])
    assert chain.latest.fingerprint() == chain.at(0).fingerprint()
    assert chain.at(1).fingerprint() != chain.at(0).fingerprint()


def test_differently_materialised_versions_share_cache_entries():
    # The payoff of path-independent identity: an entry computed against
    # a *spliced* version is served to an engine holding the *rebuilt*
    # materialisation of the same edge set — one cache, no recompute.
    from repro.cache import ResultCache
    from repro.engine import BatchEngine, DiffusionJob
    from repro.graph import apply_updates, cycle_graph

    base = cycle_graph(40)
    spliced = apply_updates(base, insertions=[(0, 9)], rebuild_threshold=1.0)
    rebuilt = apply_updates(base, insertions=[(0, 9)], rebuild_threshold=0.0)
    cache = ResultCache()
    job = DiffusionJob.make(0, params={"alpha": 0.1, "eps": 1e-3})
    (cold,) = BatchEngine(spliced.graph, cache=cache, include_vectors=True).run([job])
    assert not cold.cached
    (hit,) = BatchEngine(rebuilt.graph, cache=cache, include_vectors=True).run([job])
    assert hit.cached
    assert np.array_equal(hit.vector_keys, cold.vector_keys)


@given(graph=graphs(max_vertices=4 * FINGERPRINT_BLOCK + 5), data=st.data())
def test_incremental_fingerprint_equals_scratch_on_both_paths(graph, data):
    # Child fingerprints re-hash only the blocks holding touched vertices
    # (graphs here span up to five blocks); the value must equal a
    # from-scratch hash of copied arrays, and the splice and rebuild
    # chains must agree version by version.
    from repro.graph import EvolvingGraph

    chains = [EvolvingGraph(graph, rebuild_threshold=t) for t in (1.0, 0.0)]
    for _ in range(data.draw(st.integers(1, 4))):
        insertions = data.draw(update_edges_for(graph, min_size=0))
        inserted = {tuple(sorted(pair)) for pair in insertions}
        deletions = [
            pair
            for pair in data.draw(update_edges_for(graph, min_size=0))
            if tuple(sorted(pair)) not in inserted
        ]
        spliced, rebuilt = (
            chain.apply_updates(insertions=insertions, deletions=deletions)
            for chain in chains
        )
        arrays = spliced.graph
        scratch = CSRGraph(arrays.offsets.copy(), arrays.neighbors.copy()).fingerprint()
        assert spliced.fingerprint() == scratch == rebuilt.fingerprint()
        assert np.array_equal(arrays.neighbors, rebuilt.graph.neighbors)
        assert np.array_equal(arrays.offsets, rebuilt.graph.offsets)

    # Delete-then-reinsert returns to the ancestor's fingerprint on both paths.
    sources, targets = edge_arrays_of(chains[0].latest.graph)
    assume(len(sources))
    edge = (int(sources[-1]), int(targets[-1]))
    for chain in chains:
        before = chain.latest.fingerprint()
        assert chain.apply_updates(deletions=[edge]).fingerprint() != before
        assert chain.apply_updates(insertions=[edge]).fingerprint() == before


def test_inherited_fingerprint_ignores_a_weighted_parent():
    # Block digests of a weighted graph fold its weights in, so a child
    # must not copy them; it falls back to hashing from scratch.
    from repro.graph import cycle_graph

    class Weighted(CSRGraph):
        __slots__ = ("weights",)

    base = cycle_graph(100)
    parent = Weighted(base.offsets, base.neighbors)
    parent.weights = np.full(len(base.neighbors), 3.0)
    child = from_edge_arrays(
        *(np.append(array, extra) for array, extra in zip(edge_arrays_of(base), (0, 50))),
        num_vertices=100,
    )
    inherited = child.inherit_fingerprint(parent, np.array([0, 50]))
    assert inherited == CSRGraph(child.offsets.copy(), child.neighbors.copy()).fingerprint()
