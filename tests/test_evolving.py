"""Unit tests for the evolving-graph plane.

Covers the version chain itself (:mod:`repro.graph.evolving`), the
engine's tracking-vs-pinned semantics (``graph_version=`` and the
session staleness guard), and the region-aware cross-version cache
migration (:func:`repro.cache.advance_version`).  The differential
properties — migrated hits ≡ cold recomputes, updated versions identical
across kernels and backends — live in ``test_evolving_differential.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cache import MigrationStats, ResultCache, advance_version, delta_region
from repro.core.options import RequestError
from repro.engine import BatchEngine, DiffusionJob, resolve_engine
from repro.graph import (
    EvolvingGraph,
    GraphVersion,
    apply_updates,
    cycle_graph,
    normalize_update_edges,
)


class TestNormalizeUpdateEdges:
    def test_orients_and_dedupes(self):
        pairs = normalize_update_edges([(3, 1), (1, 3), (0, 2)], num_vertices=5)
        assert pairs.tolist() == [[0, 2], [1, 3]]

    def test_empty_input(self):
        assert normalize_update_edges([], num_vertices=4).shape == (0, 2)

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loops"):
            normalize_update_edges([(2, 2)], num_vertices=4)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match=r"\[0, 4\)"):
            normalize_update_edges([(0, 4)], num_vertices=4)
        with pytest.raises(ValueError):
            normalize_update_edges([(-1, 2)], num_vertices=4)


class TestApplyUpdates:
    def test_insert_produces_next_version(self, small_cycle):
        v1 = apply_updates(small_cycle, insertions=[(0, 6)])
        assert v1.version == 1
        assert v1.parent is not None and v1.parent.version == 0
        assert v1.graph.has_edge(0, 6)
        assert v1.touched.tolist() == [0, 6]
        assert not small_cycle.has_edge(0, 6)  # parent untouched

    def test_delete_removes_edge(self, small_cycle):
        v1 = apply_updates(small_cycle, deletions=[(0, 1)])
        assert not v1.graph.has_edge(0, 1)
        assert v1.touched.tolist() == [0, 1]

    def test_noop_batch_yields_identical_fingerprint(self, small_cycle):
        # Inserting an existing edge / deleting a missing one is a no-op:
        # the version advances but the content (and touched set) does not.
        v1 = apply_updates(small_cycle, insertions=[(0, 1)], deletions=[(3, 7)])
        assert v1.version == 1
        assert len(v1.touched) == 0
        assert v1.fingerprint() == GraphVersion(small_cycle).fingerprint()

    def test_edge_in_both_lists_rejected(self, small_cycle):
        with pytest.raises(ValueError, match="both insertions and deletions"):
            apply_updates(small_cycle, insertions=[(0, 5)], deletions=[(5, 0)])

    def test_rebuild_threshold_out_of_range(self, small_cycle):
        with pytest.raises(ValueError, match="rebuild_threshold"):
            apply_updates(small_cycle, insertions=[(0, 5)], rebuild_threshold=1.5)

    def test_splice_and_rebuild_are_bit_identical(self, small_cycle):
        insertions = [(0, 4), (2, 9)]
        deletions = [(5, 6)]
        spliced = apply_updates(
            small_cycle, insertions, deletions, rebuild_threshold=1.0
        )
        rebuilt = apply_updates(
            small_cycle, insertions, deletions, rebuild_threshold=0.0
        )
        assert not spliced.rebuilt and rebuilt.rebuilt
        assert np.array_equal(spliced.graph.offsets, rebuilt.graph.offsets)
        assert np.array_equal(spliced.graph.neighbors, rebuilt.graph.neighbors)
        assert spliced.fingerprint() == rebuilt.fingerprint()

    def test_insert_then_delete_returns_to_root_content(self, barbell):
        root = GraphVersion(barbell)
        v2 = root.apply(insertions=[(0, 12)]).apply(deletions=[(0, 12)])
        assert v2.version == 2
        assert v2.fingerprint() == root.fingerprint()

    @pytest.mark.parametrize(
        "edges,dtype",
        [
            ([(0.7, 3.2)], "float64"),
            ([("0", "3")], "<U1"),
            (np.array([[False, True]]), "bool"),
        ],
    )
    def test_non_integer_endpoints_rejected(self, edges, dtype):
        # Truncating or parsing them would apply an edge nobody named.
        with pytest.raises(ValueError, match=f"got dtype {dtype}"):
            apply_updates(cycle_graph(8), insertions=edges)
        with pytest.raises(ValueError, match=f"got dtype {dtype}"):
            apply_updates(cycle_graph(8), deletions=edges)


class TestEvolvingGraph:
    def test_chain_appends_and_addresses_versions(self, small_cycle):
        chain = EvolvingGraph(small_cycle)
        assert len(chain) == 1 and chain.latest.version == 0
        v1 = chain.apply_updates(insertions=[(0, 3)])
        assert len(chain) == 2
        assert chain.at(1) is v1 and chain.latest is v1
        assert chain.at(None) is v1
        assert chain.at(0).graph is small_cycle

    def test_nonexistent_version_raises(self, small_cycle):
        chain = EvolvingGraph(small_cycle)
        with pytest.raises(ValueError, match="have versions 0..0"):
            chain.at(1)
        with pytest.raises(ValueError):
            chain.at(-1)

    def test_root_must_be_a_root_version(self, small_cycle):
        v1 = GraphVersion(small_cycle).apply(insertions=[(0, 3)])
        with pytest.raises(ValueError, match="root version"):
            EvolvingGraph(v1)

    def test_chain_keeps_root_latest_and_parent_graphs(self):
        import gc
        import weakref

        chain = EvolvingGraph(cycle_graph(100))
        graphs = [weakref.ref(chain.at(0).graph)]
        for k in range(1, 8):
            graphs.append(weakref.ref(chain.apply_updates(insertions=[(k, k + 50)]).graph))
        gc.collect()
        assert [k for k, ref in enumerate(graphs) if ref() is not None] == [0, 6, 7]
        replayed = chain.at(3).graph
        assert replayed.has_edge(3, 53) and not replayed.has_edge(4, 54)
        assert replayed.fingerprint() == chain.at(3).fingerprint()

    def test_num_vertices_stable_across_versions(self, small_cycle):
        chain = EvolvingGraph(small_cycle)
        chain.apply_updates(insertions=[(0, 3)])
        assert chain.num_vertices == small_cycle.num_vertices


class TestEngineVersioning:
    def test_tracking_engine_goes_stale_after_update(self, small_cycle):
        chain = EvolvingGraph(small_cycle)
        engine = BatchEngine(chain)
        assert engine.run([DiffusionJob.make(0)])  # fresh: runs fine
        chain.apply_updates(insertions=[(0, 5)])
        with pytest.raises(RequestError) as excinfo:
            engine.run([DiffusionJob.make(0)])
        assert excinfo.value.code == 409
        assert excinfo.value.field == "graph_version"
        message = str(excinfo.value)
        assert chain.at(0).fingerprint()[:12] in message
        assert chain.at(1).fingerprint()[:12] in message

    def test_pinned_engine_survives_updates(self, small_cycle):
        chain = EvolvingGraph(small_cycle)
        pinned = BatchEngine(chain, graph_version=0)
        before = pinned.run([DiffusionJob.make(0)])
        chain.apply_updates(insertions=[(0, 5)])
        after = pinned.run([DiffusionJob.make(0)])
        assert before[0].support_size == after[0].support_size

    def test_at_version_pins_and_shares_backend(self, small_cycle):
        chain = EvolvingGraph(small_cycle)
        engine = BatchEngine(chain)
        chain.apply_updates(insertions=[(0, 5)])
        fresh = engine.at_version()
        assert fresh.graph_version == 1
        assert fresh.backend is engine.backend
        assert fresh.graph.has_edge(0, 5)
        old = engine.at_version(0)
        assert old.graph is small_cycle

    def test_at_version_requires_evolving(self, small_cycle):
        with pytest.raises(ValueError, match="EvolvingGraph"):
            BatchEngine(small_cycle).at_version(0)

    def test_plain_graph_rejects_graph_version(self, small_cycle):
        with pytest.raises(ValueError, match="plain CSRGraph"):
            BatchEngine(small_cycle, graph_version=0)

    def test_resolve_engine_accepts_chain(self, small_cycle):
        chain = EvolvingGraph(small_cycle)
        chain.apply_updates(insertions=[(0, 5)])
        engine = resolve_engine(chain, graph_version=0)
        assert engine.graph is small_cycle

    def test_tracking_session_refuses_after_update(self, small_cycle):
        chain = EvolvingGraph(small_cycle)
        engine = BatchEngine(chain)
        with engine.open_session() as session:
            assert session._tracking is engine
            assert list(session.run([DiffusionJob.make(0)]))
            chain.apply_updates(insertions=[(0, 5)])
            with pytest.raises(RequestError) as excinfo:
                list(session.run([DiffusionJob.make(0)]))
            assert excinfo.value.code == 409

    def test_pinned_session_is_not_guarded(self, small_cycle):
        chain = EvolvingGraph(small_cycle)
        with BatchEngine(chain, graph_version=0).open_session() as session:
            assert session._tracking is None
            chain.apply_updates(insertions=[(0, 5)])
            assert list(session.run([DiffusionJob.make(0)]))

    def test_stale_fingerprint_named_in_error(self, planted):
        # After apply_updates the guard must name the superseded edge set
        # the session was about to read, and say how to recover.
        chain = EvolvingGraph(planted)
        engine = BatchEngine(chain)
        with engine.open_session() as session:
            assert list(session.run([DiffusionJob.make(0)]))
            stale_fingerprint = chain.at(0).fingerprint()
            chain.apply_updates(insertions=[(0, 1500)])
            with pytest.raises(RequestError) as excinfo:
                list(session.run([DiffusionJob.make(0)]))
        error = excinfo.value
        assert error.code == 409
        message = str(error)
        assert stale_fingerprint[:12] in message
        assert "at_version" in message  # remediation hint


class TestCacheMigration:
    def run_cached(self, engine, seed, eps=1e-3):
        (outcome,) = engine.run(
            [DiffusionJob.make(seed, params={"alpha": 0.1, "eps": eps})]
        )
        return outcome

    def test_far_update_entry_survives_and_hits(self):
        chain = EvolvingGraph(cycle_graph(200))
        cache = ResultCache()
        engine = BatchEngine(chain, cache=cache, include_vectors=True)
        cold = self.run_cached(engine, seed=0)
        assert not cold.cached
        v1 = chain.apply_updates(insertions=[(100, 102)])  # far from seed 0
        stats = advance_version(cache, v1)
        assert (stats.examined, stats.survived) == (1, 1)
        replay = self.run_cached(engine.at_version(1), seed=0)
        assert replay.cached
        assert replay.support_size == cold.support_size
        assert np.array_equal(replay.vector_keys, cold.vector_keys)

    def test_near_update_entry_invalidated(self):
        chain = EvolvingGraph(cycle_graph(200))
        cache = ResultCache()
        engine = BatchEngine(chain, cache=cache, include_vectors=True)
        cold = self.run_cached(engine, seed=0)
        support = set(cold.vector_keys.tolist())
        inside = max(support)
        v1 = chain.apply_updates(insertions=[(inside, (inside + 50) % 200)])
        stats = advance_version(cache, v1)
        assert stats.survived == 0 and stats.invalidated == 1
        replay = self.run_cached(engine.at_version(1), seed=0)
        assert not replay.cached  # recomputed on the new edges

    def test_old_version_keys_remain_valid(self):
        chain = EvolvingGraph(cycle_graph(200))
        cache = ResultCache()
        engine = BatchEngine(chain, cache=cache, include_vectors=True, graph_version=0)
        self.run_cached(engine, seed=0)
        v1 = chain.apply_updates(insertions=[(100, 102)])
        advance_version(cache, v1)
        pinned_replay = self.run_cached(engine, seed=0)
        assert pinned_replay.cached  # old fingerprint still answers v0

    def test_noop_advance_is_empty(self, small_cycle):
        chain = EvolvingGraph(small_cycle)
        cache = ResultCache()
        v1 = chain.apply_updates(insertions=[(0, 1)])  # existing edge: no-op
        stats = advance_version(cache, v1)
        assert stats == MigrationStats()

    def test_root_version_rejected(self, small_cycle):
        with pytest.raises(ValueError, match="no parent"):
            advance_version(ResultCache(), GraphVersion(small_cycle))

    def test_delta_region_covers_both_neighborhoods(self, small_cycle):
        v1 = apply_updates(small_cycle, deletions=[(0, 1)])
        region = delta_region(small_cycle, v1.graph, v1.touched)
        # Touched endpoints plus their neighbors in either version.
        assert {0, 1, 2, 11} <= set(region.tolist())

    def test_survival_requires_vector_profile(self, small_cycle):
        # Without persisted vectors the entry cannot prove which adjacency
        # it read, so migration must skip (not survive) it.
        chain = EvolvingGraph(cycle_graph(200))
        cache = ResultCache()
        engine = BatchEngine(chain, cache=cache, include_vectors=False)
        self.run_cached(engine, seed=0)
        v1 = chain.apply_updates(insertions=[(100, 102)])
        stats = advance_version(cache, v1)
        assert stats.survived == 0 and stats.skipped == 1


def full_scan_advance(cache, version):
    """Reference migration: scan every resident entry, test the region as a
    Python set (the store's fingerprint index must change neither the
    counters nor the survivors)."""
    import dataclasses

    from repro.cache.evolving import MONOTONE_SUPPORT_METHODS, _sweep_volume_safe

    parent = version.parent
    old, new = parent.fingerprint(), version.fingerprint()
    stats = MigrationStats()
    if old == new:
        return stats
    region = set(delta_region(parent.graph, version.graph, version.touched).tolist())
    totals = len(parent.graph.neighbors), len(version.graph.neighbors)
    everything = [(key, entry[0]) for key, entry in cache.memory._entries.items()]
    for key, outcome in everything:
        if key.graph != old:
            continue
        stats.examined += 1
        if key.method not in MONOTONE_SUPPORT_METHODS or (
            outcome.vector_keys is None and outcome.support_size > 0
        ):
            stats.skipped += 1
            continue
        profile = set(key.seeds)
        if outcome.vector_keys is not None:
            profile.update(outcome.vector_keys.tolist())
        if profile & region or not _sweep_volume_safe(outcome, *totals):
            stats.invalidated += 1
            continue
        cache.put(dataclasses.replace(key, graph=new), outcome)
        stats.survived += 1
    return stats


class TestIndexedMigration:
    def warm_cache(self, chain):
        """Entries under three fingerprints: pr-nibble with and without
        vectors, and nibble (never migrated), on versions 0..2."""
        cache = ResultCache()
        for version in range(3):
            for vectors in (True, False):
                engine = BatchEngine(
                    chain, cache=cache, include_vectors=vectors, graph_version=version
                )
                engine.run(
                    [
                        DiffusionJob.make(seed, params={"alpha": 0.1, "eps": 1e-3})
                        for seed in range(0, 200, 9)
                    ]
                    + [DiffusionJob.make(seed, method="nibble") for seed in (3, 150)]
                )
            # re-touch a few entries so the LRU order is not insertion order
            BatchEngine(chain, cache=cache, include_vectors=True, graph_version=version).run(
                [DiffusionJob.make(seed, params={"alpha": 0.1, "eps": 1e-3}) for seed in (18, 0)]
            )
        return cache

    def test_index_matches_the_full_scan(self):
        chains = [EvolvingGraph(cycle_graph(200)) for _ in range(2)]
        updates = [
            {"insertions": [(40, 47)]},
            {"deletions": [(120, 121)], "insertions": [(150, 190)]},
            {"insertions": [(60, 64), (5, 100)]},
        ]
        caches = []
        for chain in chains:
            chain.apply_updates(**updates[0])
            chain.apply_updates(**updates[1])
            caches.append(self.warm_cache(chain))
            chain.apply_updates(**updates[2])
        indexed = advance_version(caches[0], chains[0].latest)
        reference = full_scan_advance(caches[1], chains[1].latest)
        assert indexed == reference
        assert indexed.examined > indexed.survived > 0 and indexed.invalidated > 0
        assert indexed.skipped > 0
        assert list(caches[0].memory._entries) == list(caches[1].memory._entries)

    def test_index_follows_eviction_and_clear(self):
        from repro.cache import LRUStore

        chain = EvolvingGraph(cycle_graph(200))
        chain.apply_updates(insertions=[(40, 47)])
        chain.apply_updates(insertions=[(60, 64)])
        cache = ResultCache(memory=LRUStore(max_entries=10))
        warm = self.warm_cache(chain)
        for key, outcome in warm.memory._entries.items():
            cache.put(key, outcome[0])
        assert len(cache.memory) == 10
        for fingerprint in {key.graph for key in warm.memory._entries}:
            resident = [key for key in cache.memory._entries if key.graph == fingerprint]
            assert [key for key, _ in cache.memory_items(fingerprint)] == resident
        cache.clear()
        assert cache.memory_items(chain.at(0).fingerprint()) == []
