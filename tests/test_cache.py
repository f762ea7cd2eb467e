"""Tests for the result cache (repro.cache).

The load-bearing properties: cache keys collide exactly when results are
guaranteed bit-identical (defaults filled, numerics normalised, seed sets
canonicalised); hits replay outcomes bit-identically through any backend;
a repeated ``ncp_profile`` grid on a cached engine performs *zero*
diffusion calls on the second run; and the disk layer round-trips
outcomes exactly and survives the process.
"""

from __future__ import annotations

import dataclasses
from typing import ClassVar

import numpy as np
import pytest

import repro.engine.executor as executor_module
from repro.cache import (
    CachingBackend,
    DiskStore,
    LRUStore,
    ResultCache,
    cache_key_for,
    load_outcome,
    outcome_nbytes,
    resolve_cache,
    save_outcome,
)
from repro.core import cluster_many, local_cluster, ncp_profile
from repro.engine import BatchEngine, DiffusionJob, NCPReducer, job_grid, run_job
from repro.graph import CSRGraph, barbell_graph, planted_partition
from repro.graph.io import load_npz, save_npz


@pytest.fixture(scope="module")
def graph():
    return planted_partition(600, 6, intra_degree=8.0, inter_degree=1.0, seed=5)


@pytest.fixture(scope="module")
def outcome(graph):
    return run_job(graph, DiffusionJob.make(0, params={"alpha": 0.05, "eps": 1e-4}))


def make_outcome(graph, seed=0, include_vector=True):
    job = DiffusionJob.make(seed, params={"alpha": 0.05, "eps": 1e-4})
    return run_job(graph, job, include_vector=include_vector)


class TestFingerprint:
    def test_memoised_and_stable(self, graph):
        first = graph.fingerprint()
        assert graph.fingerprint() is first  # memo returns the same object
        assert len(first) == 40 and int(first, 16) >= 0

    def test_equal_for_equal_graphs(self, graph):
        rebuilt = planted_partition(600, 6, intra_degree=8.0, inter_degree=1.0, seed=5)
        assert rebuilt is not graph
        assert rebuilt.fingerprint() == graph.fingerprint()

    def test_differs_for_different_graphs(self, graph):
        other = planted_partition(600, 6, intra_degree=8.0, inter_degree=1.0, seed=6)
        assert other.fingerprint() != graph.fingerprint()

    def test_differs_for_shifted_structure(self):
        # Same array lengths, one edge rewired.
        path = CSRGraph([0, 1, 3, 4], [1, 0, 2, 1])
        other = CSRGraph([0, 1, 2, 4], [2, 2, 0, 1])
        assert path.fingerprint() != other.fingerprint()

    def test_survives_npz_round_trip(self, graph, tmp_path):
        save_npz(graph, tmp_path / "g.npz")
        assert load_npz(tmp_path / "g.npz").fingerprint() == graph.fingerprint()

    def test_worker_reconstructed_graph(self, graph):
        # The pool initializer builds graphs via __new__; the memo slot is
        # simply unset there and must not break fingerprinting.
        shell = CSRGraph.__new__(CSRGraph)
        shell.offsets = graph.offsets
        shell.neighbors = graph.neighbors
        assert shell.fingerprint() == graph.fingerprint()


class TestCacheKey:
    FP = "f" * 40

    def test_defaults_are_filled(self):
        explicit = DiffusionJob.make(3, params={"alpha": 0.01, "eps": 1e-6})
        implicit = DiffusionJob.make(3)
        assert cache_key_for(self.FP, explicit, True, True) == cache_key_for(
            self.FP, implicit, True, True
        )

    def test_numeric_normalisation(self):
        as_int = DiffusionJob.make(3, params={"beta": 1, "eps": 1e-4})
        as_float = DiffusionJob.make(3, params={"beta": 1.0, "eps": 0.0001})
        assert cache_key_for(self.FP, as_int, True, True) == cache_key_for(
            self.FP, as_float, True, True
        )

    def test_seed_order_and_duplicates_collapse(self):
        a = DiffusionJob.make([5, 1, 5, 3])
        b = DiffusionJob.make([1, 3, 5])
        assert cache_key_for(self.FP, a, True, True) == cache_key_for(
            self.FP, b, True, True
        )

    def test_tag_is_excluded(self):
        a = DiffusionJob.make(1, tag="experiment-A")
        b = DiffusionJob.make(1, tag={"unhashable": []})
        assert cache_key_for(self.FP, a, True, True) == cache_key_for(
            self.FP, b, True, True
        )

    def test_distinct_params_distinct_keys(self):
        a = DiffusionJob.make(1, params={"eps": 1e-4})
        b = DiffusionJob.make(1, params={"eps": 1e-5})
        assert cache_key_for(self.FP, a, True, True) != cache_key_for(
            self.FP, b, True, True
        )

    def test_rng_ignored_for_deterministic_methods(self):
        a = DiffusionJob.make(1, rng=0)
        b = DiffusionJob.make(1, rng=99)
        assert cache_key_for(self.FP, a, True, True) == cache_key_for(
            self.FP, b, True, True
        )

    def test_rng_kept_for_randomized_methods(self):
        a = DiffusionJob.make(1, method="rand-hk-pr", rng=0)
        b = DiffusionJob.make(1, method="rand-hk-pr", rng=99)
        assert cache_key_for(self.FP, a, True, True) != cache_key_for(
            self.FP, b, True, True
        )

    def test_parallel_and_vectors_partition_the_key_space(self):
        job = DiffusionJob.make(1)
        keys = {
            cache_key_for(self.FP, job, parallel, vectors)
            for parallel in (True, False)
            for vectors in (True, False)
        }
        assert len(keys) == 4

    def test_digest_stable_and_distinct(self):
        a = cache_key_for(self.FP, DiffusionJob.make(1), True, True)
        b = cache_key_for(self.FP, DiffusionJob.make(2), True, True)
        assert a.digest() == cache_key_for(self.FP, DiffusionJob.make(1), True, True).digest()
        assert a.digest() != b.digest()

    def test_unknown_method_raises(self):
        with pytest.raises(ValueError, match="unknown method"):
            cache_key_for(self.FP, DiffusionJob.make(1, method="page-rank"), True, True)


class TestLRUStore:
    def _key(self, seed):
        return cache_key_for("f" * 40, DiffusionJob.make(seed), True, True)

    def test_put_get_and_miss(self, graph, outcome):
        store = LRUStore()
        key = self._key(0)
        assert store.get(key) is None
        store.put(key, outcome)
        assert store.get(key) is outcome
        assert len(store) == 1 and store.nbytes >= outcome_nbytes(outcome)

    def test_entry_eviction_is_lru(self, graph, outcome):
        store = LRUStore(max_entries=2)
        keys = [self._key(s) for s in range(3)]
        store.put(keys[0], outcome)
        store.put(keys[1], outcome)
        assert store.get(keys[0]) is outcome  # refresh 0; 1 becomes LRU
        store.put(keys[2], outcome)
        assert store.get(keys[1]) is None
        assert store.get(keys[0]) is outcome and store.get(keys[2]) is outcome
        assert store.evictions == 1

    def test_byte_budget_keeps_newest(self, graph, outcome):
        store = LRUStore(max_bytes=outcome_nbytes(outcome) + 1)
        store.put(self._key(0), outcome)
        store.put(self._key(1), outcome)
        assert store.get(self._key(0)) is None
        assert store.get(self._key(1)) is outcome  # newest always retained

    def test_clear(self, graph, outcome):
        store = LRUStore()
        store.put(self._key(0), outcome)
        assert store.clear() == 1
        assert len(store) == 0 and store.nbytes == 0

    def test_validates_bounds(self):
        with pytest.raises(ValueError):
            LRUStore(max_entries=0)
        with pytest.raises(ValueError):
            LRUStore(max_bytes=0)


class TestDiskStore:
    def _key(self, seed):
        return cache_key_for("f" * 40, DiffusionJob.make(seed), True, True)

    def assert_outcomes_identical(self, a, b, compare_vectors=True):
        assert a.support_size == b.support_size
        assert a.iterations == b.iterations
        assert a.pushes == b.pushes
        assert a.touched_edges == b.touched_edges
        assert a.residual_mass == b.residual_mass
        assert (a.sweep is None) == (b.sweep is None)
        if a.sweep is not None:
            assert np.array_equal(a.sweep.order, b.sweep.order)
            assert np.array_equal(a.sweep.conductances, b.sweep.conductances)
            assert np.array_equal(a.sweep.volumes, b.sweep.volumes)
            assert np.array_equal(a.sweep.cuts, b.sweep.cuts)
            assert a.sweep.best_index == b.sweep.best_index
        if compare_vectors:
            assert np.array_equal(a.vector_keys, b.vector_keys)
            assert np.array_equal(a.vector_values, b.vector_values)

    def test_round_trip_bit_identical(self, graph, outcome, tmp_path):
        path = tmp_path / "entry.npz"
        save_outcome(path, outcome)
        loaded = load_outcome(path)
        self.assert_outcomes_identical(outcome, loaded)
        assert loaded.job.seeds == outcome.job.seeds
        assert loaded.job.params == outcome.job.params

    def test_round_trip_without_vector(self, graph, tmp_path):
        slim = make_outcome(graph, include_vector=False)
        save_outcome(tmp_path / "slim.npz", slim)
        loaded = load_outcome(tmp_path / "slim.npz")
        assert loaded.vector_keys is None and loaded.vector_values is None
        self.assert_outcomes_identical(slim, loaded, compare_vectors=False)

    def test_persists_across_instances(self, graph, outcome, tmp_path):
        key = self._key(0)
        DiskStore(tmp_path).put(key, outcome)
        fresh = DiskStore(tmp_path)
        loaded = fresh.get(key)
        assert loaded is not None
        self.assert_outcomes_identical(outcome, loaded)

    def test_corrupt_entry_reads_as_miss_and_is_dropped(self, graph, outcome, tmp_path):
        store = DiskStore(tmp_path)
        key = self._key(0)
        store.put(key, outcome)
        path = store._path(key)
        path.write_bytes(b"not an npz payload")
        assert store.get(key) is None
        assert not path.exists()

    def test_numpy_scalar_params_round_trip(self, graph, tmp_path):
        # Params often arrive as numpy scalars (e.g. a sweep over
        # np.linspace values); the disk payload must serialise them.
        job = DiffusionJob.make(
            0, params={"alpha": np.float64(0.05), "eps": np.float64(1e-4)}
        )
        saved = run_job(graph, job)
        save_outcome(tmp_path / "np.npz", saved)
        loaded = load_outcome(tmp_path / "np.npz")
        assert loaded.job.params == {"alpha": 0.05, "eps": 1e-4}

    def test_create_false_rejects_missing_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="does not exist"):
            DiskStore(tmp_path / "no-such-dir", create=False)
        DiskStore(tmp_path / "made")  # default still creates
        assert DiskStore(tmp_path / "made", create=False).directory.is_dir()

    def test_entry_eviction_removes_oldest(self, graph, outcome, tmp_path):
        import os

        store = DiskStore(tmp_path, max_entries=2)
        keys = [self._key(s) for s in range(3)]
        for age, key in enumerate(keys):
            store.put(key, outcome)
            # Make mtimes strictly increasing regardless of filesystem
            # timestamp resolution.
            os.utime(store._path(key), (age, age))
        store.put(keys[2], outcome)  # re-put triggers eviction pass
        assert store.get(keys[0]) is None
        assert store.get(keys[1]) is not None and store.get(keys[2]) is not None
        assert store.evictions == 1


class TestResultCache:
    def _key(self, seed):
        return cache_key_for("f" * 40, DiffusionJob.make(seed), True, True)

    def test_stats_counting(self, graph, outcome):
        cache = ResultCache()
        key = self._key(0)
        assert cache.get(key) is None
        cache.put(key, outcome)
        assert cache.get(key) is outcome
        stats = cache.stats
        assert (stats.hits, stats.misses, stats.stores) == (1, 1, 1)
        assert stats.requests == 2 and stats.hit_rate == 0.5
        assert "50%" in stats.describe()

    def test_peek_does_not_count(self, graph, outcome):
        cache = ResultCache()
        assert cache.peek(self._key(0)) is None
        assert cache.stats.requests == 0

    def test_disk_hit_promotes_to_memory(self, graph, outcome, tmp_path):
        seeded = ResultCache.with_dir(tmp_path)
        seeded.put(self._key(0), outcome)
        fresh = ResultCache.with_dir(tmp_path)
        assert len(fresh.memory) == 0
        assert fresh.get(self._key(0)) is not None
        assert len(fresh.memory) == 1  # promoted: second hit skips the disk
        assert fresh.memory.get(self._key(0)) is not None

    def test_clear_empties_both_layers(self, graph, outcome, tmp_path):
        cache = ResultCache.with_dir(tmp_path)
        cache.put(self._key(0), outcome)
        assert cache.clear() == 1
        assert len(cache) == 0 and cache.get(self._key(0)) is None

    def test_resolve_cache_specs(self, tmp_path):
        assert resolve_cache(None) is None
        assert resolve_cache(False) is None
        assert isinstance(resolve_cache(True), ResultCache)
        disk_backed = resolve_cache(str(tmp_path / "c"))
        assert disk_backed.disk is not None
        ready = ResultCache()
        assert resolve_cache(ready) is ready
        with pytest.raises(ValueError, match="unknown cache spec"):
            resolve_cache(42)


class TestCachingBackend:
    GRID: ClassVar[dict] = {"alpha": (0.05, 0.01), "eps": (1e-4,)}

    def _jobs(self, seeds=(0, 100, 200)):
        return list(job_grid(seeds, "pr-nibble", self.GRID))

    def test_second_run_is_all_hits_and_zero_diffusions(self, graph, monkeypatch):
        cache = ResultCache()
        engine = BatchEngine(graph, cache=cache, include_vectors=False)
        jobs = self._jobs()
        first = engine.run(jobs, NCPReducer(graph.num_vertices))
        assert cache.stats.misses == len(jobs) and cache.stats.hits == 0

        calls = []
        real_run_job = executor_module.run_job
        monkeypatch.setattr(
            executor_module, "run_job", lambda *a, **k: calls.append(a) or real_run_job(*a, **k)
        )
        second = engine.run(jobs, NCPReducer(graph.num_vertices))
        assert calls == []  # zero diffusion calls on the warm run
        assert cache.stats.hits == len(jobs)
        assert second.runs == first.runs
        assert np.array_equal(second.conductance, first.conductance)

    def test_cached_flag_marks_replays(self, graph):
        engine = BatchEngine(graph, cache=True)
        jobs = [DiffusionJob.make(0)]
        assert [o.cached for o in engine.run(jobs)] == [False]
        assert [o.cached for o in engine.run(jobs)] == [True]

    def test_stats_reducer_excludes_replayed_counters(self, graph):
        """A cache hit echoes the *original* run's counters; BatchStats
        must not fold them into this run's work totals (the same exclusion
        rule BatchEngine.run applies to the recorded work-depth cost)."""
        from repro.engine import StatsReducer

        engine = BatchEngine(graph, cache=True)
        jobs = [DiffusionJob.make(0), DiffusionJob.make(100)]
        cold = engine.run(jobs, StatsReducer())
        warm = engine.run([*jobs, DiffusionJob.make(200)], StatsReducer())
        assert cold.cache_hits == 0
        assert cold.total_pushes > 0 and cold.job_seconds > 0
        fresh = engine.run([DiffusionJob.make(200)], StatsReducer())  # all-hit run
        assert fresh.cache_hits == 1
        # the warm run performed exactly one fresh diffusion (seed 200);
        # the two replays count as jobs + cache_hits, never as work.
        assert warm.jobs == 3
        assert warm.completed == 3
        assert warm.cache_hits == 2
        assert warm.by_method == {"pr-nibble": 3}
        uncached = BatchEngine(graph).run([DiffusionJob.make(200)], StatsReducer())
        assert warm.total_pushes == uncached.total_pushes
        assert warm.total_touched_edges == uncached.total_touched_edges
        assert warm.total_work == pytest.approx(uncached.total_work)
        assert warm.max_depth == pytest.approx(uncached.max_depth)

    def test_caching_session_replays_hits_across_batches(self, graph, monkeypatch):
        """The session protocol composes with caching: consecutive batches
        share one inner session and hot queries never reach it."""
        cache = ResultCache()
        engine = BatchEngine(graph, cache=cache)
        calls = []
        real_run_job = executor_module.run_job
        monkeypatch.setattr(
            executor_module, "run_job", lambda *a, **k: calls.append(a) or real_run_job(*a, **k)
        )
        with engine.open_session() as session:
            first = list(session.run([DiffusionJob.make(0), DiffusionJob.make(100)]))
            assert len(calls) == 2
            second = list(session.run([DiffusionJob.make(0), DiffusionJob.make(100)]))
            assert len(calls) == 2  # all hits: the inner session saw nothing
            assert session.batches == 1  # inner batches count dispatched misses
        assert session.closed
        assert [o.cached for o in first] == [False, False]
        assert [o.cached for o in second] == [True, True]
        for a, b in zip(first, second):
            assert np.array_equal(a.cluster, b.cluster)
        with pytest.raises(RuntimeError, match="closed"):
            session.run([DiffusionJob.make(0)])

    def test_all_hit_batch_opens_no_pool(self, graph, monkeypatch):
        """A warm batch whose every job is cached must not start a pool:
        the one-shot stream opens the inner session only for misses."""
        engine = BatchEngine(graph, workers=2, cache=ResultCache())
        jobs = [DiffusionJob.make(0), DiffusionJob.make(100)]
        engine.run(jobs)
        opened = []
        real_init = executor_module.PoolSession.__init__
        monkeypatch.setattr(
            executor_module.PoolSession,
            "__init__",
            lambda self, *a, **k: opened.append(a) or real_init(self, *a, **k),
        )
        warm = engine.run(jobs)
        assert [o.cached for o in warm] == [True, True]
        assert opened == []

    def test_duplicates_coalesce_within_one_batch(self, graph, monkeypatch):
        cache = ResultCache()
        engine = BatchEngine(graph, cache=cache)
        calls = []
        real_run_job = executor_module.run_job
        monkeypatch.setattr(
            executor_module, "run_job", lambda *a, **k: calls.append(a) or real_run_job(*a, **k)
        )
        jobs = [
            DiffusionJob.make(0, tag="first"),
            DiffusionJob.make(0, tag="second"),
            DiffusionJob.make([0, 0], tag="third"),  # same canonical seed set
        ]
        outcomes = engine.run(jobs)
        assert len(calls) == 1  # one diffusion served all three
        assert cache.stats.coalesced == 2
        assert [o.index for o in outcomes] == [0, 1, 2]
        assert [o.job.tag for o in outcomes] == ["first", "second", "third"]
        assert [o.cached for o in outcomes] == [False, True, True]
        for other in outcomes[1:]:
            assert np.array_equal(outcomes[0].cluster, other.cluster)

    def test_composes_with_process_backend(self, graph):
        cache = ResultCache()
        engine = BatchEngine(
            graph, backend="process", workers=2, cache=cache, include_vectors=False
        )
        jobs = self._jobs()
        cold = engine.run(jobs, NCPReducer(graph.num_vertices))
        warm = engine.run(jobs, NCPReducer(graph.num_vertices))
        assert engine.workers == 2
        assert cache.stats.hits == len(jobs)
        assert np.array_equal(cold.conductance, warm.conductance)
        serial = BatchEngine(graph, include_vectors=False).run(
            self._jobs(), NCPReducer(graph.num_vertices)
        )
        assert np.array_equal(cold.conductance, serial.conductance)

    def test_partial_overlap_dispatches_only_new_jobs(self, graph):
        cache = ResultCache()
        engine = BatchEngine(graph, cache=cache, include_vectors=False)
        engine.run(self._jobs(seeds=(0, 100)))
        engine.run(self._jobs(seeds=(0, 100, 200)))
        stats = cache.stats
        assert stats.hits == 2 * len(self.GRID["alpha"])
        assert stats.misses == 3 * len(self.GRID["alpha"])

    def test_vectorless_entry_cannot_serve_vector_request(self, graph):
        cache = ResultCache()
        slim = BatchEngine(graph, cache=cache, include_vectors=False)
        full = BatchEngine(graph, cache=cache, include_vectors=True)
        jobs = [DiffusionJob.make(0)]
        slim.run(jobs)
        outcomes = full.run(jobs)  # distinct key: must re-run, not replay
        assert not outcomes[0].cached
        assert outcomes[0].vector_keys is not None

    def test_wrapping_is_explicit_on_engine(self, graph):
        engine = BatchEngine(graph, cache=True)
        assert isinstance(engine.backend, CachingBackend)
        assert engine.cache is engine.backend.cache
        assert BatchEngine(graph).cache is None


class TestCachedOneShot:
    """A one-shot cached batch sends its misses down the inner backend's
    one-shot path, so the pool decision is the uncached one; sessions
    still keep one inner pool across batches."""

    JOBS = staticmethod(
        lambda seeds: [
            DiffusionJob.make(seed, params={"alpha": alpha, "eps": 1e-4})
            for seed in seeds
            for alpha in (0.1, 0.01)
        ]
    )

    def test_short_cached_call_opens_no_pool(self, graph, pools_opened):
        cached = ncp_profile(graph, seeds=[1, 2], workers=2, cache=True)
        assert pools_opened == []
        uncached = ncp_profile(graph, seeds=[1, 2], workers=2)
        assert np.array_equal(cached.conductance, uncached.conductance)
        assert cached.runs == uncached.runs

        jobs = self.JOBS((1, 2))
        engine = BatchEngine(graph, workers=2, cache=ResultCache())
        outcomes = engine.run(jobs)
        assert pools_opened == []
        assert engine.dispatch_stats.batches == 0
        reference = BatchEngine(graph, workers=2).run(jobs)
        for got, want in zip(outcomes, reference):
            for field in dataclasses.fields(want):
                if field.name in ("wall_seconds", "warmup_seconds"):
                    continue
                mine, theirs = getattr(got, field.name), getattr(want, field.name)
                if isinstance(theirs, np.ndarray):
                    assert np.array_equal(mine, theirs), field.name
                elif field.name == "sweep":
                    assert np.array_equal(mine.order, theirs.order)
                    assert mine.best_conductance == theirs.best_conductance
                else:
                    assert mine == theirs, field.name

    def test_cached_call_past_break_even_opens_one_pool(self, graph, forced_pool):
        engine = BatchEngine(graph, workers=2, cache=ResultCache())
        cold = engine.run(self.JOBS((1, 2, 3)))
        assert len(forced_pool) == 1
        assert engine.dispatch_stats.batches == 1
        warm = engine.run(self.JOBS((1, 2, 3)))
        assert len(forced_pool) == 1  # every job a hit: no second pool
        assert [o.cached for o in warm] == [True] * len(warm)
        assert [o.conductance for o in warm] == [o.conductance for o in cold]

    def test_abandoned_cached_stream_shuts_its_pool_down(self, graph, forced_pool):
        engine = BatchEngine(graph, workers=2, cache=ResultCache())
        stream = engine.map(self.JOBS((1, 2, 3)))
        next(stream)
        next(stream)  # the second outcome comes from the pool
        (pool,) = forced_pool
        stream.close()
        assert pool.closed

    def test_session_keeps_one_inner_pool(self, graph, pools_opened):
        engine = BatchEngine(graph, workers=2, cache=ResultCache())
        with engine.open_session() as session:
            list(session.run(self.JOBS((1,))))
            list(session.run(self.JOBS((2,))))
        assert len(pools_opened) == 1


class TestCachedAPIs:
    def test_ncp_profile_cached_bit_identical_to_uncached(self, graph):
        seeds = np.asarray([0, 150, 300, 450, 599])
        uncached = ncp_profile(graph, seeds=seeds, alphas=(0.05,), eps_values=(1e-4,))
        cache = ResultCache()
        cold = ncp_profile(
            graph, seeds=seeds, alphas=(0.05,), eps_values=(1e-4,), cache=cache
        )
        warm = ncp_profile(
            graph, seeds=seeds, alphas=(0.05,), eps_values=(1e-4,), cache=cache
        )
        assert cache.stats.hits == len(seeds)
        assert cold.runs == warm.runs == uncached.runs
        assert np.array_equal(cold.conductance, uncached.conductance)
        assert np.array_equal(warm.conductance, uncached.conductance)

    def test_cluster_many_cached_matches_local_cluster(self, graph):
        cache = ResultCache()
        seeds = [0, 100, 200]
        cold = cluster_many(graph, seeds, alpha=0.05, eps=1e-4, cache=cache)
        warm = cluster_many(graph, seeds, alpha=0.05, eps=1e-4, cache=cache)
        assert cache.stats.hits == len(seeds)
        for seed, a, b in zip(seeds, cold, warm):
            reference = local_cluster(graph, seed, alpha=0.05, eps=1e-4)
            assert np.array_equal(a.cluster, reference.cluster)
            assert np.array_equal(b.cluster, reference.cluster)
            assert a.conductance == b.conductance == reference.conductance

    def test_disk_cache_serves_fresh_process(self, graph, tmp_path):
        seeds = np.asarray([0, 150, 300])
        cold = ncp_profile(
            graph, seeds=seeds, alphas=(0.05,), eps_values=(1e-4,), cache=str(tmp_path)
        )
        fresh = ResultCache.with_dir(tmp_path)  # simulates a new process
        warm = ncp_profile(
            graph, seeds=seeds, alphas=(0.05,), eps_values=(1e-4,), cache=fresh
        )
        assert fresh.stats.misses == 0 and fresh.stats.hits == len(seeds)
        assert np.array_equal(cold.conductance, warm.conductance)

    def test_barbell_smoke_with_cache_true(self):
        graph = barbell_graph(8)
        first = cluster_many(graph, [0, 15], cache=True)
        assert [sorted(r.cluster.tolist()) for r in first] == [
            list(range(8)),
            list(range(8, 16)),
        ]
