"""Tests for the batch diffusion engine (repro.engine).

The load-bearing properties: the engine is *deterministic* — batched
``ncp_profile`` is bit-identical to the historical serial triple loop, and
the worker count never changes any result — and its outcomes reconstruct
exactly what the one-at-a-time high-level API returns.
"""

from __future__ import annotations

import multiprocessing
import os

import numpy as np
import pytest

from repro.core import PRNibbleParams, cluster_many, local_cluster, ncp_profile, pr_nibble
from repro.core.sweep import sweep_cut
from repro.engine import (
    BatchEngine,
    BestClusterReducer,
    CollectReducer,
    DiffusionJob,
    NCPReducer,
    ProcessPoolBackend,
    SerialBackend,
    StatsReducer,
    job_grid,
    resolve_engine,
    run_job,
)
from repro.graph import CSRGraph, planted_partition
from repro.runtime import track


@pytest.fixture(scope="module")
def graph():
    return planted_partition(600, 6, intra_degree=8.0, inter_degree=1.0, seed=5)


@pytest.fixture
def isolated_vertex_graph():
    """Vertex 0 isolated; vertices 1-2 joined by an edge."""
    return CSRGraph(np.asarray([0, 0, 1, 2]), np.asarray([2, 1]))


def legacy_ncp_loop(graph, seed_array, alphas, eps_values, limit, parallel=True):
    """The pre-engine ``ncp_profile`` body, verbatim — the golden reference."""
    best = np.full(limit, np.inf, dtype=np.float64)
    runs = 0
    for seed in seed_array.tolist():
        for alpha in alphas:
            for eps in eps_values:
                params = PRNibbleParams(alpha=alpha, eps=eps)
                diffusion = pr_nibble(graph, seed, params, parallel=parallel)
                if diffusion.support_size() == 0:
                    continue
                sweep = sweep_cut(graph, diffusion.vector, parallel=parallel)
                runs += 1
                count = min(len(sweep.order), limit)
                phis = sweep.conductances[:count]
                valid = phis > 0.0
                np.minimum.at(best, np.flatnonzero(valid), phis[valid])
    return best, runs


class TestJobs:
    def test_make_normalises_seeds(self):
        assert DiffusionJob.make(3).seeds == (3,)
        assert DiffusionJob.make(np.asarray([4, 5])).seeds == (4, 5)
        assert DiffusionJob.make([6]).params == {}

    def test_describe(self):
        job = DiffusionJob.make(1, params={"eps": 1e-4, "alpha": 0.1})
        assert job.describe() == "pr-nibble[1] alpha=0.1 eps=0.0001"

    def test_grid_order_matches_serial_triple_loop(self):
        jobs = list(job_grid([7, 9], "pr-nibble", {"alpha": (0.1, 0.01), "eps": (1e-3, 1e-4)}))
        assert len(jobs) == 8
        assert [j.seeds[0] for j in jobs] == [7, 7, 7, 7, 9, 9, 9, 9]
        assert [j.params["alpha"] for j in jobs[:4]] == [0.1, 0.1, 0.01, 0.01]
        assert [j.params["eps"] for j in jobs[:2]] == [1e-3, 1e-4]

    def test_grid_fixed_params_and_distinct_rng(self):
        jobs = list(job_grid([1, 2], "rand-hk-pr", {"t": (2.0, 4.0)}, params={"num_walks": 50}, rng=10))
        assert all(j.params["num_walks"] == 50 for j in jobs)
        assert [j.rng for j in jobs] == [10, 11, 12, 13]

    def test_empty_grid_yields_one_job_per_seed(self):
        jobs = list(job_grid([1, 2, 3]))
        assert len(jobs) == 3
        assert all(j.params == {} for j in jobs)

    def test_empty_grid_axis_yields_no_jobs(self):
        # An axis with zero values empties the product, exactly like the
        # nested loop the grid mirrors — it must not fall back to defaults.
        assert list(job_grid([1, 2], grid={"alpha": ()})) == []

    def test_ncp_with_empty_alphas_does_no_runs(self, graph):
        profile = ncp_profile(graph, seeds=[0], alphas=(), eps_values=(1e-4,))
        assert profile.runs == 0
        assert not np.isfinite(profile.conductance).any()


class TestRunJob:
    def test_matches_local_cluster(self, graph):
        job = DiffusionJob.make(0, params={"alpha": 0.05, "eps": 1e-4})
        outcome = run_job(graph, job)
        reference = local_cluster(graph, 0, alpha=0.05, eps=1e-4)
        assert np.array_equal(outcome.cluster, reference.cluster)
        assert outcome.conductance == reference.conductance
        assert outcome.support_size == reference.diffusion.support_size()
        rebuilt = outcome.to_cluster_result()
        assert rebuilt.params == reference.params
        assert rebuilt.diffusion.pushes == reference.diffusion.pushes

    def test_unknown_method_raises(self, graph):
        with pytest.raises(ValueError, match="unknown method"):
            run_job(graph, DiffusionJob.make(0, method="page-rank"))

    def test_empty_support_yields_no_sweep(self, isolated_vertex_graph):
        outcome = run_job(
            isolated_vertex_graph, DiffusionJob.make(0), parallel=False
        )
        assert outcome.support_size == 0
        assert outcome.sweep is None
        assert outcome.conductance == float("inf")
        assert outcome.size == 0
        with pytest.raises(ValueError, match="no cluster"):
            outcome.to_cluster_result()

    def test_vector_omitted_when_disabled(self, graph):
        outcome = run_job(graph, DiffusionJob.make(0), include_vector=False)
        assert outcome.vector_keys is None
        with pytest.raises(ValueError, match="include_vectors"):
            outcome.diffusion()


class TestEngineDeterminism:
    ALPHAS = (0.05, 0.01)
    EPS = (1e-4,)

    def test_batched_ncp_bit_identical_to_legacy_loop(self, graph):
        seeds = np.asarray([0, 150, 300, 450, 599])
        expected, expected_runs = legacy_ncp_loop(
            graph, seeds, self.ALPHAS, self.EPS, graph.num_vertices
        )
        profile = ncp_profile(graph, seeds=seeds, alphas=self.ALPHAS, eps_values=self.EPS)
        assert profile.runs == expected_runs
        assert np.array_equal(profile.conductance, expected)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_worker_count_does_not_change_results(self, graph, workers, forced_pool):
        seeds = np.asarray([0, 150, 300, 450, 599])
        serial = ncp_profile(graph, seeds=seeds, alphas=self.ALPHAS, eps_values=self.EPS)
        pooled = ncp_profile(
            graph, seeds=seeds, alphas=self.ALPHAS, eps_values=self.EPS, workers=workers
        )
        assert pooled.runs == serial.runs
        assert np.array_equal(pooled.conductance, serial.conductance)

    def test_ncp_rng_path_unchanged(self, graph):
        """num_seeds + rng draws the same seeds the legacy code drew."""
        from repro.core.seeding import random_seeds

        expected_seeds = random_seeds(graph, 6, rng=np.random.default_rng(4))
        expected, expected_runs = legacy_ncp_loop(
            graph, expected_seeds, self.ALPHAS, self.EPS, graph.num_vertices
        )
        profile = ncp_profile(
            graph, num_seeds=6, alphas=self.ALPHAS, eps_values=self.EPS, rng=4
        )
        assert profile.runs == expected_runs
        assert np.array_equal(profile.conductance, expected)

    def test_process_backend_preserves_job_order(self, graph, forced_pool):
        jobs = [DiffusionJob.make(s, params={"alpha": 0.05, "eps": 1e-4}) for s in range(8)]
        engine = BatchEngine(graph, backend="process", workers=2)
        outcomes = engine.run(jobs)
        assert [o.index for o in outcomes] == list(range(8))
        assert [o.job.seeds[0] for o in outcomes] == list(range(8))


class TestClusterMany:
    def test_matches_local_cluster_loop(self, graph):
        seeds = [0, 100, 200, 300]
        batch = cluster_many(graph, seeds, alpha=0.05, eps=1e-4)
        for seed, result in zip(seeds, batch):
            reference = local_cluster(graph, seed, alpha=0.05, eps=1e-4)
            assert np.array_equal(result.cluster, reference.cluster)
            assert result.conductance == reference.conductance
            assert result.algorithm == "pr-nibble"

    def test_workers_equivalent(self, graph, forced_pool):
        seeds = [0, 100, 200, 300]
        serial = cluster_many(graph, seeds, alpha=0.05, eps=1e-4)
        pooled = cluster_many(graph, seeds, alpha=0.05, eps=1e-4, workers=2)
        for a, b in zip(serial, pooled):
            assert np.array_equal(a.cluster, b.cluster)
            assert a.conductance == b.conductance

    def test_randomized_method_backend_invariant(self, graph, forced_pool):
        serial = cluster_many(graph, [0, 50], method="rand-hk-pr", rng=3, num_walks=500)
        pooled = cluster_many(
            graph, [0, 50], method="rand-hk-pr", rng=3, num_walks=500, workers=2
        )
        for a, b in zip(serial, pooled):
            assert np.array_equal(a.cluster, b.cluster)

    def test_unknown_method_raises(self, graph):
        with pytest.raises(ValueError, match="unknown method"):
            cluster_many(graph, [0], method="page-rank")

    def test_rejects_vectorless_engine_up_front(self, graph):
        engine = BatchEngine(graph, include_vectors=False)
        with pytest.raises(ValueError, match="include_vectors=True"):
            cluster_many(graph, [0], engine=engine)


class TestReducers:
    def _outcomes(self, graph, seeds=(0, 100, 200)):
        jobs = [DiffusionJob.make(s, params={"alpha": 0.05, "eps": 1e-4}) for s in seeds]
        return BatchEngine(graph).run(jobs)

    def test_collect_preserves_order(self, graph):
        outcomes = self._outcomes(graph)
        assert [o.index for o in outcomes] == [0, 1, 2]

    def test_stats_reducer_counts(self, graph):
        outcomes = self._outcomes(graph)
        reducer = StatsReducer()
        for outcome in outcomes:
            reducer.update(outcome)
        stats = reducer.finalize()
        assert stats.jobs == 3 and stats.completed == 3
        assert stats.total_pushes == sum(o.pushes for o in outcomes)
        assert stats.by_method == {"pr-nibble": 3}
        assert stats.total_work > 0 and stats.max_depth > 0
        assert stats.jobs_per_second(0.5) == pytest.approx(6.0)

    def test_best_cluster_reducer_picks_minimum(self, graph):
        outcomes = self._outcomes(graph)
        reducer = BestClusterReducer()
        for outcome in outcomes:
            reducer.update(outcome)
        best = reducer.finalize()
        assert best is not None
        assert best.conductance == min(o.conductance for o in outcomes)

    def test_ncp_reducer_skips_empty_support(self, isolated_vertex_graph):
        outcome = run_job(isolated_vertex_graph, DiffusionJob.make(0), parallel=False)
        reducer = NCPReducer(3)
        reducer.update(outcome)
        profile = reducer.finalize()
        assert profile.runs == 0
        assert not np.isfinite(profile.conductance).any()

    def test_ncp_reducer_validates_max_size(self):
        with pytest.raises(ValueError):
            NCPReducer(0)

    def test_multiple_reducers_single_pass(self, graph):
        jobs = [DiffusionJob.make(s, params={"alpha": 0.05, "eps": 1e-4}) for s in (0, 100)]
        collect, stats = BatchEngine(graph).run(jobs, [CollectReducer(), StatsReducer()])
        assert len(collect) == 2
        assert stats.jobs == 2


class TestNonForkStartMethods:
    """Non-fork start methods fan out for real through the shared-memory
    graph plane — no warning, no serial fallback, bit-identical outcomes —
    and every exported segment is unlinked by engine shutdown."""

    JOBS = staticmethod(
        lambda seeds: [
            DiffusionJob.make(s, params={"alpha": 0.05, "eps": 1e-4}) for s in seeds
        ]
    )

    @pytest.fixture
    def spawn_backend(self):
        if "spawn" not in multiprocessing.get_all_start_methods():  # pragma: no cover
            pytest.skip("spawn start method unavailable on this platform")
        return ProcessPoolBackend(start_method="spawn", workers=2)

    def test_no_warning_and_matches_serial(self, graph, spawn_backend, forced_pool):
        import warnings as warnings_module

        jobs = self.JOBS((0, 100, 200))
        serial = BatchEngine(graph).run(jobs)
        engine = BatchEngine(graph, backend=spawn_backend)
        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error")
            outcomes = engine.run(jobs)
        assert [o.index for o in outcomes] == [0, 1, 2]
        for reference, outcome in zip(serial, outcomes):
            assert np.array_equal(reference.cluster, outcome.cluster)
            assert outcome.conductance == reference.conductance
            assert outcome.pushes == reference.pushes

    def test_spawn_records_pool_aggregate_cost(self, graph, spawn_backend):
        # Real fan-out means per-job costs accrue in the *workers*: the
        # parent tracker must see the one aggregate "engine" record (work
        # summed, depth maxed), not the per-job edge_map records an
        # in-process fallback would have folded in.
        assert not spawn_backend.folds_into_tracker
        engine = BatchEngine(graph, backend=spawn_backend)
        jobs = self.JOBS((0, 100))
        with track() as tracker:
            outcomes = engine.run(jobs)
        assert "edge_map" not in tracker.by_category
        assert "engine" in tracker.by_category
        assert tracker.work == pytest.approx(sum(o.work for o in outcomes))

    def test_spawn_leaves_no_shared_memory_segments(
        self, graph, spawn_backend, forced_pool
    ):
        from repro.graph.shared import SEGMENT_PREFIX

        shm_dir = "/dev/shm"
        if not os.path.isdir(shm_dir):  # pragma: no cover - non-POSIX host
            pytest.skip("no /dev/shm to audit on this platform")
        BatchEngine(graph, backend=spawn_backend).run(self.JOBS((0, 100)))
        leaked = [f for f in os.listdir(shm_dir) if f.startswith(SEGMENT_PREFIX)]
        assert leaked == []

    def test_abandoned_stream_unlinks_segments(self, graph, spawn_backend, forced_pool):
        from repro.graph.shared import SEGMENT_PREFIX

        shm_dir = "/dev/shm"
        if not os.path.isdir(shm_dir):  # pragma: no cover - non-POSIX host
            pytest.skip("no /dev/shm to audit on this platform")
        stream = spawn_backend.stream(graph, self.JOBS((0, 100, 200)), True, True)
        next(stream)  # segments exist while the stream is live
        stream.close()  # abandoning the stream must still clean up
        leaked = [f for f in os.listdir(shm_dir) if f.startswith(SEGMENT_PREFIX)]
        assert leaked == []

    def test_empty_batch(self, graph, spawn_backend):
        assert BatchEngine(graph, backend=spawn_backend).run([]) == []

    def test_forkserver_matches_serial(self, graph, forced_pool):
        if "forkserver" not in multiprocessing.get_all_start_methods():  # pragma: no cover
            pytest.skip("forkserver start method unavailable on this platform")
        jobs = self.JOBS((0, 100))
        serial = BatchEngine(graph).run(jobs)
        backend = ProcessPoolBackend(start_method="forkserver", workers=2)
        outcomes = BatchEngine(graph, backend=backend).run(jobs)
        for reference, outcome in zip(serial, outcomes):
            assert np.array_equal(reference.cluster, outcome.cluster)
            assert outcome.conductance == reference.conductance

    def test_env_var_sets_default_start_method(self, monkeypatch):
        monkeypatch.setenv("REPRO_START_METHOD", "spawn")
        assert ProcessPoolBackend(workers=2).start_method == "spawn"
        monkeypatch.delenv("REPRO_START_METHOD")
        assert ProcessPoolBackend(workers=2).start_method in (
            multiprocessing.get_all_start_methods()
        )

    def test_fork_backend_never_folds(self, graph):
        if "fork" not in multiprocessing.get_all_start_methods():  # pragma: no cover
            pytest.skip("fork start method unavailable on this platform")
        assert not ProcessPoolBackend(start_method="fork").folds_into_tracker


class TestExecutionSessions:
    """The pool-lifecycle split: one session serves consecutive batches
    over one pool and one graph export, and closes deterministically."""

    JOBS = staticmethod(
        lambda seeds: [
            DiffusionJob.make(s, params={"alpha": 0.05, "eps": 1e-4}) for s in seeds
        ]
    )

    def test_serial_session_consecutive_batches_match_serial(self, graph):
        engine = BatchEngine(graph)
        reference = engine.run(self.JOBS((0, 100, 200, 300)))
        with engine.open_session() as session:
            first = list(session.run(self.JOBS((0, 100))))
            second = list(session.run(self.JOBS((200, 300))))
        assert session.batches == 2
        for expected, outcome in zip(reference, first + second):
            assert np.array_equal(expected.cluster, outcome.cluster)
            assert outcome.conductance == expected.conductance

    def test_pool_session_consecutive_batches_match_serial(self, graph):
        serial = BatchEngine(graph).run(self.JOBS((0, 100, 200, 300)))
        backend = ProcessPoolBackend(workers=2)
        with backend.open_session(graph) as session:
            first = list(session.run(self.JOBS((0, 100))))
            second = list(session.run(self.JOBS((200, 300))))
        assert session.batches == 2
        for expected, outcome in zip(serial, first + second):
            assert np.array_equal(expected.cluster, outcome.cluster)
            assert outcome.conductance == expected.conductance
            assert outcome.pushes == expected.pushes

    def test_closed_session_refuses_further_batches(self, graph):
        session = BatchEngine(graph).open_session()
        session.close()
        assert session.closed
        with pytest.raises(RuntimeError, match="closed"):
            session.run(self.JOBS((0,)))

    def test_pool_session_close_is_idempotent(self, graph):
        session = ProcessPoolBackend(workers=2).open_session(graph)
        list(session.run(self.JOBS((0,))))
        session.close()
        session.close()
        assert session.closed

    def test_spawn_session_reuses_one_export(self, graph):
        """Consecutive batches reuse the same shared-memory export; close
        unlinks it (the ROADMAP's segment-reuse follow-on)."""
        if "spawn" not in multiprocessing.get_all_start_methods():  # pragma: no cover
            pytest.skip("spawn start method unavailable on this platform")
        from repro.graph.shared import SEGMENT_PREFIX

        shm_dir = "/dev/shm"
        if not os.path.isdir(shm_dir):  # pragma: no cover - non-POSIX host
            pytest.skip("no /dev/shm to audit on this platform")
        backend = ProcessPoolBackend(workers=2, start_method="spawn")
        session = backend.open_session(graph)
        try:
            list(session.run(self.JOBS((0, 100))))
            shared = session.shared
            assert shared is not None and not shared.unlinked
            names = set(shared.segment_names())
            assert names <= set(os.listdir(shm_dir))
            list(session.run(self.JOBS((200,))))
            assert session.shared is shared  # same export, no re-export
            live = [f for f in os.listdir(shm_dir) if f.startswith(SEGMENT_PREFIX)]
            assert set(live) == names
        finally:
            session.close()
        assert shared.unlinked
        assert [f for f in os.listdir(shm_dir) if f.startswith(SEGMENT_PREFIX)] == []

    def test_abandoned_map_iterator_shuts_pool_down_on_close(self, graph, forced_pool):
        """Closing an abandoned ``BatchEngine.map`` iterator must terminate
        and join the pool's worker processes, not leave them to GC."""
        before = {p.pid for p in multiprocessing.active_children()}
        engine = BatchEngine(graph, backend=ProcessPoolBackend(workers=2))
        stream = engine.map(self.JOBS((0, 100, 200, 300)))
        next(stream)  # the pool is live mid-batch
        started = [
            p for p in multiprocessing.active_children() if p.pid not in before
        ]
        assert started, "expected live pool workers after first outcome"
        stream.close()  # abandoning the iterator must tear the pool down
        assert all(not p.is_alive() for p in started)


class TestOneShotPoolSelection:
    """A one-shot process-backend batch runs its jobs in-process, in job
    order, and opens a pool for the jobs left only once they project past
    the break-even; either way the outcomes are the serial ones, in job
    order."""

    JOBS = staticmethod(
        lambda: [
            DiffusionJob.make(seed, params={"alpha": 0.05, "eps": eps})
            for seed, eps in ((0, 1e-4), (100, 1e-4), (200, 1e-5), (300, 1e-4), (400, 1e-4))
        ]
    )

    @staticmethod
    def assert_serial(outcomes, jobs, graph):
        reference = BatchEngine(graph).run(jobs)
        assert [o.index for o in outcomes] == list(range(len(jobs)))
        for want, got in zip(reference, outcomes):
            assert got.index == want.index
            assert got.job.seeds == want.job.seeds
            assert np.array_equal(got.cluster, want.cluster)
            assert got.conductance == want.conductance
            assert got.pushes == want.pushes
            assert got.work == want.work and got.depth == want.depth
            assert np.array_equal(got.vector_keys, want.vector_keys)
            assert np.array_equal(got.vector_values, want.vector_values)

    def test_short_batch_opens_no_pool(self, graph, pools_opened):
        jobs = self.JOBS()
        engine = BatchEngine(graph, backend=ProcessPoolBackend(workers=2))
        outcomes = engine.run(jobs)
        assert pools_opened == []
        assert engine.dispatch_stats.batches == 0
        self.assert_serial(outcomes, jobs, graph)

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_batch_past_break_even_pools_all_but_the_first_job(
        self, graph, monkeypatch, forced_pool, start_method
    ):
        from repro.engine import executor
        from repro.graph.shared import SEGMENT_PREFIX

        if start_method not in multiprocessing.get_all_start_methods():  # pragma: no cover
            pytest.skip(f"{start_method} start method unavailable on this platform")
        in_process = []
        run = executor.run_job

        def spy(graph, job, *args, **kwargs):
            in_process.append(job)
            return run(graph, job, *args, **kwargs)

        # Forked workers append to their own copy of the list and spawned
        # ones run unpatched: the parent's list holds the in-process jobs.
        monkeypatch.setattr(executor, "run_job", spy)
        jobs = self.JOBS()
        engine = BatchEngine(
            graph, backend=ProcessPoolBackend(workers=2, start_method=start_method)
        )
        with track() as tracker:
            outcomes = engine.run(jobs)
        assert in_process == jobs[:1]
        assert len(forced_pool) == 1
        dispatch = engine.dispatch_stats
        assert dispatch.batches == 1 and dispatch.jobs == len(jobs) - 1
        self.assert_serial(outcomes, jobs, graph)
        # The tracker contract holds with a job run in-process: one
        # aggregate record, no per-job categories.
        assert set(tracker.by_category) == {"engine"}
        assert tracker.work == pytest.approx(sum(o.work for o in outcomes))
        assert tracker.depth == pytest.approx(max(o.depth for o in outcomes))
        if os.path.isdir("/dev/shm"):
            assert [f for f in os.listdir("/dev/shm") if f.startswith(SEGMENT_PREFIX)] == []

    def test_one_job_batch_opens_no_pool(self, graph, monkeypatch, pools_opened):
        from repro.engine import scheduler

        monkeypatch.setattr(scheduler, "POOL_BREAK_EVEN_SECONDS", 0.0)
        jobs = self.JOBS()[:1]
        engine = BatchEngine(graph, backend=ProcessPoolBackend(workers=2))
        outcomes = engine.run(jobs)
        assert pools_opened == []
        assert engine.dispatch_stats.batches == 0
        self.assert_serial(outcomes, jobs, graph)

    def test_projection_is_rechecked_as_jobs_finish(self, graph, monkeypatch, pools_opened):
        """An isolated first seed finishes at once and projects the batch to
        nothing; the pool opens as soon as a real job's time is measured."""
        from dataclasses import replace

        from repro.engine import executor, scheduler

        # The graph plus one isolated vertex, the first job's seed.
        isolated = graph.num_vertices
        with_isolated = CSRGraph(np.append(graph.offsets, graph.offsets[-1]), graph.neighbors)
        jobs = [
            DiffusionJob.make(seed, params={"alpha": 0.05, "eps": 1e-4})
            for seed in (isolated, 0, 100, 200, 300, 400)
        ]
        # A fixed clock: every job but the isolated seed's takes 0.1 s.
        # After the first job nothing is projected; after the second,
        # 0.1 s over two jobs projects the four left to 0.2 s, past the
        # patched break-even.
        in_process = []
        run = executor.run_job

        def timed(graph, job, *args, **kwargs):
            in_process.append(job)
            outcome = run(graph, job, *args, **kwargs)
            return replace(outcome, wall_seconds=0.0 if isolated in job.seeds else 0.1)

        monkeypatch.setattr(executor, "run_job", timed)
        monkeypatch.setattr(scheduler, "POOL_BREAK_EVEN_SECONDS", 0.15)
        engine = BatchEngine(with_isolated, backend=ProcessPoolBackend(workers=2))
        outcomes = engine.run(jobs)
        assert in_process == jobs[:2]
        assert len(pools_opened) == 1
        assert engine.dispatch_stats.jobs == len(jobs) - 2
        self.assert_serial(outcomes, jobs, with_isolated)


class TestSharedCodePaths:
    """The backend refactor's de-duplication guarantees, asserted on the
    class structure so the old copy-pasted fallback loop cannot return."""

    def test_backends_share_the_inline_loop(self):
        from repro.cache import CachingBackend, CachingSession
        from repro.engine import (
            ExecutionSession,
            PoolBackend,
            PoolSession,
        )

        assert issubclass(SerialBackend, PoolBackend)
        assert issubclass(ProcessPoolBackend, PoolBackend)
        # SerialBackend *is* the base session's in-process loop, and
        # PoolBackend.stream is the one open->run->close path: no backend
        # overrides it, and no session type overrides run (where the
        # engine's kernel default and freshness check live).
        assert SerialBackend.open_session is PoolBackend.open_session
        for backend in (SerialBackend, ProcessPoolBackend, CachingBackend):
            assert backend.stream is PoolBackend.stream
        for session in (PoolSession, CachingSession):
            assert issubclass(session, ExecutionSession)
            assert session.run is ExecutionSession.run


class TestEngineConfiguration:
    def test_backend_inference_from_workers(self, graph):
        assert isinstance(BatchEngine(graph).backend, SerialBackend)
        assert isinstance(BatchEngine(graph, workers=1).backend, SerialBackend)
        assert isinstance(BatchEngine(graph, workers=2).backend, ProcessPoolBackend)
        assert BatchEngine(graph, workers=2).workers == 2

    def test_unknown_backend_rejected(self, graph):
        with pytest.raises(ValueError, match="unknown backend"):
            BatchEngine(graph, backend="threads")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"workers": 4},
            {"start_method": "spawn"},
            {"workers": 2, "start_method": "fork"},
            {"workers": 4, "start_method": "spawn"},
        ],
    )
    def test_backend_instance_conflicting_kwargs_rejected(self, graph, kwargs):
        """Pool knobs alongside a prebuilt backend used to be silently
        ignored; now the conflict is an error naming the offenders."""
        backend = SerialBackend()
        with pytest.raises(ValueError, match="already constructed"):
            BatchEngine(graph, backend=backend, **kwargs)
        # the same knobs are fine when the backend is built by name, and a
        # bare instance still passes.
        assert BatchEngine(graph, backend=backend).backend is backend

    def test_resolve_engine_passthrough_and_mismatch(self, graph):
        engine = BatchEngine(graph)
        assert resolve_engine(graph, engine) is engine
        other = planted_partition(100, 2, 6.0, 1.0, seed=1)
        with pytest.raises(ValueError, match="different graph"):
            resolve_engine(other, engine)

    def test_resolve_engine_rejects_knobs_alongside_prebuilt_engine(self, graph):
        """The same silent-ignore class fixed on BatchEngine: a ready
        engine plus construction knobs is an error, not a no-op."""
        engine = BatchEngine(graph)
        for kwargs in ({"workers": 4}, {"cache": True}, {"start_method": "spawn"},
                       {"kernel": "python"}):
            with pytest.raises(ValueError, match="already constructed"):
                resolve_engine(graph, engine, **kwargs)
        # None / False mean "unset" and still pass the engine through.
        assert resolve_engine(graph, engine, workers=None, cache=False) is engine
        # A different object with the same CSR content (e.g. the same
        # graph reloaded from disk) must pass the fingerprint check.
        from repro.graph import CSRGraph

        copy = CSRGraph(graph.offsets.copy(), graph.neighbors.copy())
        assert copy is not graph
        engine = BatchEngine(graph)
        assert resolve_engine(copy, engine) is engine

    def test_start_method_threads_through(self, graph):
        for method in multiprocessing.get_all_start_methods():
            built = BatchEngine(graph, backend="process", workers=2, start_method=method)
            assert built.backend.start_method == method

    def test_unknown_schedule_rejected(self):
        # Heaviest-first stealing is the pool's only dispatch: it takes
        # neither a schedule nor a unit size.
        with pytest.raises(TypeError, match="schedule"):
            ProcessPoolBackend(workers=2, schedule="cost")
        with pytest.raises(TypeError, match="chunk_size"):
            ProcessPoolBackend(workers=2, chunk_size=4)

    def test_unavailable_start_method_rejected(self):
        with pytest.raises(ValueError, match="unavailable"):
            ProcessPoolBackend(start_method="no-such-method")

    def test_empty_job_stream(self, graph):
        assert BatchEngine(graph, backend="process", workers=2).run([]) == []
        assert BatchEngine(graph).run([]) == []

    def test_serial_backend_folds_costs_into_tracker(self, graph):
        engine = BatchEngine(graph)
        with track() as tracker:
            engine.run([DiffusionJob.make(0, params={"alpha": 0.05, "eps": 1e-4})])
        assert tracker.work > 0
        assert "edge_map" in tracker.by_category

    def test_process_backend_records_batch_cost(self, graph):
        engine = BatchEngine(graph, backend="process", workers=2)
        jobs = [DiffusionJob.make(s, params={"alpha": 0.05, "eps": 1e-4}) for s in (0, 100)]
        with track() as tracker:
            outcomes = engine.run(jobs)
        assert "engine" in tracker.by_category
        assert tracker.work == pytest.approx(sum(o.work for o in outcomes))
        assert tracker.depth == pytest.approx(max(o.depth for o in outcomes))
