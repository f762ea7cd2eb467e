"""Tests for the async serving plane (repro.serve).

The load-bearing properties: outcomes served to concurrent async clients
are bit-identical to the serial backend; futures resolve in submission
order per client; interactive submissions drain ahead of a bulk backlog;
cancellation (queued or in-flight) never wedges the drain loop; and the
service's long-lived session reuses one pool and one shared-memory graph
export across consecutive micro-batches.

The tests drive the event loop through plain ``asyncio.run`` so they run
under bare pytest (``pytest-asyncio``, declared in the dev extras, is not
required to execute them).
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os

import numpy as np
import pytest

from repro.core import async_local_cluster, local_cluster
from repro.engine import BatchEngine, DiffusionJob
from repro.serve import PRIORITIES, DiffusionService, ServiceClosed

PARAMS = {"alpha": 0.05, "eps": 1e-4}


@pytest.fixture(scope="module")
def graph():
    from repro.graph import planted_partition

    return planted_partition(600, 6, intra_degree=8.0, inter_degree=1.0, seed=5)


def jobs_for(seeds):
    return [DiffusionJob.make(seed, params=dict(PARAMS)) for seed in seeds]


def assert_outcomes_match(reference, outcomes):
    assert len(reference) == len(outcomes)
    for expected, outcome in zip(reference, outcomes):
        assert np.array_equal(expected.cluster, outcome.cluster)
        assert outcome.conductance == expected.conductance
        assert outcome.pushes == expected.pushes
        assert outcome.support_size == expected.support_size


class TestServiceResults:
    def test_concurrent_clients_bit_identical_to_serial(self, graph):
        """Three interleaved clients, one service — every outcome matches
        what SerialBackend produces for the same job."""
        client_seeds = {"a": (0, 150, 300), "b": (50, 200), "c": (599, 10, 450, 75)}
        reference = {
            name: BatchEngine(graph).run(jobs_for(seeds))
            for name, seeds in client_seeds.items()
        }

        async def client(service, seeds):
            results = []
            for seed in seeds:
                results.append(await service.submit(jobs_for([seed])[0]))
            return results

        async def scenario():
            async with DiffusionService(graph) as service:
                return await asyncio.gather(
                    *(client(service, seeds) for seeds in client_seeds.values())
                )

        served = dict(zip(client_seeds, asyncio.run(scenario())))
        for name in client_seeds:
            assert_outcomes_match(reference[name], served[name])

    def test_submit_many_matches_serial(self, graph):
        seeds = (0, 100, 200, 300, 400)
        reference = BatchEngine(graph).run(jobs_for(seeds))

        async def scenario():
            async with DiffusionService(graph, max_batch=2) as service:
                futures = service.submit_many(jobs_for(seeds))
                outcomes = await asyncio.gather(*futures)
                return outcomes, service.stats

        outcomes, stats = asyncio.run(scenario())
        assert_outcomes_match(reference, outcomes)
        # max_batch=2 over 5 jobs forces several micro-batches through the
        # one session.
        assert stats.batches >= 3
        assert stats.completed == len(seeds)

    def test_futures_resolve_in_submission_order_per_client(self, graph):
        """Each client's futures complete in the order it submitted them,
        even with two clients interleaving onto shared micro-batches."""

        async def scenario():
            completions: dict[str, list[int]] = {"a": [], "b": []}

            def track(client, position, future):
                future.add_done_callback(
                    lambda _: completions[client].append(position)
                )

            async with DiffusionService(graph, max_batch=3) as service:
                futures = []
                for position, (seed_a, seed_b) in enumerate(
                    zip((0, 150, 300, 450), (50, 200, 350, 500))
                ):
                    future_a = service.submit(jobs_for([seed_a])[0])
                    future_b = service.submit(jobs_for([seed_b])[0], priority="bulk")
                    track("a", position, future_a)
                    track("b", position, future_b)
                    futures += [future_a, future_b]
                await asyncio.gather(*futures)
            return completions

        completions = asyncio.run(scenario())
        assert completions["a"] == sorted(completions["a"])
        assert completions["b"] == sorted(completions["b"])

    def test_interactive_drains_ahead_of_bulk_backlog(self, graph):
        """An interactive query submitted behind a queued bulk backlog
        completes before the backlog's tail."""

        async def scenario():
            order: list[str] = []
            async with DiffusionService(graph, max_batch=2) as service:
                bulk = service.submit_many(jobs_for((0, 100, 200, 300, 400, 500)))
                interactive = service.submit(jobs_for([599])[0])
                interactive.add_done_callback(lambda _: order.append("interactive"))
                bulk[-1].add_done_callback(lambda _: order.append("bulk-tail"))
                await asyncio.gather(interactive, *bulk)
            return order

        assert asyncio.run(scenario()) == ["interactive", "bulk-tail"]

    def test_max_batch_cost_bounds_micro_batches(self, graph):
        """With a cost cap below two jobs' estimate, every batch carries
        exactly one job (the cap never starves: one job always admitted)."""
        from repro.engine import estimate_cost

        job = jobs_for([0])[0]
        cap = estimate_cost(job) * 1.5

        async def scenario():
            async with DiffusionService(graph, max_batch_cost=cap) as service:
                futures = service.submit_many(jobs_for((0, 100, 200)))
                await asyncio.gather(*futures)
                return service.stats.batches

        assert asyncio.run(scenario()) == 3


class TestWorkConservingDrain:
    """The drain loop never waits for batch-mates: an idle service runs a
    lone submission at once, and batches still form from whatever queues
    while the previous batch runs on the service's one worker thread."""

    def test_idle_service_dispatches_without_a_timer(self, graph, monkeypatch):
        import repro.serve.service as service_module

        delays = []

        class SpiedAsyncio:
            """The asyncio module as the service sees it, sleep recorded."""

            def __getattr__(self, name):
                return getattr(asyncio, name)

            async def sleep(self, delay, *args, **kwargs):
                delays.append(delay)
                return await asyncio.sleep(delay, *args, **kwargs)

        monkeypatch.setattr(service_module, "asyncio", SpiedAsyncio())

        async def scenario():
            async with DiffusionService(graph) as service:
                outcome = await service.submit(jobs_for([0])[0])
                return outcome, service.stats.batches

        outcome, batches = asyncio.run(scenario())
        assert delays == []
        assert batches == 1
        assert_outcomes_match(BatchEngine(graph).run(jobs_for([0])), [outcome])

    def test_batches_form_while_the_previous_batch_runs(self, graph):
        import threading

        entered, release = threading.Event(), threading.Event()
        sizes = []

        class HeldSession:
            """The real session, except that the first batch waits."""

            def __init__(self, inner):
                self.inner = inner

            def run(self, jobs):
                jobs = list(jobs)
                sizes.append(len(jobs))
                if len(sizes) == 1:
                    entered.set()
                    release.wait(timeout=60)
                return self.inner.run(jobs)

            def close(self):
                self.inner.close()

        seeds = (0, 150, 300, 450)

        async def scenario():
            service = DiffusionService(graph)
            open_session = service.engine.open_session
            service.engine.open_session = lambda: HeldSession(open_session())
            loop = asyncio.get_running_loop()
            async with service:
                try:
                    first = service.submit(jobs_for(seeds[:1])[0])
                    assert await loop.run_in_executor(None, entered.wait, 60)
                    rest = [service.submit(job) for job in jobs_for(seeds[1:])]
                finally:
                    release.set()
                outcomes = await asyncio.gather(first, *rest)
                return outcomes, service.stats.batches

        outcomes, batches = asyncio.run(scenario())
        assert sizes == [1, 3]
        assert batches == 2
        assert_outcomes_match(BatchEngine(graph).run(jobs_for(seeds)), outcomes)


class TestServiceLifecycle:
    def test_cancellation_of_pending_future_does_not_wedge_drain(self, graph):
        """Cancelling queued futures skips them; later submissions on the
        same service still complete."""

        async def scenario():
            async with DiffusionService(graph) as service:
                futures = service.submit_many(jobs_for((0, 100, 200, 300)))
                futures[1].cancel()
                futures[2].cancel()
                kept = await asyncio.gather(futures[0], futures[3])
                follow_up = await service.submit(jobs_for([450])[0])
                return kept, follow_up, service.stats

        kept, follow_up, stats = asyncio.run(scenario())
        reference = BatchEngine(graph).run(jobs_for((0, 300, 450)))
        assert_outcomes_match(reference, [*kept, follow_up])
        assert stats.cancelled == 2
        assert stats.completed == 3

    def test_submit_after_close_raises(self, graph):
        async def scenario():
            service = DiffusionService(graph)
            async with service:
                await service.submit(jobs_for([0])[0])
            with pytest.raises(ServiceClosed):
                service.submit(jobs_for([0])[0])

        asyncio.run(scenario())

    def test_close_drains_queued_submissions(self, graph):
        """close() resolves everything already submitted before tearing
        the session down."""

        async def scenario():
            service = DiffusionService(graph)
            futures = None

            async def run():
                nonlocal futures
                futures = service.submit_many(jobs_for((0, 150)))
                await service.close()
                return await asyncio.gather(*futures)

            return await run()

        outcomes = asyncio.run(scenario())
        assert_outcomes_match(BatchEngine(graph).run(jobs_for((0, 150))), outcomes)

    def test_invalid_submissions_rejected_synchronously(self, graph):
        async def scenario():
            async with DiffusionService(graph) as service:
                with pytest.raises(ValueError, match="unknown method"):
                    service.submit(DiffusionJob.make(0, method="page-rank"))
                with pytest.raises(ValueError, match="out of range"):
                    service.submit(DiffusionJob.make(graph.num_vertices + 5))
                # The options layer attributes bad values to the canonical
                # parameter name (field "params.epsilon"), not raw kwargs.
                with pytest.raises(ValueError, match="invalid pr-nibble parameter 'epsilon'") as info:
                    service.submit(DiffusionJob.make(0, params={"epsilon": 1e-4}))
                assert getattr(info.value, "field", None) == "params.epsilon"
                with pytest.raises(ValueError, match="unknown priority"):
                    service.submit(jobs_for([0])[0], priority="urgent")
                # the drain loop survived all four rejections
                outcome = await service.submit(jobs_for([0])[0])
                return outcome

        outcome = asyncio.run(scenario())
        assert outcome.size > 0

    @pytest.mark.parametrize(
        "method,name,value",
        [
            ("nibble", "max_iterations", 20.0),
            ("pr-nibble", "max_iterations", 100.0),
            ("hk-pr", "taylor_degree", 20.0),
            ("hk-pr", "taylor_degree", True),
            ("rand-hk-pr", "max_walk_length", 10.0),
            ("rand-hk-pr", "num_walks", 500.0),
            ("pr-nibble", "optimized", "false"),
            ("pr-nibble", "optimized", 0),
            ("pr-nibble", "beta", True),
            ("hk-pr", "t", True),
            ("rand-hk-pr", "t", True),
        ],
    )
    def test_non_integer_count_refused_without_poisoning_its_batch(
        self, graph, method, name, value
    ):
        """An integral float (or a bool) for an integer parameter used to
        pass submit-time validation and then fail inside the micro-batch,
        taking the good jobs queued beside it down too.  A flag or a real
        parameter of the wrong type used to pass validation and run as the
        value its truthiness or int reading gave it."""
        from repro.core.options import RequestError

        good = jobs_for((0, 150, 300))
        bad = DiffusionJob.make(2, method=method, params={name: value})

        async def scenario():
            async with DiffusionService(graph) as service:
                # No await between the submits: all of them would share
                # one micro-batch.
                futures = [service.submit(good[0])]
                with pytest.raises(RequestError) as info:
                    service.submit(bad)
                futures += [service.submit(job) for job in good[1:]]
                outcomes = await asyncio.gather(*futures)
                return info.value, outcomes, service.stats

        error, outcomes, stats = asyncio.run(scenario())
        expected = {"optimized": "must be a bool", "beta": "must be a real number",
                    "t": "must be a real number"}.get(name, "must be an integer")
        assert error.field == f"params.{name}" and error.code == 400
        assert expected in str(error)
        assert stats.submitted == 3 and stats.failed == 0
        assert_outcomes_match(BatchEngine(graph).run(good), outcomes)

    def test_constructor_validation(self, graph):
        with pytest.raises(ValueError, match="max_batch"):
            DiffusionService(graph, max_batch=0)
        with pytest.raises(ValueError, match="max_batch_cost"):
            DiffusionService(graph, max_batch_cost=0.0)
        assert PRIORITIES == ("interactive", "bulk")

    def test_failed_start_closes_the_service(self, graph):
        """A pool that cannot start must not leak the drain task or the
        worker thread: start() re-raises with the service closed."""

        async def scenario():
            service = DiffusionService(graph)

            def broken_open_session():
                raise RuntimeError("no fds left")

            service.engine.open_session = broken_open_session
            with pytest.raises(RuntimeError, match="no fds left"):
                await service.start()
            assert service._drain_task is None
            assert service._executor is None
            with pytest.raises(ServiceClosed):
                service.submit(jobs_for([0])[0])

        asyncio.run(scenario())

    def test_engine_with_conflicting_knobs_rejected(self, graph):
        """resolve_engine (which the service funnels through) rejects pool
        knobs alongside a prebuilt engine instead of ignoring them."""
        engine = BatchEngine(graph)
        with pytest.raises(ValueError, match="already constructed"):
            DiffusionService(graph, engine=engine, workers=4)
        with pytest.raises(ValueError, match="cache"):
            DiffusionService(graph, engine=engine, cache=True)
        assert DiffusionService(graph, engine=engine).engine is engine

    def test_close_without_start_is_a_noop(self, graph):
        async def scenario():
            service = DiffusionService(graph)
            await service.close()
            with pytest.raises(ServiceClosed):
                service.submit(jobs_for([0])[0])

        asyncio.run(scenario())


class TestServiceCache:
    def test_hot_queries_replay_from_service_cache(self, graph):
        async def scenario():
            async with DiffusionService(graph, cache=True) as service:
                first = await service.submit(jobs_for([0])[0])
                second = await service.submit(jobs_for([0])[0])
                return first, second, service.stats

        first, second, stats = asyncio.run(scenario())
        assert not first.cached
        assert second.cached
        assert stats.cache_hits == 1
        assert np.array_equal(first.cluster, second.cluster)


class TestAsyncLocalCluster:
    def test_without_service_matches_local_cluster(self, graph):
        reference = local_cluster(graph, 0, **PARAMS)

        async def scenario():
            return await async_local_cluster(graph, 0, **PARAMS)

        result = asyncio.run(scenario())
        assert np.array_equal(result.cluster, reference.cluster)
        assert result.conductance == reference.conductance

    def test_with_service_matches_local_cluster(self, graph):
        reference = local_cluster(graph, 150, **PARAMS)

        async def scenario():
            async with DiffusionService(graph) as service:
                return await async_local_cluster(graph, 150, service=service, **PARAMS)

        result = asyncio.run(scenario())
        assert np.array_equal(result.cluster, reference.cluster)
        assert result.conductance == reference.conductance

    def test_generator_rng_with_service_rejected_for_randomized_methods(self, graph):
        """A Generator cannot ride a picklable job; collapsing it to one
        drawn seed would silently diverge from local_cluster, so it is
        rejected (integer seeds remain equivalent on both paths)."""
        reference = local_cluster(graph, 0, method="rand-hk-pr", rng=3, num_walks=500)

        async def scenario():
            async with DiffusionService(graph) as service:
                with pytest.raises(ValueError, match="integer rng seed"):
                    await async_local_cluster(
                        graph,
                        0,
                        method="rand-hk-pr",
                        rng=np.random.default_rng(3),
                        service=service,
                    )
                # deterministic methods ignore rng — a Generator is harmless
                await async_local_cluster(
                    graph, 0, rng=np.random.default_rng(3), service=service, **PARAMS
                )
                return await async_local_cluster(
                    graph, 0, method="rand-hk-pr", rng=3, service=service,
                    num_walks=500,
                )

        result = asyncio.run(scenario())
        assert np.array_equal(result.cluster, reference.cluster)

    def test_service_for_other_graph_rejected(self, graph):
        from repro.graph import barbell_graph

        async def scenario():
            async with DiffusionService(barbell_graph(8)) as service:
                with pytest.raises(ValueError, match="different graph"):
                    await async_local_cluster(graph, 0, service=service)

        asyncio.run(scenario())

    def test_parallel_override_rejected(self, graph):
        """The service's engine decides parallel; a conflicting per-query
        request errors instead of being silently ignored."""

        async def scenario():
            async with DiffusionService(graph) as service:
                with pytest.raises(ValueError, match="parallel=True"):
                    await async_local_cluster(
                        graph, 0, parallel=False, service=service
                    )

        asyncio.run(scenario())

    def test_vectorless_service_rejected(self, graph):
        async def scenario():
            async with DiffusionService(graph, include_vectors=False) as service:
                with pytest.raises(ValueError, match="include_vectors"):
                    await service.cluster(0)
                # raw outcomes still flow
                outcome = await service.submit(jobs_for([0])[0])
                return outcome

        assert asyncio.run(scenario()).size > 0


class TestServicePool:
    """The serving plane over a real process pool: one pool and one
    shared-memory export serve every micro-batch (exercised under forced
    spawn in CI's shared-memory job)."""

    @pytest.fixture
    def spawn_available(self):
        if "spawn" not in multiprocessing.get_all_start_methods():  # pragma: no cover
            pytest.skip("spawn start method unavailable on this platform")

    def test_pool_service_matches_serial(self, graph):
        seeds = (0, 100, 200, 300)
        reference = BatchEngine(graph).run(jobs_for(seeds))

        async def scenario():
            async with DiffusionService(graph, workers=2, max_batch=2) as service:
                outcomes = await asyncio.gather(*service.submit_many(jobs_for(seeds)))
                return outcomes, service.session.batches

        outcomes, batches = asyncio.run(scenario())
        assert_outcomes_match(reference, outcomes)
        assert batches >= 2

    def test_one_export_serves_consecutive_batches(self, graph, spawn_available):
        from repro.graph.shared import SEGMENT_PREFIX

        shm_dir = "/dev/shm"
        if not os.path.isdir(shm_dir):  # pragma: no cover - non-POSIX host
            pytest.skip("no /dev/shm to audit on this platform")

        def segments():
            return sorted(
                f for f in os.listdir(shm_dir) if f.startswith(SEGMENT_PREFIX)
            )

        async def scenario():
            async with DiffusionService(
                graph, workers=2, start_method="spawn", max_batch=2
            ) as service:
                await asyncio.gather(*service.submit_many(jobs_for((0, 100, 200, 300))))
                first = segments()
                await asyncio.gather(*service.submit_many(jobs_for((400, 500))))
                second = segments()
                return first, second, service.session.batches

        first, second, batches = asyncio.run(scenario())
        assert batches >= 2
        assert len(first) == 2  # exactly one export: offsets + neighbors
        assert first == second  # ...reused, not re-exported, across batches
        assert segments() == []  # ...and unlinked on close
