"""Versioned serving: DiffusionService over an evolving graph.

The stale-cache torture test is the centrepiece: clients keep submitting
while ``update()`` advances the chain (migrating the result cache across
versions), and *every* reply must be bit-identical to a cold run on the
version it was admitted against — admission-time versioning means an
update never changes the answer of an already-admitted query, and cache
migration never serves a superseded edge set.
"""

from __future__ import annotations

import asyncio
import gc
import weakref

import numpy as np
import pytest

from repro.cache import MigrationStats, ResultCache
from repro.core.options import RequestError
from repro.engine import BatchEngine, DiffusionJob
from repro.engine.executor import run_job
from repro.graph import CSRGraph, EvolvingGraph, GraphVersion, planted_partition
from repro.serve import DiffusionService

PARAMS = {"alpha": 0.05, "eps": 1e-4}


@pytest.fixture(scope="module")
def base_graph():
    return planted_partition(600, 6, intra_degree=8.0, inter_degree=1.0, seed=5)


def job_for(seed):
    return DiffusionJob.make(seed, params=dict(PARAMS))


def incident_edge(graph, vertex):
    """A real edge of ``graph`` at ``vertex`` (deletions must be effective)."""
    return (vertex, int(graph.neighbors_of(vertex)[0]))


def disjoint_edge(graph, support):
    """An existing edge whose delta region provably avoids ``support``."""
    for u in range(graph.num_vertices - 1, -1, -1):
        if u in support:
            continue
        neighborhood = set(graph.neighbors_of(u).tolist())
        if neighborhood & support:
            continue
        for w in sorted(neighborhood):
            if w in support or set(graph.neighbors_of(int(w)).tolist()) & support:
                continue
            return (u, int(w))
    raise AssertionError("graph has no edge disjoint from the support")


def assert_matches_cold(outcome, graph, seed):
    (cold,) = BatchEngine(graph).run([job_for(seed)])
    assert outcome.support_size == cold.support_size
    assert outcome.pushes == cold.pushes
    assert outcome.conductance == cold.conductance
    assert np.array_equal(outcome.cluster, cold.cluster)


class TestVersionedAdmission:
    def test_submissions_default_to_latest_version(self, base_graph):
        chain = EvolvingGraph(base_graph)

        async def scenario():
            async with DiffusionService(chain) as service:
                before = await service.submit(job_for(0))
                version, stats = await service.update(
                    deletions=[incident_edge(base_graph, 0)]
                )
                after = await service.submit(job_for(0))
                return before, version, stats, after

        before, version, stats, after = asyncio.run(scenario())
        assert isinstance(version, GraphVersion) and version.version == 1
        assert stats is None  # no cache configured
        assert_matches_cold(before, chain.at(0).graph, 0)
        assert_matches_cold(after, chain.at(1).graph, 0)
        assert before.pushes != after.pushes or before.support_size != after.support_size

    def test_pinned_submission_ignores_later_updates(self, base_graph):
        chain = EvolvingGraph(base_graph)

        async def scenario():
            async with DiffusionService(chain) as service:
                await service.update(deletions=[incident_edge(base_graph, 0)])
                return await service.submit(job_for(0), graph_version=0)

        outcome = asyncio.run(scenario())
        assert_matches_cold(outcome, chain.at(0).graph, 0)

    def test_nonexistent_version_rejected_synchronously(self, base_graph):
        chain = EvolvingGraph(base_graph)

        async def scenario():
            async with DiffusionService(chain) as service:
                with pytest.raises(RequestError) as excinfo:
                    service.submit(job_for(0), graph_version=7)
                return excinfo.value

        error = asyncio.run(scenario())
        assert error.code == 404 and error.field == "graph_version"

    def test_static_service_rejects_graph_version(self, base_graph):
        async def scenario():
            async with DiffusionService(base_graph) as service:
                with pytest.raises(RequestError, match="static graph"):
                    service.submit(job_for(0), graph_version=0)
                with pytest.raises(ValueError, match="EvolvingGraph"):
                    await service.update(insertions=[(0, 5)])

        asyncio.run(scenario())

    def test_stats_count_updates(self, base_graph):
        chain = EvolvingGraph(base_graph)

        async def scenario():
            async with DiffusionService(chain) as service:
                edge = incident_edge(base_graph, 0)
                await service.update(deletions=[edge])
                await service.update(insertions=[edge])
                return service.stats

        stats = asyncio.run(scenario())
        assert stats.updates == 2
        assert "updates=2" in stats.describe()

    def test_update_migrates_cache(self, base_graph):
        chain = EvolvingGraph(base_graph)
        cache = ResultCache()
        # A coarse eps keeps the support inside vertex 0's community, so
        # an update in a far community leaves the entry's profile disjoint
        # from the delta region (and well under the volume guard).
        job = DiffusionJob.make(0, params={"alpha": 0.05, "eps": 1e-3})
        (probe,) = BatchEngine(base_graph, include_vectors=True).run([job])
        far_edge = disjoint_edge(base_graph, set(probe.vector_keys.tolist()))

        async def scenario():
            async with DiffusionService(
                chain, cache=cache, include_vectors=True
            ) as service:
                await service.submit(job)
                # Provably outside the entry's profile: it must survive.
                _, stats = await service.update(deletions=[far_edge])
                replay = await service.submit(job)
                return stats, replay

        stats, replay = asyncio.run(scenario())
        assert isinstance(stats, MigrationStats)
        assert stats.survived >= 1
        assert replay.cached
        (cold,) = BatchEngine(chain.at(1).graph).run([job])
        assert replay.support_size == cold.support_size
        assert np.array_equal(replay.cluster, cold.cluster)


class TestInterleavedUpdatesTorture:
    def test_every_reply_matches_cold_on_its_admitted_version(self, base_graph):
        """Concurrent submissions interleaved with updates, cache enabled.

        Seeds are re-queried across rounds while updates keep advancing
        the chain (touching some queried communities, sparing others, so
        both migration outcomes occur).  Admitted versions are recorded
        at submit time; at the end every reply is compared bit-for-bit
        against a cold engine on exactly that version.
        """
        chain = EvolvingGraph(base_graph)
        cache = ResultCache()
        seeds = (0, 150, 300, 450, 599)
        batches = [
            {"insertions": [(0, 300)], "deletions": []},
            {"insertions": [], "deletions": [(0, 300), (150, 151)]},
            {"insertions": [(450, 460), (599, 598)], "deletions": []},
        ]

        async def scenario():
            replies = []  # (seed, admitted_version, future)
            async with DiffusionService(
                chain,
                cache=cache,
                include_vectors=True,
                max_batch=3,
            ) as service:
                assert service.evolving is chain

                def fire(seed, version=None):
                    # An unpinned submission is stamped with the latest
                    # version *at the submit instant*; when an update is
                    # concurrently applying on the worker thread, that
                    # instant can fall on either side of the advance, so
                    # record both candidates and accept either below.
                    before = chain.latest.version
                    future = service.submit(job_for(seed), graph_version=version)
                    after = chain.latest.version
                    candidates = (
                        {version} if version is not None else {before, after}
                    )
                    replies.append((seed, candidates, future))

                for seed in seeds:
                    fire(seed)
                for round_index, batch in enumerate(batches):
                    update_task = asyncio.ensure_future(service.update(**batch))
                    # Interleave: these are admitted while the update runs
                    # on the worker thread, against whatever version is
                    # current at their submit instant.
                    for seed in seeds[: 2 + round_index]:
                        fire(seed)
                    await update_task
                    for seed in seeds:
                        fire(seed)
                    fire(seeds[round_index], version=0)  # pinned to the root
                await asyncio.gather(*(future for _, _, future in replies))
                return [
                    (seed, candidates, future.result())
                    for seed, candidates, future in replies
                ], service.stats

        replies, stats = asyncio.run(scenario())
        assert stats.updates == len(batches)
        assert len(chain) == len(batches) + 1
        cold_engines = {
            k: BatchEngine(chain.at(k).graph) for k in range(len(chain))
        }
        hits = 0
        for seed, candidates, outcome in replies:
            colds = [
                cold_engines[k].run([job_for(seed)])[0] for k in sorted(candidates)
            ]
            assert any(
                outcome.support_size == cold.support_size
                and outcome.pushes == cold.pushes
                and outcome.conductance == cold.conductance
                and np.array_equal(outcome.cluster, cold.cluster)
                for cold in colds
            ), (seed, sorted(candidates))
            hits += outcome.cached
        # The cache must have actually been exercised across versions —
        # otherwise this proves nothing about migration staleness.
        assert hits > 0


def new_edges(graph, count, seed):
    """``count`` distinct non-edges of ``graph``, as ``u < v`` pairs."""
    rng = np.random.default_rng(seed)
    chosen: set[tuple[int, int]] = set()
    while len(chosen) < count:
        u, v = sorted(int(x) for x in rng.integers(0, graph.num_vertices, size=2))
        if u != v and not graph.has_edge(u, v):
            chosen.add((u, v))
    return sorted(chosen)


class TestRetention:
    @pytest.mark.parametrize("prior", [0, 5])
    def test_fifty_updates_keep_three_graphs_alive(self, base_graph, prior):
        # The chain keeps CSRs for the root, the latest version and its
        # parent; the service keeps at most two sessions and no per-version
        # engines, so nothing else may pin an old version's graph — not
        # even the version the service was built at (``prior`` updates in).
        chain = EvolvingGraph(base_graph)
        edges = new_edges(base_graph, 100, seed=3)
        earlier = new_edges(base_graph, 2 * prior, seed=4)
        assert not set(earlier) & set(edges)
        graphs = [weakref.ref(chain.at(0).graph)]
        for round_ in range(prior):
            version = chain.apply_updates(insertions=earlier[2 * round_ : 2 * round_ + 2])
            graphs.append(weakref.ref(version.graph))
            del version

        async def scenario():
            async with DiffusionService(chain, cache=True) as service:
                for round_ in range(50):
                    version, _ = await service.update(
                        insertions=edges[2 * round_ : 2 * round_ + 2],
                        deletions=edges[2 * round_ - 2 : 2 * round_ - 1] if round_ else (),
                    )
                    graphs.append(weakref.ref(version.graph))
                    del version
                    await service.submit(job_for(round_ % 7 * 80))
                    assert len(service._sessions) <= service._MAX_OPEN_SESSIONS
                gc.collect()
                return [k for k, ref in enumerate(graphs) if ref() is not None]

        alive = asyncio.run(scenario())
        assert alive == [0, prior + 49, prior + 50]

    def test_dropped_version_replays_identically_and_answers(self, base_graph):
        # Small batches splice; every third batch is large enough to rebuild.
        chain = EvolvingGraph(base_graph, rebuild_threshold=0.003)
        edges = new_edges(base_graph, 60, seed=4)
        built = {}
        for k in range(6):
            version = chain.apply_updates(
                insertions=edges[10 * k : 10 * k + (10 if k % 3 == 2 else 2)],
                deletions=edges[10 * k - 10 : 10 * k - 9] if k else (),
            )
            graph = version.graph
            built[version.version] = (
                graph.offsets.copy(), graph.neighbors.copy(), version.fingerprint()
            )
        del version, graph
        assert {chain.at(k).rebuilt for k in built} == {False, True}
        probe = weakref.ref(chain.at(2).graph)
        gc.collect()
        assert probe() is None  # version 2's CSR was released and collected
        for k, (offsets, neighbors, fingerprint) in built.items():
            replayed = chain.at(k).graph
            assert np.array_equal(replayed.offsets, offsets)
            assert np.array_equal(replayed.neighbors, neighbors)
            assert replayed.fingerprint() == fingerprint == chain.at(k).fingerprint()
            del replayed
        gc.collect()

        job = job_for(0)

        async def scenario():
            async with DiffusionService(chain, cache=True, include_vectors=True) as service:
                return await service.submit(job, graph_version=2)

        served = asyncio.run(scenario())
        cold = run_job(CSRGraph(*built[2][:2]), job, parallel=True, include_vector=True)
        assert served.support_size == cold.support_size
        assert served.pushes == cold.pushes
        assert served.conductance == cold.conductance
        assert np.array_equal(served.cluster, cold.cluster)
        assert np.array_equal(served.vector_keys, cold.vector_keys)
        assert np.array_equal(served.vector_values, cold.vector_values)
