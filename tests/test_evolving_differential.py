"""Differential spine of the evolving-graph plane.

The incremental path (:func:`repro.core.pr_nibble.pr_nibble_update`) and
the cross-version cache reuse (:func:`repro.cache.advance_version`) are
both *shortcuts* whose only excuse is matching what a cold run on the
new version would produce.  Hypothesis generates version chains —
random base graphs plus random insert/delete batches — and checks:

* the incremental state satisfies exactly the invariants a cold
  ``pr_nibble_sequential`` run at the same ``eps`` guarantees: the
  ``|r(v)| < eps * d(v)`` terminal condition, and the push invariant
  ``p + M r = M s`` (via :func:`pr_nibble_residual` the carried residual
  must *be* the one the pagerank vector implies);
* incremental and cold solutions agree to the theory bound: both are
  ``M (s - r)`` with ``|r| <= eps * d`` entrywise, so their L1 gap over
  positive-degree vertices is at most ``2 * eps * vol(G)``;
* updates far from the seed's support leave the execution literally
  untouched: incremental output is bit-identical to cold, sweep and all;
* cache entries migrated across a version are *never stale*: any hit
  served on the new version equals a cold recompute bit-for-bit;
* post-splice CSR arrays are first-class citizens of every execution
  plane: serial and process-pool backends (and every compiled kernel
  available) produce identical outcomes on an updated version.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import ResultCache, advance_version
from repro.core import PRNibbleParams, pr_nibble_residual, pr_nibble_update, sweep_cut
from repro.core.pr_nibble import pr_nibble_sequential
from repro.core.result import vector_items
from repro.engine import BatchEngine, DiffusionJob
from repro.graph import EvolvingGraph, cycle_graph, from_edge_list
from repro.kernels import available_kernels

MAX_VERTICES = 20

vertex = st.integers(0, MAX_VERTICES - 1)
edge = st.tuples(vertex, vertex).filter(lambda pair: pair[0] != pair[1])
edge_lists = st.lists(edge, min_size=1, max_size=60)


@st.composite
def chains(draw, max_batches=2):
    """A version chain: random base graph plus 1..max_batches update batches."""
    base = from_edge_list(draw(edge_lists), num_vertices=MAX_VERTICES)
    # Mixed thresholds exercise both materialisation paths in one chain.
    threshold = draw(st.sampled_from([0.0, 0.25, 1.0]))
    chain = EvolvingGraph(base, rebuild_threshold=threshold)
    for _ in range(draw(st.integers(1, max_batches))):
        insertions = draw(st.lists(edge, max_size=6))
        deletions = [
            pair
            for pair in draw(st.lists(edge, max_size=6))
            if tuple(sorted(pair)) not in {tuple(sorted(ins)) for ins in insertions}
        ]
        chain.apply_updates(insertions=insertions, deletions=deletions)
    return chain


params_grid = st.sampled_from(
    [
        PRNibbleParams(alpha=0.1, eps=1e-4, optimized=True),
        PRNibbleParams(alpha=0.1, eps=1e-4, optimized=False),
        PRNibbleParams(alpha=0.05, eps=1e-3, optimized=True),
    ]
)


def positive_degree_l1_gap(graph, left, right) -> float:
    """L1 distance between two sparse vectors over positive-degree vertices."""
    keys = set(vector_items(left)[0].tolist()) | set(vector_items(right)[0].tolist())
    left = dict(zip(*(arr.tolist() for arr in vector_items(left))))
    right = dict(zip(*(arr.tolist() for arr in vector_items(right))))
    return sum(
        abs(left.get(v, 0.0) - right.get(v, 0.0))
        for v in keys
        if graph.degree(v) > 0
    )


@given(chain=chains(), seed=vertex, params=params_grid)
def test_incremental_maintains_cold_invariants(chain, seed, params):
    prior = pr_nibble_sequential(chain.at(0).graph, seed, params)
    for k in range(1, len(chain)):
        prior = pr_nibble_update(chain.at(k), prior, seed, params=params)
    final = chain.latest.graph
    residual = prior.extras["residual"]
    assert prior.extras["incremental"] is True

    # 1. Terminal condition: every positive-degree vertex is below the
    #    push-eligibility threshold (signed: deletions retract mass).
    keys, values = vector_items(residual)
    for v, r_v in zip(keys.tolist(), values.tolist()):
        degree = final.degree(int(v))
        if degree > 0:
            assert abs(r_v) < params.eps * degree

    # 2. Push invariant p + M r = M s: the carried residual must equal the
    #    residual the pagerank vector implies on the final graph.
    implied = pr_nibble_residual(final, prior.vector, seed, params.alpha)
    implied_map = dict(zip(*(arr.tolist() for arr in vector_items(implied))))
    carried_map = dict(zip(keys.tolist(), values.tolist()))
    for v in set(implied_map) | set(carried_map):
        assert implied_map.get(v, 0.0) == pytest.approx(
            carried_map.get(v, 0.0), abs=1e-9
        )

    # 3. Solution gap vs a cold run, bounded by the approximation theory.
    cold = pr_nibble_sequential(final, seed, params)
    volume = len(final.neighbors)
    gap = positive_degree_l1_gap(final, prior.vector, cold.vector)
    assert gap <= 2.0 * params.eps * volume + 1e-12


def test_far_update_is_bit_identical_to_cold():
    # An update disjoint from the diffusion's support changes nothing the
    # run reads, so incremental must land on the *same* state as cold —
    # not approximately: identically, sweep included.
    chain = EvolvingGraph(cycle_graph(200))
    params = PRNibbleParams(alpha=0.1, eps=1e-3)
    prior = pr_nibble_sequential(chain.at(0).graph, 0, params)
    v1 = chain.apply_updates(insertions=[(100, 103)], deletions=[(110, 111)])
    incremental = pr_nibble_update(v1, prior, 0, params=params)
    cold = pr_nibble_sequential(v1.graph, 0, params)
    assert incremental.extras["corrected_endpoints"] == 0
    assert incremental.pushes == 0  # nothing to re-push
    inc_keys, inc_values = vector_items(incremental.vector)
    cold_keys, cold_values = vector_items(cold.vector)
    assert np.array_equal(np.sort(inc_keys), np.sort(cold_keys))
    inc_map = dict(zip(inc_keys.tolist(), inc_values.tolist()))
    cold_map = dict(zip(cold_keys.tolist(), cold_values.tolist()))
    assert inc_map == cold_map
    inc_sweep = sweep_cut(v1.graph, incremental.vector)
    cold_sweep = sweep_cut(v1.graph, cold.vector)
    assert inc_sweep.best_conductance == cold_sweep.best_conductance
    assert np.array_equal(inc_sweep.order, cold_sweep.order)


def test_incremental_requires_residual_and_parent(small_cycle):
    chain = EvolvingGraph(small_cycle)
    params = PRNibbleParams(alpha=0.1, eps=1e-3)
    with pytest.raises(ValueError, match="no parent"):
        pr_nibble_update(chain.at(0), pr_nibble_sequential(small_cycle, 0, params), 0)
    v1 = chain.apply_updates(insertions=[(0, 6)])
    prior = pr_nibble_sequential(small_cycle, 0, params)
    prior.extras.pop("residual")
    with pytest.raises(ValueError, match="no residual"):
        pr_nibble_update(v1, prior, 0, params=params)


@settings(max_examples=20)
@given(chain=chains(max_batches=1), seeds=st.lists(vertex, min_size=1, max_size=4))
def test_migrated_cache_entries_are_never_stale(chain, seeds):
    # Whatever advance_version decides to carry forward, a hit served on
    # the new version must equal a cold recompute on the new version.
    cache = ResultCache()
    warm = BatchEngine(chain, cache=cache, include_vectors=True, graph_version=0)
    jobs = [
        DiffusionJob.make(seed, params={"alpha": 0.1, "eps": 1e-3})
        for seed in sorted(set(seeds))
    ]
    warm.run(jobs)
    advance_version(cache, chain.at(1))
    replayed = BatchEngine(chain, cache=cache, include_vectors=True).run(jobs)
    cold = BatchEngine(chain.at(1).graph, include_vectors=True).run(jobs)
    hits = 0
    for replay, reference in zip(replayed, cold):
        if not replay.cached:
            continue
        hits += 1
        assert replay.support_size == reference.support_size
        assert np.array_equal(replay.vector_keys, reference.vector_keys)
        assert np.array_equal(replay.vector_values, reference.vector_values)
        if reference.sweep is not None:
            assert replay.sweep.best_conductance == reference.sweep.best_conductance
    # Not vacuous in aggregate: hypothesis will generate disjoint updates.


class TestUpdatedVersionAcrossPlanes:
    """Post-splice arrays are valid inputs to every execution backend."""

    def build_chain(self, planted):
        chain = EvolvingGraph(planted)
        chain.apply_updates(
            insertions=[(0, 1500), (7, 9)], deletions=[(0, 1), (200, 201)]
        )
        return chain

    def jobs(self):
        return [
            DiffusionJob.make(seed, params={"alpha": 0.1, "eps": 1e-4})
            for seed in (0, 50, 200, 1500)
        ]

    def outcomes_equal(self, left, right):
        assert len(left) == len(right)
        for a, b in zip(left, right):
            assert a.support_size == b.support_size
            assert a.pushes == b.pushes
            assert np.array_equal(a.vector_keys, b.vector_keys)
            assert np.array_equal(a.vector_values, b.vector_values)

    @pytest.fixture
    def reference(self, planted):
        chain = self.build_chain(planted)
        return chain, BatchEngine(chain, include_vectors=True).run(self.jobs())

    @pytest.mark.parametrize("workers", [2])
    def test_process_backend_matches_serial(self, reference, workers):
        chain, serial = reference
        engine = BatchEngine(chain, workers=workers, include_vectors=True)
        try:
            self.outcomes_equal(engine.run(self.jobs()), serial)
        finally:
            engine.backend.close() if hasattr(engine.backend, "close") else None

    @pytest.mark.parametrize(
        "kernel",
        [name for name in available_kernels() if name != "python"]
        or [pytest.param("none", marks=pytest.mark.skip(reason="no compiled kernel"))],
    )
    def test_compiled_kernels_match_python(self, reference, kernel):
        chain, serial = reference
        engine = BatchEngine(chain, kernel=kernel, parallel=False, include_vectors=True)
        python = BatchEngine(chain, parallel=False, include_vectors=True)
        self.outcomes_equal(engine.run(self.jobs()), python.run(self.jobs()))
