"""Differential spine of the evolving-graph plane.

Cache migration (:func:`repro.cache.advance_version`) is how results
cross graph versions, and it is a *shortcut* whose only excuse is
matching what a cold run on the new version would produce.  Hypothesis
generates version chains — random base graphs plus random insert/delete
batches — and checks:

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
from repro.engine import BatchEngine, DiffusionJob
from repro.graph import EvolvingGraph, from_edge_list
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
