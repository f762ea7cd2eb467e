"""Cross-kernel differential harness: compiled kernels vs the Python loops.

Hypothesis generates random CSR graphs (edge lists over a bounded vertex
set, the same strategy as the PR-5 property suite) and drives every
compiled kernel available in this environment through seed/alpha/eps
grids, asserting **bit identity** with ``kernel="python"`` — not
approximate equality.  The compiled kernels replicate the reference
loops' IEEE-754 operation order exactly, so any divergence is a kernel
bug, never a tolerance question.  Checked per case:

* the ``p`` and ``r`` sparse vectors: values *and* entry order (entry
  order is what ``vector_items`` serialises into caches and across
  process boundaries);
* the sweep profile: order, volumes, cuts, conductances, best index;
* the counters: pushes, touched edges;
* the recorded work/depth profile — every category's work and depth and
  the round count, which Figures 9-10 read (cost accounting must not
  depend on the kernel, or cache entries would disagree);
* rand-HK-PR walks: same rng seed => same destination histogram.

The frontier-synchronous (BSP) PR-Nibble and the parallel sweep are
compared the same way against the numpy rounds, plus ``residual_mass``
and the per-round frontier sizes; so are BSP Nibble, the HK-PR levels
and rand-HK-PR's sort aggregation, with their ``extras``.

On hosts with no compiled backend the cross-kernel cases skip, but the
array-twin cases (``repro.kernels.reference`` vs the object-level core
loops — two independent Python renderings of the same algorithm) always
run, so the harness is never vacuous.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    HKPRParams,
    NibbleParams,
    PRNibbleParams,
    RandHKPRParams,
    hk_pr,
    nibble,
    pr_nibble,
    rand_hk_pr,
    sweep_cut,
)
from repro.core.result import vector_items
from repro.core.sweep import sweep_order
from repro.graph import barbell_graph, from_edge_list, rand_local
from repro.kernels import available_kernels, reference
from repro.runtime import track

COMPILED = tuple(name for name in available_kernels() if name != "python")

compiled_kernels = pytest.mark.parametrize(
    "kernel",
    COMPILED
    or [pytest.param("none", marks=pytest.mark.skip(reason="no compiled kernel"))],
)

edge_lists = st.lists(
    st.tuples(st.integers(0, 24), st.integers(0, 24)),
    min_size=1,
    max_size=120,
)

param_grid = st.sampled_from(
    [
        (0.1, 1e-4, False),
        (0.1, 1e-4, True),
        (0.05, 1e-5, False),
        (0.05, 1e-5, True),
        (0.2, 1e-3, True),
    ]
)


def _connected_seed(graph):
    degrees = graph.degrees()
    eligible = np.flatnonzero(degrees > 0)
    return None if len(eligible) == 0 else int(eligible[0])


def assert_diffusions_identical(a, b):
    a_keys, a_values = vector_items(a.vector)
    b_keys, b_values = vector_items(b.vector)
    assert np.array_equal(a_keys, b_keys), "p entry order diverged"
    assert np.array_equal(a_values, b_values), "p values diverged"
    assert a.pushes == b.pushes
    assert a.touched_edges == b.touched_edges
    assert a.iterations == b.iterations


def assert_residuals_identical(a, b):
    a_keys, a_values = vector_items(a.extras["residual"])
    b_keys, b_values = vector_items(b.extras["residual"])
    assert np.array_equal(a_keys, b_keys), "r entry order diverged"
    assert np.array_equal(a_values, b_values), "r values diverged"
    assert a.extras["residual_mass"] == b.extras["residual_mass"]


def assert_profiles_identical(a, b):
    """Same per-category work/depth (in recording order) and rounds."""
    assert list(a.snapshot().items()) == list(b.snapshot().items())
    assert a.rounds == b.rounds
    assert a.work == b.work and a.depth == b.depth


def assert_sweeps_identical(a, b):
    assert np.array_equal(a.order, b.order)
    assert np.array_equal(a.volumes, b.volumes)
    assert np.array_equal(a.cuts, b.cuts)
    assert np.array_equal(a.conductances, b.conductances)
    assert a.best_index == b.best_index


class TestArrayTwinVsCoreLoop:
    """reference.py vs repro.core: two independent Python renderings."""

    @settings(max_examples=30, deadline=None)
    @given(edge_lists, param_grid)
    def test_ppr_push_twin_matches_core(self, edges, grid):
        alpha, eps, optimized = grid
        graph = from_edge_list(edges, num_vertices=25)
        seed = _connected_seed(graph)
        if seed is None:
            return
        params = PRNibbleParams(alpha=alpha, eps=eps, optimized=optimized)
        core = pr_nibble(graph, seed, params, parallel=False)
        seeds = np.asarray([seed], dtype=np.int64)
        p_keys, p_values, r_keys, r_values, pushes, touched = reference.ppr_push(
            graph.offsets, graph.neighbors, seeds, alpha, eps, optimized
        )
        core_p_keys, core_p_values = vector_items(core.vector)
        assert np.array_equal(p_keys, core_p_keys)
        assert np.array_equal(p_values, core_p_values)
        core_r_keys, core_r_values = vector_items(core.extras["residual"])
        assert np.array_equal(r_keys, core_r_keys)
        assert np.array_equal(r_values, core_r_values)
        assert pushes == core.pushes and touched == core.touched_edges

    @settings(max_examples=30, deadline=None)
    @given(edge_lists)
    def test_sweep_scan_twin_matches_core(self, edges):
        graph = from_edge_list(edges, num_vertices=25)
        seed = _connected_seed(graph)
        if seed is None:
            return
        result = pr_nibble(graph, seed, PRNibbleParams(alpha=0.1, eps=1e-4))
        if result.support_size() == 0:
            return
        core = sweep_cut(graph, result.vector, parallel=False)
        ordered, degrees = sweep_order(graph, result.vector)
        volumes, cuts = reference.sweep_scan(
            graph.offsets, graph.neighbors, ordered, degrees
        )
        assert np.array_equal(volumes, core.volumes)
        assert np.array_equal(cuts, core.cuts)


class TestPRNibbleDifferential:
    @compiled_kernels
    @settings(max_examples=25, deadline=None)
    @given(edge_lists, param_grid)
    def test_bit_identical_p_r_and_counters(self, kernel, edges, grid):
        alpha, eps, optimized = grid
        graph = from_edge_list(edges, num_vertices=25)
        seed = _connected_seed(graph)
        if seed is None:
            return
        params = PRNibbleParams(alpha=alpha, eps=eps, optimized=optimized)
        with track() as py_profile:
            python = pr_nibble(graph, seed, params, parallel=False, kernel="python")
        with track() as k_profile:
            compiled = pr_nibble(graph, seed, params, parallel=False, kernel=kernel)
        assert_diffusions_identical(python, compiled)
        assert_residuals_identical(python, compiled)
        assert_profiles_identical(k_profile, py_profile)

    @compiled_kernels
    @settings(max_examples=15, deadline=None)
    @given(edge_lists, st.sets(st.integers(0, 24), min_size=2, max_size=4))
    def test_multi_seed_sets(self, kernel, edges, seed_set):
        graph = from_edge_list(edges, num_vertices=25)
        degrees = graph.degrees()
        seeds = np.asarray(sorted(s for s in seed_set if degrees[s] > 0), dtype=np.int64)
        if len(seeds) == 0:
            return
        params = PRNibbleParams(alpha=0.1, eps=1e-4)
        with track() as py_profile:
            python = pr_nibble(graph, seeds, params, parallel=False, kernel="python")
        with track() as k_profile:
            compiled = pr_nibble(graph, seeds, params, parallel=False, kernel=kernel)
        assert_diffusions_identical(python, compiled)
        assert_residuals_identical(python, compiled)
        assert_profiles_identical(k_profile, py_profile)


class TestSweepDifferential:
    @compiled_kernels
    @settings(max_examples=25, deadline=None)
    @given(edge_lists)
    def test_bit_identical_sweep_profile(self, kernel, edges):
        graph = from_edge_list(edges, num_vertices=25)
        seed = _connected_seed(graph)
        if seed is None:
            return
        result = pr_nibble(graph, seed, PRNibbleParams(alpha=0.1, eps=1e-4))
        if result.support_size() == 0:
            return
        with track() as py_profile:
            python = sweep_cut(graph, result.vector, parallel=False, kernel="python")
        with track() as k_profile:
            compiled = sweep_cut(graph, result.vector, parallel=False, kernel=kernel)
        assert_sweeps_identical(python, compiled)
        assert_profiles_identical(k_profile, py_profile)


bsp_params = st.builds(
    PRNibbleParams,
    alpha=st.sampled_from([0.05, 0.1, 0.2]),
    eps=st.sampled_from([1e-3, 1e-4, 1e-5]),
    optimized=st.booleans(),
    max_iterations=st.sampled_from([1, 2, 5, 10**9]),
)


def run_bsp(graph, seeds, params, kernel):
    """BSP PR-Nibble then the parallel sweep, profiled together."""
    with track() as profile:
        diffusion = pr_nibble(graph, seeds, params, parallel=True, kernel=kernel)
        sweep = (
            sweep_cut(graph, diffusion.vector, parallel=True, kernel=kernel)
            if diffusion.support_size() > 0
            else None
        )
    return diffusion, sweep, profile


def assert_bsp_runs_identical(a, b):
    (a_diffusion, a_sweep, a_profile), (b_diffusion, b_sweep, b_profile) = a, b
    assert_diffusions_identical(a_diffusion, b_diffusion)
    assert_residuals_identical(a_diffusion, b_diffusion)
    assert a_diffusion.extras["frontier_sizes"] == b_diffusion.extras["frontier_sizes"]
    assert (a_sweep is None) == (b_sweep is None)
    if a_sweep is not None:
        assert_sweeps_identical(a_sweep, b_sweep)
    assert_profiles_identical(a_profile, b_profile)


class TestBSPDifferential:
    """Frontier-synchronous PR-Nibble + the parallel sweep: the compiled
    twins against the numpy rounds (``kernel="python"``)."""

    @compiled_kernels
    @settings(max_examples=60, deadline=None)
    @given(edge_lists, st.sets(st.integers(0, 24), min_size=1, max_size=4), bsp_params)
    def test_bit_identical_rounds_vectors_sweep_and_profile(
        self, kernel, edges, seed_set, params
    ):
        # Seeds are drawn from all 25 ids, so degree-0 seeds (isolated
        # ids) occur alongside connected ones and on their own.
        graph = from_edge_list(edges, num_vertices=25)
        seeds = np.asarray(sorted(seed_set), dtype=np.int64)
        assert_bsp_runs_identical(
            run_bsp(graph, seeds, params, "python"),
            run_bsp(graph, seeds, params, kernel),
        )

    @compiled_kernels
    @pytest.mark.parametrize("optimized", [True, False])
    def test_wide_frontiers_across_kernel_calls(self, kernel, optimized, monkeypatch):
        # Thousands of vertices per frontier (the sort-and-merge of the
        # next frontier, several table growths) and a 3-round call budget,
        # so the kernel resumes from its own state many times.
        from repro.kernels import _ckernels

        monkeypatch.setattr(_ckernels, "_BSP_ROUNDS_PER_CALL", 3)
        graph = rand_local(3000, 5, seed=1)
        params = PRNibbleParams(alpha=0.05, eps=1e-6, optimized=optimized)
        seeds = np.asarray([7, 1500], dtype=np.int64)
        python = run_bsp(graph, seeds, params, "python")
        compiled = run_bsp(graph, seeds, params, kernel)
        assert python[0].iterations > 3
        assert max(python[0].extras["frontier_sizes"]) > 1000
        assert_bsp_runs_identical(python, compiled)

    @compiled_kernels
    def test_default_kernel_runs_the_compiled_twin(self, kernel):
        graph = barbell_graph(8)
        params = PRNibbleParams(alpha=0.1, eps=1e-5)
        assert_bsp_runs_identical(
            run_bsp(graph, 0, params, None), run_bsp(graph, 0, params, kernel)
        )


def profiled(run):
    """``run()``'s result and the work/depth profile it recorded."""
    with track() as profile:
        result = run()
    return result, profile


def assert_frontier_runs_identical(a, b):
    """Same vector (entry order and values), counters, extras, profile."""
    (a_result, a_profile), (b_result, b_profile) = a, b
    assert_diffusions_identical(a_result, b_result)
    assert a_result.extras == b_result.extras
    assert_profiles_identical(a_profile, b_profile)


def assert_kernel_matches_numpy(run, kernel):
    """``run(kernel)`` is bit-identical to ``run("python")``; returns the
    numpy run so callers can check the case covers what it claims to."""
    numpy_run = profiled(lambda: run("python"))
    assert_frontier_runs_identical(numpy_run, profiled(lambda: run(kernel)))
    return numpy_run[0]


def spy_on_kernel(monkeypatch, kernel, name):
    """Record each call of the ``kernel`` set's ``name`` method."""
    from repro.kernels import get_kernels

    kernel_set = type(get_kernels(kernel))
    method = getattr(kernel_set, name)
    calls = []

    def counted(self, *args):
        calls.append(1)
        return method(self, *args)

    monkeypatch.setattr(kernel_set, name, counted)
    return calls


seed_sets = st.sets(st.integers(0, 24), min_size=1, max_size=4)

nibble_params = st.builds(
    NibbleParams,
    eps=st.sampled_from([1e-2, 1e-3, 1e-4, 1e-5]),
    max_iterations=st.sampled_from([1, 2, 5, 20]),
)


class TestNibbleDifferential:
    """BSP Nibble: the compiled steps against the numpy rounds."""

    @compiled_kernels
    @settings(max_examples=60, deadline=None)
    @given(edge_lists, seed_sets, nibble_params)
    def test_bit_identical_steps_vector_and_profile(self, kernel, edges, seed_set, params):
        # Seeds from all 25 ids: isolated (degree-0) seeds occur too.
        graph = from_edge_list(edges, num_vertices=25)
        seeds = np.asarray(sorted(seed_set), dtype=np.int64)
        assert_kernel_matches_numpy(lambda k: nibble(graph, seeds, params, kernel=k), kernel)

    @compiled_kernels
    def test_degree_zero_seeds_stay_in_the_frontier(self, kernel):
        graph = from_edge_list([(0, 1), (1, 2), (2, 3), (3, 4)], num_vertices=6)
        params = NibbleParams(eps=1e-3, max_iterations=5)
        result = assert_kernel_matches_numpy(
            lambda k: nibble(graph, [0, 5], params, kernel=k), kernel
        )
        assert result.iterations == 5 and 5 in result.vector

    @compiled_kernels
    def test_round_without_survivors_keeps_the_previous_vector(self, kernel):
        graph = barbell_graph(8)
        params = NibbleParams(eps=0.05, max_iterations=20)
        result = assert_kernel_matches_numpy(
            lambda k: nibble(graph, 0, params, kernel=k), kernel
        )
        # Step 2 leaves no vertex above threshold: it still counts as a
        # step, and p_1 (the seed's half plus its neighbors) is returned.
        assert result.iterations == 2
        assert result.vector.nnz == 1 + graph.degree(0)

    @compiled_kernels
    def test_isolated_frontier_records_no_edge_batch(self, kernel):
        graph = from_edge_list([(0, 1)], num_vertices=3)
        params = NibbleParams(eps=1e-3, max_iterations=4)
        numpy_run = profiled(lambda: nibble(graph, 2, params, kernel="python"))
        assert_frontier_runs_identical(
            numpy_run, profiled(lambda: nibble(graph, 2, params, kernel=kernel))
        )
        result, profile = numpy_run
        assert result.touched_edges == 0 and result.iterations == 4
        # edge_map work is the gathers' per-vertex term alone: no edges
        assert profile.snapshot()["edge_map"][0] == result.pushes

    @compiled_kernels
    def test_wide_frontiers_across_kernel_calls(self, kernel, monkeypatch):
        from repro.kernels import _ckernels

        monkeypatch.setattr(_ckernels, "_BSP_ROUNDS_PER_CALL", 3)
        graph = rand_local(3000, 5, seed=1)
        params = NibbleParams(eps=1e-5, max_iterations=20)
        result = assert_kernel_matches_numpy(
            lambda k: nibble(graph, [7, 1500], params, kernel=k), kernel
        )
        assert result.iterations > 3
        assert max(result.extras["frontier_sizes"]) > 1000

    @compiled_kernels
    def test_default_kernel_runs_the_compiled_twin(self, kernel, monkeypatch):
        graph = barbell_graph(8)
        params = NibbleParams(eps=1e-4)
        calls = spy_on_kernel(monkeypatch, kernel, "nibble_bsp")
        assert_frontier_runs_identical(
            profiled(lambda: nibble(graph, 0, params)),
            profiled(lambda: nibble(graph, 0, params, kernel="python")),
        )
        assert calls == [1]


hk_pr_params = st.builds(
    HKPRParams,
    t=st.sampled_from([1.0, 3.0, 10.0]),
    taylor_degree=st.sampled_from([1, 2, 5, 20]),
    eps=st.sampled_from([1e-2, 1e-3, 1e-4]),
)


class TestHKPRDifferential:
    """HK-PR: the compiled levels against the numpy levels."""

    @compiled_kernels
    @settings(max_examples=60, deadline=None)
    @given(edge_lists, seed_sets, hk_pr_params)
    def test_bit_identical_levels_vector_and_profile(self, kernel, edges, seed_set, params):
        graph = from_edge_list(edges, num_vertices=25)
        seeds = np.asarray(sorted(seed_set), dtype=np.int64)
        assert_kernel_matches_numpy(lambda k: hk_pr(graph, seeds, params, kernel=k), kernel)

    @compiled_kernels
    @pytest.mark.parametrize("taylor_degree", [1, 2, 5, 20])
    def test_last_level_adds_shares_into_p(self, kernel, taylor_degree):
        graph = rand_local(200, 4, seed=2)
        params = HKPRParams(t=10.0, taylor_degree=taylor_degree, eps=1e-4)
        result = assert_kernel_matches_numpy(
            lambda k: hk_pr(graph, [3, 150], params, kernel=k), kernel
        )
        assert result.extras["levels"] == taylor_degree - 1

    @compiled_kernels
    @pytest.mark.parametrize("seeds", [[5], [0, 5], [4, 5]])
    def test_degree_zero_seeds(self, kernel, seeds):
        graph = from_edge_list([(0, 1), (1, 2), (2, 3)], num_vertices=6)
        assert_kernel_matches_numpy(
            lambda k: hk_pr(graph, seeds, HKPRParams(t=3.0, eps=1e-3), kernel=k), kernel
        )

    @compiled_kernels
    def test_wide_frontiers_across_kernel_calls(self, kernel, monkeypatch):
        from repro.kernels import _ckernels

        monkeypatch.setattr(_ckernels, "_BSP_ROUNDS_PER_CALL", 3)
        graph = rand_local(3000, 5, seed=1)
        params = HKPRParams(t=5.0, eps=1e-5)
        result = assert_kernel_matches_numpy(
            lambda k: hk_pr(graph, [7, 1500], params, kernel=k), kernel
        )
        assert result.iterations > 3
        assert max(result.extras["frontier_sizes"]) > 1000

    @compiled_kernels
    def test_default_kernel_runs_the_compiled_twin(self, kernel, monkeypatch):
        graph = barbell_graph(8)
        params = HKPRParams(t=5.0, eps=1e-4)
        calls = spy_on_kernel(monkeypatch, kernel, "hkpr_bsp")
        assert_frontier_runs_identical(
            profiled(lambda: hk_pr(graph, 0, params)),
            profiled(lambda: hk_pr(graph, 0, params, kernel="python")),
        )
        assert calls == [1]


class TestRandAggregationDifferential:
    """rand-HK-PR's sort aggregation: the compiled endpoint count against
    the hash-compress-sort of ``aggregate_by_sort``."""

    @compiled_kernels
    @settings(max_examples=30, deadline=None)
    @given(
        edge_lists,
        seed_sets,
        st.integers(0, 2**31 - 1),
        st.sampled_from([1, 2, 7, 300]),
        st.sampled_from([0, 1, 6]),
    )
    def test_bit_identical_endpoint_vector_and_profile(
        self, kernel, edges, seed_set, rng_seed, num_walks, max_walk_length
    ):
        graph = from_edge_list(edges, num_vertices=25)
        seeds = np.asarray(sorted(seed_set), dtype=np.int64)
        params = RandHKPRParams(t=3.0, max_walk_length=max_walk_length, num_walks=num_walks)
        assert_kernel_matches_numpy(
            lambda k: rand_hk_pr(graph, seeds, params, rng=rng_seed, kernel=k), kernel
        )

    @compiled_kernels
    @pytest.mark.parametrize("num_walks, max_walk_length", [(1, 0), (1, 10), (2000, 0)])
    def test_single_walk_and_zero_length_walks(self, kernel, num_walks, max_walk_length):
        graph = rand_local(500, 4, seed=3)
        params = RandHKPRParams(num_walks=num_walks, max_walk_length=max_walk_length)
        result = assert_kernel_matches_numpy(
            lambda k: rand_hk_pr(graph, [4, 9], params, rng=5, kernel=k), kernel
        )
        keys, _ = vector_items(result.vector)
        assert len(keys) <= num_walks
        if max_walk_length == 0:
            assert set(keys.tolist()) <= {4, 9}  # every walk ends at its seed


class TestRandWalkDifferential:
    @compiled_kernels
    @settings(max_examples=10, deadline=None)
    @given(edge_lists, st.integers(0, 2**31 - 1))
    def test_bit_identical_walks(self, kernel, edges, rng_seed):
        graph = from_edge_list(edges, num_vertices=25)
        seed = _connected_seed(graph)
        if seed is None:
            return
        params = RandHKPRParams(t=3.0, max_walk_length=6, num_walks=200)
        with track() as py_profile:
            python = rand_hk_pr(
                graph, seed, params, parallel=True, rng=rng_seed, kernel="python"
            )
        with track() as k_profile:
            compiled = rand_hk_pr(
                graph, seed, params, parallel=True, rng=rng_seed, kernel=kernel
            )
        assert_diffusions_identical(python, compiled)
        assert_profiles_identical(k_profile, py_profile)


class TestPythonPathAtRunJob:
    """The compiled path and the ``kernel="python"`` path through
    ``run_job`` agree bit-for-bit: vector, counters, profile and sweep."""

    @compiled_kernels
    def test_bridge_seeds_agree_across_kernels(self, kernel):
        from repro.engine import DiffusionJob
        from repro.engine.executor import run_job

        graph = barbell_graph(16)
        for seed in (15, 16):  # the two endpoints of the bridge edge
            job = DiffusionJob.make(seed, params={"alpha": 0.1, "eps": 1e-5}, kernel=kernel)
            compiled = run_job(graph, job, parallel=False, include_vector=True)
            python = run_job(
                graph, replace(job, kernel="python"), parallel=False, include_vector=True
            )
            assert np.array_equal(compiled.vector_keys, python.vector_keys)
            assert np.array_equal(compiled.vector_values, python.vector_values)
            assert compiled.pushes == python.pushes
            assert compiled.work == python.work
            assert compiled.conductance == python.conductance
            assert np.array_equal(compiled.cluster, python.cluster)

    @compiled_kernels
    @settings(max_examples=10, deadline=None)
    @given(edge_lists)
    def test_random_graphs_across_kernels(self, kernel, edges):
        from repro.engine import DiffusionJob
        from repro.engine.executor import run_job

        graph = from_edge_list(edges, num_vertices=25)
        seed = _connected_seed(graph)
        if seed is None:
            return
        job = DiffusionJob.make(seed, params={"alpha": 0.1, "eps": 1e-4}, kernel=kernel)
        compiled = run_job(graph, job, parallel=False, include_vector=True)
        python = run_job(
            graph, replace(job, kernel="python"), parallel=False, include_vector=True
        )
        assert np.array_equal(compiled.vector_keys, python.vector_keys)
        assert np.array_equal(compiled.vector_values, python.vector_values)
        assert compiled.work == python.work and compiled.depth == python.depth

    @compiled_kernels
    @settings(max_examples=10, deadline=None)
    @given(edge_lists)
    def test_bsp_twin_matches_numpy_rounds(self, kernel, edges):
        from repro.engine import DiffusionJob
        from repro.engine.executor import run_job

        graph = from_edge_list(edges, num_vertices=25)
        seed = _connected_seed(graph)
        if seed is None:
            return
        job = DiffusionJob.make(seed, params={"alpha": 0.1, "eps": 1e-4}, kernel=kernel)
        compiled = run_job(graph, job, parallel=True, include_vector=True)
        python = run_job(
            graph, replace(job, kernel="python"), parallel=True, include_vector=True
        )
        assert np.array_equal(compiled.vector_keys, python.vector_keys)
        assert np.array_equal(compiled.vector_values, python.vector_values)
        assert compiled.residual_mass == python.residual_mass
        assert compiled.conductance == python.conductance
        assert compiled.work == python.work and compiled.depth == python.depth
