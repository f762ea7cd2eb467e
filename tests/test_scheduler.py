"""Tests for the scheduler plane (repro.engine.scheduler).

The load-bearing properties: chunk plans are *partitions* (every job
exactly once, any schedule, any shape of batch), cost-balanced plans obey
the documented max <= 2x mean chunk-cost guarantee, and estimates are
method-aware (the paper's O(1/(eps*alpha)) bound for PR-Nibble pushes,
N x walk-length for the randomized heat kernel).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import DiffusionJob, chunk_costs, estimate_cost, plan_chunks
from repro.engine.scheduler import _MIN_COST, kernel_cost_scale
from repro.runtime import (
    ppr_push_work_bound,
    random_walk_work_bound,
    truncated_iteration_work_bound,
)


def pr_job(seed=0, alpha=0.01, eps=1e-4):
    return DiffusionJob.make(seed, params={"alpha": alpha, "eps": eps})


class TestEstimates:
    def test_pr_nibble_matches_paper_bound(self):
        bound = ppr_push_work_bound(0.01, 1e-5)
        assert estimate_cost(pr_job(alpha=0.01, eps=1e-5)) == bound * kernel_cost_scale(None)

    def test_defaults_filled_like_execution(self):
        # A job with no overrides must cost the same as one spelling out
        # the dataclass defaults — the estimator instantiates the params.
        bare = DiffusionJob.make(0)
        explicit = pr_job(alpha=0.01, eps=1e-6)
        assert estimate_cost(bare) == estimate_cost(explicit)

    def test_eps_dominates_cost(self):
        cheap = estimate_cost(pr_job(eps=1e-3))
        dear = estimate_cost(pr_job(eps=1e-6))
        assert dear == pytest.approx(cheap * 1000)

    def test_rand_hk_scales_with_walks_not_eps(self):
        job = DiffusionJob.make(
            0, method="rand-hk-pr", params={"num_walks": 5000, "max_walk_length": 12}
        )
        bound = random_walk_work_bound(5000, 12)
        assert estimate_cost(job) == bound * kernel_cost_scale(None)

    def test_nibble_uses_iteration_bound(self):
        job = DiffusionJob.make(
            0, method="nibble", params={"max_iterations": 10, "eps": 1e-4}
        )
        bound = truncated_iteration_work_bound(10, 1e-4)
        assert estimate_cost(job) == bound * kernel_cost_scale(None)

    def test_hk_pr_is_estimated(self):
        job = DiffusionJob.make(0, method="hk-pr", params={"eps": 1e-5})
        assert estimate_cost(job) > _MIN_COST

    def test_unknown_method_and_bad_params_get_floor_not_exception(self):
        assert estimate_cost(DiffusionJob.make(0, method="page-rank")) == _MIN_COST
        bad = DiffusionJob.make(0, params={"alpha": -3.0})
        assert estimate_cost(bad) == _MIN_COST

    def test_bound_helpers_validate(self):
        with pytest.raises(ValueError):
            ppr_push_work_bound(0.0, 1e-4)
        with pytest.raises(ValueError):
            truncated_iteration_work_bound(0, 1e-4)
        with pytest.raises(ValueError):
            random_walk_work_bound(0, 5)


# A mixed-method, mixed-eps job soup — the workload shape the scheduler
# exists for (costs spanning several orders of magnitude).
job_strategy = st.one_of(
    st.builds(
        pr_job,
        seed=st.integers(0, 99),
        alpha=st.sampled_from([0.5, 0.1, 0.01]),
        eps=st.sampled_from([1e-2, 1e-4, 1e-6, 1e-8]),
    ),
    st.builds(
        lambda seed, walks: DiffusionJob.make(
            seed, method="rand-hk-pr", params={"num_walks": walks}
        ),
        seed=st.integers(0, 99),
        walks=st.sampled_from([100, 10_000, 1_000_000]),
    ),
)


class TestChunkPlans:
    @settings(max_examples=60, deadline=None)
    @given(
        jobs=st.lists(job_strategy, min_size=1, max_size=80),
        workers=st.integers(1, 8),
        schedule=st.sampled_from(["cost", "fifo"]),
    )
    def test_plan_is_a_partition(self, jobs, workers, schedule):
        chunks = plan_chunks(jobs, workers, schedule=schedule)
        seen = [index for chunk in chunks for index, _ in chunk]
        assert sorted(seen) == list(range(len(jobs)))  # every job exactly once
        for chunk in chunks:
            for index, job in chunk:
                assert job is jobs[index]  # indices label the right jobs

    @settings(max_examples=60, deadline=None)
    @given(
        jobs=st.lists(job_strategy, min_size=1, max_size=80),
        workers=st.integers(1, 8),
    )
    def test_cost_chunks_balanced_within_2x_of_mean(self, jobs, workers):
        chunks = plan_chunks(jobs, workers, schedule="cost")
        loads = chunk_costs(chunks)
        mean = sum(loads) / len(loads)
        assert max(loads) <= 2.0 * mean * (1.0 + 1e-9)

    @settings(max_examples=30, deadline=None)
    @given(jobs=st.lists(job_strategy, min_size=1, max_size=60), workers=st.integers(1, 8))
    def test_plan_is_deterministic(self, jobs, workers):
        first = plan_chunks(jobs, workers, schedule="cost")
        second = plan_chunks(jobs, workers, schedule="cost")
        assert [[i for i, _ in chunk] for chunk in first] == [
            [i for i, _ in chunk] for chunk in second
        ]

    def test_cost_chunks_dispatch_heaviest_first(self):
        jobs = [pr_job(seed=s, eps=eps) for s, eps in enumerate([*([1e-3] * 10), 1e-7])]
        chunks = plan_chunks(jobs, workers=2, schedule="cost")
        loads = chunk_costs(chunks)
        assert loads == sorted(loads, reverse=True)
        # The one expensive job leads the plan instead of straggling it.
        assert chunks[0][0][0] == 10

    def test_fifo_chunks_are_contiguous_count_based(self):
        jobs = [pr_job(seed=s) for s in range(10)]
        chunks = plan_chunks(jobs, workers=2, schedule="fifo", chunk_size=4)
        assert [[i for i, _ in chunk] for chunk in chunks] == [
            [0, 1, 2, 3],
            [4, 5, 6, 7],
            [8, 9],
        ]

    def test_empty_batch_yields_no_chunks(self):
        assert plan_chunks([], workers=4) == []

    def test_unknown_schedule_rejected(self):
        with pytest.raises(ValueError, match="unknown schedule"):
            plan_chunks([pr_job()], workers=2, schedule="lifo")

    def test_heavy_jobs_spread_across_chunks(self):
        # Four jobs 100x the rest: cost packing must put each in its own
        # chunk (so four workers attack them concurrently) instead of
        # letting a fifo slice stack them into one straggler.
        heavy = [pr_job(seed=s, eps=1e-8, alpha=0.1) for s in range(4)]
        cheap = [pr_job(seed=s, eps=1e-4, alpha=0.1) for s in range(4, 36)]
        chunks = plan_chunks(heavy + cheap, workers=4, schedule="cost")
        homes = [
            next(n for n, c in enumerate(chunks) if any(i == h for i, _ in c))
            for h in range(4)
        ]
        assert len(set(homes)) == 4

    def test_dominant_job_collapses_chunk_count_not_balance(self):
        # One job carrying ~97% of the batch: no partition can balance it,
        # so the planner shrinks the chunk count to keep max <= 2x mean
        # (makespan stays within 2x optimal — the lone job dominates).
        jobs = [pr_job(seed=0, eps=1e-7), *(pr_job(seed=s, eps=1e-4) for s in range(1, 33))]
        chunks = plan_chunks(jobs, workers=4, schedule="cost")
        loads = chunk_costs(chunks)
        assert max(loads) <= 2.0 * (sum(loads) / len(loads))

    def test_chunk_size_rule_matches_backend_helper(self):
        # The fifo sizing rule (jobs per IPC round-trip) is the historical
        # ProcessPoolBackend._chunk_size: ~8 chunks per worker, capped at
        # 32, floored at 1.
        from repro.engine import ProcessPoolBackend

        backend = ProcessPoolBackend(workers=2)
        assert backend._chunk_size(3) == 1  # fewer jobs than worker slots
        assert backend._chunk_size(160) == 10  # 160 // (2 * 8)
        assert backend._chunk_size(10_000) == 32  # capped
        assert ProcessPoolBackend(workers=2, chunk_size=5)._chunk_size(160) == 5
        jobs = [pr_job(seed=s) for s in range(160)]
        chunks = plan_chunks(jobs, workers=2, schedule="fifo")
        assert {len(c) for c in chunks} == {10}

    def test_custom_estimator_respected(self):
        jobs = [pr_job(seed=s) for s in range(6)]
        flat = plan_chunks(jobs, workers=2, estimator=lambda job: 1.0)
        loads = chunk_costs(flat, estimator=lambda job: 1.0)
        assert max(loads) <= 2.0 * (sum(loads) / len(loads))


class TestEngineIntegration:
    """Scheduling must never change results — only placement and order of
    execution.  (The heavier serial-vs-pool equivalence lives in
    test_engine.py; this asserts the schedules against each other.)"""

    def test_cost_and_fifo_schedules_bit_identical(self, forced_pool):
        from repro.engine import BatchEngine
        from repro.graph import planted_partition

        graph = planted_partition(300, 3, intra_degree=8.0, inter_degree=1.0, seed=2)
        jobs = [
            DiffusionJob.make(s, params={"alpha": 0.05, "eps": eps})
            for s in (0, 50, 100, 150, 200, 250)
            for eps in (1e-3, 1e-5)
        ]
        cost = BatchEngine(graph, backend="process", workers=3, schedule="cost").run(jobs)
        fifo = BatchEngine(graph, backend="process", workers=3, schedule="fifo").run(jobs)
        assert len(forced_pool) == 2  # each schedule ran through a real pool
        serial = BatchEngine(graph).run(jobs)
        for a, b, c in zip(cost, fifo, serial):
            assert a.index == b.index == c.index
            assert np.array_equal(a.cluster, b.cluster)
            assert np.array_equal(a.cluster, c.cluster)
            assert a.conductance == b.conductance == c.conductance
