"""Tests for the scheduler plane's cost estimates (repro.engine.scheduler).

Estimates are method-aware: the paper's O(1/(eps*alpha)) bound for
PR-Nibble pushes, N x walk-length for the randomized heat kernel.  The
steal-unit plans they order are tested in test_stealing.py.
"""

from __future__ import annotations

import pytest

from repro.engine import DiffusionJob, estimate_cost
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
