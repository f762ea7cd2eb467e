"""Tests for work-stealing dispatch and online cost calibration.

Scheduler v2's contract has three load-bearing pieces:

* :func:`repro.engine.plan_units` orders jobs into fine-grained units for
  the pool's shared queue — a *partition* (every job exactly once),
  heaviest-first, and unit size collapsing to 1 when jobs-per-worker is
  low.
* :class:`repro.runtime.cost_model.CostModel` learns seconds-per-work-unit
  per (method, kernel) from completed outcomes.  Its calibration is
  *anchor-normalised*: calibrated estimates stay in static-estimate units,
  so a homogeneous workload calibrates to exactly the static numbers and
  thresholds like ``max_batch_cost`` keep their meaning.
* Stealing changes *placement only*.  The property test runs mixed-method,
  mixed-kernel batches through one long-lived stealing pool session (so
  calibration accumulates across batches, exactly like a serving process)
  and asserts outcomes bit-identical to serial.  CI re-runs this file
  under a forced ``spawn`` start method, which covers the start-method
  axis.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import (
    BatchEngine,
    DiffusionJob,
    ProcessPoolBackend,
    StatsReducer,
    estimate_cost,
    observe_outcome,
    plan_units,
    run_job,
    steal_unit_size,
)
from repro.engine.scheduler import _MIN_COST, MAX_UNIT_JOBS
from repro.graph import planted_partition
from repro.kernels import available_kernels, resolve_kernel
from repro.runtime.cost_model import CostModel

GRAPH = planted_partition(240, 3, intra_degree=8.0, inter_degree=1.0, seed=3)

#: kernel settings a job may carry without failing execution here.
KERNEL_CHOICES = [None, *sorted(available_kernels())]


def pr_job(seed=0, alpha=0.01, eps=1e-4, kernel=None):
    return DiffusionJob.make(seed, params={"alpha": alpha, "eps": eps}, kernel=kernel)


@st.composite
def diffusion_jobs(draw):
    """One job from any of the four methods, any available kernel."""
    method = draw(st.sampled_from(["pr-nibble", "nibble", "hk-pr", "rand-hk-pr"]))
    seed = draw(st.integers(0, GRAPH.num_vertices - 1))
    kernel = draw(st.sampled_from(KERNEL_CHOICES))
    if method == "pr-nibble":
        params = {
            "alpha": draw(st.sampled_from([0.1, 0.01])),
            "eps": draw(st.sampled_from([1e-3, 1e-5])),
        }
    elif method == "nibble":
        params = {
            "eps": draw(st.sampled_from([1e-3, 1e-4])),
            "max_iterations": draw(st.sampled_from([5, 20])),
        }
    elif method == "hk-pr":
        params = {"eps": draw(st.sampled_from([1e-3, 1e-4]))}
    else:
        params = {
            "num_walks": draw(st.sampled_from([50, 200])),
            "max_walk_length": draw(st.sampled_from([5, 10])),
        }
    rng = draw(st.integers(0, 3))
    return DiffusionJob.make(seed, method=method, params=params, rng=rng, kernel=kernel)


class TestStealUnits:
    @settings(max_examples=40, deadline=None)
    @given(
        jobs=st.lists(diffusion_jobs(), min_size=1, max_size=80),
        workers=st.integers(1, 8),
    )
    def test_plan_is_a_partition(self, jobs, workers):
        units = plan_units(jobs, workers)
        seen = [index for unit in units for index, _ in unit]
        assert sorted(seen) == list(range(len(jobs)))  # every job exactly once
        for unit in units:
            for index, job in unit:
                assert job is jobs[index]

    @settings(max_examples=20, deadline=None)
    @given(jobs=st.lists(diffusion_jobs(), min_size=1, max_size=60), workers=st.integers(1, 8))
    def test_plan_is_deterministic(self, jobs, workers):
        first = plan_units(jobs, workers)
        second = plan_units(jobs, workers)
        assert [[i for i, _ in unit] for unit in first] == [
            [i for i, _ in unit] for unit in second
        ]

    def test_cost_units_dispatch_heaviest_first(self):
        jobs = [pr_job(seed=s, eps=eps) for s, eps in enumerate([*([1e-3] * 10), 1e-7])]
        units = plan_units(jobs, workers=2)
        # Few jobs per worker -> singleton units, in strictly non-increasing
        # cost order, the expensive straggler leading the queue.
        assert all(len(unit) == 1 for unit in units)
        costs = [estimate_cost(job) for unit in units for _, job in unit]
        assert costs == sorted(costs, reverse=True)
        assert units[0][0][0] == 10

    def test_fine_granularity_guard(self):
        # Few jobs per worker: every job must be independently stealable.
        assert steal_unit_size(10, 4) == 1
        assert steal_unit_size(64, 4) == 1
        # Plenty of jobs: units grow, capped at MAX_UNIT_JOBS.
        assert steal_unit_size(4 * 16 * 2, 4) == 2
        assert steal_unit_size(100_000, 4) == MAX_UNIT_JOBS

    def test_empty_batch_and_unknown_schedule(self):
        assert plan_units([], workers=4) == []
        # Heaviest-first stealing is the only dispatch: no schedule or
        # unit size can be chosen any more.
        with pytest.raises(TypeError, match="schedule"):
            plan_units([pr_job()], workers=2, schedule="fifo")
        with pytest.raises(TypeError, match="chunk_size"):
            steal_unit_size(10, 4, chunk_size=5)

    def test_custom_estimator_orders_units(self):
        jobs = [pr_job(seed=s) for s in range(6)]
        # +2 keeps every cost above the _MIN_COST floor, so the custom
        # ordering (not the index tie-break) decides the whole queue.
        units = plan_units(jobs, workers=2, estimator=lambda job: float(job.seeds[0] + 2))
        assert [unit[0][0] for unit in units] == [5, 4, 3, 2, 1, 0]


def _outcome(job, wall_seconds, cached=False):
    """The slice of JobOutcome that observe_outcome reads."""
    return SimpleNamespace(job=job, wall_seconds=wall_seconds, cached=cached)


class TestCostModel:
    def test_alpha_validated(self):
        with pytest.raises(ValueError):
            CostModel(alpha=0.0)
        with pytest.raises(ValueError):
            CostModel(alpha=1.5)

    def test_bad_samples_ignored(self):
        model = CostModel()
        model.observe("pr-nibble", "python", 0.0, 1.0)
        model.observe("pr-nibble", "python", -5.0, 1.0)
        model.observe("pr-nibble", "python", 10.0, -1.0)
        assert model.observations == 0
        assert model.calibration_factor("pr-nibble", "python") is None

    def test_unseen_key_falls_back_to_static(self):
        model = CostModel()
        job = pr_job(eps=1e-4)
        assert model.calibration_factor("pr-nibble", "python") is None
        assert estimate_cost(job, model) == estimate_cost(job)

    def test_homogeneous_workload_calibrates_to_identity(self):
        # Anchor normalisation: when measured cost tracks the static
        # estimate exactly, the calibrated estimate IS the static estimate
        # — so admission thresholds (max_batch_cost) keep their meaning.
        model = CostModel()
        job = pr_job(eps=1e-4)
        for _ in range(5):
            observe_outcome(model, _outcome(job, wall_seconds=estimate_cost(job) * 2e-6))
        assert estimate_cost(job, model) == pytest.approx(estimate_cost(job))

    def test_relative_correction_reweighs_methods(self):
        # nibble measures 5x the seconds-per-raw-unit of the anchor mix:
        # its calibrated estimate must rise above static, pr-nibble's fall
        # below — the ranking the stealing order actually consumes.
        model = CostModel()
        model.observe("pr-nibble", "python", 100.0, 100 * 1e-6, static=100.0)
        model.observe("nibble", "python", 100.0, 100 * 5e-6, static=100.0)
        fast = model.calibration_factor("pr-nibble", "python")
        slow = model.calibration_factor("nibble", "python")
        assert slow > 1.0 > fast
        assert slow / fast == pytest.approx(5.0)

    def test_cached_outcomes_not_observed(self):
        model = CostModel()
        observe_outcome(model, _outcome(pr_job(), wall_seconds=1.0, cached=True))
        assert model.observations == 0

    def test_ewma_starts_as_running_mean(self):
        model = CostModel(alpha=0.2)
        model.observe("pr-nibble", "python", 1.0, 2e-6, static=1.0)
        model.observe("pr-nibble", "python", 1.0, 4e-6, static=1.0)
        snapshot = model.snapshot()
        entry = snapshot["pr-nibble/python"]
        assert entry["seconds_per_unit"] == pytest.approx(3e-6)
        assert entry["samples"] == 2

    def test_snapshot_keys_and_sorting(self):
        model = CostModel()
        model.observe("nibble", "python", 1.0, 1e-6)
        model.observe("hk-pr", "c", 1.0, 1e-6)
        assert list(model.snapshot()) == ["hk-pr/c", "nibble/python"]


class TestDispatchStats:
    def test_pool_run_accounts_units_steals_and_idle(self):
        engine = BatchEngine(
            GRAPH, backend="process", workers=2, include_vectors=False
        )
        jobs = [pr_job(seed=s, eps=eps) for s in range(10) for eps in (1e-3, 1e-5)]
        # A session always pools; a one-shot run of a batch this short
        # would stay in-process.
        reducer = StatsReducer(engine=engine)
        with engine.open_session() as session:
            for outcome in session.run(jobs):
                reducer.update(outcome)
        stats = reducer.finalize()
        dispatch = engine.dispatch_stats
        assert dispatch.batches == 1
        assert dispatch.jobs == len(jobs)
        assert dispatch.units == len(plan_units(jobs, 2))
        # One batch: every unit beyond a worker's first was a steal.
        assert dispatch.steals == dispatch.units - len(dispatch.per_worker)
        assert dispatch.busy_seconds > 0.0
        assert dispatch.idle_seconds >= 0.0
        per_worker = dispatch.per_worker.values()
        assert sum(w.units for w in per_worker) == dispatch.units
        assert sum(w.jobs for w in per_worker) == dispatch.jobs
        assert sum(w.steals for w in per_worker) == dispatch.steals
        # The reducer snapshot mirrors the live accounting and carries the
        # calibration learned from this batch.
        assert stats.dispatch == dispatch.describe()
        # kernel=None jobs key under the kernel they ran (the resolved default).
        key = f"pr-nibble/{resolve_kernel(None)}"
        assert stats.cost_calibration[key]["samples"] == len(jobs)

    def test_serial_backend_reports_no_dispatch(self):
        engine = BatchEngine(GRAPH, include_vectors=False)
        stats = engine.run([pr_job()], StatsReducer(engine=engine))
        assert engine.dispatch_stats is None
        assert stats.dispatch is None


@pytest.fixture(scope="module")
def stealing_session():
    """One long-lived stealing pool session shared by every example, so
    the cost model calibrates across batches like a serving process."""
    backend = ProcessPoolBackend(workers=3)
    session = backend.open_session(GRAPH, parallel=True, include_vectors=False)
    yield backend, session
    session.close()


class TestStealingBitIdentical:
    """Satellite contract: steal-order execution is bit-identical to serial
    for all four methods, across kernels (every available one) and start
    methods (CI re-runs under forced spawn)."""

    @settings(max_examples=8, deadline=None)
    @given(jobs=st.lists(diffusion_jobs(), min_size=1, max_size=12))
    def test_pool_outcomes_match_serial(self, stealing_session, jobs):
        _, session = stealing_session
        outcomes = list(session.run(jobs))
        assert [o.index for o in outcomes] == list(range(len(jobs)))
        for index, (job, outcome) in enumerate(zip(jobs, outcomes)):
            reference = run_job(GRAPH, job, index=index, include_vector=False)
            assert outcome.pushes == reference.pushes
            assert outcome.iterations == reference.iterations
            assert outcome.support_size == reference.support_size
            if reference.sweep is None:
                assert outcome.sweep is None
            else:
                assert np.array_equal(outcome.cluster, reference.cluster)
                assert outcome.conductance == reference.conductance

    def test_session_calibrated_across_batches(self, stealing_session):
        # Ordered after the property test: by now the session has served
        # many batches and its model must have learned from all of them.
        backend, _ = stealing_session
        assert backend.cost_model.observations > 0
        assert backend.dispatch.batches > 1
        assert backend.dispatch.jobs == backend.cost_model.observations
        snapshot = backend.cost_model.snapshot()
        assert all(entry["samples"] >= 1 for entry in snapshot.values())
