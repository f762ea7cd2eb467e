"""Determinism matrix: kernel x backend, plus cache agnosticism.

Every cell of the (kernel, backend) matrix must produce the same outcome
stream as the serial-Python reference — byte-for-byte on vectors and
counters — because the kernel knob and the executor backend are both
pure *speed* knobs.  On top of the matrix:

* cache entries are kernel-agnostic: an entry written under one kernel
  replays under any other, in both directions, because ``cache_key_for``
  excludes ``kernel`` exactly as it excludes ``tag``;
* the scheduler's per-kernel cost scale orders mixed-kernel batches by
  wall time (a compiled job no longer weighs as much as a Python one);
* warm-up accounting: JIT/compile time is excluded from ``job_seconds``
  and tallied separately, and cache hits contribute to neither —
  mirroring the PR-4 cache-hit exclusion rule.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cache import ResultCache
from repro.cache.keys import cache_key_for
from repro.core.result import SweepResult
from repro.engine import (
    BatchEngine,
    DiffusionJob,
    JobOutcome,
    StatsReducer,
    job_grid,
)
from repro.engine.scheduler import KERNEL_COST_SCALE, estimate_cost, plan_units
from repro.graph import rand_local
from repro.kernels import available_kernels

KERNEL_VALUES = available_kernels() + ("auto",)

#: backend cells; the process pool dispatches cost-ordered steal units.
#: The ids keep their (backend, dispatch) form so results stay comparable
#: across runs of the suite.
CELLS = [
    pytest.param("serial", id="serial-None"),
    pytest.param("process", id="process-cost"),
]


@pytest.fixture(scope="module")
def graph():
    return rand_local(600, seed=11)


@pytest.fixture(scope="module")
def jobs():
    return list(
        job_grid(
            [3, 50, 200, 400, 599],
            "pr-nibble",
            {"alpha": (0.1,), "eps": (1e-4, 1e-5)},
        )
    )


@pytest.fixture(scope="module")
def reference(graph, jobs):
    """The serial-Python outcome stream every matrix cell must equal."""
    return BatchEngine(graph).run(jobs)


def make_engine(graph, backend, kernel):
    if backend == "process":
        return BatchEngine(graph, backend="process", workers=2, kernel=kernel)
    return BatchEngine(graph, kernel=kernel)


def assert_outcomes_identical(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.index == b.index
        assert np.array_equal(a.vector_keys, b.vector_keys)
        assert np.array_equal(a.vector_values, b.vector_values)
        assert a.pushes == b.pushes
        assert a.touched_edges == b.touched_edges
        assert a.work == b.work and a.depth == b.depth
        assert a.conductance == b.conductance
        assert np.array_equal(a.cluster, b.cluster)


class TestMatrix:
    @pytest.mark.parametrize("kernel", KERNEL_VALUES)
    @pytest.mark.parametrize("backend", CELLS)
    def test_cell_equals_serial_python_reference(
        self, graph, jobs, reference, kernel, backend, request
    ):
        if backend == "process":
            request.getfixturevalue("forced_pool")  # a real pool, not in-process
        engine = make_engine(graph, backend, kernel)
        assert_outcomes_identical(engine.run(jobs), reference)

    @pytest.mark.parametrize("kernel", KERNEL_VALUES)
    def test_per_job_kernel_override_beats_engine_default(
        self, graph, jobs, reference, kernel
    ):
        # Explicit job-level kernels survive the engine default stamping.
        stamped = [DiffusionJob.make(j.seeds, params=j.params, kernel=kernel) for j in jobs]
        engine = BatchEngine(graph, kernel="python")
        assert_outcomes_identical(engine.run(stamped), reference)


class TestCacheKernelAgnostic:
    def test_cache_key_excludes_kernel(self, jobs):
        plain = jobs[0]
        for kernel in ("python", "numba", "c", "auto"):
            stamped = DiffusionJob.make(plain.seeds, params=plain.params, kernel=kernel)
            assert cache_key_for("fp", stamped, True, True) == cache_key_for(
                "fp", plain, True, True
            )

    @pytest.mark.parametrize("writer,reader", [("python", "auto"), ("auto", "python")])
    def test_entries_replay_across_kernels(self, graph, jobs, reference, writer, reader):
        cache = ResultCache()
        first = BatchEngine(graph, cache=cache, kernel=writer).run(jobs)
        assert not any(o.cached for o in first)
        replayed = BatchEngine(graph, cache=cache, kernel=reader).run(jobs)
        assert all(o.cached for o in replayed)
        assert_outcomes_identical(replayed, reference)
        # and the replayed job echoes the *requesting* kernel, like tag
        assert all(o.job.kernel == reader for o in replayed)

    def test_disk_entries_replay_across_kernels(self, graph, jobs, reference, tmp_path):
        BatchEngine(graph, cache=str(tmp_path), kernel="auto").run(jobs)
        replayed = BatchEngine(graph, cache=str(tmp_path), kernel="python").run(jobs)
        assert all(o.cached for o in replayed)
        assert_outcomes_identical(replayed, reference)


class TestSchedulerBalance:
    """Regression: the cost order must not overweight compiled jobs."""

    # A mixed batch where raw work bounds and wall time *disagree*: the
    # compiled jobs have 10x the raw push bound (tighter eps) but a
    # fraction of the wall time.  Stealing pulls units in plan order, so
    # the true stragglers must lead the queue.
    def _mixed_jobs(self):
        python = [
            DiffusionJob.make(i, params={"alpha": 0.05, "eps": 1e-5}, kernel="python")
            for i in range(2)
        ]
        compiled = [
            DiffusionJob.make(100 + i, params={"alpha": 0.05, "eps": 1e-6}, kernel="c")
            for i in range(3)
        ]
        return python + compiled

    def _force_c_available(self, monkeypatch):
        import repro.kernels as kernels_mod

        monkeypatch.setattr(
            kernels_mod, "_SETS", {**kernels_mod._SETS, "c": object()}
        )
        monkeypatch.setattr(kernels_mod, "_ERRORS", {})

    @staticmethod
    def _unscaled(job):
        # The pre-kernel estimator: same params, every job costed as Python.
        return estimate_cost(
            DiffusionJob.make(job.seeds, params=job.params, kernel="python")
        )

    @staticmethod
    def _dispatch_order(units):
        return [index for unit in units for index, _ in unit]

    def test_scaled_plan_balances_wall_time(self, monkeypatch):
        # The kernel-aware estimate puts both Python jobs (the wall-time
        # stragglers) at the head of the queue, so they start at once.
        self._force_c_available(monkeypatch)
        units = plan_units(self._mixed_jobs(), workers=2)
        assert self._dispatch_order(units) == [0, 1, 2, 3, 4]

    def test_unscaled_estimator_would_misbalance(self, monkeypatch):
        # The regression this scale fixes: ordering by raw work bounds
        # queues the compiled jobs first and both Python stragglers last,
        # where they extend the batch's tail.
        self._force_c_available(monkeypatch)
        units = plan_units(self._mixed_jobs(), workers=2, estimator=self._unscaled)
        assert self._dispatch_order(units) == [2, 3, 4, 0, 1]

    def test_scale_values_are_sane(self):
        assert KERNEL_COST_SCALE["python"] == 1.0
        assert 0.0 < KERNEL_COST_SCALE["c"] < 1.0


def _outcome(index, wall, warmup, cached=False):
    sweep = SweepResult(
        order=np.asarray([0], dtype=np.int64),
        conductances=np.asarray([0.5]),
        volumes=np.asarray([2], dtype=np.int64),
        cuts=np.asarray([1], dtype=np.int64),
        best_index=0,
    )
    return JobOutcome(
        index=index,
        job=DiffusionJob.make(0),
        support_size=1,
        iterations=1,
        pushes=5,
        touched_edges=9,
        residual_mass=0.0,
        work=9.0,
        depth=0.0,
        wall_seconds=wall,
        sweep=sweep,
        cached=cached,
        warmup_seconds=warmup,
    )


class TestWarmupAccounting:
    def test_warmup_tallied_separately_from_job_seconds(self):
        reducer = StatsReducer()
        reducer.update(_outcome(0, wall=0.5, warmup=2.0))  # first job pays JIT
        reducer.update(_outcome(1, wall=0.5, warmup=0.0))
        stats = reducer.finalize()
        assert stats.job_seconds == pytest.approx(1.0)
        assert stats.warmup_seconds == pytest.approx(2.0)

    def test_cache_hits_contribute_no_warmup(self):
        # Mirrors the PR-4 cache-hit rule: a replayed outcome echoes the
        # original execution's counters and must not inflate this run.
        reducer = StatsReducer()
        reducer.update(_outcome(0, wall=0.5, warmup=2.0, cached=True))
        stats = reducer.finalize()
        assert stats.cache_hits == 1
        assert stats.job_seconds == 0.0
        assert stats.warmup_seconds == 0.0

    def test_engine_excludes_warmup_from_wall_seconds(self, graph):
        # End to end: run_job warms before starting the job clock, so even
        # the very first compiled job's wall_seconds is steady-state (far
        # below any compile time) and warmup lands in its own field.
        job = DiffusionJob.make(3, params={"alpha": 0.1, "eps": 1e-4}, kernel="auto")
        outcomes = BatchEngine(graph).run([job])
        assert outcomes[0].warmup_seconds >= 0.0
        assert outcomes[0].wall_seconds < 60.0
