"""Cost-aware job scheduling: estimate, order heaviest-first, steal.

Job costs in a local-clustering batch vary by orders of magnitude: the
paper bounds PR-Nibble's work by O(1/(eps*alpha)) (Section 3), so one
``eps=1e-7`` query costs ~1000x an ``eps=1e-4`` one, and a mixed NCP grid
interleaves both.  Count-based chunking ignores that: a chunk that
happens to collect the expensive corner of the grid becomes a straggler
holding the whole batch while every other worker idles.

This module is the scheduler plane that prevents it.  It has two halves:

* :func:`estimate_cost` — a *method-aware* a-priori cost per job, from the
  closed-form work bounds in :mod:`repro.runtime.cost_model` (eps/alpha
  push bounds for the deterministic diffusions, N x walk-length for the
  Monte-Carlo one).  Estimates only need to *rank* jobs and get relative
  magnitudes roughly right; they are never reported as measurements.
* :func:`plan_units` — orders a job list into the fine-grained units the
  process pool dispatches, heaviest first.  Units are not assigned to
  workers up front: each worker pulls the next unit from the pool's
  shared queue as it finishes, so placement follows measured durations.

A third, smaller decision comes before any of that: whether a one-shot
batch should start a pool at all.  Its jobs run in-process, in job order,
and after each one :func:`pool_pays` projects the in-process time of the
jobs left from the mean seconds per job measured so far, against
:data:`POOL_BREAK_EVEN_SECONDS`.

Units are emitted heaviest-first, so the most expensive work starts the
moment the pool does and the tail of the batch is made of cheap units
that cannot straggle.  Determinism is unaffected: the plan decides only
*where and when* a job runs; every outcome carries its original batch
index and the executor re-emits the stream in job order.

Runnable example — a tight ``eps`` costs orders of magnitude more than a
loose one, and a plan covers the batch exactly once, heaviest first:

>>> from repro.engine import DiffusionJob
>>> cheap = DiffusionJob.make(0, params={"alpha": 0.05, "eps": 1e-4})
>>> costly = DiffusionJob.make(1, params={"alpha": 0.05, "eps": 1e-6})
>>> round(estimate_cost(costly) / estimate_cost(cheap))
100
>>> units = plan_units([cheap, costly, cheap, costly], workers=2)
>>> [index for unit in units for index, _ in unit]
[1, 3, 0, 2]
"""

from __future__ import annotations

from typing import Callable, Sequence

from ..core.api import ALGORITHMS
from ..kernels import KernelUnavailableError, resolve_kernel
from ..runtime.cost_model import (
    ppr_push_work_bound,
    random_walk_work_bound,
    truncated_iteration_work_bound,
)
from .jobs import DiffusionJob

__all__ = [
    "KERNEL_COST_SCALE",
    "kernel_cost_scale",
    "resolved_kernel_name",
    "estimate_cost",
    "plan_units",
    "steal_unit_size",
    "observe_outcome",
    "POOL_BREAK_EVEN_SECONDS",
    "pool_pays",
]

#: floor applied to every estimate so degenerate parameter corners can
#: never produce a zero-cost job (which would break load ratios).
_MIN_COST = 1.0

#: seconds-per-push scale relative to the Python loops.  The compiled
#: kernels measure 1-2 orders of magnitude faster (BENCH_kernels), so
#: without this a mixed batch's plan would weigh a compiled job as
#: heavily as a Python one and queue the true stragglers last.  Only the
#: *ratio* matters for the heaviest-first order; 0.02 is a deliberately
#: conservative midpoint of the measured 10-100x range.
KERNEL_COST_SCALE = {"python": 1.0, "c": 0.02}


def resolved_kernel_name(kernel: str | None) -> str:
    """The kernel a job would actually run under, as a calibration key.

    ``None`` resolves exactly as execution resolves it
    (:func:`repro.kernels.resolve_kernel`).  Never raises: unknown or
    unavailable kernels key like Python (the execution layer is where bad
    kernels must fail, loudly).
    """
    try:
        return resolve_kernel(kernel)
    except (ValueError, KernelUnavailableError):
        return "python"


def kernel_cost_scale(kernel: str | None) -> float:
    """Relative seconds-per-unit-work of a job's kernel setting.

    Never raises: an unknown or unavailable kernel scales like Python
    (the execution layer is where bad kernels must fail, loudly —
    scheduling must never be the thing that aborts a batch).
    """
    return KERNEL_COST_SCALE.get(resolved_kernel_name(kernel), 1.0)


def _raw_work_bound(job: DiffusionJob) -> float | None:
    """The method's closed-form work bound, *without* any kernel scale.

    These are the "raw units" the online :class:`~repro.runtime.cost_model.
    CostModel` learns seconds-per-unit against.  Returns ``None`` for
    unknown methods or parameters that the method's dataclass rejects (a
    job that would fail at execution time anyway).
    """
    if job.method not in ALGORITHMS:
        return None
    params_cls, _, _ = ALGORITHMS[job.method]
    try:
        params = params_cls(**job.params)
    except (TypeError, ValueError):
        return None
    if job.method == "pr-nibble":
        return ppr_push_work_bound(params.alpha, params.eps)
    if job.method == "nibble":
        return truncated_iteration_work_bound(params.max_iterations, params.eps)
    if job.method == "hk-pr":
        # Kloster-Gleich style push bound: N Taylor terms, each thresholded
        # at eps — the same 1/eps locality with the degree N as the "1/alpha".
        return ppr_push_work_bound(1.0 / params.taylor_degree, params.eps)
    # rand-hk-pr
    return random_walk_work_bound(params.num_walks, params.max_walk_length)


def estimate_cost(job: DiffusionJob, model=None) -> float:
    """Cost estimate for one job, in (approximate) push units.

    Dispatches on the method to the closed-form bounds of
    :mod:`repro.runtime.cost_model`, instantiating the method's parameter
    dataclass so defaults are filled exactly as execution will fill them,
    then scales by the job's kernel (:func:`kernel_cost_scale`) — a
    compiled push costs a small fraction of a Python push in wall time,
    and cost plans balance *time*, not abstract work.  Unknown methods
    (a job that would fail at execution time anyway) get the floor cost
    rather than an exception — scheduling must never be the thing that
    aborts a batch.

    With a :class:`~repro.runtime.cost_model.CostModel` the static kernel
    scale is replaced by the model's learned correction for the job's
    ``(method, kernel)`` key — still expressed in static-estimate units, so
    thresholds like ``max_batch_cost`` keep their meaning.  Keys the model
    has not observed yet fall back to the static estimate.
    """
    raw = _raw_work_bound(job)
    if raw is None:
        return _MIN_COST
    if model is not None:
        factor = model.calibration_factor(job.method, resolved_kernel_name(job.kernel))
        if factor is not None:
            return max(raw * factor, _MIN_COST)
    return max(raw * kernel_cost_scale(job.kernel), _MIN_COST)


def observe_outcome(model, outcome) -> None:
    """Fold one completed :class:`JobOutcome` into a cost model.

    Cache hits carry no execution time and are skipped; so are jobs whose
    parameters yield no work bound.  Warm-up (C build) seconds are
    already excluded from ``wall_seconds`` by the executor.
    """
    if outcome.cached:
        return
    job = outcome.job
    raw = _raw_work_bound(job)
    if raw is None:
        return
    model.observe(
        job.method,
        resolved_kernel_name(job.kernel),
        raw,
        outcome.wall_seconds,
        static=max(raw * kernel_cost_scale(job.kernel), _MIN_COST),
    )


#: steal-queue granularity: at most this many jobs per unit, so one unit
#: can never hide a straggler behind cheap neighbours for long.
MAX_UNIT_JOBS = 8

#: target units per worker.  Each unit is one IPC round-trip, but the
#: pool's shared queue re-balances at unit boundaries, so more units =
#: better balance.
UNITS_PER_WORKER = 16


def steal_unit_size(num_jobs: int, workers: int) -> int:
    """Jobs per steal unit: ~16 units per worker, capped at 8 jobs.

    Falls to 1 whenever jobs-per-worker is low — the auto-fine-granularity
    guard: with few jobs to go around, every job must be independently
    stealable or one unit starves the other workers.
    """
    return max(1, min(MAX_UNIT_JOBS, num_jobs // (max(1, workers) * UNITS_PER_WORKER)))


def plan_units(
    jobs: Sequence[DiffusionJob],
    workers: int,
    estimator: Callable[[DiffusionJob], float] = estimate_cost,
) -> list[list[tuple[int, DiffusionJob]]]:
    """Order ``jobs`` into the fine-grained units a stealing pool dispatches.

    Units are *not* pre-assigned to workers: the pool's shared task queue
    hands the next undispatched unit to whichever worker finishes first,
    so placement adapts to the measured durations instead of the
    estimates.  Units are ordered heaviest-first by ``estimator`` (greedy
    pulls of a longest-first order are classic LPT list scheduling —
    near-optimal makespan on the *true* durations), ties broken by job
    index.  Every entry is ``(original_index, job)`` and the units cover
    the batch exactly once; outcomes carry their index, so re-emission
    order and results are bit-identical to serial at any worker count.
    """
    jobs = list(jobs)
    if not jobs:
        return []
    size = steal_unit_size(len(jobs), workers)
    costs = [max(estimator(job), _MIN_COST) for job in jobs]
    order = sorted(range(len(jobs)), key=lambda i: (-costs[i], i))
    return [
        [(i, jobs[i]) for i in order[start : start + size]]
        for start in range(0, len(order), size)
    ]


#: projected in-process seconds past which the jobs left in a one-shot
#: batch on the process backend get a pool.  A pool pays a fixed price
#: per call (start 8-11 ms and close 5-6 ms under ``fork``, and the
#: workers' first jobs run cold) that only a long enough batch repays.
#: Measured in one configuration only: ``ncp_profile`` calls on the
#: soc-LJ proxy, ``workers=2``, ``fork``, a 2-vCPU host, where in-process
#: and pooled calls break even at 24-28 seeds, ~0.3 s of serial time
#: (docs/scheduling.md, "When the engine skips the pool").  More workers
#: should lower the break-even and ``spawn``/``forkserver`` pools (slower
#: to start) raise it; neither has been measured.
POOL_BREAK_EVEN_SECONDS = 0.3


def pool_pays(seconds: float, done: int, left: int) -> bool:
    """Whether the ``left`` jobs of a one-shot batch are worth a pool:
    at the mean of ``seconds`` over the ``done`` jobs run in-process so
    far, they project past :data:`POOL_BREAK_EVEN_SECONDS`.

    Per job, not per :func:`estimate_cost` unit: the work bounds are loose
    by orders of magnitude that vary with the parameters.  On the NCP
    grid the first job in job order (the largest alpha and eps) bounds
    1/100 of the work of the heaviest but takes a fifth of its time (1.2
    vs 6.3 ms), so a projection per estimated unit read 10-30x the true
    serial time of a call, while the mean per job converges within one
    seed's grid.
    """
    return seconds * left > POOL_BREAK_EVEN_SECONDS * done
