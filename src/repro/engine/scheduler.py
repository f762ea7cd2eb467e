"""Cost-aware job scheduling: estimate, order longest-first, pack balanced.

Job costs in a local-clustering batch vary by orders of magnitude: the
paper bounds PR-Nibble's work by O(1/(eps*alpha)) (Section 3), so one
``eps=1e-7`` query costs ~1000x an ``eps=1e-4`` one, and a mixed NCP grid
interleaves both.  The engine's historical count-based ``imap`` chunking
ignored that: a chunk that happened to collect the expensive corner of the
grid became a straggler holding the whole batch while every other worker
idled.

This module is the scheduler plane that replaces it.  It has two halves:

* :func:`estimate_cost` — a *method-aware* a-priori cost per job, from the
  closed-form work bounds in :mod:`repro.runtime.cost_model` (eps/alpha
  push bounds for the deterministic diffusions, N x walk-length for the
  Monte-Carlo one).  Estimates only need to *rank* jobs and get relative
  magnitudes roughly right; they are never reported as measurements.
* :func:`plan_chunks` — turns a job list into the chunks the process pool
  dispatches.  ``"fifo"`` reproduces the old contiguous count-based
  slicing.  ``"cost"`` (the default) sorts jobs longest-first and packs
  them greedily onto the currently-lightest chunk (LPT scheduling), with
  the chunk count capped so that no chunk can exceed twice the mean chunk
  cost under the estimate — the classic 2-approximation guarantee, which
  the property tests assert directly.

A third, smaller decision comes before any of that: whether a one-shot
batch should start a pool at all.  Its jobs run in-process, in job order,
and after each one :func:`pool_pays` projects the in-process time of the
jobs left from the mean seconds per job measured so far, against
:data:`POOL_BREAK_EVEN_SECONDS`.

Chunks are emitted heaviest-first, so the most expensive work starts the
moment the pool does and the tail of the batch is made of cheap chunks
that cannot straggle.  Determinism is unaffected: chunk packing decides
only *where and when* a job runs; every outcome carries its original batch
index and the executor re-emits the stream in job order.

Runnable example — a tight ``eps`` costs orders of magnitude more than a
loose one, and a cost plan still covers the batch exactly once:

>>> from repro.engine import DiffusionJob
>>> cheap = DiffusionJob.make(0, params={"alpha": 0.05, "eps": 1e-4})
>>> costly = DiffusionJob.make(1, params={"alpha": 0.05, "eps": 1e-6})
>>> round(estimate_cost(costly) / estimate_cost(cheap))
100
>>> chunks = plan_chunks([cheap, costly, cheap, costly], workers=2)
>>> sorted(index for chunk in chunks for index, _ in chunk)
[0, 1, 2, 3]
>>> costs = chunk_costs(chunks)
>>> costs == sorted(costs, reverse=True)    # heaviest chunk dispatches first
True
"""

from __future__ import annotations

import heapq
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
    "SCHEDULES",
    "KERNEL_COST_SCALE",
    "kernel_cost_scale",
    "resolved_kernel_name",
    "estimate_cost",
    "plan_chunks",
    "plan_units",
    "steal_unit_size",
    "observe_outcome",
    "POOL_BREAK_EVEN_SECONDS",
    "pool_pays",
    "chunk_costs",
    "fifo_chunk_size",
]

#: recognised values of the engine-facing ``schedule=`` knob.
SCHEDULES = ("cost", "fifo")

#: floor applied to every estimate so degenerate parameter corners can
#: never produce a zero-cost job (which would break load ratios).
_MIN_COST = 1.0

#: target chunks per worker.  Several chunks per worker lets the pool
#: rebalance when estimates are off; too many wastes IPC round-trips.
#: 8 matches the historical count-based chunking's sizing rule.
CHUNKS_PER_WORKER = 8

#: seconds-per-push scale relative to the Python loops.  The compiled
#: kernels measure 1-2 orders of magnitude faster (BENCH_kernels), so
#: without this a mixed batch's cost plan would weigh a compiled job as
#: heavily as a Python one and pack the true stragglers together.  Only
#: the *ratio* matters for LPT packing; 0.02 is a deliberately
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


def chunk_costs(
    chunks: Sequence[Sequence[tuple[int, DiffusionJob]]],
    estimator: Callable[[DiffusionJob], float] = estimate_cost,
) -> list[float]:
    """Total estimated cost of each chunk (benchmark/diagnostic helper)."""
    return [sum(estimator(job) for _, job in chunk) for chunk in chunks]


def fifo_chunk_size(num_jobs: int, workers: int, chunk_size: int | None = None) -> int:
    """Jobs per chunk for count-based plans: ~8 chunks per worker, capped
    at 32 jobs, floored at 1 — the historical ``imap`` sizing rule.  The
    single implementation behind both :func:`plan_chunks` and
    ``ProcessPoolBackend._chunk_size``."""
    if chunk_size is not None:
        return max(1, chunk_size)
    return max(1, min(32, num_jobs // (max(1, workers) * CHUNKS_PER_WORKER) or 1))


def _fifo_chunks(
    jobs: Sequence[DiffusionJob], size: int
) -> list[list[tuple[int, DiffusionJob]]]:
    indexed = list(enumerate(jobs))
    return [indexed[start : start + size] for start in range(0, len(indexed), size)]


def _cost_chunks(
    jobs: Sequence[DiffusionJob],
    desired: int,
    estimator: Callable[[DiffusionJob], float],
) -> list[list[tuple[int, DiffusionJob]]]:
    costs = [max(estimator(job), _MIN_COST) for job in jobs]
    total = sum(costs)
    heaviest = max(costs)
    # Cap the chunk count so the per-chunk cost target total/k is at least
    # the heaviest single job.  Greedy least-loaded assignment then bounds
    # every chunk by target + heaviest <= 2 * total/k <= 2 * mean over the
    # chunks actually used — the balance guarantee the tests assert.
    k = max(1, min(desired, len(jobs), int(total // heaviest)))
    order = sorted(range(len(jobs)), key=lambda i: (-costs[i], i))
    members: list[list[int]] = [[] for _ in range(k)]
    # Least-loaded-first assignment via a heap: O(n log k), with the bin
    # index as deterministic tie-break on equal loads.
    heap = [(0.0, b) for b in range(k)]
    for i in order:
        load, lightest = heapq.heappop(heap)
        members[lightest].append(i)
        heapq.heappush(heap, (load + costs[i], lightest))
    loads = {b: load for load, b in heap}
    packed = [
        (loads[b], chunk) for b, chunk in enumerate(members) if chunk
    ]
    # Heaviest chunk first: stragglers start at t=0, cheap chunks fill the
    # tail.  Tie-break on first member for a deterministic plan.
    packed.sort(key=lambda item: (-item[0], item[1][0]))
    return [[(i, jobs[i]) for i in chunk] for _, chunk in packed]


def plan_chunks(
    jobs: Sequence[DiffusionJob],
    workers: int,
    schedule: str = "cost",
    chunk_size: int | None = None,
    estimator: Callable[[DiffusionJob], float] = estimate_cost,
) -> list[list[tuple[int, DiffusionJob]]]:
    """Partition ``jobs`` into the chunks the pool will dispatch.

    Every chunk entry is ``(original_index, job)``; the chunks always
    cover the batch exactly once (asserted by property tests).  With
    ``schedule="fifo"`` chunks are contiguous index ranges of the
    historical count-based size (or explicit ``chunk_size``); with
    ``schedule="cost"`` they are cost-balanced by the estimator, and
    ``chunk_size`` instead bounds how many chunks are formed
    (``len(jobs)/chunk_size``, so the flag keeps its "jobs per IPC
    round-trip" meaning under both schedules).
    """
    if schedule not in SCHEDULES:
        raise ValueError(f"unknown schedule {schedule!r}; choose from {SCHEDULES}")
    jobs = list(jobs)
    if not jobs:
        return []
    workers = max(1, workers)
    size = fifo_chunk_size(len(jobs), workers, chunk_size)
    if schedule == "fifo":
        return _fifo_chunks(jobs, size)
    if chunk_size is not None:
        desired = -(-len(jobs) // size)
    else:
        desired = workers * CHUNKS_PER_WORKER
    return _cost_chunks(jobs, desired, estimator)


#: steal-queue granularity: at most this many jobs per unit, so one unit
#: can never hide a straggler behind cheap neighbours for long.
MAX_UNIT_JOBS = 8

#: target units per worker under stealing.  Far finer than the chunk
#: plan's 8: each unit is one IPC round-trip, but the pool's shared queue
#: re-balances at unit boundaries, so more units = better balance.
UNITS_PER_WORKER = 16


def steal_unit_size(num_jobs: int, workers: int, chunk_size: int | None = None) -> int:
    """Jobs per steal unit: ~16 units per worker, capped at 8 jobs.

    Falls to 1 whenever jobs-per-worker is low — the auto-fine-granularity
    guard: with few jobs to go around, every job must be independently
    stealable or one unit starves the other workers (the smoke-scale
    regression this scheduler replaces).
    """
    if chunk_size is not None:
        return max(1, chunk_size)
    return max(1, min(MAX_UNIT_JOBS, num_jobs // (max(1, workers) * UNITS_PER_WORKER)))


def plan_units(
    jobs: Sequence[DiffusionJob],
    workers: int,
    schedule: str = "cost",
    chunk_size: int | None = None,
    estimator: Callable[[DiffusionJob], float] = estimate_cost,
) -> list[list[tuple[int, DiffusionJob]]]:
    """Order ``jobs`` into the fine-grained units a stealing pool dispatches.

    Unlike :func:`plan_chunks`, units are *not* pre-assigned to workers:
    the pool's shared task queue hands the next undispatched unit to
    whichever worker finishes first, so placement adapts to the measured
    durations instead of the estimates.  ``"cost"`` orders units
    heaviest-first (greedy pulls of a longest-first order are classic LPT
    list scheduling — near-optimal makespan on the *true* durations);
    ``"fifo"`` keeps the legacy contiguous count-based slicing.  Every
    entry is ``(original_index, job)`` and the units cover the batch
    exactly once; outcomes carry their index, so re-emission order and
    results are bit-identical to serial at any worker count.
    """
    if schedule not in SCHEDULES:
        raise ValueError(f"unknown schedule {schedule!r}; choose from {SCHEDULES}")
    jobs = list(jobs)
    if not jobs:
        return []
    workers = max(1, workers)
    if schedule == "fifo":
        return _fifo_chunks(jobs, fifo_chunk_size(len(jobs), workers, chunk_size))
    size = steal_unit_size(len(jobs), workers, chunk_size)
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
