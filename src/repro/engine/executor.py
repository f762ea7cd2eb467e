"""The batch executor: dispatch independent diffusion jobs across workers.

The engine exploits the scale-out axis the paper's experiments rely on but
its artifact never mechanised: *cross-query* parallelism.  Each
:class:`~repro.engine.jobs.DiffusionJob` is an independent local
computation (a diffusion plus a sweep cut), so a stream of jobs can be
fanned out across a process pool while each individual job still uses the
intra-query parallel (bulk-synchronous) implementations.

The execution layer is organised in three planes:

* **Graph plane** (:mod:`repro.graph.shared`) — every worker reads the one
  shared CSR graph.  Under the ``fork`` start method workers inherit the
  parent's arrays through copy-on-write pages; under ``spawn`` and
  ``forkserver`` the parent exports the arrays once into
  ``multiprocessing.shared_memory`` segments and workers attach zero-copy.
  Either way the graph is never pickled, copied per job, or re-validated.
* **Scheduler plane** (:mod:`repro.engine.scheduler`) — jobs are ordered
  into fine-grained steal units (heaviest-first, method-aware
  O(1/(eps*alpha)) style estimates calibrated online against measured
  seconds) that workers pull dynamically from a shared queue, so one
  expensive corner of a parameter grid cannot straggle the batch.
* **Backend plane** (this module) — :class:`PoolBackend` owns the shared
  in-process execution loop; :class:`SerialBackend` is exactly that loop,
  and :class:`ProcessPoolBackend` adds the pool, the graph hand-off and
  the unit dispatch.  Both deliver outcomes **in job order**, so every
  reducer sees a deterministic stream at any worker count and under any
  start method.

Pool lifecycle is separated from batch streaming: every backend can
``open_session()`` an :class:`ExecutionSession` whose ``run(jobs)`` may be
called for *consecutive batches* against one prepared execution
environment.  For the process backend that environment is a
:class:`PoolSession` — one long-lived worker pool plus one shared-memory
graph export reused across every batch, which is what lets the serving
plane (:mod:`repro.serve`) multiplex many clients onto one pool instead of
paying pool start-up per call.  :meth:`PoolBackend.stream` is the one
one-shot path: it opens a session, runs the single batch, and closes the
session deterministically — including when the caller abandons the
iterator via ``close()``.  For the process backend a one-shot batch first
decides whether a pool can pay for itself: its jobs run in-process, in
job order, until the jobs left project past
:data:`~repro.engine.scheduler.POOL_BREAK_EVEN_SECONDS`, and only then
does a pool open for them.  Every session applies the engine's default
kernel and, for an engine tracking an evolving graph, its freshness check
in :meth:`ExecutionSession.run` itself (the one-shot path stamps the
kernel before it runs anything).

A third backend, :class:`repro.cache.CachingBackend`, wraps either of the
above so that only cache misses are dispatched; construct engines with
``cache=`` to enable it.  Its sessions replay hits and send misses to an
inner session, opened with the first miss.

Workers return compact, picklable :class:`JobOutcome` records (sweep
profile + counters + optionally the diffusion vector as two arrays) rather
than the algorithms' live sparse-set objects, keeping inter-process
traffic proportional to each job's support size.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from ..core.api import ALGORITHMS
from ..core.result import ClusterResult, DiffusionResult, SweepResult, vector_items
from ..core.sweep import sweep_cut
from ..graph.csr import CSRGraph
from ..kernels import ensure_warm, resolve_kernel
from ..prims.sparse import SparseDict
from ..runtime import detached, record, track
from ..runtime.cost_model import CostModel
from .jobs import DiffusionJob
from .reducers import CollectReducer, Reducer
from .scheduler import estimate_cost, observe_outcome, plan_units, pool_pays

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cache import ResultCache
    from ..core.options import EngineOptions
    from ..graph.evolving import EvolvingGraph, GraphVersion
    from ..graph.shared import SharedCSR

__all__ = [
    "JobOutcome",
    "run_job",
    "ExecutionSession",
    "PoolSession",
    "PoolBackend",
    "SerialBackend",
    "ProcessPoolBackend",
    "WorkerStats",
    "DispatchStats",
    "BatchEngine",
    "resolve_engine",
]

#: environment override for the default start method — CI forces
#: ``REPRO_START_METHOD=spawn`` to exercise the shared-memory graph plane
#: on platforms whose default is ``fork``.
START_METHOD_ENV = "REPRO_START_METHOD"


@dataclass
class JobOutcome:
    """The picklable result of one executed job.

    Carries everything the reducers need: the job itself (echoed back),
    diffusion counters, the full sweep profile, the per-job work-depth
    totals and wall time, and — when the engine is configured with
    ``include_vectors`` — the diffusion vector flattened to parallel
    ``(keys, values)`` arrays.  ``cached`` marks outcomes replayed from
    the result cache (their counters describe the *original* execution;
    no diffusion work was performed for this job).  ``warmup_seconds``
    is one-time kernel preparation (a C build) paid before this job's
    clock started; it is *excluded* from
    ``wall_seconds`` so throughput numbers measure steady state, and
    reported separately (mirroring the cache-hit exclusion rule).
    """

    index: int
    job: DiffusionJob
    support_size: int
    iterations: int
    pushes: int
    touched_edges: int
    residual_mass: float
    work: float
    depth: float
    wall_seconds: float
    sweep: SweepResult | None
    vector_keys: np.ndarray | None = None
    vector_values: np.ndarray | None = None
    cached: bool = False
    warmup_seconds: float = 0.0

    @property
    def conductance(self) -> float:
        """Best sweep conductance (``inf`` when the sweep was skipped)."""
        return self.sweep.best_conductance if self.sweep is not None else float("inf")

    @property
    def cluster(self) -> np.ndarray:
        """The best cluster, sorted by vertex id (empty when skipped)."""
        if self.sweep is None:
            return np.empty(0, dtype=np.int64)
        return np.sort(self.sweep.best_cluster)

    @property
    def size(self) -> int:
        return len(self.cluster)

    def diffusion(self) -> DiffusionResult:
        """Rebuild a :class:`DiffusionResult` from the flattened vector."""
        if self.vector_keys is None or self.vector_values is None:
            raise ValueError(
                "diffusion vector was not retained; run the engine with "
                "include_vectors=True"
            )
        vector = SparseDict(
            dict(zip(self.vector_keys.tolist(), self.vector_values.tolist()))
        )
        return DiffusionResult(
            vector=vector,
            iterations=self.iterations,
            pushes=self.pushes,
            touched_edges=self.touched_edges,
            extras={"residual_mass": self.residual_mass},
        )

    def to_cluster_result(self) -> ClusterResult:
        """Rebuild the high-level API's :class:`ClusterResult`."""
        if self.sweep is None:
            raise ValueError(
                f"job {self.job.describe()} produced an empty diffusion; "
                "no cluster to report"
            )
        from dataclasses import asdict

        params_cls, _, _ = ALGORITHMS[self.job.method]
        return ClusterResult(
            cluster=self.cluster,
            conductance=self.sweep.best_conductance,
            algorithm=self.job.method,
            params=asdict(params_cls(**self.job.params)),
            diffusion=self.diffusion(),
            sweep=self.sweep,
        )


def run_job(
    graph: CSRGraph,
    job: DiffusionJob,
    index: int = 0,
    parallel: bool = True,
    include_vector: bool = True,
) -> JobOutcome:
    """Execute one job: diffusion, then sweep cut, then flatten the result.

    Mirrors :func:`repro.core.api.local_cluster` exactly — same dispatch
    through :data:`ALGORITHMS`, same sweep — except that a diffusion with
    empty support yields an outcome with ``sweep=None`` instead of raising,
    so one degenerate parameter combination cannot abort a large batch
    (the historical NCP loop skipped such runs the same way).
    """
    if job.method not in ALGORITHMS:
        raise ValueError(
            f"unknown method {job.method!r}; choose from {sorted(ALGORITHMS)}"
        )
    params_cls, runner, takes_rng = ALGORITHMS[job.method]
    params = params_cls(**job.params)
    seeds = np.asarray(job.seeds, dtype=np.int64)
    # Resolve the kernel and pay any one-time preparation (a C build)
    # *before* starting the clock: wall_seconds measures steady
    # state; the warm-up is reported separately on the outcome.
    kernel = resolve_kernel(job.kernel)
    warmup = ensure_warm(kernel)
    start = time.perf_counter()
    with track() as tracker:
        if takes_rng:
            diffusion = runner(
                graph,
                seeds,
                params,
                parallel=parallel,
                rng=np.random.default_rng(job.rng),
                kernel=kernel,
            )
        else:
            diffusion = runner(graph, seeds, params, parallel=parallel, kernel=kernel)
        sweep = (
            sweep_cut(graph, diffusion.vector, parallel=parallel, kernel=kernel)
            if diffusion.support_size() > 0
            else None
        )
    elapsed = time.perf_counter() - start
    keys = values = None
    if include_vector:
        keys, values = vector_items(diffusion.vector)
    return JobOutcome(
        index=index,
        job=job,
        support_size=diffusion.support_size(),
        iterations=diffusion.iterations,
        pushes=diffusion.pushes,
        touched_edges=diffusion.touched_edges,
        residual_mass=float(diffusion.extras.get("residual_mass", 0.0)),
        work=tracker.work,
        depth=tracker.depth,
        wall_seconds=elapsed,
        sweep=sweep,
        vector_keys=keys,
        vector_values=values,
        warmup_seconds=warmup,
    )


# ----------------------------------------------------------------------
# Worker-process state, populated once per worker by the pool initializer.
# Under ``fork`` the CSR arrays arrive through copy-on-write inheritance;
# under ``spawn``/``forkserver`` the worker attaches to the parent's
# shared-memory segments.  Either way the graph is shared, not serialised.
# ----------------------------------------------------------------------
_WORKER_GRAPH: CSRGraph | None = None
_WORKER_SHARED: "SharedCSR | None" = None
_WORKER_PARALLEL: bool = True
_WORKER_INCLUDE_VECTORS: bool = True


def _worker_init(payload: tuple, parallel: bool, include_vectors: bool) -> None:
    global _WORKER_GRAPH, _WORKER_SHARED, _WORKER_PARALLEL, _WORKER_INCLUDE_VECTORS
    kind, *rest = payload
    if kind == "fork":
        offsets, neighbors = rest
        graph = CSRGraph.__new__(CSRGraph)  # arrays were validated in the parent
        graph.offsets = offsets
        graph.neighbors = neighbors
    else:  # "shared": attach zero-copy; keep the segments alive for the
        # worker's whole life (the attachment holds them).
        (handle,) = rest
        _WORKER_SHARED = CSRGraph.attach(handle)
        graph = _WORKER_SHARED.graph
    _WORKER_GRAPH = graph
    _WORKER_PARALLEL = parallel
    _WORKER_INCLUDE_VECTORS = include_vectors


def _worker_run_unit(
    unit: Sequence[tuple[int, DiffusionJob]],
) -> tuple[int, float, list[JobOutcome]]:
    """Run one steal unit; tag the result with the worker's identity.

    The pid and the unit's busy seconds let the parent attribute work to
    workers without any extra IPC — the dispatch stats (steals, idle,
    busy) fall out of the tagged stream.
    """
    assert _WORKER_GRAPH is not None, "worker initializer did not run"
    start = time.perf_counter()
    outcomes = [
        run_job(
            _WORKER_GRAPH,
            job,
            index=index,
            parallel=_WORKER_PARALLEL,
            include_vector=_WORKER_INCLUDE_VECTORS,
        )
        for index, job in unit
    ]
    return os.getpid(), time.perf_counter() - start, outcomes


@dataclass
class WorkerStats:
    """Per-worker dispatch accounting for one or more batches."""

    units: int = 0
    jobs: int = 0
    busy_seconds: float = 0.0
    idle_seconds: float = 0.0
    steals: int = 0


@dataclass
class DispatchStats:
    """Work-stealing dispatch accounting across a backend's batches.

    A worker's *steals* count the units it pulled from the shared queue
    beyond its first in a batch — every one is a dynamic rebalancing
    decision a pre-planned assignment could not have made.  *Idle*
    is the gap between a worker's busy seconds and the batch span (the
    straggler tail the stealing loop exists to shrink).
    """

    batches: int = 0
    units: int = 0
    jobs: int = 0
    steals: int = 0
    busy_seconds: float = 0.0
    idle_seconds: float = 0.0
    per_worker: dict[int, WorkerStats] = field(default_factory=dict)

    def record_batch(
        self,
        span: float,
        tallies: dict[int, tuple[int, int, float]],
        workers: int,
    ) -> None:
        """Fold one batch in: ``tallies`` maps pid -> (units, jobs, busy)."""
        self.batches += 1
        for pid, (units, jobs, busy) in tallies.items():
            stats = self.per_worker.get(pid)
            if stats is None:
                stats = self.per_worker[pid] = WorkerStats()
            idle = max(0.0, span - busy)
            steals = max(0, units - 1)
            stats.units += units
            stats.jobs += jobs
            stats.busy_seconds += busy
            stats.idle_seconds += idle
            stats.steals += steals
            self.units += units
            self.jobs += jobs
            self.steals += steals
            self.busy_seconds += busy
            self.idle_seconds += idle
        # Workers the queue never reached sat idle for the whole span.
        self.idle_seconds += span * max(0, workers - len(tallies))

    def describe(self) -> dict[str, float | int]:
        return {
            "batches": self.batches,
            "units": self.units,
            "jobs": self.jobs,
            "steals": self.steals,
            "busy_seconds": self.busy_seconds,
            "idle_seconds": self.idle_seconds,
            "workers_seen": len(self.per_worker),
        }


def _with_kernel(jobs: Iterable[DiffusionJob], kernel: str | None) -> list[DiffusionJob]:
    """``jobs`` with ``kernel`` stamped on every job that names none."""
    return [
        job if kernel is None or job.kernel is not None else replace(job, kernel=kernel)
        for job in jobs
    ]


class ExecutionSession:
    """A prepared execution environment that serves consecutive batches.

    Sessions split a backend's *lifecycle* (expensive, once: start a pool,
    export the graph) from *batch streaming* (cheap, many times): after
    ``backend.open_session(graph, ...)``, every ``run(jobs)`` call streams
    one batch of outcomes in job order against the same prepared
    environment.  The base implementation has nothing to prepare — it is
    the in-process loop, so :class:`SerialBackend` sessions are just that
    loop with a close guard.  :class:`PoolSession` overrides ``_run``;
    :class:`~repro.cache.CachingSession` overrides ``_dispatch`` so that
    only misses are dispatched.

    ``run`` stamps the opening engine's default kernel onto jobs that
    carry none, and in a session opened by a :class:`BatchEngine` that
    tracks an evolving graph refuses every batch once the chain has
    advanced past the version the session was opened on.  ``batches``
    counts the batches dispatched for execution.

    Batches are strictly sequential: drain (or close) one ``run`` iterator
    before starting the next.  Sessions are context managers; ``close()``
    is idempotent.
    """

    def __init__(
        self,
        backend: "PoolBackend",
        graph: CSRGraph,
        parallel: bool,
        include_vectors: bool,
    ) -> None:
        self.backend = backend
        self.graph = graph
        self.parallel = parallel
        self.include_vectors = include_vectors
        self._kernel: str | None = None
        self._tracking: "BatchEngine | None" = None
        self.batches = 0
        self._closed = False

    @property
    def closed(self) -> bool:
        return self._closed

    def run(self, jobs: Iterable[DiffusionJob]) -> Iterator[JobOutcome]:
        """Stream one batch of outcomes, in job order (lazy)."""
        if self._closed:
            raise RuntimeError("session is closed")
        if self._tracking is not None:
            self._tracking._check_fresh()
        return self._dispatch(_with_kernel(jobs, self._kernel))

    def _dispatch(self, jobs: Sequence[DiffusionJob]) -> Iterator[JobOutcome]:
        self.batches += 1
        return self._run(jobs)

    def _run(self, jobs: Sequence[DiffusionJob]) -> Iterator[JobOutcome]:
        # A backend that records each batch's aggregate cost itself (the
        # process pool, running a short batch here) keeps the per-job
        # records out of the caller's tracker.
        region = nullcontext if self.backend.folds_into_tracker else detached
        for index, job in enumerate(jobs):
            with region():
                outcome = run_job(
                    self.graph,
                    job,
                    index=index,
                    parallel=self.parallel,
                    include_vector=self.include_vectors,
                )
            yield outcome

    def close(self) -> None:
        self._closed = True

    def __enter__(self) -> "ExecutionSession":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class PoolSession(ExecutionSession):
    """A long-lived worker pool bound to one shared graph export.

    Created by :meth:`ProcessPoolBackend.open_session`: the graph crosses
    the process boundary exactly once (copy-on-write pages under ``fork``,
    one :class:`~repro.graph.shared.SharedCSR` export under
    ``spawn``/``forkserver``) and every subsequent ``run(jobs)`` reuses
    both the pool and the export — no per-batch pool start-up, no
    re-export.  ``close()`` terminates and joins the pool, then unlinks
    the shared segments, deterministically.
    """

    def __init__(
        self,
        backend: "ProcessPoolBackend",
        graph: CSRGraph,
        parallel: bool,
        include_vectors: bool,
    ) -> None:
        super().__init__(backend, graph, parallel, include_vectors)
        payload, self.shared = backend._graph_payload(graph)
        context = multiprocessing.get_context(backend.start_method)
        try:
            self._pool = context.Pool(
                processes=backend.workers,
                initializer=_worker_init,
                initargs=(payload, parallel, include_vectors),
            )
        except BaseException:
            if self.shared is not None:
                self.shared.unlink()
            raise

    def _run(self, jobs: Sequence[DiffusionJob]) -> Iterator[JobOutcome]:
        backend: "ProcessPoolBackend" = self.backend  # type: ignore[assignment]
        model = backend.cost_model
        units = plan_units(
            jobs, backend.workers, estimator=lambda job: estimate_cost(job, model)
        )
        # The pool's shared task queue *is* the steal queue: every worker
        # pulls the next undispatched unit the moment it finishes its
        # current one, so placement follows measured durations, not the
        # estimates.  Units complete in arbitrary order; outcomes carry
        # their original index and are re-emitted in job order, so the
        # deterministic stream contract holds at any worker count.
        pending: dict[int, JobOutcome] = {}
        next_index = 0
        tallies: dict[int, tuple[int, int, float]] = {}
        start = time.perf_counter()
        try:
            for pid, busy, outcomes in self._pool.imap_unordered(
                _worker_run_unit, units
            ):
                units_done, jobs_done, busy_total = tallies.get(pid, (0, 0, 0.0))
                tallies[pid] = (
                    units_done + 1,
                    jobs_done + len(outcomes),
                    busy_total + busy,
                )
                for outcome in outcomes:
                    observe_outcome(model, outcome)
                    pending[outcome.index] = outcome
                while next_index in pending:
                    yield pending.pop(next_index)
                    next_index += 1
        finally:
            # Covers abandoned iterators too: the batch's dispatch
            # accounting reflects whatever actually ran.
            backend.dispatch.record_batch(
                time.perf_counter() - start, tallies, backend.workers
            )

    def close(self) -> None:
        """Shut the pool down and unlink the graph export (idempotent).

        ``terminate()`` + ``join()`` rather than ``close()`` + ``join()``:
        an abandoned mid-batch iterator may have units still queued, and
        a deterministic shutdown must not wait for them.
        """
        if self._closed:
            return
        self._closed = True
        self._pool.terminate()
        self._pool.join()
        if self.shared is not None:
            self.shared.unlink()


class PoolBackend:
    """Base of the execution backends: sessions plus the one-shot stream.

    Subclasses override :meth:`open_session`; the base session — one job
    after another in the calling process, outcomes in job order — is both
    :class:`SerialBackend`'s whole behaviour and the single place any
    in-process execution lives.  :meth:`stream` is the only
    open→run→close path, shared by every backend; the process backend
    overrides only :meth:`_one_shot_gate`, which lets a short batch finish
    in-process instead of opening a session.
    """

    #: per-job costs reach the caller's tracker via nested track() when
    #: jobs run in-process; pool subclasses record an aggregate instead,
    #: also for the jobs they run in-process.
    folds_into_tracker = True
    workers = 1

    def open_session(
        self,
        graph: CSRGraph,
        parallel: bool = True,
        include_vectors: bool = True,
    ) -> ExecutionSession:
        """A session serving consecutive batches (see :class:`ExecutionSession`)."""
        return ExecutionSession(self, graph, parallel, include_vectors)

    def _one_shot_gate(
        self, jobs: Sequence[DiffusionJob]
    ) -> Callable[[JobOutcome], bool] | None:
        """How :meth:`stream` runs a one-shot batch.

        ``None`` (every backend but the process pool): open a session for
        the whole batch.  Otherwise a predicate: the batch runs in-process,
        in job order, and the predicate sees each outcome; the first
        ``True`` opens a session for the jobs left.
        """
        return None

    def _one_shot_session(
        self, graph: CSRGraph, parallel: bool, include_vectors: bool
    ) -> ExecutionSession:
        """The session :meth:`stream` opens for a batch without a gate:
        :meth:`open_session`, except where a wrapper serves one batch
        differently (the caching backend sends its misses down the inner
        backend's one-shot path)."""
        return self.open_session(graph, parallel, include_vectors)

    def stream(
        self,
        graph: CSRGraph,
        jobs: Iterable[DiffusionJob],
        parallel: bool,
        include_vectors: bool,
        kernel: str | None = None,
    ) -> Iterator[JobOutcome]:
        """Run one batch through a session opened and closed for it.

        An empty batch opens nothing.  A backend with a
        :meth:`_one_shot_gate` runs the batch in-process first (the base
        session's loop) and opens a session only for the jobs left once
        its gate passes on an outcome, before that outcome is yielded;
        their outcomes are renumbered into the batch.  A batch the gate
        never passes on opens none.  Teardown is deterministic even for an
        abandoned iterator: closing the generator raises GeneratorExit at
        the yield, and the ``finally`` closes the session (terminating a
        pool, unlinking shared-memory exports).
        """
        jobs = _with_kernel(jobs, kernel)
        if not jobs:
            return
        gate = self._one_shot_gate(jobs)
        session = None
        if gate is None:
            session = self._one_shot_session(graph, parallel, include_vectors)
        done = 0
        try:
            if gate is not None:
                inline = ExecutionSession(self, graph, parallel, include_vectors)
                for outcome in inline.run(jobs):
                    done += 1
                    if done < len(jobs) and gate(outcome):
                        session = self.open_session(graph, parallel, include_vectors)
                    yield outcome
                    if session is not None:
                        break
                else:
                    return
            for outcome in session.run(jobs[done:]):
                yield replace(outcome, index=done + outcome.index) if done else outcome
        finally:
            if session is not None:
                session.close()


class SerialBackend(PoolBackend):
    """Run jobs in the calling process, one after another.

    Deterministic by construction and free of pool start-up cost — the
    right choice for small batches, for debugging, and as the reference
    implementation the process backend is tested against.  Per-job
    work-depth records fold into any active tracker automatically (nested
    ``track()`` regions merge outward).
    """


class ProcessPoolBackend(PoolBackend):
    """Fan jobs out across a ``multiprocessing`` pool.

    The graph reaches the workers through the graph plane: copy-on-write
    inheritance under ``fork``, shared-memory attach
    (:class:`repro.graph.shared.SharedCSR`) under ``spawn`` and
    ``forkserver`` — every start method gets real multi-process fan-out
    with the same no-copy, no-per-job-pickling behaviour.  Segments are
    unlinked deterministically when the stream finishes (an ``atexit``
    guard covers abandoned streams).

    Dispatch is **work-stealing**: the scheduler plane
    (:mod:`repro.engine.scheduler`) orders jobs into fine-grained units
    and the pool's shared task queue hands the next undispatched unit to
    whichever worker finishes first, so placement adapts to measured
    durations instead of trusting the estimates.  Units go out
    heaviest-first (LPT list scheduling) using estimates calibrated online
    by the backend's :class:`~repro.runtime.cost_model.CostModel`
    (seconds-per-work-unit learned per method and kernel from completed
    outcomes, within and across batches in a session).  Per-worker
    busy/idle/steal accounting accumulates on ``backend.dispatch``.

    A one-shot batch (:meth:`PoolBackend.stream`, behind
    ``BatchEngine.run``/``map``) opens a pool of ``workers`` only once it
    can repay it: its jobs run in-process, in job order, each folded into
    the cost model, until the jobs left project past
    :data:`~repro.engine.scheduler.POOL_BREAK_EVEN_SECONDS` of in-process
    time (:func:`~repro.engine.scheduler.pool_pays`); a batch that never
    does finishes in-process, with identical results and no pool started.
    That constant was measured only with ``workers=2`` under ``fork`` on
    a 2-vCPU host.  Sessions (``open_session()``, and so the serving
    plane) always pool.

    Units execute out of order across workers, but every outcome carries
    its original index and the stream re-emits them **in job order**, so
    reducers in the parent observe the identical deterministic stream the
    serial backend produces.  Re-ordering buffers completed outcomes
    until their index is next; units are not contiguous, so that buffer
    can, in the worst case, approach the batch size — prefer
    ``include_vectors=False`` for huge batches (outcomes shrink to
    counters + sweep).
    """

    folds_into_tracker = False

    def __init__(
        self,
        workers: int | None = None,
        start_method: str | None = None,
    ) -> None:
        available = multiprocessing.get_all_start_methods()
        if start_method is None:
            start_method = os.environ.get(START_METHOD_ENV) or None
        if start_method is None:
            start_method = "fork" if "fork" in available else available[0]
        if start_method not in available:
            raise ValueError(
                f"start method {start_method!r} unavailable; choose from {available}"
            )
        self.workers = max(1, workers if workers is not None else (os.cpu_count() or 1))
        self.start_method = start_method
        # Session-scoped learning and accounting: the cost model calibrates
        # estimates from completed outcomes (within and across batches) and
        # the dispatch stats accumulate per-worker busy/idle/steal counts.
        self.cost_model = CostModel()
        self.dispatch = DispatchStats()

    def _graph_payload(self, graph: CSRGraph) -> "tuple[tuple, SharedCSR | None]":
        """(initializer payload, owning SharedCSR to unlink — or None)."""
        if self.start_method == "fork":
            return ("fork", graph.offsets, graph.neighbors), None
        shared = graph.share()
        return ("shared", shared.handle()), shared

    def open_session(
        self,
        graph: CSRGraph,
        parallel: bool = True,
        include_vectors: bool = True,
    ) -> PoolSession:
        """Start the pool and export the graph once; see :class:`PoolSession`."""
        return PoolSession(self, graph, parallel, include_vectors)

    def _one_shot_gate(
        self, jobs: Sequence[DiffusionJob]
    ) -> Callable[[JobOutcome], bool]:
        """Fold each in-process outcome into the cost model and re-project
        the jobs left from the mean seconds per job measured so far; pool
        them once :func:`~repro.engine.scheduler.pool_pays`."""
        model = self.cost_model
        seconds = 0.0

        def gate(outcome: JobOutcome) -> bool:
            nonlocal seconds
            observe_outcome(model, outcome)
            seconds += outcome.wall_seconds
            done = outcome.index + 1
            return pool_pays(seconds, done, len(jobs) - done)

        return gate


class BatchEngine:
    """Front door of the batch subsystem: jobs in, reduced results out.

    Parameters
    ----------
    graph:
        The (read-only) graph every job runs against — a plain
        :class:`~repro.graph.csr.CSRGraph`, or an
        :class:`~repro.graph.evolving.EvolvingGraph` version chain (the
        ``graph_version`` knob selects which version is executed).
    backend:
        A backend name, a prebuilt backend instance, or ``None`` to infer
        one (see :class:`repro.core.options.EngineOptions`).
    options:
        The whole configuration as one
        :class:`~repro.core.options.EngineOptions` record.
    **knobs:
        The same configuration as loose keywords — ``workers``,
        ``parallel``, ``include_vectors``, ``cache``, ``start_method``,
        ``kernel``, ``graph_version``.
        :class:`~repro.core.options.EngineOptions` documents each one.
        Setting any of them next to ``options`` raises ``ValueError``.

    A tracking engine (``graph_version=None`` on an evolving graph) binds
    to the latest version at construction; once the chain advances, every
    dispatch raises a :class:`~repro.core.options.RequestError` (code
    409) naming both versions instead of silently answering against stale
    edges.  Recover with :meth:`at_version` (shares this engine's backend
    and cache).  An evolving engine stores its :class:`GraphVersion`, not
    the CSR: :attr:`graph` resolves through the version when a session
    opens, so an engine never keeps a version's CSR alive after the chain
    has dropped it.

    >>> from repro.graph import barbell_graph
    >>> from repro.engine import BatchEngine, DiffusionJob
    >>> engine = BatchEngine(barbell_graph(8))
    >>> [o.size for o in engine.run([DiffusionJob.make(0), DiffusionJob.make(15)])]
    [8, 8]
    """

    def __init__(
        self,
        graph: "CSRGraph | EvolvingGraph",
        backend: "str | PoolBackend | None" = None,
        options: "EngineOptions | None" = None,
        **knobs: Any,
    ) -> None:
        from ..cache import CachingBackend, resolve_cache
        from ..core.options import EngineOptions
        from ..graph.evolving import EvolvingGraph

        options = EngineOptions.coerce(options, backend=backend, **knobs)
        if isinstance(graph, EvolvingGraph):
            self.evolving: "EvolvingGraph | None" = graph
            self.graph_version = (
                None if options.graph_version is None else int(options.graph_version)
            )
            self.version: "GraphVersion | None" = graph.at(self.graph_version)
            self._graph: "CSRGraph | None" = None
        else:
            if options.graph_version is not None:
                raise ValueError(
                    "graph_version= selects a version of an EvolvingGraph; "
                    "this engine was given a plain CSRGraph"
                )
            self.evolving = None
            self.graph_version = None
            self.version = None
            self._graph = graph
        self.parallel = options.parallel
        self.include_vectors = options.include_vectors
        self.kernel = options.kernel
        chosen = options.resolved_backend()
        if chosen == "serial":
            self.backend: PoolBackend = SerialBackend()
        elif chosen == "process":
            self.backend = ProcessPoolBackend(
                workers=options.workers, start_method=options.start_method
            )
        else:  # a prebuilt instance; validate() rejected any knob it would ignore
            self.backend = chosen
        cache = resolve_cache(options.cache)
        if cache is not None and not isinstance(self.backend, CachingBackend):
            self.backend = CachingBackend(self.backend, cache)

    @property
    def graph(self) -> CSRGraph:
        """The CSR this engine executes against (its version's, if evolving)."""
        return self._graph if self.version is None else self.version.graph

    @property
    def workers(self) -> int:
        return self.backend.workers

    @property
    def cache(self) -> "ResultCache | None":
        """The engine's result cache, or ``None`` when caching is off."""
        return getattr(self.backend, "cache", None)

    @property
    def _inner_backend(self) -> "PoolBackend":
        """The execution backend under any caching wrapper."""
        return getattr(self.backend, "inner", self.backend)

    @property
    def dispatch_stats(self) -> "DispatchStats | None":
        """Work-stealing dispatch accounting, or ``None`` for in-process
        backends (which have no workers to account for)."""
        return getattr(self._inner_backend, "dispatch", None)

    @property
    def cost_model(self) -> "CostModel | None":
        """The backend's online cost calibration, or ``None`` for
        backends that do not own one (serial)."""
        return getattr(self._inner_backend, "cost_model", None)

    def _check_fresh(self) -> None:
        """Raise when a *tracking* engine's evolving graph has advanced.

        Pinned engines (explicit ``graph_version=``) and plain-graph
        engines never raise.  The error is a
        :class:`~repro.core.options.RequestError` with code 409
        ("conflict": the request was well-formed but the bound state
        moved) naming both versions and their fingerprints, so callers
        can tell *which* superseded edge set they were about to read.
        """
        if self.evolving is None or self.graph_version is not None:
            return
        assert self.version is not None
        latest = self.evolving.latest
        if latest.version == self.version.version:
            return
        from ..core.options import RequestError

        raise RequestError(
            "graph_version",
            f"engine tracks the evolving graph but is bound to version "
            f"{self.version.version} (fingerprint {self.version.fingerprint()[:12]}); "
            f"the chain has advanced to version {latest.version} "
            f"(fingerprint {latest.fingerprint()[:12]}). Rebuild with "
            "engine.at_version(...) or pin graph_version= to keep answering "
            "against the old edges.",
            code=409,
        )

    def at_version(self, version: int | None = None) -> "BatchEngine":
        """A sibling engine pinned to ``version`` of the same evolving graph.

        The sibling *shares this engine's backend instance* — and
        therefore its cache, cost model and dispatch accounting — so
        switching versions costs one constructor call, not a pool
        restart.  ``version=None`` pins to the chain's current latest.
        This is how the serving plane follows updates: one engine per
        admitted version, all over one backend.
        """
        if self.evolving is None:
            raise ValueError(
                "at_version() requires an engine built on an EvolvingGraph"
            )
        if version is None:
            version = self.evolving.latest.version
        return BatchEngine(
            self.evolving,
            backend=self.backend,
            parallel=self.parallel,
            include_vectors=self.include_vectors,
            kernel=self.kernel,
            graph_version=version,
        )

    def open_session(self) -> ExecutionSession:
        """A session serving *consecutive batches* on one prepared backend.

        For the process backend this starts the pool and exports the graph
        exactly once; every ``session.run(jobs)`` after that reuses both.
        This is the primitive the serving plane
        (:class:`repro.serve.DiffusionService`) multiplexes clients onto.
        Close the session (it is a context manager) to tear the pool down.
        The session stamps this engine's ``kernel`` default onto jobs, and
        one opened by a tracking evolving engine refuses to answer against
        superseded edges once the chain advances.
        """
        self._check_fresh()
        session = self.backend.open_session(self.graph, self.parallel, self.include_vectors)
        session._kernel = self.kernel
        if self.evolving is not None and self.graph_version is None:
            session._tracking = self
        return session

    def map(self, jobs: Iterable[DiffusionJob]) -> Iterator[JobOutcome]:
        """Stream outcomes in job order (lazy; see :meth:`run` to reduce)."""
        self._check_fresh()
        return self.backend.stream(
            self.graph, jobs, self.parallel, self.include_vectors, self.kernel
        )

    def run(
        self,
        jobs: Iterable[DiffusionJob],
        reducer: Reducer | Sequence[Reducer] | None = None,
    ) -> Any:
        """Execute ``jobs`` and fold outcomes through ``reducer``.

        With no reducer, returns the list of outcomes.  With a sequence of
        reducers, every outcome is offered to each and a tuple of finals
        is returned — one pass over the batch, several aggregates out.
        For non-serial backends the batch's aggregate cost profile (work
        summed over jobs, depth the max over jobs — the independent-jobs
        composition rule) is recorded against any active tracker; cache
        hits are excluded, since a replayed outcome performs no diffusion
        work in this run.
        """
        single = reducer is None or isinstance(reducer, Reducer)
        reducers: list[Reducer] = (
            [reducer if reducer is not None else CollectReducer()]
            if single
            else list(reducer)  # type: ignore[arg-type]
        )
        total_work = 0.0
        max_depth = 0.0
        for outcome in self.map(jobs):
            if not outcome.cached:
                total_work += outcome.work
                max_depth = max(max_depth, outcome.depth)
            for item in reducers:
                item.update(outcome)
        if not self.backend.folds_into_tracker:
            record(work=total_work, depth=max_depth, category="engine")
        finals = tuple(item.finalize() for item in reducers)
        return finals[0] if single else finals


def resolve_engine(
    graph: "CSRGraph | EvolvingGraph",
    engine: "BatchEngine | str | PoolBackend | None" = None,
    options: "EngineOptions | None" = None,
    **knobs: Any,
) -> BatchEngine:
    """Normalise the ``engine=`` argument accepted by the high-level APIs.

    ``engine`` may be a ready :class:`BatchEngine`, returned as-is: it
    keeps its own configuration, so ``options`` or any knob set next to it
    raises ``ValueError`` (it would be silently ignored).  A ready engine
    must target a graph whose *content* matches ``graph``: the fast path
    accepts the identical object, otherwise the CSR fingerprints are
    compared, so an engine built for a content-identical copy (say, the
    same graph reloaded from disk) is accepted.  Anything else — a backend
    name or instance, or ``None`` — builds a :class:`BatchEngine` from
    ``options``/``knobs`` (see :class:`repro.core.options.EngineOptions`).
    """
    from ..core.options import _given
    from ..graph.evolving import EvolvingGraph

    if not isinstance(engine, BatchEngine):
        return BatchEngine(graph, engine, options, **knobs)
    if isinstance(graph, EvolvingGraph):
        # Version chains are mutable containers, so identity is the only
        # safe match — two chains with equal snapshots diverge the moment
        # either applies an update.
        if engine.evolving is not graph:
            raise ValueError("engine was built for a different graph")
    elif engine.graph is not graph and engine.graph.fingerprint() != graph.fingerprint():
        raise ValueError("engine was built for a different graph")
    ignored = [*_given(knobs), *(["options"] if options is not None else [])]
    if ignored:
        raise ValueError(
            f"engine is already constructed; {', '.join(ignored)} would "
            "be silently ignored — configure them on the engine instead"
        )
    return engine
