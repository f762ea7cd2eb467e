"""The async serving plane: concurrent clients, one engine, one pool.

The paper pitches local clustering as an *interactive* primitive — "a data
analyst wants to quickly explore the properties of local clusters found in
a graph" — while its experiments are huge offline batches.  A production
deployment (the local-clustering services sketched in Fountoulakis/Gleich/
Mahoney's survey) needs both at once: long NCP-style batches and
sub-second interactive queries sharing one machine, one graph, one worker
pool.

:class:`DiffusionService` is that front-end.  Clients ``submit()`` /
``submit_many()`` :class:`~repro.engine.jobs.DiffusionJob`\\ s from any
asyncio coroutine and get one awaitable future per job.  A single drain
loop micro-batches queued submissions and runs each batch through **one
long-lived execution session**
(:meth:`repro.engine.BatchEngine.open_session`): the process pool starts
once, the graph is exported into shared memory once, and every batch after
that reuses both — no per-call pool start-up, no per-batch re-export.

The drain loop is work-conserving: it takes the next batch (up to
``max_batch`` jobs) as soon as a submission is queued and the previous
batch is done, and never waits for batch-mates.  Batches still form
under load, because batches run one at a time on the service's single
worker thread: whatever is submitted while one batch runs is queued and
rides the next.  A submission that reaches an idle service is dispatched
at once.

Scheduling is priority-aware.  Submissions carry a priority class
(``"interactive"`` or ``"bulk"``); every drained batch takes interactive
jobs first, in submission order, so an analyst's query entering behind a
10^4-job NCP backlog rides the *next* micro-batch instead of the queue's
tail.  Within each class order is FIFO, which is what keeps futures
resolving in submission order per client.  The scheduler plane's cost
estimates (:func:`repro.engine.scheduler.estimate_cost`) bound how much
bulk work one batch may admit (``max_batch_cost``), so a wall of expensive
bulk jobs cannot stretch the batch an interactive query is waiting behind.

Execution happens in a dedicated worker thread (sessions are blocking and
single-threaded); outcomes are resolved onto the event loop **as they
stream back in job order**, so an interactive future can resolve while the
same batch's bulk tail is still running.  Cancelled futures are skipped at
drain time (queued) or dropped at resolution time (in flight) — either
way the drain loop keeps going.

A service built on an :class:`~repro.graph.evolving.EvolvingGraph` also
serves **versions**.  Every submission is stamped with a graph version at
admission (an explicit ``graph_version=``, else the chain's current
latest); batches are homogeneous in version, oldest queued version first,
and each version executes through a session of its own pinned engine
sharing the one backend and result cache.  At most two such sessions are
open at once, so the service keeps no old version's graph alive.
``await service.update(...)`` appends a new version between batches —
in-flight and already-admitted queries still answer against the version
they were admitted under, and the cross-version cache migration
(:func:`repro.cache.advance_version`) carries unaffected entries forward
so the new version starts warm.

>>> import asyncio
>>> from repro.graph import barbell_graph
>>> from repro.serve import DiffusionService
>>> async def demo():
...     async with DiffusionService(barbell_graph(8)) as service:
...         outcome = await service.submit_query(0, eps=1e-5)
...         return outcome.size
>>> asyncio.run(demo())
8
"""

from __future__ import annotations

import asyncio
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable

from ..core.options import PRIORITIES, ClusterRequest, RequestError
from ..engine.executor import BatchEngine, ExecutionSession, JobOutcome, resolve_engine
from ..engine.jobs import DiffusionJob
from ..engine.scheduler import estimate_cost, observe_outcome
from ..runtime.cost_model import CostModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cache import MigrationStats
    from ..core.options import EngineOptions
    from ..core.result import ClusterResult
    from ..graph.csr import CSRGraph
    from ..graph.evolving import EvolvingGraph, GraphVersion

__all__ = ["DiffusionService", "ServiceStats", "ServiceClosed", "PRIORITIES"]


class ServiceClosed(RuntimeError):
    """Submitting to a service that is closing or closed."""


@dataclass
class ServiceStats:
    """Aggregate counters over the service's lifetime.

    ``steals``, ``busy_seconds`` and ``idle_seconds`` mirror the engine's
    work-stealing dispatch accounting (zero for pool-less backends);
    ``dispatch`` carries the full per-backend summary and
    ``cost_calibration`` the online cost model's per-(method, kernel)
    seconds-per-work-unit snapshot — both refreshed after every executed
    batch.
    """

    submitted: int = 0
    completed: int = 0
    failed: int = 0
    cancelled: int = 0
    batches: int = 0
    updates: int = 0
    cache_hits: int = 0
    steals: int = 0
    busy_seconds: float = 0.0
    idle_seconds: float = 0.0
    by_priority: dict[str, int] = field(default_factory=dict)
    dispatch: dict[str, float | int] | None = None
    cost_calibration: dict[str, dict[str, float]] = field(default_factory=dict)

    def describe(self) -> str:
        per_priority = " ".join(
            f"{name}={self.by_priority.get(name, 0)}" for name in PRIORITIES
        )
        return (
            f"submitted={self.submitted} ({per_priority}) "
            f"completed={self.completed} failed={self.failed} "
            f"cancelled={self.cancelled} batches={self.batches} "
            f"updates={self.updates} "
            f"cache_hits={self.cache_hits} steals={self.steals} "
            f"busy={self.busy_seconds:.3f}s idle={self.idle_seconds:.3f}s"
        )


@dataclass
class _Ticket:
    """One queued submission: the job, its future, and drain metadata.

    ``version`` is the graph version the job was *admitted* against
    (``None`` on a non-evolving service); the reply is computed on
    exactly that edge set even if the chain advances while the ticket
    is still queued.
    """

    job: DiffusionJob
    priority: str
    cost: float
    future: "asyncio.Future[JobOutcome]"
    version: int | None = None


class DiffusionService:
    """Asyncio front-end multiplexing clients onto one `BatchEngine` pool.

    Parameters
    ----------
    graph:
        The graph every query runs against.
    engine:
        A prebuilt :class:`repro.engine.BatchEngine`, a backend name or
        instance, or ``None``; see :func:`repro.engine.resolve_engine`.
    options, **knobs:
        The engine configuration, as one
        :class:`~repro.core.options.EngineOptions` record or as its loose
        keywords (``workers``, ``cache``, ``kernel``, ...); that class
        documents each knob.  With an
        :class:`~repro.graph.evolving.EvolvingGraph`, ``graph_version=``
        serves that version by default instead of following the chain's
        latest; requests may still pin any existing version explicitly,
        and ``update()`` keeps working.
    max_batch:
        Most jobs one micro-batch may carry (default 32).  A batch is
        whatever was queued while the previous batch ran, up to this
        many jobs.  Smaller batches mean lower interactive latency under
        bulk load, at some dispatch overhead.
    max_batch_cost:
        Optional cap on a batch's summed scheduler cost estimate
        (:func:`repro.engine.scheduler.estimate_cost` units).  A batch
        always admits at least one job; once the cap is exceeded the rest
        of the backlog waits for the next batch.  This is the knob that
        keeps micro-batches short — and interactive waits bounded — when
        the bulk backlog is made of expensive jobs.

    The service must be used from a single asyncio event loop.  Prefer the
    async-context-manager form (``async with DiffusionService(...) as s:``)
    — it pre-warms the pool on entry and drains + closes on exit.
    """

    #: prepared execution sessions kept open at once on an evolving
    #: service: the version currently draining plus one straggler.  A
    #: session pins real resources (a pool, shared-memory exports), so
    #: older versions close and reopen on demand instead of accumulating.
    _MAX_OPEN_SESSIONS = 2

    def __init__(
        self,
        graph: "CSRGraph | EvolvingGraph",
        engine: "BatchEngine | str | None" = None,
        *,
        options: "EngineOptions | None" = None,
        max_batch: int = 32,
        max_batch_cost: float | None = None,
        **knobs: Any,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_batch_cost is not None and max_batch_cost <= 0:
            raise ValueError("max_batch_cost must be positive")
        self.engine = resolve_engine(graph, engine, options, **knobs)
        self.max_batch = max_batch
        self.max_batch_cost = max_batch_cost
        self.stats = ServiceStats()
        #: the version chain being served, or ``None`` for a static graph.
        self.evolving: "EvolvingGraph | None" = self.engine.evolving
        #: what every submission's seeds are checked against; updates never
        #: add vertices, so no request has to resolve a version's CSR.
        self.num_vertices: int = (
            self.engine.graph if self.evolving is None else self.evolving
        ).num_vertices
        # Admission costs calibrate online.  A pool backend owns a model
        # (its session observes every outcome); pool-less backends get a
        # service-owned one fed from _resolve, so `max_batch_cost` tracks
        # measured seconds-per-work-unit either way.
        engine_model = self.engine.cost_model
        self._cost_model = engine_model if engine_model is not None else CostModel()
        self._observe_outcomes = engine_model is None
        self._queues: dict[str, deque[_Ticket]] = {p: deque() for p in PRIORITIES}
        # Sessions keyed by graph version (a single ``None`` key on a
        # non-evolving service); bounded by _MAX_OPEN_SESSIONS.
        self._sessions: "dict[int | None, ExecutionSession]" = {}
        self._executor: ThreadPoolExecutor | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._wakeup: asyncio.Event | None = None
        self._drain_task: "asyncio.Task[None] | None" = None
        self._closing = False
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def graph(self) -> "CSRGraph":
        """The CSR a query admitted now runs against."""
        if self.evolving is None:
            return self.engine.graph
        return self.evolving.at(self._admit_version(None)).graph

    @property
    def session(self) -> ExecutionSession | None:
        """The most recently opened execution session (``None`` before
        first use).  An evolving service may hold one per active version;
        this is the one opened last."""
        if not self._sessions:
            return None
        return next(reversed(list(self._sessions.values())))

    async def start(self) -> "DiffusionService":
        """Pre-warm the service: start the drain loop, pool and export now,
        so the first query does not pay them.  Optional — ``submit`` starts
        everything lazily.  A cached service starts its pool with the
        first cache miss instead, so all-hit traffic never starts one.

        If the pool cannot start (fd exhaustion, a full ``/dev/shm``),
        the service closes itself before re-raising: no drain task, no
        worker thread, and further submissions raise `ServiceClosed`.
        """
        self._ensure_running()
        loop = self._loop
        assert loop is not None and self._executor is not None
        try:
            await loop.run_in_executor(self._executor, self._open_session)
        except BaseException:
            await self.close()
            raise
        return self

    async def close(self) -> None:
        """Drain every queued submission, then shut the pool down.

        Safe to call more than once; after it returns no worker processes
        or shared-memory segments of this service remain.
        """
        self._closing = True
        if self._loop is None:  # never started — nothing to drain or stop
            self._closed = True
            return
        if self._wakeup is not None:
            self._wakeup.set()
        if self._drain_task is not None:
            await self._drain_task
            self._drain_task = None
        if self._executor is not None:
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(self._executor, self._close_session)
            self._executor.shutdown(wait=True)
            self._executor = None
        self._closed = True

    async def __aenter__(self) -> "DiffusionService":
        return await self.start()

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()

    def _ensure_running(self) -> None:
        """Bind to the running loop and start the drain task (idempotent)."""
        loop = asyncio.get_running_loop()
        if self._loop is None:
            self._loop = loop
            self._wakeup = asyncio.Event()
            self._executor = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-serve"
            )
            self._drain_task = loop.create_task(self._drain_loop())
        elif self._loop is not loop:
            raise RuntimeError(
                "DiffusionService is bound to another event loop; create one "
                "service per loop"
            )

    def _open_session(self, version: int | None = None) -> ExecutionSession:
        """Open (or reuse) the session for ``version`` — runs in the worker
        thread.  ``None`` resolves to the service's default version.

        Another version's session comes from a sibling engine pinned via
        :meth:`BatchEngine.at_version` (sharing the base engine's backend,
        cache and calibration).  The sibling is not kept: only the open
        sessions hold a version's graph, so a closed one frees it."""
        if self.evolving is not None and version is None:
            version = self._admit_version(None)
        session = self._sessions.get(version)
        if session is None:
            engine = (
                self.engine
                if version is None or version == self.engine.graph_version
                else self.engine.at_version(version)
            )
            session = engine.open_session()
            self._sessions[version] = session
            while len(self._sessions) > self._MAX_OPEN_SESSIONS:
                oldest = min(
                    key for key in self._sessions if key != version  # type: ignore[type-var]
                )
                self._sessions.pop(oldest).close()
        return session

    def _close_session(self) -> None:
        for session in self._sessions.values():
            session.close()
        self._sessions.clear()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self,
        job: DiffusionJob,
        priority: str = "interactive",
        graph_version: int | None = None,
    ) -> "asyncio.Future[JobOutcome]":
        """Queue one job; the returned future resolves to its `JobOutcome`.

        Invalid submissions (unknown method or priority, bad parameters,
        out-of-range seeds, a ``graph_version`` the chain does not have)
        raise ``ValueError`` here, synchronously —
        never from inside a worker, where one bad job would poison its
        whole micro-batch.  Cancelling the future withdraws a queued job;
        a job already in flight still runs, but its result is dropped.

        On an evolving service the job is stamped with a version *now* —
        ``graph_version`` if given, else the service's current default —
        and is answered against exactly that edge set even if ``update()``
        advances the chain before the job runs.
        """
        if self._closing or self._closed:
            raise ServiceClosed("service is closed; no further submissions")
        self._validate(job, priority)
        version = self._admit_version(graph_version)
        self._ensure_running()
        assert self._loop is not None and self._wakeup is not None
        future: "asyncio.Future[JobOutcome]" = self._loop.create_future()
        # The estimate instantiates the params dataclass again; only pay
        # for it when a cost cap will actually consult it at drain time.
        cost = (
            estimate_cost(job, self._cost_model)
            if self.max_batch_cost is not None
            else 0.0
        )
        ticket = _Ticket(
            job=job, priority=priority, cost=cost, future=future, version=version
        )
        self._queues[priority].append(ticket)
        self.stats.submitted += 1
        self.stats.by_priority[priority] = self.stats.by_priority.get(priority, 0) + 1
        self._wakeup.set()
        return future

    def submit_many(
        self, jobs: Iterable[DiffusionJob], priority: str = "bulk"
    ) -> "list[asyncio.Future[JobOutcome]]":
        """Queue a stream of jobs (bulk priority by default), one future each."""
        return [self.submit(job, priority=priority) for job in jobs]

    def submit_query(
        self,
        seeds: Any,
        method: str = "pr-nibble",
        rng: int = 0,
        priority: str = "interactive",
        kernel: str | None = None,
        graph_version: int | None = None,
        **params: Any,
    ) -> "asyncio.Future[JobOutcome]":
        """Convenience: build the job from loose (seeds, method, params).

        ``kernel=None`` (default) inherits the service's engine default;
        an explicit value overrides it for this query only.  Either way
        the result is bit-identical — the knob only changes speed.
        ``graph_version`` pins the query to one version of an evolving
        service's chain (``None`` admits against the current default).
        """
        job = DiffusionJob.make(seeds, method=method, params=params, rng=rng, kernel=kernel)
        return self.submit(job, priority=priority, graph_version=graph_version)

    async def cluster(
        self,
        seeds: Any,
        method: str = "pr-nibble",
        rng: int = 0,
        priority: str = "interactive",
        kernel: str | None = None,
        **params: Any,
    ) -> "ClusterResult":
        """One awaited query, returned as the high-level `ClusterResult`."""
        if not self.engine.include_vectors:
            raise ValueError(
                "rebuilding a ClusterResult needs the diffusion vectors; "
                "build the service with include_vectors=True"
            )
        outcome = await self.submit_query(
            seeds, method=method, rng=rng, priority=priority, kernel=kernel, **params
        )
        return outcome.to_cluster_result()

    async def update(
        self,
        insertions: Any = (),
        deletions: Any = (),
    ) -> "tuple[GraphVersion, MigrationStats | None]":
        """Apply one batched edge update to the served evolving graph.

        Appends a new version to the chain and migrates the result cache
        across it (:func:`repro.cache.advance_version` — entries whose
        recorded profile avoids the delta region are re-keyed to the new
        fingerprint; ``None`` when the service has no cache).  The call
        runs on the service's single worker thread, so it is serialized
        against batch execution: no batch ever observes a half-applied
        update.  Queries admitted before this call still answer against
        the version they were admitted under; queries admitted after it
        default to the new version (unless the service was pinned at
        construction).  Returns ``(new_version, migration_stats)``.
        """
        if self.evolving is None:
            raise ValueError(
                "update() requires a service built on an EvolvingGraph"
            )
        if self._closing or self._closed:
            raise ServiceClosed("service is closed; no further updates")
        self._ensure_running()
        loop = self._loop
        assert loop is not None and self._executor is not None
        return await loop.run_in_executor(
            self._executor, self._apply_update, insertions, deletions
        )

    def _apply_update(
        self, insertions: Any, deletions: Any
    ) -> "tuple[GraphVersion, MigrationStats | None]":
        """Worker-thread body of :meth:`update`."""
        assert self.evolving is not None
        version = self.evolving.apply_updates(
            insertions=insertions, deletions=deletions
        )
        stats = None
        cache = self.engine.cache
        if cache is not None:
            from ..cache import advance_version

            stats = advance_version(cache, version)
        self.stats.updates += 1
        return version, stats

    def _validate(self, job: DiffusionJob, priority: str) -> None:
        """One validation path with the wire and the CLI: lift the job into
        a :class:`~repro.core.options.ClusterRequest` and run its semantic
        checks.  Failures raise :class:`~repro.core.options.RequestError`
        (a ``ValueError``) carrying the *canonical* parameter name — e.g.
        ``params.alpha`` rather than an echo of raw kwargs — synchronously,
        never from inside a worker, where one bad job would poison its
        whole micro-batch.  Unknown/unavailable kernels fail here too
        (``KernelUnavailableError`` keeps its actionable message, carried
        under the ``kernel`` field)."""
        ClusterRequest.from_job(job, priority=priority).validate(
            num_vertices=self.num_vertices
        )

    def _admit_version(self, graph_version: int | None) -> int | None:
        """Resolve the version a submission is admitted against.

        ``None`` on a static service; on an evolving one, the explicit
        request, else the service's construction-time pin, else the
        chain's current latest.  A version the chain does not have is a
        404-coded :class:`~repro.core.options.RequestError` so wire
        clients get a structured reply rather than a stack trace.
        """
        if self.evolving is None:
            if graph_version is not None:
                raise RequestError(
                    "graph_version",
                    "this service serves a static graph; graph_version "
                    "requires a service built on an EvolvingGraph",
                )
            return None
        if graph_version is None:
            if self.engine.graph_version is not None:
                return self.engine.graph_version
            return self.evolving.latest.version
        try:
            self.evolving.at(int(graph_version))
        except ValueError as error:
            raise RequestError("graph_version", str(error), code=404) from None
        return int(graph_version)

    # ------------------------------------------------------------------
    # The drain loop
    # ------------------------------------------------------------------
    def _pending_count(self) -> int:
        return sum(len(queue) for queue in self._queues.values())

    async def _drain_loop(self) -> None:
        loop = self._loop
        wakeup = self._wakeup
        assert loop is not None and wakeup is not None
        while True:
            if self._pending_count() == 0:
                if self._closing:
                    return
                wakeup.clear()
                await wakeup.wait()
                continue
            batch = self._next_batch()
            if not batch:  # everything queued had been cancelled
                continue
            self.stats.batches += 1
            try:
                await loop.run_in_executor(
                    self._executor, self._execute_batch, loop, batch
                )
            except Exception as error:  # pool died, session broken, ...
                for ticket in batch:
                    if not ticket.future.done():
                        self.stats.failed += 1
                        ticket.future.set_exception(error)
            self._refresh_scheduler_stats()

    def _refresh_scheduler_stats(self) -> None:
        """Mirror the engine's dispatch accounting and the calibration
        snapshot onto :class:`ServiceStats` (after every batch)."""
        dispatch = self.engine.dispatch_stats
        if dispatch is not None:
            summary = dispatch.describe()
            self.stats.dispatch = summary
            self.stats.steals = int(summary["steals"])
            self.stats.busy_seconds = float(summary["busy_seconds"])
            self.stats.idle_seconds = float(summary["idle_seconds"])
        self.stats.cost_calibration = self._cost_model.snapshot()

    def _next_version(self) -> int | None:
        """The graph version the next batch targets: the *oldest* version
        still queued, so pinned stragglers drain before the chain's head
        and cannot be starved by a fast-advancing update stream."""
        versions = [
            ticket.version
            for queue in self._queues.values()
            for ticket in queue
            if not ticket.future.done() and ticket.version is not None
        ]
        return min(versions) if versions else None

    def _next_batch(self) -> list[_Ticket]:
        """Compose the next micro-batch: interactive first, FIFO within
        each class, bounded by ``max_batch`` jobs and (optionally) by the
        summed scheduler cost estimate.  Batches are **homogeneous in
        graph version** (an execution session is bound to one edge set);
        tickets for other versions are skipped in place and keep their
        queue order for a later batch."""
        batch: list[_Ticket] = []
        cost = 0.0
        target = self._next_version()
        full = False
        for priority in PRIORITIES:
            queue = self._queues[priority]
            kept: list[_Ticket] = []
            while queue and not full and len(batch) < self.max_batch:
                ticket = queue.popleft()
                if ticket.future.done():  # cancelled while queued
                    self.stats.cancelled += 1
                    continue
                if ticket.version != target:
                    kept.append(ticket)
                    continue
                if (
                    self.max_batch_cost is not None
                    and batch
                    and cost + ticket.cost > self.max_batch_cost
                ):
                    kept.append(ticket)
                    full = True
                    continue
                batch.append(ticket)
                cost += ticket.cost
            queue.extendleft(reversed(kept))
        return batch

    def _execute_batch(
        self, loop: asyncio.AbstractEventLoop, batch: list[_Ticket]
    ) -> None:
        """Worker-thread body: run one batch through the persistent session,
        resolving each future onto the loop as its outcome streams back.

        Outcomes arrive in job order, and interactive tickets sit at the
        front of every batch — so an interactive future resolves as soon
        as its own job is done, not when the batch's bulk tail finishes.
        """
        session = self._open_session(batch[0].version)
        for ticket, outcome in zip(batch, session.run(t.job for t in batch)):
            loop.call_soon_threadsafe(self._resolve, ticket, outcome)

    def _resolve(self, ticket: _Ticket, outcome: JobOutcome) -> None:
        if outcome.cached:
            self.stats.cache_hits += 1
        elif self._observe_outcomes:
            # Pool backends observe inside their session; for pool-less
            # backends the service feeds its own model here so admission
            # costs still calibrate across batches.
            observe_outcome(self._cost_model, outcome)
        if ticket.future.done():  # cancelled while in flight
            self.stats.cancelled += 1
            return
        self.stats.completed += 1
        ticket.future.set_result(outcome)
