"""The caching execution backend: dispatch misses, replay hits, in order.

:class:`CachingBackend` wraps any engine backend (serial or process
pool) behind the same session protocol the
:class:`~repro.engine.executor.BatchEngine` consumes.  For each batch its
:class:`CachingSession`

1. computes every job's :class:`~repro.cache.keys.CacheKey` against the
   graph's content fingerprint,
2. answers hits straight from the :class:`~repro.cache.store.ResultCache`,
3. coalesces jobs whose key matches an identical job *earlier in the same
   batch* (overlapping grids issue these constantly) so each distinct
   query diffuses at most once, and
4. sends only the remaining misses to the wrapped backend — as one
   sub-batch, so a process pool still amortises its start-up over all of
   them — storing each outcome as it streams back.  A one-shot batch
   (``BatchEngine.run``/``map``) sends them down the wrapped backend's
   own one-shot path, which runs a sub-batch too short to repay a pool
   in-process; a session (the serving plane, ``open_session()``) keeps
   one inner session, and so one pool, across its batches.

Outcomes are yielded strictly in job order, with the requesting job (tag
included) and its batch index re-attached, so every reducer observes the
exact stream an uncached run would have produced and the engine's
bit-identical determinism contract survives caching.  Replayed outcomes
carry ``cached=True``; the engine excludes them from the batch's recorded
work-depth cost, because a hit performs no diffusion work.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Callable, Generator, Iterable, Iterator, Sequence

from ..engine.executor import ExecutionSession, PoolBackend
from .keys import CacheKey, cache_key_for
from .store import ResultCache

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine.executor import JobOutcome
    from ..engine.jobs import DiffusionJob
    from ..graph.csr import CSRGraph

__all__ = ["CachingBackend", "CachingSession"]

_MISS = object()
_COALESCED = object()


def _cached_batch(
    cache: ResultCache,
    fingerprint: str,
    jobs: Sequence["DiffusionJob"],
    parallel: bool,
    include_vectors: bool,
    dispatch: Callable[[list["DiffusionJob"]], Iterable["JobOutcome"]],
) -> Iterator["JobOutcome"]:
    """Serve one batch: replay hits, coalesce duplicates, dispatch misses.

    The body of :class:`CachingSession`'s dispatch: ``dispatch`` receives
    the de-duplicated miss list and returns their outcomes in miss order.
    """
    keys = [cache_key_for(fingerprint, job, parallel, include_vectors) for job in jobs]

    # Plan the batch up front so the misses can be dispatched to the
    # wrapped backend as one sub-batch (one pool dispatch over all of
    # them) while hits and coalesced duplicates replay locally.
    plan: list[object] = []
    first_miss: dict[CacheKey, int] = {}
    pending_uses: dict[CacheKey, int] = {}
    miss_jobs: list["DiffusionJob"] = []
    for index, key in enumerate(keys):
        hit = cache.get(key)
        if hit is not None:
            plan.append(hit)
        elif key in first_miss:
            cache.count_coalesced()
            pending_uses[key] += 1
            plan.append(_COALESCED)
        else:
            first_miss[key] = index
            pending_uses[key] = 0
            miss_jobs.append(jobs[index])
            plan.append(_MISS)

    miss_stream = iter(dispatch(miss_jobs) if miss_jobs else ())
    # Outcomes of misses that identical later jobs are waiting on are
    # pinned here until their last duplicate is served, so coalescing
    # survives even an eviction racing the batch.
    pinned: dict[CacheKey, "JobOutcome"] = {}
    for index, (job, key) in enumerate(zip(jobs, keys)):
        step = plan[index]
        if step is _MISS:
            outcome = replace(next(miss_stream), index=index, job=job, cached=False)
            cache.put(key, outcome)
            if pending_uses[key] > 0:
                pinned[key] = outcome
        elif step is _COALESCED:
            outcome = replace(pinned[key], index=index, job=job, cached=True)
            pending_uses[key] -= 1
            if pending_uses[key] == 0:
                del pinned[key]
        else:  # a cache hit, replayed with the requesting job attached
            outcome = replace(step, index=index, job=job, cached=True)
        yield outcome


class CachingSession(ExecutionSession):
    """Hits replay; misses go to one inner session across consecutive
    batches (one pool + one graph export), opened with the first miss —
    so an all-hit batch never starts a pool.  This is what lets the
    serving plane answer hot interactive queries without touching the
    pool at all.  ``batches`` counts the batches that had misses.

    A ``one_shot`` session (what :meth:`PoolBackend.stream` opens for one
    cached batch) opens no inner session: its misses take the inner
    backend's own one-shot stream, so a short miss list runs in-process
    exactly as the same batch uncached would."""

    def __init__(
        self,
        backend: "CachingBackend",
        graph: "CSRGraph",
        parallel: bool,
        include_vectors: bool,
        one_shot: bool = False,
    ) -> None:
        super().__init__(backend, graph, parallel, include_vectors)
        self.cache = backend.cache
        self.one_shot = one_shot
        self.inner: ExecutionSession | None = None
        self._inner_stream: "Generator[JobOutcome, None, None] | None" = None

    def _dispatch(self, jobs: Sequence["DiffusionJob"]) -> Iterator["JobOutcome"]:
        # Misses take the base _dispatch (counted in ``batches``), whose
        # _run below forwards them to the inner session.
        return _cached_batch(
            self.cache,
            self.graph.fingerprint(),
            jobs,
            self.parallel,
            self.include_vectors,
            super()._dispatch,
        )

    def _run(self, jobs: Sequence["DiffusionJob"]) -> Iterator["JobOutcome"]:
        backend: CachingBackend = self.backend  # type: ignore[assignment]
        if self.one_shot:
            self._inner_stream = backend.inner.stream(  # type: ignore[assignment]
                self.graph, jobs, self.parallel, self.include_vectors
            )
            return self._inner_stream
        if self.inner is None:
            self.inner = backend.inner.open_session(
                self.graph, self.parallel, self.include_vectors
            )
        return self.inner.run(jobs)

    def close(self) -> None:
        super().close()
        if self.inner is not None:
            self.inner.close()
        if self._inner_stream is not None:
            self._inner_stream.close()  # tears down a pool it opened


class CachingBackend(PoolBackend):
    """Wrap an engine backend so only cache misses reach its workers."""

    def __init__(self, inner: PoolBackend, cache: ResultCache | None = None) -> None:
        self.inner = inner
        self.cache = cache if cache is not None else ResultCache()

    @property  # type: ignore[override]
    def workers(self) -> int:
        return self.inner.workers

    @property  # type: ignore[override]
    def folds_into_tracker(self) -> bool:
        return self.inner.folds_into_tracker

    def open_session(
        self,
        graph: "CSRGraph",
        parallel: bool = True,
        include_vectors: bool = True,
    ) -> CachingSession:
        """A session whose misses share one inner (pool) session."""
        return CachingSession(self, graph, parallel, include_vectors)

    def _one_shot_session(
        self, graph: "CSRGraph", parallel: bool, include_vectors: bool
    ) -> CachingSession:
        return CachingSession(self, graph, parallel, include_vectors, one_shot=True)
