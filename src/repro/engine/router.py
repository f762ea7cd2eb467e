"""Shard-routed execution: place each job on the shard(s) owning its seeds.

The scale axis this backend opens is *memory*, not cores: the paper's
locality argument (a diffusion's work is bounded by O(1/(eps*alpha))
pushes, independent of graph size) means most jobs read one small region
of the CSR — so an executor does not need the whole graph resident to
serve them.  :class:`ShardRouter` runs every batch against a
:class:`~repro.graph.sharded.ShardedCSR`:

* **Placement** — jobs are grouped by their *home*: the sorted tuple of
  shards owning their seed vertices (:meth:`ShardMap.shards_of`).  Groups
  execute heaviest-first by the scheduler plane's cost estimates
  (:func:`~repro.engine.scheduler.estimate_cost` — the same PR-3 cost
  model that balances process-pool chunks), so the expensive region of a
  batch is in flight first and shard attach/detach churn is paid once per
  group, not once per job.
* **Lazy attach** — each group runs on one
  :class:`~repro.graph.sharded.ShardedGraphView` that starts from nothing
  resident and faults shards in as pushes cross shard boundaries.
  ``max_resident_shards`` caps the view's mapped set (LRU detach), which
  is what bounds the process's resident graph memory.
* **Spill fallback** — ``spill_shards`` bounds how many distinct shards
  one diffusion may touch; a job that crosses it raises
  :class:`~repro.graph.sharded.ShardSpill` and is re-run against the
  whole graph.  Either path produces bit-identical outcomes (lazy attach
  never approximates; determinism lives in the job, not the placement),
  so spilling is purely a memory/latency trade.

Outcomes are re-emitted **in job order** regardless of group order — the
engine-wide deterministic stream contract — and the router participates
in the session protocol (:class:`RouterSession`: one sharded export
serving consecutive batches), so the serving plane and the result cache
compose with it unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

from ..graph.csr import CSRGraph
from ..graph.sharded import ShardedCSR, ShardSpill
from .executor import ExecutionSession, JobOutcome, PoolBackend, run_job
from .jobs import DiffusionJob
from .scheduler import estimate_cost

__all__ = ["ShardRouter", "RouterSession", "RouterStats", "plan_placement"]


@dataclass
class RouterStats:
    """Per-session routing counters (diagnostics; never affect results).

    ``spills`` counts jobs escalated to whole-graph execution; the partial
    work a spilled attempt recorded before escalating still folds into any
    active tracker, so cost profiles of heavily spilling batches read
    slightly high — by design, that work really happened.
    """

    jobs: int = 0
    groups: int = 0
    spills: int = 0
    lazy_attaches: int = 0
    detaches: int = 0
    halo_hits: int = 0
    halo_misses: int = 0
    halo_evictions: int = 0
    jobs_per_home: dict[tuple[int, ...], int] = field(default_factory=dict)

    def describe(self) -> str:
        return (
            f"jobs={self.jobs} groups={self.groups} spills={self.spills} "
            f"attaches={self.lazy_attaches} detaches={self.detaches} "
            f"halo_hits={self.halo_hits} halo_misses={self.halo_misses}"
        )


def plan_placement(
    jobs: Sequence[DiffusionJob], sharded: ShardedCSR
) -> list[tuple[tuple[int, ...], list[tuple[int, DiffusionJob]]]]:
    """Group ``(index, job)`` pairs by home shard set, heaviest group first.

    The home of a job is the sorted distinct shards owning its seeds — a
    single shard for almost every query, several for a seed set spanning a
    cut.  Groups are ordered by summed :func:`estimate_cost` descending
    (ties broken by home tuple) so the batch's expensive region starts
    immediately, mirroring the scheduler plane's longest-first rule.
    """
    groups: dict[tuple[int, ...], list[tuple[int, DiffusionJob]]] = {}
    costs: dict[tuple[int, ...], float] = {}
    for index, job in enumerate(jobs):
        home = sharded.map.shards_of(job.seeds)
        groups.setdefault(home, []).append((index, job))
        costs[home] = costs.get(home, 0.0) + estimate_cost(job)
    return sorted(groups.items(), key=lambda item: (-costs[item[0]], item[0]))


class RouterSession(ExecutionSession):
    """One sharded export serving consecutive shard-routed batches.

    Created by :meth:`ShardRouter.open_session`: the graph is partitioned
    and exported into per-shard shared-memory segments exactly once;
    every ``run(jobs)`` plans placement and streams outcomes in job
    order.  ``close()`` unlinks all shard segments deterministically.
    """

    def __init__(
        self,
        backend: "ShardRouter",
        graph: CSRGraph,
        parallel: bool,
        include_vectors: bool,
    ) -> None:
        super().__init__(backend, graph, parallel, include_vectors)
        self.sharded = ShardedCSR.create(graph, shards=backend.shards)
        self.stats = RouterStats()

    def _run(self, jobs: Sequence[DiffusionJob]) -> Iterator[JobOutcome]:
        backend: "ShardRouter" = self.backend  # type: ignore[assignment]
        placement = plan_placement(jobs, self.sharded)
        pending: dict[int, JobOutcome] = {}
        next_index = 0
        for home, members in placement:
            self.stats.groups += 1
            self.stats.jobs_per_home[home] = (
                self.stats.jobs_per_home.get(home, 0) + len(members)
            )
            view = self.sharded.view(
                max_resident=backend.max_resident_shards,
                spill_shards=backend.spill_shards,
                halo_bytes=backend.halo_bytes,
            )
            try:
                for index, job in members:
                    view.reset_spill()
                    try:
                        outcome = run_job(
                            view,
                            job,
                            index=index,
                            parallel=self.parallel,
                            include_vector=self.include_vectors,
                        )
                    except ShardSpill:
                        # The job's support outgrew its spill threshold:
                        # re-run against the whole graph.  Same job, same
                        # rng, same algorithms — bit-identical outcome.
                        self.stats.spills += 1
                        outcome = run_job(
                            self.graph,
                            job,
                            index=index,
                            parallel=self.parallel,
                            include_vector=self.include_vectors,
                        )
                    self.stats.jobs += 1
                    pending[index] = outcome
            finally:
                self.stats.lazy_attaches += view.attaches
                self.stats.detaches += view.detaches
                self.stats.halo_hits += view.halo_hits
                self.stats.halo_misses += view.halo_misses
                self.stats.halo_evictions += view.halo_evictions
                view.close()
            while next_index in pending:
                yield pending.pop(next_index)
                next_index += 1

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.sharded.unlink()


class ShardRouter(PoolBackend):
    """In-process backend executing every batch through the sharded plane.

    Parameters
    ----------
    shards:
        How many contiguous vertex-range shards to partition the graph
        into (volume-balanced; see
        :func:`repro.graph.sharded.plan_boundaries`).
    max_resident_shards:
        Cap on shards a view keeps mapped at once (LRU detach beyond it).
        ``None`` keeps every touched shard resident.  ``1`` is the
        strictest memory mode: peak resident graph memory is one shard.
    spill_shards:
        Distinct-shards-per-job threshold beyond which a diffusion is
        escalated to whole-graph execution.  ``None`` (default) never
        spills — every job is served purely by lazy attach.
    halo_bytes:
        Byte budget of each view's halo cache (hot boundary-vertex rows
        served without attaching the neighbour shard; see
        :class:`~repro.graph.sharded.ShardedGraphView`).  ``None``
        (default) keeps the view's default budget; ``0`` disables it.

    The router is deliberately serial in-process in this release (one
    worker, ``folds_into_tracker=True``): it scales *memory*, and
    composes with the result cache (``BatchEngine(cache=...)``) and the
    serving plane's sessions exactly like the other backends.  Fanning
    shard groups out across a pool is the ROADMAP follow-on.
    """

    folds_into_tracker = True
    workers = 1

    def __init__(
        self,
        shards: int = 4,
        max_resident_shards: int | None = None,
        spill_shards: int | None = None,
        halo_bytes: int | None = None,
    ) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if max_resident_shards is not None and max_resident_shards < 1:
            raise ValueError("max_resident_shards must be >= 1")
        if spill_shards is not None and spill_shards < 1:
            raise ValueError("spill_shards must be >= 1")
        if halo_bytes is not None and halo_bytes < 0:
            raise ValueError("halo_bytes must be >= 0")
        self.shards = shards
        self.max_resident_shards = max_resident_shards
        self.spill_shards = spill_shards
        self.halo_bytes = halo_bytes

    def open_session(
        self,
        graph: CSRGraph,
        parallel: bool = True,
        include_vectors: bool = True,
    ) -> RouterSession:
        """Partition + export the graph once; see :class:`RouterSession`."""
        return RouterSession(self, graph, parallel, include_vectors)
