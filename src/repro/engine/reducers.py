"""Reducers: streaming aggregation of batch-engine outcomes.

A batch run produces one :class:`~repro.engine.executor.JobOutcome` per
job, in job order, regardless of backend.  Reducers fold that stream into
the quantity the caller actually wants — the full outcome list, an NCP
profile, the single best cluster, or throughput statistics — without ever
holding more than one outcome's worth of extra state (except the
deliberately-collecting :class:`CollectReducer`).  This is what lets a
10^5-job NCP run stream through a process pool in bounded memory.

Reducers run in the *parent* process and see outcomes in deterministic job
order, so any reducer whose fold is order-sensitive still produces
identical results at every worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

from ..core.ncp import NCPResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .executor import JobOutcome

__all__ = [
    "Reducer",
    "CollectReducer",
    "NCPReducer",
    "BestClusterReducer",
    "BatchStats",
    "StatsReducer",
]


class Reducer:
    """Interface: ``update`` once per outcome (in job order), then ``finalize``."""

    def update(self, outcome: "JobOutcome") -> None:
        raise NotImplementedError

    def finalize(self) -> Any:
        raise NotImplementedError


class CollectReducer(Reducer):
    """Materialise every outcome — the default when no reducer is given."""

    def __init__(self) -> None:
        self.outcomes: list["JobOutcome"] = []

    def update(self, outcome: "JobOutcome") -> None:
        self.outcomes.append(outcome)

    def finalize(self) -> list["JobOutcome"]:
        return self.outcomes


class NCPReducer(Reducer):
    """Pointwise-minimum conductance per cluster size (Figure 12).

    Folds each job's sweep profile with exactly the rule of the historical
    serial loop in :func:`repro.core.ncp.ncp_profile`: every prefix of the
    sweep ordering contributes a (size, conductance) point, prefixes of
    conductance exactly 0 (whole connected components) are discarded, and
    jobs whose diffusion had empty support do not count as runs.
    """

    def __init__(self, max_size: int) -> None:
        if max_size < 1:
            raise ValueError("max_size must be >= 1")
        self.max_size = max_size
        self.best = np.full(max_size, np.inf, dtype=np.float64)
        self.runs = 0

    def update(self, outcome: "JobOutcome") -> None:
        if outcome.support_size == 0 or outcome.sweep is None:
            return
        self.runs += 1
        count = min(len(outcome.sweep.order), self.max_size)
        phis = outcome.sweep.conductances[:count]
        valid = phis > 0.0
        np.minimum.at(self.best, np.flatnonzero(valid), phis[valid])

    def finalize(self) -> NCPResult:
        return NCPResult(max_size=self.max_size, conductance=self.best, runs=self.runs)


class BestClusterReducer(Reducer):
    """Keep the single lowest-conductance outcome across the whole batch.

    Ties break towards the earlier job, so the winner is deterministic.
    ``finalize`` returns the winning outcome (or ``None`` if every job had
    empty support).
    """

    def __init__(self) -> None:
        self.best: "JobOutcome | None" = None

    def update(self, outcome: "JobOutcome") -> None:
        if outcome.sweep is None:
            return
        if self.best is None or outcome.conductance < self.best.conductance:
            self.best = outcome

    def finalize(self) -> "JobOutcome | None":
        return self.best


@dataclass
class BatchStats:
    """Aggregate counters of one batch run (the throughput report).

    The work counters (``total_pushes``, ``total_touched_edges``,
    ``total_work``, ``max_depth``, ``job_seconds``) describe diffusion
    work performed *in this run*: outcomes replayed from the result cache
    are tallied in ``cache_hits`` but excluded from the work counters,
    because a replay carries the counters of the **original** execution
    and performed no diffusion here — the same exclusion rule
    :meth:`repro.engine.BatchEngine.run` applies to the recorded
    work-depth cost.

    ``warmup_seconds`` tallies one-time kernel preparation (a C build
    probe) separately, by the same logic: ``run_job``
    starts its timer *after* :func:`repro.kernels.ensure_warm`, so
    ``job_seconds`` is a steady-state measurement and the compile cost is
    reported here instead of silently inflating the first job.

    ``dispatch`` and ``cost_calibration`` are attached when the reducer
    was built with ``engine=``: the backend's work-stealing accounting
    (per-worker busy/idle seconds and steal counts, as
    ``DispatchStats.describe()``) and the online cost model's per-key
    seconds-per-work-unit snapshot.  ``None`` for backends without a
    pool (serial).
    """

    jobs: int = 0
    completed: int = 0
    cache_hits: int = 0
    total_pushes: int = 0
    total_touched_edges: int = 0
    total_work: float = 0.0
    max_depth: float = 0.0
    job_seconds: float = 0.0
    warmup_seconds: float = 0.0
    by_method: dict[str, int] = field(default_factory=dict)
    dispatch: dict[str, float | int] | None = None
    cost_calibration: dict[str, dict[str, float]] | None = None

    def jobs_per_second(self, wall_seconds: float) -> float:
        """Batch throughput given the *wall* time of the run (not the sum
        of per-job times, which overcounts under a process pool)."""
        return self.jobs / wall_seconds if wall_seconds > 0 else float("inf")


class StatsReducer(Reducer):
    """Accumulate :class:`BatchStats` over the outcome stream.

    Pass ``engine=`` to also capture the engine's scheduler diagnostics at
    ``finalize`` time: work-stealing dispatch accounting and the online
    cost-calibration snapshot (both ``None`` for pool-less backends).
    """

    def __init__(self, engine: Any | None = None) -> None:
        self.stats = BatchStats()
        self._engine = engine

    def update(self, outcome: "JobOutcome") -> None:
        stats = self.stats
        stats.jobs += 1
        if outcome.support_size > 0:
            stats.completed += 1
        method = outcome.job.method
        stats.by_method[method] = stats.by_method.get(method, 0) + 1
        if outcome.cached:
            # A cache replay echoes the original run's counters; folding
            # them in would inflate this run's work totals.
            stats.cache_hits += 1
            return
        stats.total_pushes += outcome.pushes
        stats.total_touched_edges += outcome.touched_edges
        stats.total_work += outcome.work
        stats.max_depth = max(stats.max_depth, outcome.depth)
        stats.job_seconds += outcome.wall_seconds
        stats.warmup_seconds += outcome.warmup_seconds

    def finalize(self) -> BatchStats:
        if self._engine is not None:
            dispatch = getattr(self._engine, "dispatch_stats", None)
            if dispatch is not None:
                self.stats.dispatch = dispatch.describe()
            model = getattr(self._engine, "cost_model", None)
            if model is not None:
                self.stats.cost_calibration = model.snapshot()
        return self.stats
