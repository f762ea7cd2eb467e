"""Work-depth accounting for parallel algorithm analysis.

The paper analyses every algorithm in the *work-depth model* (Section 2):
*work* is the total number of operations (equal to sequential running time)
and *depth* is the length of the longest chain of sequential dependencies.
By Brent's theorem an algorithm with work ``W`` and depth ``D`` runs in
``W/P + D`` time on ``P`` processors.

This module provides the instrumentation half of that model.  Every parallel
primitive in :mod:`repro.prims`, every Ligra operator in :mod:`repro.ligra`
and every algorithm in :mod:`repro.core` calls :func:`record` with the work
and depth it contributes, tagged with a *category* (``"edge_map"``,
``"sort"``, ``"hash"``, ...).  Categories matter because different kinds of
operations saturate a real multicore differently: a batch of scattered
fetch-and-adds contends on memory far more than independent random walks.
The companion :mod:`repro.runtime.machine` module turns a recorded profile
into simulated multicore running times.

Recording is active only inside a :func:`track` context; outside it,
:func:`record` is a no-op, so production use of the library pays only a
cheap context-variable lookup.

Example
-------
>>> from repro.runtime import track, record
>>> with track() as tracker:
...     record(work=100, depth=5, category="scan")
>>> tracker.work
100.0
>>> tracker.depth
5.0
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Iterator

__all__ = [
    "CategoryCost",
    "CostModel",
    "WorkDepthTracker",
    "track",
    "detached",
    "record",
    "current_tracker",
    "log2ceil",
    "ppr_push_work_bound",
    "truncated_iteration_work_bound",
    "random_walk_work_bound",
]


# ----------------------------------------------------------------------
# A-priori work bounds.  The tracker above measures cost *after* a run;
# these closed forms predict it *before* one, from parameters alone —
# the quantities the engine's scheduler orders steal units by.
# ----------------------------------------------------------------------
def ppr_push_work_bound(alpha: float, eps: float) -> float:
    """The paper's O(1/(eps*alpha)) bound on PR-Nibble push work.

    Section 3: the total number of push operations (and the volume of
    vertices touched) of approximate personalized PageRank is at most
    ``1/(eps*alpha)`` — the locality guarantee inherited from
    Andersen-Chung-Lang and Spielman-Teng's analysis.  Deterministic
    heat-kernel pushes obey the analogous ``degree/eps``-style bound, so
    the same form (with the method's effective ``alpha``) ranks them too.
    """
    if alpha <= 0.0 or eps <= 0.0:
        raise ValueError("alpha and eps must be positive")
    return 1.0 / (eps * alpha)


def truncated_iteration_work_bound(iterations: float, eps: float) -> float:
    """Work bound for truncation-thresholded iterative diffusions (Nibble).

    Each of the ``T`` iterations keeps only entries with ``p(v) >= d(v)*eps``,
    so the retained support has volume at most ``1/eps`` and the total work
    is O(T/eps) (Section 3's Nibble analysis).
    """
    if iterations < 1 or eps <= 0.0:
        raise ValueError("iterations must be >= 1 and eps positive")
    return float(iterations) / eps


def random_walk_work_bound(num_walks: float, walk_length: float) -> float:
    """Work bound for Monte-Carlo diffusions: N walks x max length K.

    rand-HK-PR simulates ``N`` independent random walks truncated at ``K``
    steps, for O(N*K) total work (Section 3.4) — independent of eps, which
    is why mixed batches need a method-aware estimate.
    """
    if num_walks < 1 or walk_length < 0:
        raise ValueError("num_walks must be >= 1 and walk_length >= 0")
    return float(num_walks) * max(float(walk_length), 1.0)


def log2ceil(n: float) -> float:
    """Return ``ceil(log2(n))`` for ``n >= 1``, and ``0`` otherwise.

    Used throughout as the depth contribution of an ``N``-element parallel
    primitive (prefix sum, filter, sort), matching the ``O(log N)`` depth
    bounds the paper charges for them.
    """
    if n <= 1:
        return 0.0
    return float(math.ceil(math.log2(n)))


@dataclass
class _Ewma:
    """A sample-count-aware exponentially weighted moving average.

    Early observations use ``1/n`` weighting (a plain running mean) so the
    first few samples aren't dominated by the very first one; once ``n``
    exceeds ``1/alpha`` the estimate tracks recent samples with weight
    ``alpha`` — the usual EWMA regime.
    """

    alpha: float
    value: float = 0.0
    count: int = 0

    def observe(self, sample: float) -> None:
        self.count += 1
        weight = max(self.alpha, 1.0 / self.count)
        self.value += weight * (sample - self.value)


class CostModel:
    """Online calibration of a-priori work bounds against measured seconds.

    The scheduler's closed-form bounds (above) predict *relative* job cost
    from parameters alone, but their constant factors are loose and differ
    per method, and the compiled kernels shift them by 1-2 orders of
    magnitude.  This model learns the true seconds-per-work-unit per
    ``(method, kernel)`` key from completed job outcomes, within and across
    batches in a session.

    Calibrated estimates stay in the *static estimate's units* so they can
    be compared against thresholds expressed in those units (the serving
    plane's ``max_batch_cost``): the correction applied to a raw work bound
    is ``spu(key) / spu_global``, where ``spu(key)`` is the learned
    seconds-per-raw-unit for the key and ``spu_global`` is the learned
    seconds-per-*static-estimate-unit* over all observations.  For a
    homogeneous workload the two cancel and the calibrated estimate equals
    the static one; for a mixed workload the ratios re-rank jobs by their
    measured relative speeds.

    Thread-safe: the serving plane observes outcomes on its event-loop
    thread while a pool session estimates on an executor thread.
    """

    def __init__(self, alpha: float = 0.2) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self.alpha = alpha
        self._per_key: dict[tuple[str, str], _Ewma] = {}
        self._global = _Ewma(alpha)
        self._lock = threading.Lock()

    def observe(
        self,
        method: str,
        kernel: str,
        units: float,
        seconds: float,
        static: float | None = None,
    ) -> None:
        """Fold one completed job into the model.

        ``units`` is the job's *raw* work bound (no kernel scale) and
        ``seconds`` its measured wall time; ``static`` is the job's static
        estimate (kernel-scaled, floored), used to anchor calibrated
        estimates to static units.  Degenerate samples (non-positive
        units, negative seconds) are ignored rather than poisoning the
        averages.
        """
        if units <= 0.0 or seconds < 0.0:
            return
        with self._lock:
            key = (method, kernel)
            ewma = self._per_key.get(key)
            if ewma is None:
                ewma = self._per_key[key] = _Ewma(self.alpha)
            ewma.observe(seconds / units)
            if static is not None and static > 0.0:
                self._global.observe(seconds / static)

    def calibration_factor(self, method: str, kernel: str) -> float | None:
        """Seconds-per-raw-unit for the key, normalised to static units.

        Returns ``None`` until the key has been observed (callers fall back
        to the static estimate), else ``spu(key) / spu_global`` — the
        multiplier that converts the raw work bound into calibrated cost
        expressed in static-estimate units.
        """
        with self._lock:
            ewma = self._per_key.get((method, kernel))
            if ewma is None or ewma.count == 0:
                return None
            if self._global.count == 0 or self._global.value <= 0.0:
                return None
            return ewma.value / self._global.value

    @property
    def observations(self) -> int:
        """Total samples folded in (across all keys)."""
        with self._lock:
            return sum(e.count for e in self._per_key.values())

    def snapshot(self) -> dict[str, dict[str, float]]:
        """Calibration state for stats surfaces: per-key measured
        seconds-per-raw-work-unit and sample counts."""
        with self._lock:
            return {
                f"{method}/{kernel}": {
                    "seconds_per_unit": ewma.value,
                    "samples": float(ewma.count),
                }
                for (method, kernel), ewma in sorted(self._per_key.items())
            }


@dataclass
class CategoryCost:
    """Accumulated work and depth for one category of operations."""

    work: float = 0.0
    depth: float = 0.0

    def add(self, work: float, depth: float) -> None:
        self.work += work
        self.depth += depth


@dataclass
class WorkDepthTracker:
    """Accumulates a (work, depth) profile for a region of computation.

    Depth accumulates additively: the algorithms in this library are
    bulk-synchronous (a sequence of parallel rounds separated by barriers),
    so the critical path is the sum of the per-round depths.

    Attributes
    ----------
    work:
        Total operations recorded (the paper's ``W``).
    depth:
        Total critical-path length recorded (the paper's ``D``).
    by_category:
        Per-category breakdown, used by
        :class:`repro.runtime.machine.MachineModel` to apply per-category
        memory-contention coefficients.
    rounds:
        Number of parallel rounds (records with nonzero depth); a useful
        proxy for the number of frontier iterations an algorithm executed.
    """

    work: float = 0.0
    depth: float = 0.0
    by_category: dict[str, CategoryCost] = field(default_factory=dict)
    rounds: int = 0

    def record(self, work: float, depth: float = 0.0, category: str = "misc") -> None:
        """Add ``work`` operations with critical path ``depth`` to ``category``."""
        if work < 0 or depth < 0:
            raise ValueError("work and depth must be non-negative")
        self.work += work
        self.depth += depth
        if depth > 0:
            self.rounds += 1
        cost = self.by_category.get(category)
        if cost is None:
            cost = CategoryCost()
            self.by_category[category] = cost
        cost.add(work, depth)

    def merge(self, other: "WorkDepthTracker") -> None:
        """Fold another tracker's profile into this one (sequential composition)."""
        self.work += other.work
        self.depth += other.depth
        self.rounds += other.rounds
        for category, cost in other.by_category.items():
            self.record_category(category, cost.work, cost.depth)

    def record_category(self, category: str, work: float, depth: float) -> None:
        """Merge raw totals into a category without counting a round."""
        self.work += 0.0  # totals were already folded by merge()
        cost = self.by_category.get(category)
        if cost is None:
            cost = CategoryCost()
            self.by_category[category] = cost
        cost.add(work, depth)

    def snapshot(self) -> dict[str, tuple[float, float]]:
        """Return ``{category: (work, depth)}`` for reporting."""
        return {name: (cost.work, cost.depth) for name, cost in self.by_category.items()}

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"WorkDepthTracker(work={self.work:.3g}, depth={self.depth:.3g}, "
            f"rounds={self.rounds}, categories={sorted(self.by_category)})"
        )


_CURRENT: ContextVar[WorkDepthTracker | None] = ContextVar("repro_tracker", default=None)


def current_tracker() -> WorkDepthTracker | None:
    """Return the tracker active in this context, or ``None``."""
    return _CURRENT.get()


def record(work: float, depth: float = 0.0, category: str = "misc") -> None:
    """Record cost against the active tracker; no-op when none is active."""
    tracker = _CURRENT.get()
    if tracker is not None:
        tracker.record(work, depth, category)


@contextmanager
def track() -> Iterator[WorkDepthTracker]:
    """Context manager activating a fresh :class:`WorkDepthTracker`.

    Nested ``track()`` regions each see their own tracker; the inner profile
    is *also* folded into the outer tracker on exit, so a caller profiling a
    whole experiment still sees costs recorded inside nested regions.
    """
    outer = _CURRENT.get()
    tracker = WorkDepthTracker()
    token = _CURRENT.set(tracker)
    try:
        yield tracker
    finally:
        _CURRENT.reset(token)
        if outer is not None:
            outer.merge(tracker)


@contextmanager
def detached() -> Iterator[None]:
    """Run a region with no active tracker.

    Nothing recorded inside reaches the caller's tracker, not even through
    a nested :func:`track` (it has no outer tracker to fold into).  A
    process-pool backend that runs a short batch in-process uses this so
    the caller still sees only the batch aggregate a pooled run records.

    >>> with track() as tracker:
    ...     with detached():
    ...         record(work=100, depth=5)
    >>> tracker.work
    0.0
    """
    token = _CURRENT.set(None)
    try:
        yield
    finally:
        _CURRENT.reset(token)
