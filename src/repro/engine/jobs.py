"""Job descriptions for the batch diffusion engine.

The paper's heavy experiments are *embarrassingly parallel across queries*:
Figure 12 runs PR-Nibble from 10^5 random seeds while varying alpha and
eps, and every (seed, parameter) combination is an independent local
computation touching a small neighbourhood of the graph.  A
:class:`DiffusionJob` captures one such unit of work — *which* diffusion to
run, from *which* seed set, with *which* parameters — in a small, picklable
record that can be shipped to a worker process.

:func:`job_grid` builds the canonical experiment stream: the cartesian
product of a seed list with a parameter grid, enumerated seeds-outermost in
the same order as the historical ``ncp_profile`` triple loop so batched
runs visit jobs in the exact sequence the serial code did.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Any, Iterable, Iterator, Mapping, Sequence

import numpy as np

__all__ = ["DiffusionJob", "job_grid"]


@dataclass(frozen=True)
class DiffusionJob:
    """One independent unit of batch work: a diffusion + sweep query.

    Attributes
    ----------
    seeds:
        The seed vertex ids (all algorithms "extend to seed sets with
        multiple vertices", Section 3).  Stored as a tuple so jobs stay
        immutable and cheap to pickle.
    method:
        A key of :data:`repro.core.ALGORITHMS` (``"nibble"``,
        ``"pr-nibble"``, ``"hk-pr"`` or ``"rand-hk-pr"``).
    params:
        Overrides for the method's parameter dataclass, e.g.
        ``{"alpha": 0.01, "eps": 1e-5}``.
    rng:
        Integer seed for the randomized methods (``rand-hk-pr``).  Kept in
        the job — not in the engine — so results are reproducible no matter
        which worker executes the job, or in what order.
    tag:
        Free-form caller annotation carried through to the outcome
        (useful for joining batch output back to experiment metadata).
    kernel:
        Loop implementation for the job's hot paths
        (:mod:`repro.kernels`): ``None`` inherits the engine's default
        (ultimately ``"auto"``: C when a compiler is present), or
        ``"python"``/``"c"``/``"auto"`` explicitly.  Like ``tag`` it is excluded from the
        cache key — results are bit-identical across kernels, so entries
        written under one kernel replay under any other.
    """

    seeds: tuple[int, ...]
    method: str = "pr-nibble"
    params: dict[str, Any] = field(default_factory=dict)
    rng: int = 0
    tag: Any = None
    kernel: str | None = None

    @staticmethod
    def make(
        seeds: int | Sequence[int] | np.ndarray,
        method: str = "pr-nibble",
        params: Mapping[str, Any] | None = None,
        rng: int = 0,
        tag: Any = None,
        kernel: str | None = None,
    ) -> "DiffusionJob":
        """Normalise loose seed specs (scalar, list, array) into a job."""
        array = np.atleast_1d(np.asarray(seeds, dtype=np.int64))
        return DiffusionJob(
            seeds=tuple(int(s) for s in array.tolist()),
            method=method,
            params=dict(params or {}),
            rng=int(rng),
            tag=tag,
            kernel=kernel,
        )

    def describe(self) -> str:
        """Compact one-line rendering for tables and CSV output."""
        settings = " ".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        seeds = ",".join(map(str, self.seeds))
        return f"{self.method}[{seeds}]{' ' + settings if settings else ''}"


def job_grid(
    seeds: Iterable[int] | np.ndarray,
    method: str = "pr-nibble",
    grid: Mapping[str, Sequence[Any]] | None = None,
    params: Mapping[str, Any] | None = None,
    rng: int = 0,
    kernel: str | None = None,
) -> Iterator[DiffusionJob]:
    """Yield the cartesian product of ``seeds`` x ``grid`` as jobs.

    ``grid`` maps parameter names to the values to sweep; ``params`` holds
    fixed overrides applied to every job.  Enumeration order is
    seeds-outermost, then the grid axes in insertion order — for
    ``grid={"alpha": A, "eps": E}`` this is exactly the
    ``for seed: for alpha: for eps`` order of the pre-engine NCP loop.
    Randomized methods get a distinct, deterministic per-job ``rng``
    derived from the base ``rng`` and the job's position.
    """
    grid = dict(grid or {})
    fixed = dict(params or {})
    names = list(grid.keys())
    # No grid at all -> one job per seed; a *present but empty* axis ->
    # an empty product, i.e. zero jobs, exactly like the nested loop.
    combos = list(product(*(grid[name] for name in names))) if names else [()]
    index = 0
    for seed in np.asarray(list(seeds), dtype=np.int64).tolist():
        for combo in combos:
            overrides = dict(fixed)
            overrides.update(zip(names, combo))
            yield DiffusionJob.make(
                seed, method=method, params=overrides, rng=rng + index, kernel=kernel
            )
            index += 1
