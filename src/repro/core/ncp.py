"""Network community profile (NCP) plots — paper Section 4, Figure 12.

An NCP plot shows, for each cluster size k, the best (lowest) conductance
over all clusters of size k found by the algorithm — "a concept introduced
in [29] ... that quantifies the best cluster as a function of cluster
size".  The paper generates NCPs for billion-edge graphs by running
PR-Nibble from 10^5 random seeds while varying alpha and eps.

Every sweep already scores *every* prefix of its ordering, so each run
contributes up to N (size, conductance) points, not just its best cluster;
the profile is the pointwise minimum over all contributions — the same
harvesting Leskovec et al. use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Sequence

import numpy as np

from ..graph.csr import CSRGraph
from .seeding import random_seeds

__all__ = ["NCPResult", "ncp_profile", "log_binned"]


@dataclass
class NCPResult:
    """Best conductance per cluster size.

    ``conductance[k-1]`` is the best conductance found over clusters of
    exactly ``k`` vertices (``inf`` where no cluster of that size was
    seen); ``runs`` counts the (seed, parameter) combinations explored.
    """

    max_size: int
    conductance: np.ndarray
    runs: int

    def sizes(self) -> np.ndarray:
        """Cluster sizes with at least one observation."""
        return np.flatnonzero(np.isfinite(self.conductance)) + 1

    def series(self) -> tuple[np.ndarray, np.ndarray]:
        """``(sizes, best conductances)`` — the Figure 12 scatter."""
        sizes = self.sizes()
        return sizes, self.conductance[sizes - 1]

    def best_at(self, size: int) -> float:
        if not 1 <= size <= self.max_size:
            raise ValueError("size out of range")
        return float(self.conductance[size - 1])


def log_binned(result: NCPResult, bins_per_decade: int = 8) -> tuple[np.ndarray, np.ndarray]:
    """Logarithmically binned profile (min within each bin) for plotting."""
    sizes, phis = result.series()
    if len(sizes) == 0:
        return sizes.astype(np.float64), phis
    edges_count = int(np.ceil(np.log10(max(sizes.max(), 2)) * bins_per_decade)) + 1
    edges = np.logspace(0, np.log10(sizes.max()), edges_count)
    bin_of = np.digitize(sizes, edges)
    centers = []
    minima = []
    for b in np.unique(bin_of):
        mask = bin_of == b
        centers.append(float(np.exp(np.mean(np.log(sizes[mask])))))
        minima.append(float(phis[mask].min()))
    return np.asarray(centers), np.asarray(minima)


def ncp_profile(
    graph: CSRGraph,
    num_seeds: int = 100,
    alphas: Sequence[float] = (0.1, 0.01),
    eps_values: Sequence[float] = (1e-4, 1e-5),
    max_size: int | None = None,
    parallel: bool | None = None,
    rng: np.random.Generator | int = 0,
    seeds: Iterable[int] | None = None,
    engine: "Any | str | None" = None,
    workers: int | None = None,
    cache: "Any | bool | str | None" = None,
    start_method: str | None = None,
    kernel: str | None = None,
) -> NCPResult:
    """Generate an NCP by sweeping PR-Nibble over seeds and parameters.

    Mirrors the paper's methodology ("running PR-Nibble from 10^5 random
    seed vertices and by varying alpha and eps") at configurable scale.
    ``max_size`` truncates the profile (Figure 12 plots sizes up to 10^5).

    The (seed, alpha, eps) jobs are independent, so they run through the
    batch engine: ``workers=4`` (or ``engine="process"``) fans them out
    across a process pool (on any platform — non-``fork`` start methods
    attach the graph through shared memory); the default is the
    deterministic serial backend, which reproduces the historical
    one-at-a-time loop exactly.  The pool hands out heaviest-first steal
    units; mixed-eps grids are exactly the workload that ordering
    de-straggles, since PR-Nibble work scales as O(1/(eps*alpha)).
    A prebuilt :class:`repro.engine.BatchEngine` is accepted via
    ``engine`` for callers issuing many profiles against one graph; it
    keeps its own configuration, so no engine knob may be set next to it.
    An engine built here skips the diffusion vectors (the profile needs
    only the sweeps); ``parallel`` defaults to the engine default (on).
    The pointwise-minimum reduction is order- and partition-independent,
    so results are bit-identical at every worker count.  With ``workers``
    above 1 the jobs run in-process, in job order, until the ones left
    project past the pool's break-even
    (:data:`repro.engine.scheduler.POOL_BREAK_EVEN_SECONDS`, measured only
    at ``workers=2`` under ``fork`` on a 2-vCPU host); only then does a
    pool of ``workers`` take them.  A call too short to repay a pool runs
    wholly in-process, with identical results.

    ``cache`` memoises per-job outcomes (``True``, a cache directory, or a
    :class:`repro.cache.ResultCache`): re-running a profile, or running an
    overlapping parameter grid, replays hits instead of re-diffusing and
    still produces the bit-identical profile.

    ``kernel`` selects the loop implementation (:mod:`repro.kernels`,
    e.g. ``"auto"``) applied to every job; because results are
    bit-identical across kernels the profile — and any cache entries it
    writes or replays — is unchanged, only faster.
    """
    from ..engine import BatchEngine, NCPReducer, job_grid, resolve_engine

    rng = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng
    if seeds is None:
        seed_array = random_seeds(graph, num_seeds, rng=rng)
    else:
        seed_array = np.asarray(list(seeds), dtype=np.int64)
    limit = max_size if max_size is not None else graph.num_vertices
    jobs = job_grid(
        seed_array, "pr-nibble", {"alpha": tuple(alphas), "eps": tuple(eps_values)}
    )
    batch = resolve_engine(
        graph,
        engine,
        workers=workers,
        parallel=parallel,
        include_vectors=None if isinstance(engine, BatchEngine) else False,
        cache=cache,
        start_method=start_method,
        kernel=kernel,
    )
    return batch.run(jobs, NCPReducer(limit))
