"""High-level public API: one call from (graph, seed) to a cluster.

Composes a diffusion with the sweep cut, mirroring the paper's pipeline:
*"All of our clustering algorithms compute a vector p, which is passed to a
sweep cut rounding procedure to generate a cluster."*

>>> from repro import local_cluster
>>> from repro.graph import barbell_graph
>>> result = local_cluster(barbell_graph(8), seeds=0, method="pr-nibble")
>>> sorted(result.cluster.tolist())
[0, 1, 2, 3, 4, 5, 6, 7]
"""

from __future__ import annotations

import asyncio
import functools
from dataclasses import asdict
from typing import TYPE_CHECKING, Any

import numpy as np

from ..graph.csr import CSRGraph

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..serve import DiffusionService
from .hk_pr import HKPRParams, hk_pr
from .nibble import NibbleParams, nibble
from .pr_nibble import PRNibbleParams, pr_nibble
from .rand_hk_pr import RandHKPRParams, rand_hk_pr
from .result import ClusterResult, DiffusionResult
from .sweep import sweep_cut

__all__ = [
    "ALGORITHMS",
    "local_cluster",
    "async_local_cluster",
    "cluster_many",
    "LocalClusterer",
]

#: method name -> (parameter dataclass, diffusion runner, takes_rng)
ALGORITHMS: dict[str, tuple[type, Any, bool]] = {
    "nibble": (NibbleParams, nibble, False),
    "pr-nibble": (PRNibbleParams, pr_nibble, False),
    "hk-pr": (HKPRParams, hk_pr, False),
    "rand-hk-pr": (RandHKPRParams, rand_hk_pr, True),
}


def local_cluster(
    graph: CSRGraph,
    seeds: "int | np.ndarray | Any",
    method: str | None = None,
    parallel: bool = True,
    rng: np.random.Generator | int | None = None,
    kernel: str | None = None,
    **param_overrides: Any,
) -> ClusterResult:
    """Find a local cluster around ``seeds``: diffusion + sweep cut.

    Parameters
    ----------
    graph:
        The input graph.
    seeds:
        One vertex id or an array of them (the algorithms all "extend to
        seed sets with multiple vertices", Section 3) — or a whole
        :class:`repro.core.options.ClusterRequest`, the canonical record
        the serving plane and the wire schema speak, in which case the
        request carries the method/params/rng/kernel and passing any of
        them loose as well raises ``ValueError`` (nothing is silently
        ignored).
    method:
        ``"nibble"``, ``"pr-nibble"`` (the default), ``"hk-pr"`` or
        ``"rand-hk-pr"``.
    parallel:
        Run the parallel (bulk-synchronous) implementation; ``False``
        selects the sequential reference.
    rng:
        Randomness for ``rand-hk-pr`` (ignored by the deterministic
        methods; default 0).
    kernel:
        Loop implementation for the hot paths (:mod:`repro.kernels`):
        ``None``/``"auto"`` (default: ``"c"`` when a C compiler is
        present, else ``"python"``), ``"c"`` or ``"python"``.
        Results are bit-identical across kernels.
    **param_overrides:
        Fields of the method's parameter dataclass, e.g.
        ``alpha=0.01, eps=1e-6`` for PR-Nibble or
        ``t=5, taylor_degree=15`` for HK-PR.
    """
    from .options import ClusterRequest

    if isinstance(seeds, ClusterRequest):
        request = seeds
        carried = [
            name
            for name, value in (
                ("method", method),
                ("rng", rng),
                ("kernel", kernel),
                *sorted(param_overrides.items()),
            )
            if value is not None
        ]
        if carried:
            raise ValueError(
                "the ClusterRequest already carries the query configuration; "
                f"{', '.join(carried)} would be silently ignored — set them "
                "on the request instead"
            )
        request.validate(num_vertices=graph.num_vertices)
        method = request.method
        rng = request.rng
        kernel = request.kernel
        param_overrides = dict(request.params)
        seeds = np.asarray(request.seeds, dtype=np.int64)
    if method is None:
        method = "pr-nibble"
    if rng is None:
        rng = 0
    if method not in ALGORITHMS:
        raise ValueError(f"unknown method {method!r}; choose from {sorted(ALGORITHMS)}")
    params_cls, runner, takes_rng = ALGORITHMS[method]
    params = params_cls(**param_overrides)
    if takes_rng:
        diffusion: DiffusionResult = runner(
            graph, seeds, params, parallel=parallel, rng=rng, kernel=kernel
        )
    else:
        diffusion = runner(graph, seeds, params, parallel=parallel, kernel=kernel)
    sweep = sweep_cut(graph, diffusion.vector, parallel=parallel, kernel=kernel)
    return ClusterResult(
        cluster=np.sort(sweep.best_cluster),
        conductance=sweep.best_conductance,
        algorithm=method,
        params=asdict(params),
        diffusion=diffusion,
        sweep=sweep,
    )


async def async_local_cluster(
    graph: CSRGraph,
    seeds: int | np.ndarray,
    method: str = "pr-nibble",
    parallel: bool = True,
    rng: np.random.Generator | int = 0,
    kernel: str | None = None,
    service: "DiffusionService | None" = None,
    priority: str = "interactive",
    **param_overrides: Any,
) -> ClusterResult:
    """:func:`local_cluster` for asyncio callers — never blocks the loop.

    With ``service=None`` the query runs in the event loop's default
    executor thread (same arguments, same result as :func:`local_cluster`).
    With a :class:`repro.serve.DiffusionService`, the query is submitted to
    the shared service instead — it micro-batches with concurrent clients,
    rides the service's long-lived pool, and (``priority="interactive"``,
    the default) drains ahead of any bulk backlog.  The service must serve
    a graph whose CSR *content* matches ``graph``.
    """
    if service is None:
        loop = asyncio.get_running_loop()
        call = functools.partial(
            local_cluster,
            graph,
            seeds,
            method=method,
            parallel=parallel,
            rng=rng,
            kernel=kernel,
            **param_overrides,
        )
        return await loop.run_in_executor(None, call)
    served = service.graph
    if served is not graph and served.fingerprint() != graph.fingerprint():
        raise ValueError("service was built for a different graph")
    if parallel != service.engine.parallel:
        raise ValueError(
            f"service runs jobs with parallel={service.engine.parallel}; "
            "build the service with the implementation you need instead of "
            "overriding it per query"
        )
    if isinstance(rng, np.random.Generator):
        if method in ALGORITHMS and ALGORITHMS[method][2]:
            # A generator's state cannot ride a picklable job, and drawing
            # a sub-seed here would break the bit-identical-to-local_cluster
            # contract (and mutate the caller's generator).
            raise ValueError(
                f"{method} submitted through a service needs an integer rng "
                "seed; np.random.Generator is only supported without a service"
            )
        rng = 0  # deterministic methods ignore it
    return await service.cluster(
        seeds,
        method=method,
        rng=int(rng),
        priority=priority,
        kernel=kernel,
        **param_overrides,
    )


def cluster_many(
    graph: CSRGraph,
    seeds: np.ndarray | list[int],
    method: str = "pr-nibble",
    parallel: bool | None = None,
    rng: np.random.Generator | int = 0,
    engine: "Any | str | None" = None,
    workers: int | None = None,
    cache: "Any | bool | str | None" = None,
    start_method: str | None = None,
    kernel: str | None = None,
    options: "Any | None" = None,
    **param_overrides: Any,
) -> list[ClusterResult]:
    """Run :func:`local_cluster` from many seeds as one batch.

    The per-seed queries are independent, so they dispatch through the
    batch engine (:mod:`repro.engine`): ``workers=4`` — or a prebuilt
    :class:`repro.engine.BatchEngine` via ``engine`` — fans them across a
    process pool on any platform (non-``fork`` start methods attach the
    graph through shared memory; see ``start_method`` on the engine); the
    default serial backend matches a plain Python loop over
    :func:`local_cluster` result-for-result.  Randomized methods draw
    one sub-seed per job from ``rng`` up front, so results do not depend
    on the backend, the worker count, or the completion order.
    With ``workers`` above 1 the jobs run in-process, in job order, until
    the ones left project past the pool's break-even
    (:data:`repro.engine.scheduler.POOL_BREAK_EVEN_SECONDS`, measured only
    at ``workers=2`` under ``fork`` on a 2-vCPU host); only then does a
    pool of ``workers`` take them.  A batch too short to repay a pool runs
    wholly in-process, with identical results.

    ``cache`` memoises per-job outcomes (``True``, a cache directory, or
    a :class:`repro.cache.ResultCache`); repeated seed lists — common in
    interactive exploration — replay hits instead of re-diffusing.
    ``kernel`` selects the loop implementation applied to every job
    (:mod:`repro.kernels`); outcomes — and cache entries — are
    bit-identical across kernels.  ``options`` carries the whole engine
    knob surface as one :class:`repro.core.options.EngineOptions` record
    (mutually exclusive with the loose engine kwargs — conflicts raise,
    as does any engine knob set next to a prebuilt ``engine``).

    Returns one :class:`ClusterResult` per entry of ``seeds``, in order.
    """
    from ..engine import DiffusionJob, resolve_engine

    if method not in ALGORITHMS:
        raise ValueError(f"unknown method {method!r}; choose from {sorted(ALGORITHMS)}")
    seed_array = np.atleast_1d(np.asarray(seeds, dtype=np.int64))
    takes_rng = ALGORITHMS[method][2]
    if takes_rng:
        base = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng
        sub_seeds = base.integers(0, 2**63 - 1, size=len(seed_array))
    else:
        sub_seeds = np.zeros(len(seed_array), dtype=np.int64)
    jobs = [
        DiffusionJob.make(seed, method=method, params=param_overrides, rng=sub)
        for seed, sub in zip(seed_array.tolist(), sub_seeds.tolist())
    ]
    batch = resolve_engine(
        graph,
        engine,
        options,
        workers=workers,
        parallel=parallel,
        cache=cache,
        start_method=start_method,
        kernel=kernel,
    )
    if not batch.include_vectors:
        raise ValueError(
            "cluster_many rebuilds full ClusterResults and needs the diffusion "
            "vectors; pass an engine built with include_vectors=True"
        )
    outcomes = batch.run(jobs)
    return [outcome.to_cluster_result() for outcome in outcomes]


class LocalClusterer:
    """Object-style facade for interactive exploration of one graph.

    The paper argues these algorithms shine "in an interactive setting,
    where a data analyst wants to quickly explore the properties of local
    clusters found in a graph"; this class is that workflow's entry point —
    construct once over a loaded graph, then issue repeated queries.
    """

    def __init__(
        self,
        graph: CSRGraph,
        parallel: bool = True,
        rng: np.random.Generator | int = 0,
    ) -> None:
        self.graph = graph
        self.parallel = parallel
        self._rng = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng

    def nibble(self, seeds: int | np.ndarray, **params: Any) -> ClusterResult:
        return local_cluster(self.graph, seeds, "nibble", self.parallel, **params)

    def pr_nibble(self, seeds: int | np.ndarray, **params: Any) -> ClusterResult:
        return local_cluster(self.graph, seeds, "pr-nibble", self.parallel, **params)

    def hk_pr(self, seeds: int | np.ndarray, **params: Any) -> ClusterResult:
        return local_cluster(self.graph, seeds, "hk-pr", self.parallel, **params)

    def rand_hk_pr(self, seeds: int | np.ndarray, **params: Any) -> ClusterResult:
        return local_cluster(
            self.graph, seeds, "rand-hk-pr", self.parallel, rng=self._rng, **params
        )

    def all_methods(self, seeds: int | np.ndarray) -> dict[str, ClusterResult]:
        """Run all four diffusions from the same seed (the paper suggests
        analysts "use all of them to find slightly different clusters of
        similar size from the same seed set")."""
        return {name: getattr(self, name.replace("-", "_"))(seeds) for name in ALGORITHMS}
