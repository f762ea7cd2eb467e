"""repro — Parallel Local Graph Clustering.

A from-scratch Python reproduction of *"Parallel Local Graph Clustering"*
(J. Shun, F. Roosta-Khorasani, K. Fountoulakis, M. W. Mahoney; VLDB 2016):
work-efficient parallel versions of the Nibble, PageRank-Nibble, heat
kernel PageRank and randomized heat kernel PageRank local clustering
algorithms, a work-efficient parallel sweep cut, the Ligra-style local
graph-processing substrate they run on, and the paper's full experimental
harness.

Quick start
-----------
>>> import repro
>>> graph = repro.graph.barbell_graph(16)
>>> result = repro.local_cluster(graph, seeds=0, method="pr-nibble", eps=1e-5)
>>> result.size, round(result.conductance, 4)
(16, 0.0041)

Subpackages
-----------
``repro.cache``
    Content-addressed result cache: graph fingerprints, canonical cache
    keys, LRU/disk stores, and the caching backend that replays repeated
    diffusion queries instead of re-running them.
``repro.core``
    The clustering algorithms, sweep cut, quality metrics, NCP driver.
``repro.engine``
    Batch executor: independent diffusion jobs fanned across a process
    pool or run serially, aggregated through reducers.
``repro.graph``
    CSR graphs, builders, generators, IO, Table-2 proxy registry, the
    version chain of an evolving graph and the shared-memory export plane.
``repro.kernels``
    Compiled kernel plane: C-compiled twins of the hot
    diffusion loops, selected by the ``kernel=`` knob, bit-identical to
    the Python reference.
``repro.ligra``
    vertexSubset / vertexMap / edgeMap local-processing layer.
``repro.prims``
    Parallel primitives: scan, filter, sorting, hash table, sparse sets.
``repro.runtime``
    Work-depth instrumentation and the simulated multicore machine.
``repro.serve``
    Async serving plane: a :class:`~repro.serve.DiffusionService`
    micro-batching concurrent client queries onto one long-lived engine
    pool, interactive jobs drained ahead of bulk backlogs.
"""

from . import bench, cache, core, engine, graph, kernels, ligra, prims, runtime, serve
from .cache import CacheStats, CachingBackend, ResultCache
from .core import (
    ALGORITHMS,
    ClusterRequest,
    ClusterResult,
    EngineOptions,
    EvolvingSetParams,
    HKPRParams,
    LocalClusterer,
    NibbleParams,
    PRNibbleParams,
    RandHKPRParams,
    RequestError,
    async_local_cluster,
    cluster_many,
    cluster_stats,
    conductance,
    evolving_set_process,
    hk_pr,
    local_cluster,
    ncp_profile,
    nibble,
    pr_nibble,
    rand_hk_pr,
    sweep_cut,
)
from .engine import BatchEngine, DiffusionJob, job_grid
from .graph import CSRGraph, load_proxy
from .runtime import PAPER_MACHINE, MachineModel, track
from .serve import DiffusionServer, DiffusionService

__version__ = "1.0.0"

__all__ = [
    "bench",
    "cache",
    "CacheStats",
    "CachingBackend",
    "ResultCache",
    "core",
    "engine",
    "graph",
    "kernels",
    "ligra",
    "prims",
    "runtime",
    "serve",
    "ALGORITHMS",
    "BatchEngine",
    "ClusterRequest",
    "DiffusionServer",
    "DiffusionService",
    "EngineOptions",
    "RequestError",
    "ClusterResult",
    "DiffusionJob",
    "job_grid",
    "async_local_cluster",
    "cluster_many",
    "EvolvingSetParams",
    "HKPRParams",
    "LocalClusterer",
    "NibbleParams",
    "PRNibbleParams",
    "RandHKPRParams",
    "cluster_stats",
    "conductance",
    "evolving_set_process",
    "hk_pr",
    "local_cluster",
    "ncp_profile",
    "nibble",
    "pr_nibble",
    "rand_hk_pr",
    "sweep_cut",
    "CSRGraph",
    "load_proxy",
    "PAPER_MACHINE",
    "MachineModel",
    "track",
    "__version__",
]
