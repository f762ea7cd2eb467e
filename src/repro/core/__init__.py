"""The paper's contribution: parallel local clustering algorithms + sweep cut."""

from .api import (
    ALGORITHMS,
    LocalClusterer,
    async_local_cluster,
    cluster_many,
    local_cluster,
)
from .evolving_sets import EvolvingSetParams, EvolvingSetResult, evolving_set_process
from .hk_pr import HKPRParams, hk_pr, hk_pr_parallel, hk_pr_sequential, psi_coefficients
from .ncp import NCPResult, log_binned, ncp_profile
from .nibble import NibbleParams, nibble, nibble_parallel, nibble_sequential
from .options import (
    PRIORITIES,
    ClusterRequest,
    EngineOptions,
    RequestError,
    canonical_params,
    validate_params,
)
from .pr_nibble import (
    PRNibbleParams,
    pr_nibble,
    pr_nibble_parallel,
    pr_nibble_sequential,
)
from .quality import ClusterStats, boundary_size, cluster_stats, conductance, volume
from .rand_hk_pr import (
    RandHKPRParams,
    aggregate_by_fetch_add,
    aggregate_by_sort,
    rand_hk_pr,
    rand_hk_pr_parallel,
    rand_hk_pr_sequential,
    sample_walk_lengths,
)
from .result import ClusterResult, DiffusionResult, SweepResult, vector_items
from .seeding import arbitrary_seed, best_seed_by_sampling, random_seeds
from .sweep import sweep_cut, sweep_cut_parallel, sweep_cut_sequential, sweep_order

__all__ = [
    "ALGORITHMS",
    "LocalClusterer",
    "cluster_many",
    "local_cluster",
    "async_local_cluster",
    "PRIORITIES",
    "ClusterRequest",
    "EngineOptions",
    "RequestError",
    "canonical_params",
    "validate_params",
    "EvolvingSetParams",
    "EvolvingSetResult",
    "evolving_set_process",
    "HKPRParams",
    "hk_pr",
    "hk_pr_parallel",
    "hk_pr_sequential",
    "psi_coefficients",
    "NCPResult",
    "log_binned",
    "ncp_profile",
    "NibbleParams",
    "nibble",
    "nibble_parallel",
    "nibble_sequential",
    "PRNibbleParams",
    "pr_nibble",
    "pr_nibble_parallel",
    "pr_nibble_sequential",
    "ClusterStats",
    "boundary_size",
    "cluster_stats",
    "conductance",
    "volume",
    "RandHKPRParams",
    "aggregate_by_fetch_add",
    "aggregate_by_sort",
    "rand_hk_pr",
    "rand_hk_pr_parallel",
    "rand_hk_pr_sequential",
    "sample_walk_lengths",
    "ClusterResult",
    "DiffusionResult",
    "SweepResult",
    "vector_items",
    "arbitrary_seed",
    "best_seed_by_sampling",
    "random_seeds",
    "sweep_cut",
    "sweep_cut_parallel",
    "sweep_cut_sequential",
    "sweep_order",
]
