"""Batch diffusion engine — cross-query parallelism for local clustering.

The paper's algorithms parallelise *within* one query; its experiments
(Table 3, Figure 12) run *many* independent queries — up to 10^5 seeds
with varying alpha and eps.  This subsystem mechanises that outer loop:

* :mod:`repro.engine.jobs` — :class:`DiffusionJob` (one picklable unit of
  work) and :func:`job_grid` (seeds x parameter-grid streams).
* :mod:`repro.engine.executor` — :class:`BatchEngine` dispatching jobs to
  a :class:`SerialBackend` (deterministic default) or a
  :class:`ProcessPoolBackend` that shares the read-only CSR arrays with
  its workers under *any* start method (copy-on-write under ``fork``,
  shared-memory attach elsewhere), yielding :class:`JobOutcome` records
  in job order.
* :mod:`repro.engine.scheduler` — method-aware per-job cost estimates
  (the paper's O(1/(eps*alpha)) push bound and friends), refined online
  by an EWMA :class:`~repro.runtime.cost_model.CostModel`, ordered into
  fine-grained heaviest-first units that pool workers *steal* as they
  finish, so mixed-eps grids don't straggle.
* :mod:`repro.engine.reducers` — streaming aggregation of outcomes into
  NCP profiles, best clusters, or throughput statistics.

>>> from repro.graph import barbell_graph
>>> from repro.engine import BatchEngine, NCPReducer, job_grid
>>> graph = barbell_graph(8)
>>> jobs = job_grid(range(4), "pr-nibble", {"alpha": (0.1,), "eps": (1e-4,)})
>>> profile = BatchEngine(graph).run(jobs, NCPReducer(graph.num_vertices))
>>> profile.runs
4
"""

from .executor import (
    BatchEngine,
    DispatchStats,
    ExecutionSession,
    JobOutcome,
    PoolBackend,
    PoolSession,
    ProcessPoolBackend,
    SerialBackend,
    WorkerStats,
    resolve_engine,
    run_job,
)
from .jobs import DiffusionJob, job_grid
from .scheduler import (
    KERNEL_COST_SCALE,
    estimate_cost,
    kernel_cost_scale,
    observe_outcome,
    plan_units,
    resolved_kernel_name,
    steal_unit_size,
)
from .reducers import (
    BatchStats,
    BestClusterReducer,
    CollectReducer,
    NCPReducer,
    Reducer,
    StatsReducer,
)

__all__ = [
    "BatchEngine",
    "ExecutionSession",
    "JobOutcome",
    "PoolBackend",
    "PoolSession",
    "ProcessPoolBackend",
    "SerialBackend",
    "resolve_engine",
    "run_job",
    "DiffusionJob",
    "job_grid",
    "KERNEL_COST_SCALE",
    "estimate_cost",
    "kernel_cost_scale",
    "observe_outcome",
    "plan_units",
    "resolved_kernel_name",
    "steal_unit_size",
    "DispatchStats",
    "WorkerStats",
    "BatchStats",
    "BestClusterReducer",
    "CollectReducer",
    "NCPReducer",
    "Reducer",
    "StatsReducer",
]
