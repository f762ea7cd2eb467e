"""Work-depth runtime: cost tracking and the simulated multicore machine.

See :mod:`repro.runtime.cost_model` for instrumentation and
:mod:`repro.runtime.machine` for the Brent-bound timing model that
substitutes for the paper's 40-core evaluation machine.
"""

from .cost_model import (
    CategoryCost,
    WorkDepthTracker,
    current_tracker,
    detached,
    log2ceil,
    ppr_push_work_bound,
    random_walk_work_bound,
    record,
    track,
    truncated_iteration_work_bound,
)
from .machine import DEFAULT_CONTENTION, PAPER_MACHINE, MachineModel
from .timer import Stopwatch, stopwatch, time_call

__all__ = [
    "CategoryCost",
    "WorkDepthTracker",
    "current_tracker",
    "detached",
    "log2ceil",
    "record",
    "track",
    "ppr_push_work_bound",
    "random_walk_work_bound",
    "truncated_iteration_work_bound",
    "DEFAULT_CONTENTION",
    "PAPER_MACHINE",
    "MachineModel",
    "Stopwatch",
    "stopwatch",
    "time_call",
]
