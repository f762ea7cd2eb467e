"""Compiled kernel plane: the hot loops, selectable at run time.

The paper's headline numbers come from tight shared-memory loops; this
package provides compiled implementations of the hottest ones — the
PR-Nibble push loop in both forms (the sequential queue loop and the
frontier-synchronous rounds of Figures 5-6), the frontier rounds of BSP
Nibble (Figure 3) and the HK-PR levels (Figure 7), the sweep-cut
membership scan, and rand-HK-PR's random-walk stepping and endpoint
count — behind a single ``kernel=`` knob threaded through
:func:`repro.local_cluster`,
:class:`repro.engine.DiffusionJob`/:class:`~repro.engine.BatchEngine`,
:class:`repro.serve.DiffusionService` and the CLI.

Backends
--------
``"python"``
    The reference loops in :mod:`repro.core`: the object-level
    sequential loops and the numpy bulk-synchronous rounds.  Always
    available.
``"c"``
    The same loops as C, compiled once with the system compiler and
    loaded via ctypes (:mod:`repro.kernels._ckernels`).  Available
    wherever ``cc``/``gcc``/``clang`` is on PATH — no new dependency.
``"auto"`` (and ``None``, every API's default)
    Probe once per process and pick ``"c"`` when it is available,
    degrading silently to ``"python"`` when it is not.

Every kernel operates on raw CSR arrays (``offsets``/``neighbors``), so
compiled execution composes for free with
:class:`repro.graph.shared.SharedCSR` zero-copy attach and with a
:class:`~repro.graph.csr.CSRGraph` over memory-mapped ``.npy`` files.
PR-Nibble's ``beta < 1`` variant, rand-HK-PR's
``aggregation="fetch_add"`` and the sequential Nibble, HK-PR and
rand-HK-PR loops have no compiled twin and run the reference code.
Recorded work/depth profiles and cache keys are identical across
kernels, so :class:`repro.cache.ResultCache` entries are kernel-agnostic:
an outcome written under one kernel replays under any other.

Runnable example — the compiled result is bit-identical to the
reference, including sparse-vector entry order and the recorded
work/depth profile:

>>> from repro.kernels import available_kernels, resolve_kernel
>>> resolve_kernel(None) == resolve_kernel("auto") in available_kernels()
True
>>> resolve_kernel("python")
'python'
>>> from repro.core import PRNibbleParams, pr_nibble
>>> from repro.graph import barbell_graph
>>> from repro.runtime import track
>>> graph = barbell_graph(8)
>>> params = PRNibbleParams(alpha=0.1, eps=1e-5)
>>> with track() as numpy_profile:
...     reference = pr_nibble(graph, 0, params, kernel="python")
>>> with track() as default_profile:
...     default = pr_nibble(graph, 0, params)
>>> default.vector.to_dict() == reference.vector.to_dict()
True
>>> default.pushes == reference.pushes
True
>>> default_profile.snapshot() == numpy_profile.snapshot()
True
"""

from __future__ import annotations

import time
from typing import Any

from . import reference

__all__ = [
    "KERNELS",
    "KernelUnavailableError",
    "available_kernels",
    "resolve_kernel",
    "get_kernels",
    "ensure_warm",
]

#: every explicit value the ``kernel=`` knob accepts (``None`` and
#: ``"auto"`` resolve to the best available entry of this tuple).
KERNELS = ("python", "c")


class KernelUnavailableError(RuntimeError):
    """An explicitly requested kernel backend cannot run here."""


class PythonKernels:
    """The always-available kernel set: the array-level reference twins."""

    name = "python"
    ppr_push = staticmethod(reference.ppr_push)
    sweep_scan = staticmethod(reference.sweep_scan)
    walk_filter = staticmethod(reference.walk_filter)
    walk_advance = staticmethod(reference.walk_advance)


#: per-process kernel-set cache: name -> kernel set (or the probe error).
_SETS: dict[str, Any] = {"python": PythonKernels()}
_ERRORS: dict[str, Exception] = {}
_AUTO: str | None = None
_WARMED: set[str] = set()


def _load(name: str) -> Any:
    """Build (memoised) the named kernel set, or raise why it cannot run."""
    if name in _SETS:
        return _SETS[name]
    if name in _ERRORS:
        raise _ERRORS[name]
    try:
        if name == "c":
            from . import _ckernels

            kernels = _ckernels.build()
        else:
            raise ValueError(f"unknown kernel {name!r}; choose from {KERNELS + ('auto',)}")
    except ValueError:
        raise
    except Exception as error:
        probe = KernelUnavailableError(_unavailable_message(name, error))
        probe.__cause__ = error
        _ERRORS[name] = probe
        raise probe from error
    _SETS[name] = kernels
    return kernels


def _unavailable_message(name: str, error: Exception) -> str:
    return (
        "kernel='c' requires a working system C compiler (cc/gcc/clang); "
        f"none produced a loadable library here [{error}]"
    )


def available_kernels() -> tuple[str, ...]:
    """The kernel names that can actually run in this process (probed once).

    ``"python"`` is always present; ``"c"`` appears only when its
    compile-and-load probe succeeds, so a broken toolchain reads as
    absent rather than as a runtime error later.
    """
    try:
        _load("c")
    except KernelUnavailableError:
        return ("python",)
    return ("python", "c")


def resolve_kernel(kernel: str | None) -> str:
    """Normalise the ``kernel=`` knob to a concrete, runnable kernel name.

    ``None`` (every API's default) means ``"auto"``: probe once per
    process and pick ``"c"``, silently using ``"python"`` when the C
    backend is unavailable.  Explicitly requesting an unavailable backend
    raises :class:`KernelUnavailableError` with the reason; an unknown
    name raises ``ValueError``.  This is the one place the default is
    decided.
    """
    global _AUTO
    if kernel == "python":
        return "python"
    if kernel is None or kernel == "auto":
        if _AUTO is None:
            _AUTO = available_kernels()[-1]
        return _AUTO
    if kernel not in KERNELS:
        raise ValueError(
            f"unknown kernel {kernel!r}; choose from {KERNELS + ('auto',)}"
        )
    _load(kernel)
    return kernel


def get_kernels(kernel: str | None) -> Any:
    """The kernel set for a resolved kernel name: ``ppr_push``/
    ``sweep_scan``/``walk_filter``/``walk_advance`` on every backend, plus
    the frontier kernels (``ppr_bsp``/``nibble_bsp``/``hkpr_bsp``) and
    ``endpoint_count`` on the compiled one."""
    return _load(resolve_kernel(kernel))


def ensure_warm(kernel: str | None) -> float:
    """Prepare the resolved kernel now; returns the seconds it took.

    For ``"c"`` that is compile-and-load (disk-cached, so usually only
    the first process ever pays the compile).  Memoised per
    process: the second call for a kernel returns ``0.0``.  The executor
    calls this *before* starting a job's wall clock, so
    ``JobOutcome.wall_seconds`` — and thus ``StatsReducer`` throughput —
    measures steady state, with the one-time cost reported separately as
    ``warmup_seconds`` (mirroring the cache-hit exclusion rule).
    """
    name = resolve_kernel(kernel)
    if name in _WARMED:
        return 0.0
    # Warm-up *accounting*, not a hot loop: the duration is reported as
    # warmup_seconds and never influences any diffusion result.
    start = time.perf_counter()  # repro: ignore[wall-clock]
    _load(name)
    _WARMED.add(name)
    return time.perf_counter() - start  # repro: ignore[wall-clock]
