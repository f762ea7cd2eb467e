"""Paths, the pinned environment and ``/proc`` readers shared by the
benchmark's processes."""

from __future__ import annotations

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Variables that change the program's inputs or configuration, pinned
#: for the benchmark and every process it starts (``None`` = unset, the
#: library default).
PINNED_ENV = {
    "REPRO_SCALE": "1.0",
    "REPRO_START_METHOD": "fork",
    "REPRO_KERNEL_CFLAGS": None,
    "REPRO_BENCH_SMOKE": None,
}


def pin_environment() -> None:
    """Apply ``PINNED_ENV`` to this process -- and so to every child, which
    inherits it -- and make ``repro`` and the benchmark's modules
    importable in both."""
    for name, value in PINNED_ENV.items():
        if value is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = value
    os.environ["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    add_import_paths()


def add_import_paths() -> None:
    """Make ``repro`` (under ``src/``) and the benchmark's modules importable."""
    for path in (str(HERE), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)


def describe_environment() -> str:
    return " ".join(
        f"{name}={os.environ.get(name, '<unset>')}" for name in PINNED_ENV
    )


def cpu_jiffies() -> tuple[int, int]:
    """System-wide ``(total, steal)`` jiffies from ``/proc/stat``."""
    with open("/proc/stat") as handle:
        fields = [int(x) for x in handle.readline().split()[1:]]
    # user nice system idle iowait irq softirq steal [guest guest_nice]:
    # guest time is already counted in user/nice.
    return sum(fields[:8]), fields[7]


def steal_share(before: tuple[int, int], after: tuple[int, int]) -> float:
    total = after[0] - before[0]
    return (after[1] - before[1]) / total if total else 0.0


def process_cpu_seconds(pid: int | str = "self") -> float:
    """utime + stime of ``pid`` plus its waited-for children (the pool
    workers ``ncp`` joins after every call), in seconds."""
    with open(f"/proc/{pid}/stat") as handle:
        # The command name may contain spaces; fields resume after ')'.
        fields = handle.read().rsplit(")", 1)[1].split()
    ticks = sum(int(fields[i]) for i in (11, 12, 13, 14))
    return ticks / os.sysconf("SC_CLK_TCK")


def peak_rss_mb(pid: int | str = "self") -> float:
    """VmHWM of ``pid`` in MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")
