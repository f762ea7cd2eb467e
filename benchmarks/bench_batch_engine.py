"""Batch engine — cross-query throughput, and when the process pool pays.

The paper's NCP experiment (Figure 12) issues 10^5 independent PR-Nibble
queries; this benchmark measures how fast the batch engine drains such a
stream.  Unlike Figures 9-10 (which *simulate* the paper's 40-core machine
for intra-query parallelism), this is a real wall-clock measurement of
cross-query parallelism on the host, on the soc-LJ proxy, in three legs:

* **scaling** — a 16-seed (seed x alpha x eps) grid through the serial
  backend and through ``workers=1/2/4`` process backends (one-shot
  ``BatchEngine.run``; the ``pools`` column says whether a pool opened).
* **short** — 20 calls of the perfbench ``ncp`` shape (2 seeds on the
  ``ncp_profile`` default grid, 8 jobs), three ways: serial, the selected
  one-shot path (``workers=2``) and a pool forced per call through
  ``open_session()``.  These calls are too short to repay a pool: the
  selected path must open none, and at full scale its p50 must beat the
  forced pool's.
* **long** — one library-default ``ncp_profile`` call (100 seeds, 400
  jobs), serial and with ``workers=2``.  Here the selected path must open
  exactly one pool, and at full scale it must beat serial throughput by
  more than 5% on a multi-core host.

Every configuration must produce the bit-identical NCP profile — the
engine's determinism contract — which is asserted, not just printed.
Results go to ``results/bench_batch_engine.csv`` and
``BENCH_batch_engine.json``.  The CI smoke job (``REPRO_BENCH_SMOKE=1``)
runs on ~50x shrunken proxies, where whether the long leg projects past
the break-even depends on the host's speed; there its pool count and the
timing gates are recorded but not asserted.
"""

from __future__ import annotations

import inspect
import json
import os
import pathlib
import time

import numpy as np

from repro.bench import batched_run, format_seconds, format_table, write_csv
from repro.core import ncp_profile
from repro.core.seeding import random_seeds
from repro.engine import BatchEngine, NCPReducer, job_grid
from repro.engine.scheduler import POOL_BREAK_EVEN_SECONDS

GRAPH = "soc-LJ"
NUM_SEEDS = 16
ALPHAS = (0.05, 0.01)
EPS_VALUES = (1e-4, 1e-5)
SHORT_SEEDS = 2
SHORT_CALLS = 20
LONG_SEEDS = 100
SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
MULTICORE = (os.cpu_count() or 1) >= 2


def _worker_counts() -> list[int]:
    cores = os.cpu_count() or 1
    counts = [1, 2, 4]
    return [w for w in counts if w <= max(2, cores)]


def _ncp_grid() -> dict:
    """The (alpha, eps) grid ``ncp_profile`` runs by default."""
    defaults = inspect.signature(ncp_profile).parameters
    return {"alpha": defaults["alphas"].default, "eps": defaults["eps_values"].default}


def _pool_engine(graph, workers=2):
    return BatchEngine(graph, backend="process", workers=workers, include_vectors=False)


def _scaling_leg(graph):
    seeds = random_seeds(graph, NUM_SEEDS, rng=3)
    grid = {"alpha": ALPHAS, "eps": EPS_VALUES}
    jobs = list(job_grid(seeds, "pr-nibble", grid))
    serial = BatchEngine(graph, backend="serial", include_vectors=False)
    runs = {"serial": (batched_run(serial, jobs, NCPReducer(graph.num_vertices)), 0)}
    for workers in _worker_counts():
        engine = _pool_engine(graph, workers)
        run = batched_run(engine, jobs, NCPReducer(graph.num_vertices))
        runs[f"process-{workers}"] = (run, engine.dispatch_stats.batches)
    return runs


def _forced_pool_profile(graph, seeds):
    """One ``ncp_profile``-equivalent call on a pool opened for it."""
    engine = _pool_engine(graph)
    reducer = NCPReducer(graph.num_vertices)
    with engine.open_session() as session:
        for outcome in session.run(job_grid(seeds, "pr-nibble", _ncp_grid())):
            reducer.update(outcome)
    return reducer.finalize(), engine.dispatch_stats.batches


def _short_leg(graph):
    rng = np.random.default_rng(21)
    calls = [random_seeds(graph, SHORT_SEEDS, rng=rng) for _ in range(SHORT_CALLS)]
    ways = ("serial", "selected", "forced-pool")
    seconds = {way: [] for way in ways}
    profiles = {way: [] for way in ways}
    pools = dict.fromkeys(ways, 0)
    for index, seeds in enumerate(calls):
        # Rotate the order per call so drift in machine speed spreads
        # evenly over the three ways.
        for way in ways[index % 3 :] + ways[: index % 3]:
            start = time.perf_counter()
            if way == "serial":
                profile = ncp_profile(graph, seeds=seeds)
            elif way == "selected":
                engine = _pool_engine(graph)
                profile = ncp_profile(graph, seeds=seeds, engine=engine)
                pools[way] += engine.dispatch_stats.batches
            else:
                profile, opened = _forced_pool_profile(graph, seeds)
                pools[way] += opened
            seconds[way].append(time.perf_counter() - start)
            profiles[way].append(profile)
    return seconds, profiles, pools


def _long_leg(graph):
    seeds = random_seeds(graph, LONG_SEEDS, rng=5)
    jobs = list(job_grid(seeds, "pr-nibble", _ncp_grid()))
    serial = BatchEngine(graph, backend="serial", include_vectors=False)
    runs = {"serial": (batched_run(serial, jobs, NCPReducer(graph.num_vertices)), 0)}
    engine = _pool_engine(graph)
    run = batched_run(engine, jobs, NCPReducer(graph.num_vertices))
    runs["selected"] = (run, engine.dispatch_stats.batches)
    return runs


def _assert_same_profile(profile, reference, name):
    assert profile.runs == reference.runs, name
    assert np.array_equal(profile.conductance, reference.conductance), name


def test_batch_engine_scaling(benchmark, graphs):
    graph = graphs[GRAPH]

    def measure():
        return _scaling_leg(graph), _short_leg(graph), _long_leg(graph)

    scaling, short, long = benchmark.pedantic(measure, rounds=1, iterations=1)
    short_seconds, short_profiles, short_pools = short
    grid = _ncp_grid()
    jobs_per_call = SHORT_SEEDS * len(grid["alpha"]) * len(grid["eps"])

    ms = 1e3
    short_p50 = {way: float(np.median(values)) for way, values in short_seconds.items()}
    # leg, backend, workers, jobs, pools, wall seconds, jobs/s, p50 ms
    rows = [
        [leg, name, run.workers, run.stats.jobs, pools, run.wall_seconds,
         run.jobs_per_second, None]
        for leg, runs in (("scaling", scaling), ("long", long))
        for name, (run, pools) in runs.items()
    ]
    for way, values in short_seconds.items():
        jobs, wall = jobs_per_call * len(values), float(sum(values))
        rows.append(
            ["short", way, 1 if way == "serial" else 2, jobs, short_pools[way], wall,
             jobs / wall, short_p50[way] * ms]
        )
    print()
    print(
        format_table(
            ["leg", "backend", "workers", "jobs", "pools", "wall", "jobs/s", "call p50"],
            [
                [*row[:5], format_seconds(row[5]), f"{row[6]:.1f}",
                 "-" if row[7] is None else f"{row[7]:.1f}ms"]
                for row in rows
            ],
            title=f"Batch engine throughput: {GRAPH} proxy, {os.cpu_count()} host "
            f"cores, pool break-even {POOL_BREAK_EVEN_SECONDS}s projected",
        )
    )
    write_csv(
        "bench_batch_engine",
        ["leg", "backend", "workers", "jobs", "pools", "wall_seconds",
         "jobs_per_second", "call_p50_ms"],
        [[*row[:7], "" if row[7] is None else row[7]] for row in rows],
    )

    long_serial, _ = long["serial"]
    long_selected, long_pools = long["selected"]
    summary = {
        "graph": GRAPH,
        "graph_vertices": graph.num_vertices,
        "host_cores": os.cpu_count(),
        "smoke": SMOKE,
        "pool_break_even_seconds": POOL_BREAK_EVEN_SECONDS,
        "scaling": {
            name: {"jobs": run.stats.jobs, "pools": pools,
                   "jobs_per_second": run.jobs_per_second}
            for name, (run, pools) in scaling.items()
        },
        "short": {
            "calls": SHORT_CALLS,
            "jobs_per_call": jobs_per_call,
            "p50_ms": {way: value * ms for way, value in short_p50.items()},
            "p90_ms": {
                way: float(np.percentile(values, 90)) * ms
                for way, values in short_seconds.items()
            },
            "pools": short_pools,
        },
        "long": {
            "jobs": long_serial.stats.jobs,
            "pools": long_pools,
            "serial_jobs_per_second": long_serial.jobs_per_second,
            "selected_jobs_per_second": long_selected.jobs_per_second,
            "speedup_vs_serial": long_selected.jobs_per_second
            / long_serial.jobs_per_second,
        },
    }
    pathlib.Path("BENCH_batch_engine.json").write_text(json.dumps(summary, indent=2))
    print(json.dumps(summary, indent=2))

    # Determinism contract: every backend, worker count and selection
    # produces the bit-identical NCP profile.
    expected_jobs = NUM_SEEDS * len(ALPHAS) * len(EPS_VALUES)
    baseline, _ = scaling["serial"]
    assert baseline.stats.jobs == expected_jobs
    for name, (run, _) in scaling.items():
        _assert_same_profile(run.value, baseline.value, name)
    for way in ("selected", "forced-pool"):
        for profile, reference in zip(short_profiles[way], short_profiles["serial"]):
            _assert_same_profile(profile, reference, way)
    _assert_same_profile(long_selected.value, long_serial.value, "long")
    assert long_serial.stats.jobs == LONG_SEEDS * len(grid["alpha"]) * len(grid["eps"])
    # The selection: short calls never open a pool (at any scale: a
    # smaller graph only makes them shorter); a forced pool always does.
    assert short_pools["selected"] == 0
    assert short_pools["forced-pool"] == SHORT_CALLS
    if not SMOKE:
        # A library-default call is where the engine pools, once.
        assert long_pools == 1
        assert short_p50["selected"] < short_p50["forced-pool"]
        # On a multi-core host the pool must beat serial where it opens.
        if MULTICORE:
            assert long_selected.jobs_per_second > 1.05 * long_serial.jobs_per_second
