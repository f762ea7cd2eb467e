"""Compiled kernel plane — single-thread hot-loop throughput vs Python.

The kernel plane's acceptance numbers: the compiled PR-Nibble push loop
runs the *same* diffusion (bit-identical p/r vectors, pushes, sweep) at
>= 10x the Python reference's single-thread throughput, and so does the
default path.  Three timed scenarios per available kernel, all
sequential (``parallel=False`` where the knob applies) so the comparison
is loop implementation and nothing else:

* **pr-nibble** — the queue-based push loop, the paper's workhorse, at a
  Table-3-style tight eps (the regime where the loop dominates and the
  per-call overhead of either implementation vanishes);
* **sweep** — the incremental sweep-cut membership scan over the
  diffusion's support;
* **rand-hk-pr** — the vectorised walk step loop (filter + gather).

Plus one **default-path** leg: ``local_cluster`` exactly as every entry
point calls it (``parallel=True``: frontier-synchronous PR-Nibble and the
Theorem 1 sweep) on the soc-LJ proxy at alpha=0.01, eps=1e-6, with
``kernel="python"`` (the numpy rounds) against the default kernel.  The
two must return the same cluster, conductance, support, pushes, rounds
and recorded work/depth profile.

And one **default-path diffusion** leg per other parallel method, on
soc-LJ at the parameters of the end-to-end benchmark's interactive mix:
BSP Nibble (eps=1e-5), HK-PR (t=5, eps=1e-4) and rand-HK-PR (10,000
walks), each from the same random seeds under ``kernel="python"`` and
the default.  Every seed's vector (entry order and values), counters,
``extras`` and profile must match; the leg reports the diffusion p50 of
each side.  The sweep is the default path's one, unchanged, so it is
left out of these timings.

Results: ``results/bench_kernels.csv`` + ``BENCH_kernels.json`` with the
headline ``pr_nibble_speedup`` per compiled kernel, the default path's
``speedup`` and each diffusion leg's ``speedup``.  Outside smoke mode the
>= 10x criteria and a >= 5x diffusion p50 for Nibble and HK-PR are
asserted (at smoke scale the shrunken proxies leave too few pushes for
the ratios to stabilise).  Warm-up (JIT/compile) is paid before any clock
starts — the same steady-state rule the executor's ``warmup_seconds``
accounting enforces.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
import time

import numpy as np

from repro import local_cluster
from repro.bench import format_seconds, format_table, write_csv
from repro.core import (
    HKPRParams,
    NibbleParams,
    PRNibbleParams,
    RandHKPRParams,
    hk_pr,
    nibble,
    pr_nibble,
    rand_hk_pr,
    sweep_cut,
)
from repro.core.result import vector_items
from repro.kernels import available_kernels, ensure_warm, resolve_kernel
from repro.runtime import track

GRAPH = "Twitter"  # largest-volume proxy: longest push queues
SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

NUM_SEEDS = 2 if SMOKE else 8
PR_PARAMS = PRNibbleParams(alpha=0.01, eps=1e-4 if SMOKE else 3e-7)
WALK_PARAMS = RandHKPRParams(
    t=10.0, max_walk_length=10, num_walks=2_000 if SMOKE else 200_000
)
MIN_SPEEDUP = 10.0

DEFAULT_PATH_GRAPH = "soc-LJ"  # the end-to-end benchmark's graph
DEFAULT_PATH_PARAMS = {"alpha": 0.01, "eps": 1e-4 if SMOKE else 1e-6}

#: the other parallel methods at the end-to-end benchmark's interactive
#: parameters: (method, diffusion, params, passes an rng).
DIFFUSION_LEGS = (
    ("nibble", nibble, NibbleParams(eps=1e-5), False),
    ("hk-pr", hk_pr, HKPRParams(t=5.0, eps=1e-4), False),
    ("rand-hk-pr", rand_hk_pr, RandHKPRParams(num_walks=10_000), True),
)
DIFFUSION_SEEDS = 8 if SMOKE else 40
MIN_DIFFUSION_SPEEDUP = 5.0  # asserted for nibble and hk-pr


def bench_seeds(graph):
    """High-degree seeds spread across the vertex range: long pushes, no
    degenerate single-vertex supports."""
    degrees = graph.degrees()
    order = np.argsort(-degrees)[: NUM_SEEDS * 50]
    return np.sort(order[:: max(1, len(order) // NUM_SEEDS)][:NUM_SEEDS])


def time_kernel(kernel, graph, seeds):
    """One timed pass per scenario; returns (seconds, checksums) maps."""
    ensure_warm(kernel)  # JIT/compile outside every clock
    seconds = {}
    checks = {}

    start = time.perf_counter()
    results = [
        pr_nibble(graph, int(s), PR_PARAMS, parallel=False, kernel=kernel)
        for s in seeds
    ]
    seconds["pr_nibble"] = time.perf_counter() - start
    checks["pushes"] = sum(r.pushes for r in results)
    checks["p_digest"] = [
        (int(keys[0]), float(values.sum()))
        for keys, values in (vector_items(r.vector) for r in results)
    ]

    start = time.perf_counter()
    sweeps = [
        sweep_cut(graph, r.vector, parallel=False, kernel=kernel) for r in results
    ]
    seconds["sweep"] = time.perf_counter() - start
    checks["sweep"] = [
        (int(s.volumes[-1]), int(s.cuts[-1]), s.best_index) for s in sweeps
    ]

    start = time.perf_counter()
    walks = rand_hk_pr(
        graph, int(seeds[0]), WALK_PARAMS, parallel=True, rng=7, kernel=kernel
    )
    seconds["rand_hk_pr"] = time.perf_counter() - start
    checks["walk"] = sorted(walks.vector.to_dict().items())
    return seconds, checks


def time_default_path(graph, seed, kernel):
    """One default-path ``local_cluster`` call: (seconds, result, profile)."""
    ensure_warm(kernel)
    start = time.perf_counter()
    with track() as profile:
        result = local_cluster(graph, seed, kernel=kernel, **DEFAULT_PATH_PARAMS)
    return time.perf_counter() - start, result, profile


def default_path_leg(graph):
    """numpy rounds vs the default kernel on the default path; asserts
    identical results and profiles, returns the summary entry."""
    seed = int(np.argmax(graph.degrees()))
    numpy_seconds, numpy_run, numpy_profile = time_default_path(graph, seed, "python")
    seconds, run, profile = time_default_path(graph, seed, None)
    assert np.array_equal(run.cluster, numpy_run.cluster)
    assert run.conductance == numpy_run.conductance
    assert run.diffusion.support_size() == numpy_run.diffusion.support_size()
    assert run.diffusion.pushes == numpy_run.diffusion.pushes
    assert run.diffusion.iterations == numpy_run.diffusion.iterations
    assert profile.snapshot() == numpy_profile.snapshot()
    assert profile.rounds == numpy_profile.rounds
    return {
        "graph": DEFAULT_PATH_GRAPH,
        "seed": seed,
        **DEFAULT_PATH_PARAMS,
        "default_kernel": resolve_kernel(None),
        "numpy_seconds": numpy_seconds,
        "default_seconds": seconds,
        "speedup": numpy_seconds / seconds,
        "support": run.diffusion.support_size(),
        "pushes": run.diffusion.pushes,
        "rounds": run.diffusion.iterations,
        "cluster_size": run.size,
        "conductance": run.conductance,
    }


def time_diffusions(graph, seeds, run, kernel):
    """One diffusion per seed: (per-call seconds, results, profiles)."""
    ensure_warm(kernel)
    run(int(seeds[0]), kernel)  # first-call costs outside every clock
    seconds, results, profiles = [], [], []
    for seed in seeds.tolist():
        with track() as profile:
            start = time.perf_counter()
            results.append(run(seed, kernel))
            seconds.append(time.perf_counter() - start)
        profiles.append(profile)
    return seconds, results, profiles


def diffusion_legs(graph):
    """numpy rounds vs the default kernel for each method of
    :data:`DIFFUSION_LEGS`; asserts identical outputs and profiles per
    seed, returns ``{method: summary entry}``."""
    eligible = np.flatnonzero(graph.degrees() > 0)
    seeds = np.random.default_rng(0).choice(eligible, DIFFUSION_SEEDS)
    legs = {}
    for method, diffusion, params, takes_rng in DIFFUSION_LEGS:
        def run(seed, kernel, diffusion=diffusion, params=params, takes_rng=takes_rng):
            extra = {"rng": seed} if takes_rng else {}
            return diffusion(graph, seed, params, kernel=kernel, **extra)

        numpy_seconds, numpy_runs, numpy_profiles = time_diffusions(
            graph, seeds, run, "python"
        )
        seconds, runs, profiles = time_diffusions(graph, seeds, run, None)
        for a, b, a_profile, b_profile in zip(numpy_runs, runs, numpy_profiles, profiles):
            a_keys, a_values = vector_items(a.vector)
            b_keys, b_values = vector_items(b.vector)
            assert np.array_equal(a_keys, b_keys), f"{method} entry order diverged"
            assert np.array_equal(a_values, b_values), f"{method} values diverged"
            assert (a.pushes, a.touched_edges, a.iterations) == (
                b.pushes, b.touched_edges, b.iterations
            )
            assert a.extras == b.extras
            assert list(a_profile.snapshot().items()) == list(b_profile.snapshot().items())
            assert a_profile.rounds == b_profile.rounds
        numpy_p50 = float(np.median(numpy_seconds))
        default_p50 = float(np.median(seconds))
        legs[method] = {
            "params": dataclasses.asdict(params),
            "seeds": len(seeds),
            "default_kernel": resolve_kernel(None),
            "numpy_p50_ms": numpy_p50 * 1e3,
            "default_p50_ms": default_p50 * 1e3,
            "speedup": numpy_p50 / default_p50,
            "mean_support": float(np.mean([r.support_size() for r in runs])),
        }
    return legs


def test_kernel_throughput(benchmark, graphs):
    graph = graphs[GRAPH]
    seeds = bench_seeds(graph)
    kernels = available_kernels()

    def measure():
        return {kernel: time_kernel(kernel, graph, seeds) for kernel in kernels}

    runs = benchmark.pedantic(measure, rounds=1, iterations=1)
    default_path = default_path_leg(graphs[DEFAULT_PATH_GRAPH])
    diffusions = diffusion_legs(graphs[DEFAULT_PATH_GRAPH])

    # Differential gate first: a fast wrong kernel is not a result.
    _, reference = runs["python"]
    for kernel in kernels:
        _, checks = runs[kernel]
        assert checks == reference, f"kernel {kernel!r} diverged from python"

    pushes = reference["pushes"]

    headers = ["kernel", "pr-nibble", "pushes/s", "speedup", "sweep", "rand-hk-pr"]
    rows = []
    csv_rows = []
    py_seconds = runs["python"][0]
    speedups = {}
    for kernel in kernels:
        seconds = runs[kernel][0]
        speedups[kernel] = py_seconds["pr_nibble"] / seconds["pr_nibble"]
        rows.append(
            [
                kernel,
                format_seconds(seconds["pr_nibble"]),
                f"{pushes / seconds['pr_nibble']:.3g}",
                f"{speedups[kernel]:.1f}x",
                format_seconds(seconds["sweep"]),
                format_seconds(seconds["rand_hk_pr"]),
            ]
        )
        csv_rows.append(
            [
                kernel,
                seconds["pr_nibble"],
                pushes / seconds["pr_nibble"],
                speedups[kernel],
                seconds["sweep"],
                seconds["rand_hk_pr"],
            ]
        )
    print()
    print(
        format_table(
            headers,
            rows,
            title=f"Kernel throughput: {GRAPH} proxy, {len(seeds)} seeds, "
            f"alpha={PR_PARAMS.alpha} eps={PR_PARAMS.eps}, {pushes} pushes, "
            "sequential (single thread)",
        )
    )
    print(
        format_table(
            ["kernel", "local_cluster", "speedup", "pushes", "rounds", "phi"],
            [
                ["python (numpy rounds)", format_seconds(default_path["numpy_seconds"]),
                 "1.0x", default_path["pushes"], default_path["rounds"],
                 f"{default_path['conductance']:.4g}"],
                [f"default ({default_path['default_kernel']})",
                 format_seconds(default_path["default_seconds"]),
                 f"{default_path['speedup']:.1f}x", default_path["pushes"],
                 default_path["rounds"], f"{default_path['conductance']:.4g}"],
            ],
            title=f"Default path: {DEFAULT_PATH_GRAPH} proxy, seed "
            f"{default_path['seed']}, alpha={DEFAULT_PATH_PARAMS['alpha']} "
            f"eps={DEFAULT_PATH_PARAMS['eps']}, parallel=True (single thread)",
        )
    )
    print(
        format_table(
            ["method", "python (numpy rounds)", "default", "speedup", "support"],
            [
                [method, f"{leg['numpy_p50_ms']:.2f} ms", f"{leg['default_p50_ms']:.2f} ms",
                 f"{leg['speedup']:.1f}x", f"{leg['mean_support']:.0f}"]
                for method, leg in diffusions.items()
            ],
            title=f"Default-path diffusion p50: {DEFAULT_PATH_GRAPH} proxy, "
            f"{DIFFUSION_SEEDS} random seeds, parallel=True (single thread)",
        )
    )
    write_csv(
        "bench_kernels",
        [
            "kernel",
            "pr_nibble_seconds",
            "pushes_per_second",
            "pr_nibble_speedup",
            "sweep_seconds",
            "rand_hk_pr_seconds",
        ],
        csv_rows,
    )
    summary = {
        "graph": GRAPH,
        "seeds": len(seeds),
        "alpha": PR_PARAMS.alpha,
        "eps": PR_PARAMS.eps,
        "pushes": pushes,
        "smoke": SMOKE,
        "kernels": {
            kernel: {
                "pr_nibble_seconds": runs[kernel][0]["pr_nibble"],
                "pushes_per_second": pushes / runs[kernel][0]["pr_nibble"],
                "pr_nibble_speedup": speedups[kernel],
                "sweep_seconds": runs[kernel][0]["sweep"],
                "rand_hk_pr_seconds": runs[kernel][0]["rand_hk_pr"],
            }
            for kernel in kernels
        },
        "default_path": default_path,
        "default_path_diffusions": diffusions,
    }
    pathlib.Path("BENCH_kernels.json").write_text(json.dumps(summary, indent=2))
    print(json.dumps(summary, indent=2))

    # The acceptance criteria: >= 10x single-thread push throughput from
    # every compiled kernel, >= 10x on the default path and >= 5x
    # diffusion p50 for default-path Nibble and HK-PR, at full bench scale
    # only (smoke's loose eps and shrunken graphs leave so little work
    # that constant overheads dominate the ratios).
    compiled = [kernel for kernel in kernels if kernel != "python"]
    if not SMOKE:
        assert compiled, "no compiled kernel available to measure"
        for kernel in compiled:
            assert speedups[kernel] >= MIN_SPEEDUP, (
                f"{kernel} speedup {speedups[kernel]:.1f}x < {MIN_SPEEDUP}x "
                f"({py_seconds['pr_nibble']:.3f}s python vs "
                f"{runs[kernel][0]['pr_nibble']:.3f}s {kernel})"
            )
        assert default_path["speedup"] >= MIN_SPEEDUP, (
            f"default path speedup {default_path['speedup']:.1f}x < {MIN_SPEEDUP}x"
        )
        for method in ("nibble", "hk-pr"):
            speedup = diffusions[method]["speedup"]
            assert speedup >= MIN_DIFFUSION_SPEEDUP, (
                f"{method} diffusion p50 speedup {speedup:.1f}x < "
                f"{MIN_DIFFUSION_SPEEDUP}x"
            )
