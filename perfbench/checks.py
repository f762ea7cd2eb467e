"""Correctness checks, run after the timed window.

They hold for any correct implementation, not for a digest of today's
output: replies are checked against the CSR and against independent
in-process recomputations through the public API.  Each check returns a
list of failure messages (empty means correct) and, for the input-property
profile, one ``(dense, support)`` pair per recomputed job: whether its
largest BSP frontier exceeded DENSE_FRONTIER of the vertices (``None``
for walk-based methods, which have no frontier) and its support size.
"""

from __future__ import annotations

import numpy as np

#: a frontier above this share of n marks a job as dense.
DENSE_FRONTIER = 0.05
#: every SAMPLE_STRIDE-th operation is recomputed in-process.
SAMPLE_STRIDE = 25
SAMPLE_MAX = 16


def sample_positions(count: int) -> list[int]:
    """The fixed positions recomputed in-process among ``count`` operations."""
    return list(range(0, count, SAMPLE_STRIDE))[:SAMPLE_MAX]


def job_profile(graph, diffusion) -> tuple[bool | None, int]:
    sizes = diffusion.extras.get("frontier_sizes")
    dense = max(sizes) > DENSE_FRONTIER * graph.num_vertices if sizes else None
    return dense, diffusion.support_size()


def check_interactive(graph, requests: list[dict], replies: list[dict]):
    """Every reply succeeded, echoes its id, has ``size == len(cluster)`` and
    the conductance of its cluster on the CSR; a fixed sample matches
    in-process ``local_cluster`` field by field."""
    from repro import local_cluster
    from repro.core.quality import conductance

    errors: list[str] = []
    for request, reply in zip(requests, replies):
        rid = request["id"]
        if "error" in reply:
            errors.append(f"{rid}: error reply {reply['error']}")
            continue
        if reply.get("id") != rid:
            errors.append(f"{rid}: reply echoes id {reply.get('id')!r}")
        cluster = reply.get("cluster")
        if cluster is None or reply.get("size") != len(cluster):
            errors.append(f"{rid}: size {reply.get('size')} != len(cluster)")
            continue
        phi = conductance(graph, np.asarray(cluster, dtype=np.int64))
        if reply.get("conductance") != phi:
            errors.append(f"{rid}: conductance {reply.get('conductance')} != {phi} on the CSR")
    profiles = []
    for position in sample_positions(len(replies)):
        request, reply = requests[position], replies[position]
        if "error" in reply:
            continue
        result = local_cluster(
            graph,
            np.asarray(request["seeds"], dtype=np.int64),
            method=request["method"],
            rng=request["rng"],
            **request["params"],
        )
        expected = {
            "seeds": request["seeds"],
            "method": request["method"],
            "size": len(result.cluster),
            "conductance": result.conductance,
            "support": result.diffusion.support_size(),
            "pushes": result.diffusion.pushes,
            "cluster": result.cluster.tolist(),
        }
        for field, value in expected.items():
            if reply.get(field) != value:
                errors.append(
                    f"{request['id']}: {field} {reply.get(field)!r} != in-process {value!r}"
                )
        profiles.append(job_profile(graph, result.diffusion))
    return errors, profiles


def check_ncp(graph, calls: list[list[int]], summaries: list[tuple],
              sampled: dict[int, np.ndarray], grid: dict):
    """``runs`` equals the job count and every finite value lies in (0, 1]
    for every completed call (``summaries[i]`` is ``(runs, low, high)`` for
    ``calls[i]``, ``None`` if it failed); each sampled call's profile is
    pointwise <= the sweep profiles of its first and last job, recomputed
    through ``local_cluster``."""
    from repro import local_cluster

    errors: list[str] = []
    jobs_per_seed = len(grid["alpha"]) * len(grid["eps"])
    for index, summary in enumerate(summaries):
        if summary is None:
            continue
        runs, low, high = summary
        expected = jobs_per_seed * len(calls[index])
        if runs != expected:
            errors.append(f"call {index}: runs {runs} != {expected} jobs")
        if not (low > 0.0 and high <= 1.0):
            errors.append(f"call {index}: finite conductances span [{low}, {high}]")
    profiles = []
    for index, profile in sorted(sampled.items()):
        seeds = calls[index]
        for seed, alpha, eps in (
            (seeds[0], grid["alpha"][0], grid["eps"][0]),
            (seeds[-1], grid["alpha"][-1], grid["eps"][-1]),
        ):
            result = local_cluster(graph, seed, method="pr-nibble", alpha=alpha, eps=eps)
            phis = result.sweep.conductances[: len(profile)]
            valid = phis > 0.0
            worse = profile[: len(phis)][valid] > phis[valid]
            if worse.any():
                errors.append(
                    f"call {index}: profile above the sweep of seed {seed} "
                    f"(alpha={alpha}, eps={eps}) at {int(worse.sum())} sizes"
                )
            profiles.append(job_profile(graph, result.diffusion))
    return errors, profiles


def _same_outcome(served, cold) -> list[str]:
    """Field-by-field equality of two ``JobOutcome``s (timings excluded)."""
    differences = [
        name
        for name in ("support_size", "iterations", "pushes", "touched_edges",
                     "residual_mass")
        if getattr(served, name) != getattr(cold, name)
    ]
    if (served.sweep is None) != (cold.sweep is None):
        differences.append("sweep")
    elif served.sweep is not None:
        for name in ("order", "conductances", "volumes", "cuts"):
            if not np.array_equal(getattr(served.sweep, name), getattr(cold.sweep, name)):
                differences.append(f"sweep.{name}")
        if served.sweep.best_index != cold.sweep.best_index:
            differences.append("sweep.best_index")
    served_vector, cold_vector = (
        (outcome.vector_keys[order], outcome.vector_values[order])
        for outcome in (served, cold)
        for order in [np.argsort(outcome.vector_keys)]
    )
    if not all(map(np.array_equal, served_vector, cold_vector)):
        differences.append("vector")
    return differences


def check_evolving(chain, sampled_reads: list[tuple], migrations: list,
                   cache_stats, cached_reads: int, reads: int):
    """Sampled reads (cache hits included) equal a cold ``run_job`` on the
    version they were admitted under, every migration's counters balance,
    and the cache's hit/miss/store counters agree with what the client saw."""
    from repro.core.api import ALGORITHMS
    from repro.engine.executor import run_job

    errors: list[str] = []
    profiles = []
    for index, version, outcome in sampled_reads:
        graph = chain.at(version).graph
        cold = run_job(graph, outcome.job, parallel=True, include_vector=True)
        differences = _same_outcome(outcome, cold)
        if differences:
            errors.append(
                f"read {index} (version {version}, cached={outcome.cached}): "
                f"differs from a cold run in {', '.join(differences)}"
            )
        params_cls, runner, _ = ALGORITHMS[outcome.job.method]
        diffusion = runner(graph, np.asarray(outcome.job.seeds), params_cls(**outcome.job.params))
        profiles.append(job_profile(graph, diffusion))
    survived = 0
    for number, stats in enumerate(migrations, start=1):
        if stats.examined != stats.survived + stats.invalidated + stats.skipped:
            errors.append(f"update {number}: migration counters do not balance ({stats})")
        survived += stats.survived
    if cache_stats.hits != cached_reads:
        errors.append(f"cache counted {cache_stats.hits} hits, client saw {cached_reads}")
    if cache_stats.hits + cache_stats.misses != reads:
        errors.append(
            f"cache counted {cache_stats.hits + cache_stats.misses} lookups for {reads} reads"
        )
    if cache_stats.stores != cache_stats.misses - cache_stats.coalesced + survived:
        errors.append(
            f"cache stored {cache_stats.stores} entries; expected misses "
            f"{cache_stats.misses} - coalesced {cache_stats.coalesced} + migrated {survived}"
        )
    return errors, profiles
