"""The process that holds the graph for the in-process workloads.

``python3 perfbench/worker.py --workload {ncp,evolving} --seed N
--seconds S --trace {0,1} [--probe]``, started by ``run.py`` (whose
pinned environment it inherits).  It prints
``READY`` once set up (the parent times spawn-to-ready as ``setup_s``);
with ``--probe`` it stops there.  Otherwise it runs the timed window,
checks the outputs and prints one ``RESULT {json}`` line.

With ``--trace 1`` the window is split: an untraced half, then a traced
half replaying the same inputs from the start with the benchmark's
wrappers installed (see ``tracing.py``).  The difference between the two on
their common operations is the tracing overhead.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time

from common import add_import_paths, cpu_jiffies, peak_rss_mb, process_cpu_seconds, steal_share

now = time.perf_counter

#: ``evolving`` reads peak RSS after this many operations (40 updates),
#: so the reading does not depend on speed: a faster program completes
#: more updates, and so retains more versions, in the fixed window, and a
#: slower one fewer.
RSS_MARK_OPS = 440
#: ``ncp`` calls replayed in-process, traced, for the worker-side layers.
REPLAY_CALLS = 3
#: Operations generated per stream: several times what a window completes
#: today, so a faster program still measures for the whole window.
CALLS = 2000
OPS = 20000


def ready() -> None:
    print("READY", flush=True)


def _window(run, seconds: float) -> dict:
    """Run ``run(deadline)`` and attach the run-quality diagnostics and the
    peak RSS, read as the window ends -- before the checks, whose
    in-process recomputations would otherwise set the high-water mark."""
    jiffies = cpu_jiffies()
    cpu = process_cpu_seconds()
    start = now()
    data = run(start + seconds)
    data["window_s"] = now() - start
    data["cpu_s"] = process_cpu_seconds() - cpu
    data["steal_share"] = steal_share(jiffies, cpu_jiffies())
    data["peak_rss_mb"] = peak_rss_mb()
    return data


# ----------------------------------------------------------------------
# ncp
# ----------------------------------------------------------------------
def ncp_window(graph, calls, deadline: float, tracer=None) -> dict:
    """Closed loop of ``ncp_profile`` calls until ``deadline``."""
    import numpy as np

    import repro
    from checks import SAMPLE_MAX, SAMPLE_STRIDE

    latencies, summaries, sampled, errors = [], [], {}, []
    for index, seeds in enumerate(calls):
        if now() >= deadline:
            break
        if tracer is not None:
            tracer.op = index
        start = now()
        try:
            result = repro.ncp_profile(graph, seeds=seeds, workers=2)
        except Exception as error:  # counted as failed, the loop goes on
            errors.append(f"call {index}: {error!r}")
            summaries.append(None)
            continue
        latencies.append(now() - start)
        finite = result.conductance[np.isfinite(result.conductance)]
        low, high = (float(finite.min()), float(finite.max())) if finite.size else (0.0, 0.0)
        summaries.append((result.runs, low, high))
        if index % SAMPLE_STRIDE == 0 and len(sampled) < SAMPLE_MAX:
            sampled[index] = result.conductance
    else:
        errors.append("call stream exhausted before the deadline")
    return {"latencies": latencies, "summaries": summaries, "sampled": sampled,
            "errors": errors, "calls": len(summaries)}


def run_ncp(graph, args, rng) -> dict:
    import repro
    import tracing
    from checks import check_ncp
    from workloads import NCP_SEEDS_PER_CALL, ncp_calls, ncp_grid

    grid = ncp_grid()
    warmup = ncp_calls(graph, rng, 1)[0]
    calls = ncp_calls(graph, rng, CALLS)
    repro.ncp_profile(graph, seeds=warmup, workers=2)
    jobs_per_call = len(grid["alpha"]) * len(grid["eps"]) * NCP_SEEDS_PER_CALL
    windows = []
    tracer = None
    if args.trace:
        windows.append(_window(lambda d: ncp_window(graph, calls, d), args.seconds / 2))
        tracer = tracing.Tracer()
        tracing.install_pool_parent(tracer)
        try:
            windows.append(_window(lambda d: ncp_window(graph, calls, d, tracer),
                                   args.seconds / 2))
        finally:
            tracer.restore()
        # Pool workers run untraced: the worker-side layer split comes from
        # an in-process (serial) replay of the first calls' jobs.
        tracing.install_jobs(tracer)
        try:
            for index in range(REPLAY_CALLS):
                tracer.op = ("replay", index)
                repro.ncp_profile(graph, seeds=calls[index])
        finally:
            tracer.restore()
    else:
        windows.append(_window(lambda d: ncp_window(graph, calls, d), args.seconds))
    errors, recomputed = [], []
    for data in windows:
        found, sample = check_ncp(graph, calls, data["summaries"], data.pop("sampled"), grid)
        errors += data["errors"] + found
        recomputed += sample
    data = windows[-1]
    attempted = sum(w["calls"] for w in windows) * jobs_per_call
    failed = sum(1 for w in windows for s in w["summaries"] if s is None) * jobs_per_call
    result = {
        "latencies": data["latencies"],
        "ops": (data["calls"] - sum(s is None for s in data["summaries"])) * jobs_per_call,
        "peak_rss_mb": data["peak_rss_mb"],
        "rss_read_at": f"window end, after call {data['calls']}",
        "window_s": data["window_s"],
        "cpu_s": data["cpu_s"],
        "steal_share": data["steal_share"],
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "inputs": {
            "class_shares": {f"alpha={a},eps={e}": 1.0 / (len(grid["alpha"]) * len(grid["eps"]))
                             for a in grid["alpha"] for e in grid["eps"]},
            "recomputed": recomputed,
            "n": graph.num_vertices,
            "cache_hit_share": 0.0,
            "rebuild_share": 0.0,
        },
    }
    if tracer is not None:
        result["layers"] = tracing.aggregate(
            tracer.spans,
            retained_mb=(graph.offsets.nbytes + graph.neighbors.nbytes) / 2**20,
            build_s=args.build_s,
            overhead_share=tracing.overhead(windows[0]["latencies"], windows[1]["latencies"]),
        )
    return result


# ----------------------------------------------------------------------
# evolving
# ----------------------------------------------------------------------
async def evolving_window(graph, first_read: int, make_ops, seconds: float,
                          tracer=None, on_ready=None) -> dict:
    """A fresh version chain and cached service; after the first read, one
    client issues the operations ``make_ops()`` returns, in order, until
    ``seconds`` have passed.

    Peak RSS is read after exactly RSS_MARK_OPS operations: if the window
    ends before that, the client goes on, untimed, until the mark, so the
    reading never depends on how many versions a window got to retain.
    """
    from checks import SAMPLE_MAX, SAMPLE_STRIDE
    from repro.graph.evolving import EvolvingGraph
    from repro.serve import DiffusionService
    from workloads import READ_PARAMS

    chain = EvolvingGraph(graph)
    service = DiffusionService(chain, cache=True)
    latencies, update_latencies, migrations, rebuilt = [], [], [], []
    sampled, errors, supports = [], [], []
    reads = cached = failed = attempted = 0
    rss = window = None
    async with service:
        await service.submit_query(first_read, **READ_PARAMS)
        reads += 1
        if on_ready is not None:
            on_ready()
        ops = make_ops()
        jiffies = cpu_jiffies()
        cpu = process_cpu_seconds()
        start = now()
        deadline = start + seconds

        def close_window() -> tuple:
            return now() - start, process_cpu_seconds() - cpu, steal_share(jiffies, cpu_jiffies())

        for index, op in enumerate(ops):
            if window is None and now() >= deadline:
                window = close_window()
            if window is not None and rss is not None:
                break
            timed = window is None
            attempted += 1
            if tracer is not None:
                tracer.op = index
            began = now()
            try:
                if op[0] == "read":
                    version = chain.latest.version
                    reads += 1
                    outcome = await service.submit_query(op[1], **READ_PARAMS)
                    if timed:
                        latencies.append(now() - began)
                    supports.append(outcome.support_size)
                    cached += outcome.cached
                    position = reads - 2  # reads issued by the client before this one
                    if (position % SAMPLE_STRIDE == 0 and position < SAMPLE_STRIDE * SAMPLE_MAX
                            or outcome.cached
                            and sum(o.cached for _, _, o in sampled) < SAMPLE_MAX // 2):
                        sampled.append((index, version, outcome))
                else:
                    new_version, stats = await service.update(op[1], op[2])
                    if timed:
                        update_latencies.append(now() - began)
                    migrations.append(stats)
                    rebuilt.append(new_version.rebuilt)
            except Exception as error:  # counted as failed, the loop goes on
                failed += 1
                errors.append(f"op {index}: {error!r}")
            if index + 1 == RSS_MARK_OPS:
                rss = peak_rss_mb()
        else:
            if ops:
                errors.append("op stream exhausted before the deadline and the RSS mark")
            rss = peak_rss_mb()
        if window is None:
            window = close_window()
    return {
        "chain": chain, "latencies": latencies, "update_latencies": update_latencies,
        "migrations": migrations, "rebuilt": rebuilt, "sampled": sampled,
        "errors": errors, "failed": failed, "reads": reads, "cached": cached,
        "supports": supports, "cache_stats": service.engine.cache.stats,
        "ops": len(latencies) + len(update_latencies), "attempted": attempted,
        "window_s": window[0], "cpu_s": window[1], "steal_share": window[2],
        "peak_rss_mb": rss, "rss_read_at": f"op {RSS_MARK_OPS}",
    }


def run_evolving(graph, args, rng) -> dict:
    import numpy as np

    import tracing
    from checks import check_evolving
    from workloads import eligible_seeds, evolving_ops

    first_read = int(rng.choice(eligible_seeds(graph)))
    if args.probe:
        asyncio.run(evolving_window(graph, first_read, list, 0.0, on_ready=ready))
        return {}
    ops: list = []

    def make_ops() -> list:
        if not ops:
            ops.extend(evolving_ops(graph, rng, OPS))
        return ops

    errors, recomputed, windows = [], [], []

    def checked(data: dict) -> dict:
        found, sample = check_evolving(
            data["chain"], data.pop("sampled"), data["migrations"], data["cache_stats"],
            data["cached"], data["reads"],
        )
        errors.extend(data["errors"] + found)
        recomputed.extend(sample)
        windows.append(data)
        return data

    tracer = None
    seconds = args.seconds / 2 if args.trace else args.seconds
    checked(asyncio.run(evolving_window(graph, first_read, make_ops, seconds, on_ready=ready)))
    if args.trace:
        del windows[0]["chain"]  # free the untraced half's versions first
        tracer = tracing.Tracer()
        tracing.install_service(tracer)
        tracing.install_jobs(tracer)
        tracing.install_evolving(tracer)
        try:
            traced = asyncio.run(evolving_window(graph, first_read, make_ops, seconds, tracer))
        finally:
            tracer.restore()
        checked(traced)  # untraced: the checks' recomputations are not spans
    data = windows[-1]
    chain = data["chain"]
    result = {
        "latencies": data["latencies"],
        "update_latencies": data["update_latencies"],
        "ops": data["ops"],
        "window_s": data["window_s"],
        "cpu_s": data["cpu_s"],
        "steal_share": data["steal_share"],
        "peak_rss_mb": data["peak_rss_mb"],
        "rss_read_at": data["rss_read_at"],
        "attempted": sum(w["attempted"] for w in windows),
        "failed": sum(w["failed"] for w in windows),
        "errors": errors,
        "inputs": {
            "class_shares": {
                "read": len(data["latencies"]) / max(data["ops"], 1),
                "update": len(data["update_latencies"]) / max(data["ops"], 1),
            },
            "support_over_n": float(np.mean(data["supports"])) / graph.num_vertices,
            "recomputed": recomputed,
            "cache_hit_share": data["cached"] / max(len(data["latencies"]), 1),
            "rebuild_share": float(np.mean(data["rebuilt"])) if data["rebuilt"] else 0.0,
        },
    }
    if tracer is not None:
        arrays = {id(chain.at(v).graph): chain.at(v).graph for v in range(len(chain))}
        retained = sum(g.offsets.nbytes + g.neighbors.nbytes for g in arrays.values())
        first, second = windows
        result["layers"] = tracing.aggregate(
            tracer.spans,
            retained_mb=retained / 2**20,
            build_s=args.build_s,
            overhead_share=tracing.overhead(first["latencies"], second["latencies"]),
        )
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=("ncp", "evolving"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)
    add_import_paths()

    import numpy as np

    from repro.graph import load_proxy
    from workloads import GRAPH

    start = now()
    graph = load_proxy(GRAPH)
    args.build_s = now() - start
    rng = np.random.default_rng(args.seed)
    if args.workload == "ncp":
        ready()
        if args.probe:
            return 0
        result = run_ncp(graph, args, rng)
    else:
        result = run_evolving(graph, args, rng)
        if args.probe:
            return 0
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
