"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``graphs``
    List the Table-2 proxy registry (paper sizes vs proxy sizes).
``generate``
    Build a graph (proxy or named generator) and write it to disk.
``update``
    Apply batched edge insertions/deletions to a graph (the evolving
    plane, :mod:`repro.graph.evolving`) and write the resulting version;
    prints each version's content fingerprint and touched-vertex count.
``cluster``
    Run one local clustering query — the paper's interactive use case —
    against a proxy or a graph file, printing the cluster and, optionally,
    the work-depth profile with simulated paper-machine times.
``ncp``
    Generate a network community profile (Figure-12 style) as CSV.
``batch``
    Run a whole stream of diffusion jobs (seeds x parameter grid) through
    the batch engine — optionally across a process pool — writing one CSV
    row per job plus a throughput summary.
``cache``
    Inspect (``stats``) or empty (``clear``) an on-disk result cache
    directory, as populated by ``ncp``/``batch`` with ``--cache-dir``.
``serve``
    Run the async serving plane.  Default: a stdin/stdout JSON loop —
    one request object per input line (``{"seeds": 5, "method":
    "pr-nibble", "params": {"eps": 1e-5}}``), one reply object per
    output line, in request order.  With ``--listen HOST:PORT`` the same
    codec is served over TCP (NDJSON lines and HTTP/1.1 POST on one
    port) with per-client round-robin fairness, ``--rate``/``--burst``
    token-bucket limiting, ``--max-inflight``/``--max-pending`` caps and
    structured 429 backpressure — see ``docs/serving.md`` for wire
    schema v1.  Either way requests micro-batch onto one long-lived
    worker pool; ``"priority": "bulk"`` queues behind interactive
    requests, and a ``"kernel"`` field overrides the loop implementation
    per request.  Malformed requests get a structured ``{"error":
    {"message", "code", "field"}}`` reply naming the offending field.
``kernels``
    Show which loop implementations (:mod:`repro.kernels`) are available
    in this environment and what ``--kernel auto`` resolves to.

``ncp`` and ``batch`` accept ``--cache`` (memoise job outcomes in memory
for the run — overlapping grids coalesce) and ``--cache-dir DIR``
(persist outcomes on disk so repeated invocations replay instead of
re-diffusing).

``cluster`` and ``serve`` accept ``--updates FILE`` (replay an
edge-update file into a version chain before running) and
``--at-version K`` (select which version to run against); ``serve``
additionally honours a per-request ``"graph_version"`` wire field, so
clients can keep querying a superseded version.

``cluster``, ``ncp``, ``batch`` and ``serve`` accept ``--kernel``
(``auto``/``python``/``c``): the loop implementation for the
hot diffusion paths.  Results are bit-identical across kernels — the
flag only changes speed; ``auto`` picks the fastest available and
silently falls back to Python.
"""

from __future__ import annotations

import argparse
import re
import sys
import time
from pathlib import Path

import numpy as np

from .cache import DiskStore, resolve_cache
from .core import ALGORITHMS, cluster_stats, local_cluster, ncp_profile, random_seeds
from .core.options import EngineOptions
from .engine import BatchEngine, BestClusterReducer, StatsReducer, job_grid
from .graph import (
    PROXIES,
    grid_3d,
    load_npz,
    load_proxy,
    proxy_names,
    rand_local,
    read_adjacency_graph,
    read_edge_list,
    rmat,
    save_npz,
    write_adjacency_graph,
    write_edge_list,
)
from .runtime import PAPER_MACHINE, track

__all__ = ["main", "build_parser"]


def _load_graph(spec: str):
    """A graph from a proxy name or a file path (by extension)."""
    if spec in PROXIES:
        return load_proxy(spec)
    path = Path(spec)
    if not path.exists():
        raise SystemExit(f"error: {spec!r} is neither a proxy name nor a file")
    if path.suffix == ".npz":
        return load_npz(path)
    if path.suffix == ".adj":
        return read_adjacency_graph(path)
    return read_edge_list(path)


def _cmd_graphs(args: argparse.Namespace) -> int:
    print(f"{'name':<16} {'paper n':>15} {'paper m':>15} {'proxy family'}")
    for name in proxy_names():
        spec = PROXIES[name]
        print(f"{name:<16} {spec.paper_vertices:>15,} {spec.paper_edges:>15,} {spec.kind}")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.kind == "proxy":
        graph = load_proxy(args.name, scale=args.scale, seed=args.seed)
    elif args.kind == "rand-local":
        graph = rand_local(args.n, seed=args.seed)
    elif args.kind == "3d-grid":
        graph = grid_3d(max(2, round(args.n ** (1 / 3))))
    elif args.kind == "rmat":
        graph = rmat(max(3, int(np.ceil(np.log2(max(args.n, 8))))), seed=args.seed)
    else:  # pragma: no cover - argparse restricts choices
        raise SystemExit(f"unknown kind {args.kind!r}")
    out = Path(args.output)
    if out.suffix == ".npz":
        save_npz(graph, out)
    elif out.suffix == ".adj":
        write_adjacency_graph(graph, out)
    else:
        write_edge_list(graph, out)
    print(f"wrote {graph!r} to {out}")
    return 0


def _cmd_update(args: argparse.Namespace) -> int:
    from .graph import EvolvingGraph

    graph = _load_graph(args.graph)
    batches = _load_update_batches(args.updates) if args.updates else []
    loose_inserts = [tuple(edge) for edge in (args.insert or [])]
    loose_deletes = [tuple(edge) for edge in (args.delete or [])]
    if loose_inserts or loose_deletes:
        batches.append((loose_inserts, loose_deletes))
    if not batches:
        raise SystemExit(
            "error: nothing to apply; pass --insert/--delete or --updates FILE"
        )
    chain = (
        EvolvingGraph(graph)
        if args.rebuild_threshold is None
        else EvolvingGraph(graph, rebuild_threshold=args.rebuild_threshold)
    )
    print(f"version 0: fingerprint {chain.at(0).fingerprint()[:12]} ({graph!r})")
    for inserts, deletes in batches:
        try:
            version = chain.apply_updates(insertions=inserts, deletions=deletes)
        except ValueError as error:
            raise SystemExit(f"error: {error}") from None
        materialized = "rebuild" if version.rebuilt else "delta-splice"
        print(
            f"version {version.version}: fingerprint {version.fingerprint()[:12]} "
            f"+{len(inserts)}/-{len(deletes)} requested, "
            f"{len(version.touched)} vertices touched ({materialized})"
        )
    final = chain.latest.graph
    out = Path(args.output)
    if out.suffix == ".npz":
        save_npz(final, out)
    elif out.suffix == ".adj":
        write_adjacency_graph(final, out)
    else:
        write_edge_list(final, out)
    print(f"wrote {final!r} to {out}")
    return 0


def _parse_scalar(raw: str) -> object:
    """``true``/``false`` as bools, else int, else float, else the raw
    string — the --param value grammar."""
    if raw in ("true", "false"):
        return raw == "true"
    try:
        return int(raw)
    except ValueError:
        try:
            return float(raw)
        except ValueError:
            return raw


def _parse_params(pairs: list[str], flag: str = "--param") -> dict[str, object]:
    overrides: dict[str, object] = {}
    for setting in pairs:
        if "=" not in setting:
            raise SystemExit(f"error: {flag} expects key=value, got {setting!r}")
        key, _, raw = setting.partition("=")
        overrides[key] = _parse_scalar(raw)
    return overrides


def _load_update_batches(path: str) -> list[tuple[list[tuple[int, int]], list[tuple[int, int]]]]:
    """Parse an edge-update file into ``(insertions, deletions)`` batches.

    One update per line: ``+ u v`` inserts the undirected edge ``{u, v}``,
    ``- u v`` deletes it.  A line holding only ``--`` closes the current
    batch (each batch becomes one graph version); blank lines and ``#``
    comments are ignored.
    """
    batches: list[tuple[list[tuple[int, int]], list[tuple[int, int]]]] = []
    inserts: list[tuple[int, int]] = []
    deletes: list[tuple[int, int]] = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line == "--":
            if inserts or deletes:
                batches.append((inserts, deletes))
                inserts, deletes = [], []
            continue
        parts = line.split()
        if len(parts) != 3 or parts[0] not in "+-":
            raise SystemExit(
                f"error: {path}:{lineno}: expected '+ u v', '- u v' or '--', "
                f"got {raw!r}"
            )
        try:
            edge = (int(parts[1]), int(parts[2]))
        except ValueError:
            raise SystemExit(
                f"error: {path}:{lineno}: vertex ids must be integers, got {raw!r}"
            ) from None
        (inserts if parts[0] == "+" else deletes).append(edge)
    if inserts or deletes:
        batches.append((inserts, deletes))
    return batches


def _evolving_from_args(graph, args: argparse.Namespace):
    """Lift a loaded graph into the version chain --updates/--at-version ask
    for; returns the graph unchanged when neither flag is set."""
    from .graph import EvolvingGraph

    if args.updates is None and args.at_version is None:
        return graph
    chain = EvolvingGraph(graph)
    if args.updates is not None:
        for inserts, deletes in _load_update_batches(args.updates):
            chain.apply_updates(insertions=inserts, deletions=deletes)
    if args.at_version is not None and args.at_version >= len(chain):
        raise SystemExit(
            f"error: --at-version {args.at_version} does not exist "
            f"(the chain has versions 0..{len(chain) - 1})"
        )
    return chain


def _cmd_cluster(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    loaded = _evolving_from_args(graph, args)
    if loaded is not graph:
        version = loaded.at(args.at_version)
        print(
            f"version {version.version}/{len(loaded) - 1}: "
            f"fingerprint {version.fingerprint()[:12]}"
        )
        graph = version.graph
    overrides = _parse_params(args.param)
    seed = args.seed if args.seed is not None else int(np.argmax(graph.degrees()))

    if args.profile:
        with track() as tracker:
            result = local_cluster(
                graph, seed, method=args.method, rng=args.rng, kernel=args.kernel, **overrides
            )
    else:
        result = local_cluster(
            graph, seed, method=args.method, rng=args.rng, kernel=args.kernel, **overrides
        )

    stats = cluster_stats(graph, result.cluster)
    print(f"graph: {graph!r}   seed: {seed}   method: {args.method}")
    print(f"cluster: |S|={stats.size} vol={stats.volume} cut={stats.boundary} "
          f"phi={stats.conductance:.5f}")
    print(f"diffusion: support={result.diffusion.support_size()} "
          f"iterations={result.diffusion.iterations} pushes={result.diffusion.pushes}")
    shown = ", ".join(map(str, result.cluster[: args.show].tolist()))
    more = ", ..." if result.size > args.show else ""
    print(f"members: [{shown}{more}]")
    if args.profile:
        t1 = PAPER_MACHINE.simulated_time(tracker, 1)
        t40 = PAPER_MACHINE.simulated_time_on_cores(tracker, 40)
        print(f"profile: work={tracker.work:.3g} depth={tracker.depth:.3g} "
              f"simT1={t1:.4g}s simT40={t40:.4g}s speedup={t1 / t40:.1f}x")
    return 0


def _cache_from_args(args: argparse.Namespace):
    """The run's ResultCache (or None) from --cache / --cache-dir."""
    return resolve_cache(args.cache_dir or (True if args.cache else None))


#: engine knobs that surface as CLI flags of the same name, and the
#: pattern that finds them in a validator message.
_FLAG_KNOBS = ("workers", "start_method", "kernel")
_FLAG_KNOB_NAMES = re.compile(r"(?<![\w-])(" + "|".join(_FLAG_KNOBS) + r")(?![\w-])")


def _engine_options(args: argparse.Namespace, cache, **fixed: object) -> EngineOptions:
    """The command's engine flags as one EngineOptions record.

    ``EngineOptions.validate`` is the only conflict check; its message is
    reported with each knob spelled as its flag (``--start-method``).
    """
    knobs = {name: getattr(args, name, None) for name in _FLAG_KNOBS}
    if knobs["workers"] is not None and knobs["workers"] <= 1:
        knobs["workers"] = None  # --workers 1 means in-process
    try:
        return EngineOptions.coerce(cache=cache, **knobs, **fixed)
    except ValueError as error:
        message = _FLAG_KNOB_NAMES.sub(
            lambda match: "--" + match.group(1).replace("_", "-"), str(error)
        )
        raise SystemExit(f"error: {message}") from None


def _cmd_ncp(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    cache = _cache_from_args(args)
    engine = BatchEngine(graph, options=_engine_options(args, cache, include_vectors=False))
    profile = ncp_profile(
        graph,
        num_seeds=args.seeds,
        alphas=tuple(args.alpha),
        eps_values=tuple(args.eps),
        rng=args.rng,
        engine=engine,
    )
    sizes, phis = profile.series()
    out = Path(args.output)
    with out.open("w", encoding="ascii") as handle:
        handle.write("size,conductance\n")
        for size, phi in zip(sizes.tolist(), phis.tolist()):
            handle.write(f"{size},{phi}\n")
    best = sizes[np.argmin(phis)]
    print(f"{profile.runs} runs; best cluster: size {best}, phi {phis.min():.4f}")
    print(f"wrote {len(sizes)} points to {out}")
    if cache is not None:
        print(f"cache: {cache.stats.describe()}")
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    if args.seed:
        seeds = np.asarray(args.seed, dtype=np.int64)
        bad = seeds[(seeds < 0) | (seeds >= graph.num_vertices)]
        if len(bad):
            raise SystemExit(
                f"error: seed {bad[0]} out of range for {graph!r} "
                f"(vertex ids are 0..{graph.num_vertices - 1})"
            )
    else:
        seeds = random_seeds(graph, args.num_seeds, rng=args.rng)
    grid: dict[str, list[object]] = {}
    for setting in args.grid:
        if "=" not in setting:
            raise SystemExit(f"error: --grid expects key=v1,v2,..., got {setting!r}")
        key, _, raw = setting.partition("=")
        values = [_parse_scalar(item) for item in raw.split(",") if item]
        if not values:
            raise SystemExit(f"error: --grid axis {key!r} has no values")
        grid[key] = values
    fixed = _parse_params(args.param)
    jobs = list(job_grid(seeds, args.method, grid, params=fixed, rng=args.rng))

    cache = _cache_from_args(args)
    engine = BatchEngine(graph, options=_engine_options(args, cache, include_vectors=False))
    # Stream outcomes straight to CSV so a large batch never lives in memory.
    stats_reducer = StatsReducer(engine=engine)
    best_reducer = BestClusterReducer()
    out = Path(args.output)
    start = time.perf_counter()
    with out.open("w", encoding="ascii") as handle:
        handle.write("job,method,seed,params,support,size,conductance,pushes,iterations,seconds\n")
        for outcome in engine.map(jobs):
            stats_reducer.update(outcome)
            best_reducer.update(outcome)
            settings = ";".join(f"{k}={v}" for k, v in sorted(outcome.job.params.items()))
            phi = f"{outcome.conductance:.6g}" if outcome.sweep is not None else ""
            handle.write(
                f"{outcome.index},{outcome.job.method},"
                f"{' '.join(map(str, outcome.job.seeds))},{settings},"
                f"{outcome.support_size},{outcome.size},{phi},"
                f"{outcome.pushes},{outcome.iterations},{outcome.wall_seconds:.6f}\n"
            )
    wall = time.perf_counter() - start
    stats = stats_reducer.finalize()
    best = best_reducer.finalize()
    # A process backend pools only a batch long enough to repay the pool.
    pooled = stats.dispatch is not None and stats.dispatch["batches"] > 0
    print(
        f"batch: {stats.jobs} jobs ({stats.completed} with support) on {graph!r} "
        + (f"via {engine.workers} worker(s)" if pooled else "in-process")
    )
    print(
        f"throughput: {wall:.3f}s wall, {stats.jobs_per_second(wall):.1f} jobs/s, "
        f"{stats.total_pushes} pushes, {stats.total_touched_edges} edges touched"
    )
    if best is not None:
        print(
            f"best cluster: |S|={best.size} phi={best.conductance:.5f} "
            f"from job {best.index} ({best.job.describe()})"
        )
    print(f"wrote {stats.jobs} rows to {out}")
    if cache is not None:
        print(f"cache: {cache.stats.describe()}")
    if args.stats:
        _print_scheduler_stats(engine, stats)
    return 0


def _print_scheduler_stats(engine: BatchEngine, stats) -> None:
    """The --stats report: per-worker dispatch accounting + calibration."""
    dispatch = stats.dispatch
    if dispatch is None:
        print("scheduler: no pool dispatch (serial backend)")
    elif dispatch["batches"] == 0:
        reason = (
            "every job was a cache hit"
            if stats.cache_hits == stats.jobs
            else "too short to repay a pool"
        )
        print(f"scheduler: no pool dispatch (the batch ran in-process: {reason})")
    else:
        print(
            f"scheduler: {dispatch['units']} units, {dispatch['steals']} steals, "
            f"busy {dispatch['busy_seconds']:.3f}s, idle {dispatch['idle_seconds']:.3f}s "
            f"across {dispatch['workers_seen']} worker(s)"
        )
        per_worker = engine.dispatch_stats.per_worker
        for pid in sorted(per_worker):
            worker = per_worker[pid]
            print(
                f"  worker {pid}: units={worker.units} jobs={worker.jobs} "
                f"busy={worker.busy_seconds:.3f}s idle={worker.idle_seconds:.3f}s "
                f"steals={worker.steals}"
            )
    if stats.cost_calibration:
        print("calibration (seconds per work unit):")
        for key, entry in stats.cost_calibration.items():
            print(
                f"  {key}: spu={entry['seconds_per_unit']:.3g} "
                f"samples={int(entry['samples'])}"
            )


def _parse_listen(spec: str) -> tuple[str, int]:
    host, sep, port = spec.rpartition(":")
    if not sep or not port.isdigit():
        raise SystemExit(
            f"error: --listen expects HOST:PORT (PORT may be 0), got {spec!r}"
        )
    return (host or "127.0.0.1", int(port))


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import json

    from .core.options import RequestError
    from .serve import DiffusionService
    from .serve.protocol import error_reply, outcome_reply, parse_request_line

    graph = _evolving_from_args(_load_graph(args.graph), args)
    cache = _cache_from_args(args)
    service = DiffusionService(
        graph,
        options=_engine_options(
            args, cache, include_vectors=False, graph_version=args.at_version
        ),
        max_batch=args.max_batch,
        max_batch_cost=args.max_batch_cost,
    )
    stream_in = sys.stdin
    stream_out = sys.stdout

    def _ingest(loop, text: str, default_id: int):
        """One raw request line -> a future reply object (shared codec)."""
        reply = loop.create_future()
        request_id: object = default_id
        try:
            request = parse_request_line(text, default_method=args.method)
            if request.id is not None:
                request_id = request.id
            request.validate(num_vertices=service.num_vertices)
            future = service.submit(
                request.job(),
                priority=request.priority,
                graph_version=request.graph_version,
            )
        except Exception as error:
            # A malformed line answers with a structured error object
            # (RequestError carries the offending field); the service —
            # and every other pending request — keeps going.
            reply.set_result(error_reply(error, request_id))
            return reply

        def _resolve(done) -> None:
            if done.cancelled() or done.exception() is not None:
                error = done.exception() if not done.cancelled() else (
                    RequestError(None, "request dropped during shutdown", code=503)
                )
                reply.set_result(error_reply(error, request_id))
            else:
                reply.set_result(
                    outcome_reply(request_id, done.result(), request.include_cluster)
                )

        future.add_done_callback(_resolve)
        return reply

    async def _stdin_loop() -> int:
        loop = asyncio.get_running_loop()
        results: asyncio.Queue = asyncio.Queue()

        async def printer() -> None:
            # Replies print in request order — each awaited future may
            # have resolved long ago while later requests streamed in.
            while True:
                item = await results.get()
                if item is None:
                    return
                print(json.dumps(await item), file=stream_out, flush=True)

        async with service:
            printer_task = asyncio.create_task(printer())
            counter = 0
            while True:
                line = await loop.run_in_executor(None, stream_in.readline)
                if not line:
                    break
                line = line.strip()
                if not line:
                    continue
                counter += 1
                await results.put(_ingest(loop, line, counter))
            await results.put(None)
            await printer_task
        print(f"serve: {service.stats.describe()}", file=sys.stderr)
        if cache is not None:
            print(f"cache: {cache.stats.describe()}", file=sys.stderr)
        return 0

    async def _listen_loop(host: str, port: int) -> int:
        import signal
        import threading

        from .serve import DiffusionServer

        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        async with service:
            server = DiffusionServer(
                service,
                host,
                port,
                max_pending=args.max_pending,
                max_inflight=args.max_inflight,
                rate=args.rate,
                burst=args.burst,
                default_method=args.method,
            )
            async with server:
                assert server.address is not None
                bound_host, bound_port = server.address
                print(
                    f"serve: listening on {bound_host}:{bound_port}",
                    file=sys.stderr,
                    flush=True,
                )
                for signum in (signal.SIGINT, signal.SIGTERM):
                    try:
                        loop.add_signal_handler(signum, stop.set)
                    except (NotImplementedError, RuntimeError):  # pragma: no cover
                        pass

                def _watch_stdin() -> None:
                    # A closed stdin also stops the server — the clean way
                    # for a supervisor (or a test) to ask for a drain.
                    try:
                        while stream_in.readline():
                            pass
                    except ValueError:  # stdin already closed
                        pass
                    loop.call_soon_threadsafe(stop.set)

                threading.Thread(target=_watch_stdin, daemon=True).start()
                await stop.wait()
            print(f"serve: {server.stats.describe()}", file=sys.stderr)
        print(f"serve: {service.stats.describe()}", file=sys.stderr)
        if cache is not None:
            print(f"cache: {cache.stats.describe()}", file=sys.stderr)
        return 0

    if args.listen is not None:
        host, port = _parse_listen(args.listen)
        return asyncio.run(_listen_loop(host, port))
    return asyncio.run(_stdin_loop())


def _cmd_kernels(args: argparse.Namespace) -> int:
    from .kernels import KERNELS, available_kernels, resolve_kernel

    ready = available_kernels()
    for name in KERNELS:
        status = "available" if name in ready else "unavailable"
        print(f"{name:<8} {status}")
    print(f"auto -> {resolve_kernel('auto')}")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from .analysis.cli import run

    return run(
        args.paths,
        as_json=args.as_json,
        select=args.select,
        list_rules=args.list_rules,
    )


def _cmd_cache(args: argparse.Namespace) -> int:
    try:
        store = DiskStore(args.cache_dir, create=False)
    except FileNotFoundError as error:
        raise SystemExit(f"error: {error}") from None
    if args.action == "stats":
        entries = len(store)
        print(f"cache dir: {store.directory}")
        print(f"entries: {entries}   bytes: {store.nbytes:,}")
        return 0
    removed = store.clear()
    print(f"removed {removed} entries from {store.directory}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Parallel local graph clustering (Shun et al., VLDB 2016 reproduction)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("graphs", help="list the Table-2 proxy registry").set_defaults(
        run=_cmd_graphs
    )

    generate = commands.add_parser("generate", help="generate a graph and write it to disk")
    generate.add_argument("kind", choices=["proxy", "rand-local", "3d-grid", "rmat"])
    generate.add_argument("output", help="output path (.npz, .adj, or edge list)")
    generate.add_argument("--name", default="soc-LJ", help="proxy name (kind=proxy)")
    generate.add_argument("--n", type=int, default=10_000, help="vertex count (generators)")
    generate.add_argument("--scale", type=float, default=1.0)
    generate.add_argument("--seed", type=int, default=0)
    generate.set_defaults(run=_cmd_generate)

    update = commands.add_parser(
        "update",
        help="apply batched edge updates to a graph and write the result",
    )
    update.add_argument("graph", help="proxy name or graph file")
    update.add_argument("output", help="output path (.npz, .adj, or edge list)")
    update.add_argument(
        "--insert",
        nargs=2,
        type=int,
        action="append",
        metavar=("U", "V"),
        help="insert the undirected edge {U, V} (repeatable)",
    )
    update.add_argument(
        "--delete",
        nargs=2,
        type=int,
        action="append",
        metavar=("U", "V"),
        help="delete the undirected edge {U, V} (repeatable)",
    )
    update.add_argument(
        "--updates",
        default=None,
        metavar="FILE",
        help="edge-update file: '+ u v' / '- u v' lines; a line holding "
        "'--' closes a batch (each batch becomes one version)",
    )
    update.add_argument(
        "--rebuild-threshold",
        type=float,
        default=None,
        help="delta fraction of the edge count above which a version is "
        "rebuilt from edge arrays instead of spliced (default 0.25)",
    )
    update.set_defaults(run=_cmd_update)

    cluster = commands.add_parser("cluster", help="run one local clustering query")
    cluster.add_argument("graph", help="proxy name or graph file")
    cluster.add_argument("--method", choices=sorted(ALGORITHMS), default="pr-nibble")
    cluster.add_argument("--seed", type=int, default=None, help="seed vertex (default: max degree)")
    cluster.add_argument("--rng", type=int, default=0, help="randomness for rand-hk-pr")
    cluster.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="algorithm parameter override (repeatable), e.g. --param eps=1e-5",
    )
    cluster.add_argument("--show", type=int, default=10, help="members to print")
    cluster.add_argument(
        "--profile",
        action="store_true",
        help="print the work-depth profile and simulated paper-machine times",
    )
    _add_kernel_flag(cluster)
    _add_version_flags(cluster)
    cluster.set_defaults(run=_cmd_cluster)

    ncp = commands.add_parser("ncp", help="generate a network community profile CSV")
    ncp.add_argument("graph", help="proxy name or graph file")
    ncp.add_argument("output", help="output CSV path")
    ncp.add_argument("--seeds", type=int, default=25)
    ncp.add_argument("--alpha", type=float, action="append", default=None)
    ncp.add_argument("--eps", type=float, action="append", default=None)
    ncp.add_argument("--rng", type=int, default=0)
    ncp.add_argument(
        "--workers",
        type=int,
        default=1,
        help="process-pool workers for the batch engine (1 = serial); a run "
        "too short to repay a pool runs in-process",
    )
    _add_pool_flags(ncp)
    _add_kernel_flag(ncp)
    _add_cache_flags(ncp)
    ncp.set_defaults(run=_cmd_ncp)

    batch = commands.add_parser(
        "batch", help="run a stream of diffusion jobs through the batch engine"
    )
    batch.add_argument("graph", help="proxy name or graph file")
    batch.add_argument("output", help="output CSV path (one row per job)")
    batch.add_argument("--method", choices=sorted(ALGORITHMS), default="pr-nibble")
    batch.add_argument(
        "--num-seeds", type=int, default=25, help="random seeds to draw (ignored with --seed)"
    )
    batch.add_argument(
        "--seed",
        type=int,
        action="append",
        default=[],
        metavar="VERTEX",
        help="explicit seed vertex (repeatable; overrides --num-seeds)",
    )
    batch.add_argument(
        "--grid",
        action="append",
        default=[],
        metavar="KEY=V1,V2,...",
        help="parameter axis to sweep, e.g. --grid alpha=0.05,0.01 (repeatable)",
    )
    batch.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="fixed parameter override applied to every job (repeatable)",
    )
    batch.add_argument(
        "--workers",
        type=int,
        default=1,
        help="process-pool workers (1 = serial); a batch too short to repay "
        "a pool runs in-process",
    )
    batch.add_argument("--rng", type=int, default=0)
    batch.add_argument(
        "--stats",
        action="store_true",
        help="print scheduler diagnostics after the run: per-worker "
        "busy/idle seconds and steal counts, plus the online "
        "cost-calibration snapshot",
    )
    _add_pool_flags(batch)
    _add_kernel_flag(batch)
    _add_cache_flags(batch)
    batch.set_defaults(run=_cmd_batch)

    serve = commands.add_parser(
        "serve",
        help="serve queries over stdin/stdout JSON lines through the async "
        "serving plane (micro-batched onto one long-lived pool)",
    )
    serve.add_argument("graph", help="proxy name or graph file")
    serve.add_argument(
        "--method",
        choices=sorted(ALGORITHMS),
        default="pr-nibble",
        help="default method for requests that do not name one",
    )
    serve.add_argument(
        "--workers", type=int, default=1, help="process-pool workers (1 = in-process)"
    )
    serve.add_argument(
        "--max-batch",
        type=int,
        default=32,
        help="most jobs per micro-batch; a batch is whatever queued while "
        "the previous one ran (smaller = lower interactive latency under "
        "bulk load)",
    )
    serve.add_argument(
        "--max-batch-cost",
        type=float,
        default=None,
        metavar="COST",
        help="cap a batch's summed scheduler cost estimate, bounding how "
        "long an interactive request can wait behind bulk work",
    )
    serve.add_argument(
        "--listen",
        default=None,
        metavar="HOST:PORT",
        help="serve over TCP instead of stdin: NDJSON and HTTP/1.1 POST on "
        "one port (wire schema v1), per-client round-robin fairness, "
        "rate limiting and backpressure; PORT 0 binds an ephemeral port "
        "(the bound address is printed to stderr)",
    )
    serve.add_argument(
        "--rate",
        type=float,
        default=None,
        metavar="R",
        help="with --listen: per-client token-bucket admission rate "
        "(requests/second; default: unlimited)",
    )
    serve.add_argument(
        "--burst",
        type=float,
        default=None,
        metavar="B",
        help="with --listen: token-bucket depth (default: max(1, RATE))",
    )
    serve.add_argument(
        "--max-inflight",
        type=int,
        default=8,
        metavar="N",
        help="with --listen: per-client cap on admitted-but-unanswered "
        "requests (default 8)",
    )
    serve.add_argument(
        "--max-pending",
        type=int,
        default=64,
        metavar="N",
        help="with --listen: per-client admission-queue depth; beyond it "
        "requests get a structured 429 reply (default 64)",
    )
    _add_pool_flags(serve)
    _add_kernel_flag(serve)
    _add_cache_flags(serve)
    _add_version_flags(serve)
    serve.set_defaults(run=_cmd_serve)

    kernels = commands.add_parser(
        "kernels", help="show which loop implementations are available"
    )
    kernels.set_defaults(run=_cmd_kernels)

    cache = commands.add_parser(
        "cache", help="inspect or clear an on-disk result cache directory"
    )
    cache.add_argument("action", choices=["stats", "clear"])
    cache.add_argument(
        "--cache-dir", required=True, help="result cache directory (see --cache-dir)"
    )
    cache.set_defaults(run=_cmd_cache)

    analyze = commands.add_parser(
        "analyze",
        help="run the AST invariant checker (knob threading, resource "
        "lifecycle, determinism, error surface; see docs/invariants.md)",
    )
    analyze.add_argument(
        "paths",
        nargs="*",
        metavar="PATH",
        help="files or directories to analyze (default: the repro package)",
    )
    analyze.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="emit the machine-readable JSON report",
    )
    analyze.add_argument(
        "--select", metavar="RULES", help="comma-separated rule ids to run"
    )
    analyze.add_argument(
        "--list-rules",
        action="store_true",
        help="list rule ids and what they check, then exit",
    )
    analyze.set_defaults(run=_cmd_analyze)
    return parser


def _add_pool_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--start-method",
        default=None,
        metavar="METHOD",
        help="multiprocessing start method for the worker pool (fork, spawn, "
        "forkserver; default: $REPRO_START_METHOD or the platform's best). "
        "Every method fans out — non-fork ones attach the graph via shared "
        "memory",
    )


def _add_kernel_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--kernel",
        choices=["auto", "python", "c"],
        default=None,
        metavar="KERNEL",
        help="loop implementation for the hot diffusion paths (auto, python, "
        "c).  Results are bit-identical across kernels; 'auto' picks "
        "the fastest available and falls back to python (default: auto)",
    )


def _add_version_flags(parser: argparse.ArgumentParser) -> None:
    """The evolving-graph flags (``cluster`` and ``serve``): build a
    version chain from an update file and select which version to run."""
    parser.add_argument(
        "--updates",
        default=None,
        metavar="FILE",
        help="edge-update file applied to the loaded graph before running: "
        "'+ u v' / '- u v' lines, '--' separates version batches "
        "(see `repro update`)",
    )
    parser.add_argument(
        "--at-version",
        type=int,
        default=None,
        dest="at_version",
        help="run against this version of the update chain "
        "(default: the latest; version 0 is the loaded graph)",
    )


def _add_cache_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache",
        action="store_true",
        help="memoise job outcomes in memory for this run (overlapping "
        "grid entries and repeated seeds coalesce)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="persist job outcomes under DIR so repeated invocations "
        "replay cached results instead of re-diffusing (implies --cache)",
    )


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "command", None) == "ncp":
        if args.alpha is None:
            args.alpha = [0.05, 0.01]
        if args.eps is None:
            args.eps = [1e-4, 1e-5]
    return args.run(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
