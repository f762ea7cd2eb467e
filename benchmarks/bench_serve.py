"""Serving plane — interactive latency under a saturating bulk backlog.

The ROADMAP's serving scenario: one machine answers interactive
``local_cluster`` queries *while* a long NCP-style batch grinds through
the same worker pool.  Two ways to build that:

* **naive** — every interactive query constructs a fresh
  ``BatchEngine(backend="process")`` and runs ``[job]`` on a session of
  its own, paying pool start-up (and, under non-fork start methods, a full
  shared-memory graph export) per call, while the bulk batch runs on its
  own engine and pool.
* **service** — one :class:`repro.serve.DiffusionService`: bulk jobs are
  ``submit_many``-ed at bulk priority, interactive queries drain ahead of
  the backlog, and every micro-batch reuses one long-lived pool and one
  shared graph export.
* **socket** — the same service fronted by
  :class:`repro.serve.DiffusionServer`, with 1 greedy bulk + 7
  interactive NDJSON clients on real TCP connections: what the wire and
  the round-robin fairness machinery add on top of the in-process
  service (acceptance: interactive p95 within 2x of in-process).

This benchmark measures interactive p50/p95 latency under all designs
(``spawn`` start method — the macOS/Windows default, where per-call pool
start-up is most punishing and the shared-memory graph plane is
exercised), asserts the served outcomes are bit-identical to serial, and
audits that the service ran *multiple* micro-batches over *one* export
with nothing leaked.  Results go to ``results/bench_serve.csv`` and
``BENCH_serve.json``.
"""

from __future__ import annotations

import asyncio
import json
import os
import pathlib
import threading
import time

import numpy as np

from repro.bench import format_seconds, format_table, write_csv
from repro.engine import BatchEngine, DiffusionJob, job_grid, run_job
from repro.graph.shared import SEGMENT_PREFIX
from repro.serve import DiffusionService

GRAPH = "soc-LJ"
WORKERS = 2
START_METHOD = "spawn"
MAX_BATCH = 4
BULK_SEEDS = 3
BULK_ALPHAS = (0.05, 0.01)
BULK_EPS = (1e-4, 1e-5)
INTERACTIVE_SEEDS = (11, 401, 4021, 977, 2203)
INTERACTIVE_PARAMS = {"alpha": 0.05, "eps": 1e-4}
SOCKET_CLIENTS = 8  # 1 greedy bulk connection + 7 interactive


def bulk_jobs(graph):
    from repro.core.seeding import random_seeds

    seeds = random_seeds(graph, BULK_SEEDS, rng=7)
    return list(job_grid(seeds, "pr-nibble", {"alpha": BULK_ALPHAS, "eps": BULK_EPS}))


def interactive_jobs(graph):
    return [
        DiffusionJob.make(seed % graph.num_vertices, params=dict(INTERACTIVE_PARAMS))
        for seed in INTERACTIVE_SEEDS
    ]


def shm_segments():
    shm_dir = "/dev/shm"
    if not os.path.isdir(shm_dir):  # pragma: no cover - non-POSIX host
        return None
    return sorted(f for f in os.listdir(shm_dir) if f.startswith(SEGMENT_PREFIX))


def percentiles(latencies):
    array = np.asarray(latencies, dtype=np.float64)
    return {
        "p50": float(np.percentile(array, 50)),
        "p95": float(np.percentile(array, 95)),
        "mean": float(array.mean()),
        "max": float(array.max()),
    }


def run_naive(graph):
    """Per-call engines for interactive queries; bulk on its own engine.

    Each run goes through its own ``open_session()``, which always starts
    a pool: a one-shot ``engine.run`` of a batch this short would stay
    in-process and measure something else.
    """
    background = BatchEngine(
        graph,
        backend="process",
        workers=WORKERS,
        start_method=START_METHOD,
        include_vectors=False,
    )
    bulk = bulk_jobs(graph)
    bulk_done = {}

    def grind():
        start = time.perf_counter()
        with background.open_session() as session:
            bulk_done["outcomes"] = list(session.run(bulk))
        bulk_done["wall"] = time.perf_counter() - start

    thread = threading.Thread(target=grind)
    wall_start = time.perf_counter()
    thread.start()
    latencies, outcomes = [], []
    for job in interactive_jobs(graph):
        start = time.perf_counter()
        # The naive pattern under scrutiny: a fresh engine (fresh pool,
        # fresh export) per interactive call.
        engine = BatchEngine(
            graph,
            backend="process",
            workers=WORKERS,
            start_method=START_METHOD,
            include_vectors=False,
        )
        with engine.open_session() as session:
            outcomes.extend(session.run([job]))
        latencies.append(time.perf_counter() - start)
    thread.join()
    return {
        "latency": percentiles(latencies),
        "outcomes": outcomes,
        "bulk_outcomes": bulk_done["outcomes"],
        "bulk_wall": bulk_done["wall"],
        "wall": time.perf_counter() - wall_start,
    }


def run_service(graph):
    """One service: bulk at bulk priority, interactive jumping the backlog."""

    async def scenario():
        wall_start = time.perf_counter()
        async with DiffusionService(
            graph,
            workers=WORKERS,
            start_method=START_METHOD,
            include_vectors=False,
            max_batch=MAX_BATCH,
        ) as service:
            bulk_futures = service.submit_many(bulk_jobs(graph), priority="bulk")
            latencies, outcomes = [], []
            segment_samples = []
            for job in interactive_jobs(graph):
                start = time.perf_counter()
                outcomes.append(await service.submit(job))
                latencies.append(time.perf_counter() - start)
                segment_samples.append(shm_segments())
            bulk_start = time.perf_counter()
            bulk_outcomes = await asyncio.gather(*bulk_futures)
            bulk_wall = time.perf_counter() - bulk_start
            return {
                "latency": percentiles(latencies),
                "outcomes": outcomes,
                "bulk_outcomes": bulk_outcomes,
                "bulk_wall": bulk_wall,
                "wall": time.perf_counter() - wall_start,
                "batches": service.stats.batches,
                "session_batches": service.session.batches,
                "segment_samples": segment_samples,
            }

    return asyncio.run(scenario())


def run_socket(graph):
    """Eight concurrent socket clients — one greedy bulk, seven
    interactive — against a :class:`DiffusionServer` fronting the same
    service configuration.  Measures what the fairness machinery is for:
    per-request interactive latency over the wire while one connection
    floods the server with the whole bulk backlog."""
    from repro.serve import DiffusionServer

    async def send(writer, payload):
        writer.write((json.dumps(payload) + "\n").encode("utf-8"))
        await writer.drain()

    async def recv(reader):
        return json.loads(await reader.readline())

    async def bulk_client(address, jobs):
        reader, writer = await asyncio.open_connection(*address)
        start = time.perf_counter()
        for job in jobs:
            await send(
                writer,
                {"v": 1, "seeds": list(job.seeds), "method": job.method,
                 "params": dict(job.params), "priority": "bulk"},
            )
        replies = [await recv(reader) for _ in jobs]
        writer.close()
        return replies, time.perf_counter() - start

    async def interactive_client(address, jobs):
        reader, writer = await asyncio.open_connection(*address)
        latencies, replies = [], []
        for job in jobs:
            start = time.perf_counter()
            await send(
                writer,
                {"v": 1, "seeds": list(job.seeds), "method": job.method,
                 "params": dict(job.params)},
            )
            replies.append(await recv(reader))
            latencies.append(time.perf_counter() - start)
        writer.close()
        return replies, latencies

    async def scenario():
        wall_start = time.perf_counter()
        async with DiffusionService(
            graph,
            workers=WORKERS,
            start_method=START_METHOD,
            include_vectors=False,
            max_batch=MAX_BATCH,
        ) as service:
            async with DiffusionServer(service) as server:
                jobs = interactive_jobs(graph)
                results = await asyncio.gather(
                    bulk_client(server.address, bulk_jobs(graph)),
                    *(interactive_client(server.address, jobs)
                      for _ in range(SOCKET_CLIENTS - 1)),
                )
                admitted = dict(server.stats.by_priority)
        (bulk_replies, bulk_wall), *interactive = results
        latencies = [lat for _, client_lats in interactive for lat in client_lats]
        return {
            "latency": percentiles(latencies),
            "replies": [replies for replies, _ in interactive],
            "bulk_replies": bulk_replies,
            "bulk_wall": bulk_wall,
            "wall": time.perf_counter() - wall_start,
            "by_priority": admitted,
        }

    return asyncio.run(scenario())


def test_serve_interactive_latency(benchmark, graphs):
    graph = graphs[GRAPH]
    reference = [
        run_job(graph, job, index=index, include_vector=False)
        for index, job in enumerate(interactive_jobs(graph))
    ]

    def measure():
        return run_service(graph), run_naive(graph), run_socket(graph)

    service, naive, socket = benchmark.pedantic(measure, rounds=1, iterations=1)

    # Determinism: the multiplexed, priority-scheduled service returns
    # exactly what one-job-at-a-time serial execution returns.
    for scenario in (service, naive):
        for expected, outcome in zip(reference, scenario["outcomes"]):
            assert np.array_equal(expected.cluster, outcome.cluster)
            assert outcome.conductance == expected.conductance
            assert outcome.pushes == expected.pushes
    # ...and so does every reply that crossed the wire (the transport
    # moves the same JobOutcome fields, bit for bit).
    for replies in socket["replies"]:
        for expected, reply in zip(reference, replies):
            assert reply["conductance"] == expected.conductance
            assert reply["pushes"] == expected.pushes
            assert reply["size"] == expected.size
    assert socket["by_priority"].get("bulk") == len(socket["bulk_replies"])

    # One pool, one export, many batches: the service ran several
    # micro-batches while the set of shared-memory segments never changed
    # (a single offsets/neighbors pair), and nothing leaked afterwards.
    assert service["batches"] >= 2
    assert service["session_batches"] == service["batches"]
    samples = [s for s in service["segment_samples"] if s is not None]
    if samples:
        assert all(len(sample) == 2 for sample in samples)
        assert len({tuple(sample) for sample in samples}) == 1
        assert shm_segments() == []

    headers = ["scenario", "p50", "p95", "mean", "max", "bulk wall", "total wall"]
    rows = [
        [
            name,
            format_seconds(scenario["latency"]["p50"]),
            format_seconds(scenario["latency"]["p95"]),
            format_seconds(scenario["latency"]["mean"]),
            format_seconds(scenario["latency"]["max"]),
            format_seconds(scenario["bulk_wall"]),
            format_seconds(scenario["wall"]),
        ]
        for name, scenario in (
            ("service", service), ("naive", naive), ("socket", socket)
        )
    ]
    bulk_count = len(service["bulk_outcomes"])
    print()
    print(
        format_table(
            headers,
            rows,
            title=f"Interactive latency under load: {GRAPH} proxy, "
            f"{len(INTERACTIVE_SEEDS)} interactive queries vs {bulk_count}-job "
            f"bulk backlog, {WORKERS} workers, {START_METHOD} start method",
        )
    )
    write_csv(
        "bench_serve",
        ["scenario", "p50", "p95", "mean", "max", "bulk_wall_seconds", "wall_seconds"],
        [
            [
                name,
                scenario["latency"]["p50"],
                scenario["latency"]["p95"],
                scenario["latency"]["mean"],
                scenario["latency"]["max"],
                scenario["bulk_wall"],
                scenario["wall"],
            ]
            for name, scenario in (
                ("service", service), ("naive", naive), ("socket", socket)
            )
        ],
    )
    socket_p95_vs_service = socket["latency"]["p95"] / service["latency"]["p95"]
    summary = {
        "graph": GRAPH,
        "workers": WORKERS,
        "start_method": START_METHOD,
        "max_batch": MAX_BATCH,
        "interactive_queries": len(INTERACTIVE_SEEDS),
        "bulk_jobs": bulk_count,
        "socket_clients": SOCKET_CLIENTS,
        "service": {k: service[k] for k in ("latency", "bulk_wall", "wall", "batches")},
        "naive": {k: naive[k] for k in ("latency", "bulk_wall", "wall")},
        "socket": {k: socket[k] for k in ("latency", "bulk_wall", "wall")},
        "p50_speedup_vs_naive": naive["latency"]["p50"] / service["latency"]["p50"],
        "p95_speedup_vs_naive": naive["latency"]["p95"] / service["latency"]["p95"],
        "socket_p95_vs_service": socket_p95_vs_service,
    }
    pathlib.Path("BENCH_serve.json").write_text(json.dumps(summary, indent=2))
    print(json.dumps(summary, indent=2))

    # The acceptance criterion: multiplexing onto one long-lived pool must
    # beat paying pool start-up per interactive call while the same bulk
    # backlog runs.  The margin is the whole pool spin-up (~seconds under
    # spawn), so this is robust even on noisy CI hosts.
    assert service["latency"]["p50"] < naive["latency"]["p50"]
    # And the wire must be cheap: with 1 bulk + 7 interactive socket
    # clients, interactive p95 over TCP stays within 2x of the in-process
    # service.  At smoke scale jobs are sub-millisecond and framing
    # overhead dominates the ratio, so the bound only binds at full scale.
    if not os.environ.get("REPRO_BENCH_SMOKE"):
        assert socket_p95_vs_service < 2.0, socket_p95_vs_service
