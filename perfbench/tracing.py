"""Outside-in tracing: spans recorded by wrappers the benchmark rebinds.

Nothing under ``src/`` knows about this module.  The ``install_*``
functions replace module and class attributes of the program
(``repro.serve.net.parse_request``, ``repro.engine.executor.run_job``, the
``ALGORITHMS`` runners, the prims' methods, ...) with wrappers that time
each call, and :meth:`Tracer.restore` puts the originals back.  Functions are rebound where their callers look
them up: ``edge_map`` in each diffusion module that imported it,
``sweep_cut`` as bound in ``repro.engine.executor``, and so on.

A span is ``(id, name, start, end, parent, op, value)``: ``parent`` is the
enclosing span on the same thread, ``op`` the operation (request, read,
update or NCP call) it belongs to, ``value`` a small payload (batch size,
diffusion counters, cache hit flag, ...).  Spans stay in memory and are
handed over when the run ends.  A span's self time is its duration minus
that of its child spans; same-thread children never overlap, so the sum
is their union.

The benchmark runs one operation at a time, so ``Tracer.op`` -- set by
the workload loop, or from the request id when the wire decodes it -- is
the operation every span recorded meanwhile belongs to.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
import types
from collections import defaultdict

import numpy as np

now = time.perf_counter

#: Every per-layer metric the traced run reports, with its unit.  A layer a
#: workload does not exercise reports 0.
LAYER_METRICS = {
    "serve.net.decode_ms_p50": "ms",
    "serve.net.encode_ms_p50": "ms",
    "serve.net.self_ms_p50": "ms",
    "serve.service.wait_ms_p50": "ms",
    "serve.service.wait_ms_p90": "ms",
    "serve.service.self_ms_p50": "ms",
    "serve.service.jobs_per_batch": "jobs",
    "serve.service.update_ms_p50": "ms",
    "engine.job_ms_p50": "ms",
    "engine.job_ms_p90": "ms",
    "engine.worker_busy_share": "fraction",
    "engine.outcome_wait_ms_p50": "ms",
    "engine.units": "count",
    "engine.steals": "count",
    "engine.pool_start_ms_p50": "ms",
    "engine.pool_close_ms_p50": "ms",
    "engine.outside_dispatch_share": "fraction",
    "core.diffusion_ms_p50": "ms",
    "core.diffusion_ms_p90": "ms",
    "core.sweep_ms_p50": "ms",
    "core.sweep_ms_p90": "ms",
    "core.pushes_per_job": "count",
    "core.rounds_per_job": "count",
    "core.support_per_job": "count",
    "ligra.edge_map_share": "fraction",
    "prims.hashtable_share": "fraction",
    "prims.sparse_share": "fraction",
    "prims.sort_share": "fraction",
    "cache.hit_rate": "fraction",
    "cache.get_ms_p50": "ms",
    "cache.migrate_ms_p50": "ms",
    "cache.survival_rate": "fraction",
    "graph.apply_ms_p50": "ms",
    "graph.fingerprint_ms_p50": "ms",
    "graph.rebuild_share": "fraction",
    "graph.retained_mb": "MB",
    "graph.build_s": "s",
    "kernels.compiled_calls": "count",
    "trace.overhead_share": "fraction",
}


class Tracer:
    """In-memory span recorder plus the attribute rebinding that feeds it."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.op: object = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list = []

    def add(self, name: str, start: float, end: float, op: object = None,
            value: object = None) -> None:
        """Record a span with no same-thread parent (async or cross-thread)."""
        self.spans.append((next(self._ids), name, start, end, None, op, value))

    def call(self, name: str, fn, args: tuple, kwargs: dict, value_of=None,
             value: object = None):
        """Run ``fn`` inside span ``name``, nested under the thread's open span.

        ``value_of(result)`` (when given) fills the span's value from the
        result; otherwise ``value`` is stored as is.
        """
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = now()
        try:
            result = fn(*args, **kwargs)
            if value_of is not None:
                value = value_of(result)
            return result
        finally:
            end = now()
            stack.pop()
            self.spans.append((span_id, name, start, end, parent, self.op, value))

    def wrap(self, name: str, fn, value_of=None, record_if=None):
        """``fn`` timed as span ``name``; ``record_if(*args)`` (checked before
        the call) can leave a call unrecorded."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if record_if is not None and not record_if(*args):
                return fn(*args, **kwargs)
            return tracer.call(name, fn, args, kwargs, value_of)

        return traced

    def patch(self, owner: object, attr: str, replacement: object) -> None:
        original = getattr(owner, attr)
        self._undo.append(lambda: setattr(owner, attr, original))
        setattr(owner, attr, replacement)

    def patch_wrap(self, owner: object, attr: str, name: str, **options) -> None:
        self.patch(owner, attr, self.wrap(name, getattr(owner, attr), **options))

    def patch_item(self, mapping: dict, key: object, replacement: object) -> None:
        original = mapping[key]
        self._undo.append(lambda: mapping.__setitem__(key, original))
        mapping[key] = replacement

    def restore(self) -> None:
        """Put every rebound attribute back, newest first."""
        while self._undo:
            self._undo.pop()()


# ----------------------------------------------------------------------
# Wrapper sets.  Each installs onto the program's current module state.
# ----------------------------------------------------------------------
def _diffusion_value(result) -> list:
    return [result.pushes, result.iterations, result.support_size()]


def install_jobs(tracer: Tracer) -> None:
    """Job execution and below: ``run_job``, the ``ALGORITHMS`` runners,
    the sweep, ligra, prims and kernel selection."""
    from repro.prims.hashtable import IntFloatHashTable
    from repro.prims.sparse import SparseVector

    # ``repro.core`` re-exports functions under its modules' names, so the
    # modules are looked up by their full names.
    api, hk_pr, nibble, pr_nibble, rand_hk_pr, sweep, executor = (
        importlib.import_module(name)
        for name in ("repro.core.api", "repro.core.hk_pr", "repro.core.nibble",
                     "repro.core.pr_nibble", "repro.core.rand_hk_pr",
                     "repro.core.sweep", "repro.engine.executor")
    )

    tracer.patch_wrap(executor, "run_job", "engine.run_job")
    tracer.patch_wrap(executor, "sweep_cut", "core.sweep")
    # ALGORITHMS is one dict shared by core.api and engine.executor.
    for method, (params_cls, runner, takes_rng) in list(api.ALGORITHMS.items()):
        wrapped = tracer.wrap("core.diffusion", runner, value_of=_diffusion_value)
        tracer.patch_item(api.ALGORITHMS, method, (params_cls, wrapped, takes_rng))
    for module in (pr_nibble, nibble, hk_pr):
        tracer.patch_wrap(module, "edge_map", "ligra.edge_map")
        tracer.patch_wrap(module, "vertex_map", "ligra.vertex_map")
    for attr in ("lookup", "accumulate", "assign", "items"):
        tracer.patch_wrap(IntFloatHashTable, attr, "prims.hashtable")
    for attr in ("get", "add", "set", "keys", "items", "l1_norm"):
        tracer.patch_wrap(SparseVector, attr, "prims.sparse")
    for module in (sweep, rand_hk_pr):
        tracer.patch_wrap(module, "integer_sort_order", "prims.sort")
    for module in (pr_nibble, sweep, rand_hk_pr):
        tracer.patch_wrap(module, "get_kernels", "kernels.get_kernels",
                          value_of=lambda kernels: getattr(kernels, "name", "compiled"))


def install_service(tracer: Tracer) -> None:
    """``DiffusionService``: the submit-to-reply span, batch starts and
    updates.  No public entry point marks the moment a queued job starts
    executing, so the private ``_execute_batch`` is wrapped for it."""
    from repro.serve.service import DiffusionService

    submit = DiffusionService.submit
    update = DiffusionService.update
    execute = DiffusionService._execute_batch

    def traced_submit(self, job, priority="interactive", graph_version=None):
        start = now()
        op = tracer.op
        future = submit(self, job, priority, graph_version)
        future.add_done_callback(
            lambda _: tracer.add("serve.service", start, now(), op)
        )
        return future

    async def traced_update(self, insertions=(), deletions=()):
        start = now()
        op = tracer.op
        try:
            return await update(self, insertions, deletions)
        finally:
            tracer.add("serve.service.update", start, now(), op)

    def traced_execute(self, loop, batch):
        return tracer.call("serve.service.batch", execute, (self, loop, batch), {},
                           value=len(batch))

    tracer.patch(DiffusionService, "submit", functools.wraps(submit)(traced_submit))
    tracer.patch(DiffusionService, "update", functools.wraps(update)(traced_update))
    tracer.patch(DiffusionService, "_execute_batch",
                 functools.wraps(execute)(traced_execute))


def install_net(tracer: Tracer) -> None:
    """The wire codec as bound in ``repro.serve.net``: JSON decode and
    encode, ``parse_request`` and ``outcome_reply``.  Decoding a request
    sets the current operation to its id."""
    from repro.serve import net

    codec = net.json

    def loads(text, *args, **kwargs):
        start = now()
        payload = codec.loads(text, *args, **kwargs)
        if isinstance(payload, dict) and payload.get("id") is not None:
            tracer.op = payload["id"]
        tracer.add("serve.net.json_loads", start, now(), tracer.op)
        return payload

    shim = types.SimpleNamespace(
        loads=loads,
        dumps=tracer.wrap("serve.net.json_dumps", codec.dumps),
        JSONDecodeError=codec.JSONDecodeError,
    )
    tracer.patch(net, "json", shim)
    tracer.patch_wrap(net, "parse_request", "serve.net.parse_request")
    tracer.patch_wrap(net, "outcome_reply", "serve.net.outcome_reply")


def install_evolving(tracer: Tracer) -> None:
    """Cache and version plane: ``ResultCache.get``/``put``,
    ``advance_version`` (looked up on ``repro.cache`` at update time),
    ``EvolvingGraph.apply_updates`` and fingerprint computation."""
    import repro.cache
    from repro.cache.store import ResultCache
    from repro.graph.csr import CSRGraph
    from repro.graph.evolving import EvolvingGraph

    tracer.patch_wrap(ResultCache, "get", "cache.get",
                      value_of=lambda outcome: outcome is not None)
    tracer.patch_wrap(ResultCache, "put", "cache.put")
    tracer.patch_wrap(
        repro.cache, "advance_version", "cache.advance_version",
        value_of=lambda s: [s.examined, s.survived, s.invalidated, s.skipped],
    )
    tracer.patch_wrap(EvolvingGraph, "apply_updates", "graph.apply_updates",
                      value_of=lambda version: int(version.rebuilt))
    tracer.patch_wrap(
        CSRGraph, "fingerprint", "graph.fingerprint",
        record_if=lambda graph: getattr(graph, "_fingerprint", None) is None,
    )


def install_build(tracer: Tracer) -> None:
    """Graph construction: ``load_proxy`` as bound in ``repro.cli``."""
    import repro.cli

    tracer.patch_wrap(repro.cli, "load_proxy", "graph.build")


def install_pool_parent(tracer: Tracer) -> None:
    """Parent side of the process pool: each ``repro.ncp_profile`` call, the
    pool's start (forking the workers) and close (terminate + join), the
    wait for each outcome and the batch's dispatch accounting.  Pool
    workers run untraced.  Outcomes arrive from the pool in the private
    ``PoolSession._run`` stream, the only place the parent sees them one by
    one, so that is wrapped."""
    import repro
    from repro.engine.executor import PoolSession

    tracer.patch_wrap(repro, "ncp_profile", "api.ncp_profile")
    tracer.patch_wrap(PoolSession, "__init__", "engine.pool_start")
    tracer.patch_wrap(PoolSession, "close", "engine.pool_close")
    run = PoolSession._run

    def traced_run(self, jobs):
        began = now()
        stream = run(self, jobs)
        try:
            while True:
                start = now()
                try:
                    outcome = next(stream)
                except StopIteration:
                    break
                tracer.add("engine.outcome_wait", start, now(), tracer.op)
                yield outcome
        finally:
            stream.close()
            dispatch = self.backend.dispatch
            tracer.add("engine.dispatch", began, now(), tracer.op,
                       [dispatch.units, dispatch.steals,
                        dispatch.busy_seconds, dispatch.idle_seconds])

    tracer.patch(PoolSession, "_run", functools.wraps(run)(traced_run))


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def overhead(untraced: list[float], traced: list[float]) -> float:
    """Traced over untraced time on the operations both runs completed
    (the same inputs in the same order), minus one."""
    common = min(len(untraced), len(traced))
    if not common:
        return 0.0
    return sum(traced[:common]) / sum(untraced[:common]) - 1.0


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile; 0.0 for no samples."""
    return float(np.percentile(values, q)) if len(values) else 0.0


def aggregate(spans, rtt_by_op: dict | None = None, retained_mb: float = 0.0,
              build_s: float = 0.0, overhead_share: float = 0.0) -> dict:
    """Per-layer metrics (``LAYER_METRICS``) from one traced run's spans.

    ``rtt_by_op`` maps operation ids to client-side round trips in
    seconds (``interactive`` only) for the wire layer's self time;
    ``build_s`` is the graph build time when no ``graph.build`` span was
    recorded (the workers time their own build).
    """
    spans = [tuple(span) for span in spans]
    duration = {span[0]: span[3] - span[2] for span in spans}
    child_time: dict = defaultdict(float)
    for span in spans:
        if span[4] is not None:
            child_time[span[4]] += span[3] - span[2]
    by_name: dict = defaultdict(list)
    for span in spans:
        by_name[span[1]].append(span)

    def durations(name):
        return [duration[span[0]] for span in by_name[name]]

    def self_total(name):
        return sum(duration[s[0]] - child_time[s[0]] for s in by_name[name])

    def per_op(names):
        totals: dict = defaultdict(float)
        for name in names:
            for span in by_name[name]:
                totals[span[5]] += duration[span[0]]
        return totals

    ms = 1000.0
    metrics = dict.fromkeys(LAYER_METRICS, 0.0)

    decode = per_op(["serve.net.json_loads", "serve.net.parse_request"])
    encode = per_op(["serve.net.outcome_reply", "serve.net.json_dumps"])
    metrics["serve.net.decode_ms_p50"] = percentile(list(decode.values()), 50) * ms
    metrics["serve.net.encode_ms_p50"] = percentile(list(encode.values()), 50) * ms

    service = {span[5]: span for span in by_name["serve.service"]}
    batches = {span[5]: span for span in by_name["serve.service.batch"]}
    if rtt_by_op:
        wire_self = [rtt - duration[service[op][0]]
                     for op, rtt in rtt_by_op.items() if op in service]
        metrics["serve.net.self_ms_p50"] = percentile(wire_self, 50) * ms
    waits = [batches[op][2] - span[2] for op, span in service.items() if op in batches]
    metrics["serve.service.wait_ms_p50"] = percentile(waits, 50) * ms
    metrics["serve.service.wait_ms_p90"] = percentile(waits, 90) * ms
    below = {op: child_time[span[0]] for op, span in batches.items()}
    service_self = [duration[span[0]] - below.get(op, 0.0) for op, span in service.items()]
    metrics["serve.service.self_ms_p50"] = percentile(service_self, 50) * ms
    sizes = [span[6] for span in by_name["serve.service.batch"] if span[6] is not None]
    metrics["serve.service.jobs_per_batch"] = float(np.mean(sizes)) if sizes else 0.0
    metrics["serve.service.update_ms_p50"] = percentile(durations("serve.service.update"), 50) * ms

    jobs = durations("engine.run_job")
    metrics["engine.job_ms_p50"] = percentile(jobs, 50) * ms
    metrics["engine.job_ms_p90"] = percentile(jobs, 90) * ms
    dispatch = [span[6] for span in by_name["engine.dispatch"]]
    if dispatch:
        units, steals, busy, idle = (sum(column) for column in zip(*dispatch))
        metrics["engine.units"] = units / len(dispatch)
        metrics["engine.steals"] = steals / len(dispatch)
        metrics["engine.worker_busy_share"] = busy / (busy + idle) if busy + idle else 0.0
    elif by_name["serve.service.batch"]:
        batch_time = sum(durations("serve.service.batch"))
        metrics["engine.worker_busy_share"] = sum(jobs) / batch_time if batch_time else 0.0
    metrics["engine.outcome_wait_ms_p50"] = (
        percentile(durations("engine.outcome_wait"), 50) * ms
    )
    metrics["engine.pool_start_ms_p50"] = percentile(durations("engine.pool_start"), 50) * ms
    metrics["engine.pool_close_ms_p50"] = percentile(durations("engine.pool_close"), 50) * ms
    # Share of each pooled call (``ncp_profile``) spent outside the dispatch
    # span: engine set-up, pool start and close.
    calls = sum(durations("api.ncp_profile"))
    if calls:
        metrics["engine.outside_dispatch_share"] = 1.0 - sum(durations("engine.dispatch")) / calls
    diffusion = durations("core.diffusion")
    sweeps = durations("core.sweep")
    metrics["core.diffusion_ms_p50"] = percentile(diffusion, 50) * ms
    metrics["core.diffusion_ms_p90"] = percentile(diffusion, 90) * ms
    metrics["core.sweep_ms_p50"] = percentile(sweeps, 50) * ms
    metrics["core.sweep_ms_p90"] = percentile(sweeps, 90) * ms
    counters = [span[6] for span in by_name["core.diffusion"] if span[6] is not None]
    if counters:
        metrics["core.pushes_per_job"] = float(np.mean([c[0] for c in counters]))
        metrics["core.rounds_per_job"] = float(np.mean([c[1] for c in counters]))
        metrics["core.support_per_job"] = float(np.mean([c[2] for c in counters]))
    compute = sum(diffusion) + sum(sweeps)
    if compute:
        metrics["ligra.edge_map_share"] = self_total("ligra.edge_map") / compute
        metrics["prims.hashtable_share"] = self_total("prims.hashtable") / compute
        metrics["prims.sparse_share"] = self_total("prims.sparse") / compute
        metrics["prims.sort_share"] = self_total("prims.sort") / compute
    metrics["kernels.compiled_calls"] = float(sum(
        1 for span in by_name["kernels.get_kernels"] if span[6] != "python"
    ))

    gets = by_name["cache.get"]
    if gets:
        metrics["cache.hit_rate"] = sum(1 for span in gets if span[6]) / len(gets)
        metrics["cache.get_ms_p50"] = percentile(durations("cache.get"), 50) * ms
    migrations = [span[6] for span in by_name["cache.advance_version"]]
    metrics["cache.migrate_ms_p50"] = percentile(durations("cache.advance_version"), 50) * ms
    examined = sum(m[0] for m in migrations)
    metrics["cache.survival_rate"] = (
        sum(m[1] for m in migrations) / examined if examined else 0.0
    )
    applies = by_name["graph.apply_updates"]
    metrics["graph.apply_ms_p50"] = percentile(durations("graph.apply_updates"), 50) * ms
    metrics["graph.rebuild_share"] = (
        float(np.mean([span[6] for span in applies])) if applies else 0.0
    )
    metrics["graph.fingerprint_ms_p50"] = (
        percentile(durations("graph.fingerprint"), 50) * ms
    )
    builds = durations("graph.build")
    metrics["graph.build_s"] = max(builds) if builds else float(build_s)
    metrics["graph.retained_mb"] = float(retained_mb)
    metrics["trace.overhead_share"] = float(overhead_share)
    return metrics
