"""The repository's end-to-end benchmark.

``python3 perfbench/run.py --workload W --seed N --seconds S --trace {0,1}``
from the root of a checkout.  It builds nothing: the program is the
pure-Python ``repro`` package under ``src/``, run on the default
configuration against the ``soc-LJ`` proxy (scale 1.0, 40k vertices).

Workloads (every run is a fresh set of processes; all loops are closed,
one operation in flight, so no queue builds up in front of the program):

* ``interactive`` -- one NDJSON connection to ``repro serve soc-LJ
  --listen 127.0.0.1:0`` (serial backend, BSP ``parallel=True``, no
  cache, 2 ms linger), requests mixing PR-Nibble / Nibble / rand-HK-PR /
  HK-PR 70/12/12/6 with ``include_cluster``.  The analyst path: fixed
  per-request costs (wire, admission, linger, thread hop) are a large
  share of a ~15 ms query.
* ``ncp`` -- in-process ``repro.ncp_profile(graph, seeds=..., workers=2)``
  calls on the default alpha x eps grid (the Figure-12 parameters), two
  seeds (eight jobs) per call: the only path through the process pool.
  Each call starts and closes its own pool; why two seeds, and what share
  of a call that costs, is noted at ``workloads.NCP_SEEDS_PER_CALL``.
* ``evolving`` -- in-process ``DiffusionService(EvolvingGraph(graph),
  cache=True)``, one client: PR-Nibble reads over Zipf-popular seeds and
  an edge-update batch after every ten reads.  The only workload through
  the cache and the version chain.

End-to-end metrics (``--trace 0``): ``setup_s`` (median of five fresh
process starts to ready), ``latency_p50_ms`` / ``latency_p90_ms`` (per
request; per read for ``evolving``; per ``ncp_profile`` call for ``ncp``),
``throughput_per_s`` (requests, jobs, or reads plus updates per second)
and ``peak_rss_mb`` (VmHWM of the process holding the graph).  The
report also prints ``error_rate`` (failed / attempted; it is 0 on a
correct run, so it is carried by the ``failed`` count rather than
declared as a metric) and, for ``evolving``, the update latency.

``--trace 1`` runs an untraced half window, then replays the same inputs
for a traced half window with the wrappers of ``tracing.py`` installed,
and reports the per-layer metrics of ``tracing.LAYER_METRICS``.

The last line of standard output is the JSON result; everything above it
is the human-readable report (metrics with units and sample counts,
run-quality diagnostics, the input-property profile and the checks).
"""

from __future__ import annotations

import argparse
import json
import os
import select
import socket
import subprocess
import sys
import time

from common import (
    HERE,
    SRC,
    cpu_jiffies,
    describe_environment,
    peak_rss_mb,
    pin_environment,
    process_cpu_seconds,
    steal_share,
)
import tracing
import workloads

now = time.perf_counter

WORKLOADS = ("interactive", "ncp", "evolving")
#: fresh process starts per untraced run; ``setup_s`` is their median.
SETUP_SAMPLES = 5
#: requests generated for ``interactive``: several times what a window
#: completes today, so a faster program still measures the whole window.
REQUESTS = 20000
#: limits on each child process, well inside the 180 s a run may take.
START_TIMEOUT = 60.0
DRAIN_TIMEOUT = 60.0
END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
}


class BenchmarkError(RuntimeError):
    """The run cannot produce a result."""


class Lines:
    """Line reader over a child's pipe with a deadline (never blocks past it)."""

    def __init__(self, stream) -> None:
        self.fd = stream.fileno()
        self.buffer = b""

    def next(self, deadline: float) -> str:
        while b"\n" not in self.buffer:
            remaining = deadline - now()
            if remaining <= 0:
                raise BenchmarkError("timed out waiting for a child process")
            readable, _, _ = select.select([self.fd], [], [], remaining)
            if readable:
                chunk = os.read(self.fd, 1 << 16)
                if not chunk:
                    tail = self.buffer.decode("utf-8", "replace")[-2000:]
                    raise BenchmarkError(f"child process exited early: {tail}")
                self.buffer += chunk
        line, _, self.buffer = self.buffer.partition(b"\n")
        return line.decode("utf-8", "replace")

    def until(self, prefix: str, deadline: float) -> str:
        while True:
            line = self.next(deadline)
            if line.startswith(prefix):
                return line


def finish(proc: subprocess.Popen, leftover: bytes = b"",
           timeout: float = DRAIN_TIMEOUT) -> str:
    """Close the child's stdin, wait for it and return its remaining stdout."""
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        kill(proc)
        raise BenchmarkError("child process did not exit in time") from None
    if proc.returncode != 0:
        raise BenchmarkError(
            f"child process failed ({proc.returncode}): {err.decode()[-2000:]}"
        )
    return (leftover + out).decode("utf-8", "replace")


def spawn(command: list[str]) -> subprocess.Popen:
    return subprocess.Popen(
        command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, cwd=str(HERE.parent),
    )


def kill(proc: subprocess.Popen) -> None:
    """Stop a child on an error path and wait until it has ended."""
    if proc.returncode is None:
        proc.kill()
        proc.communicate()


# ----------------------------------------------------------------------
# interactive: the load generator lives in this process
# ----------------------------------------------------------------------
class Server:
    """A ``repro serve --listen`` child and one NDJSON connection to it."""

    def __init__(self, traced: bool) -> None:
        serve = [workloads.GRAPH, "--listen", "127.0.0.1:0"]
        command = (
            [sys.executable, str(HERE / "serve_traced.py"), *serve]
            if traced
            else [sys.executable, "-m", "repro", "serve", *serve]
        )
        self.spawned = now()
        self.proc = spawn(command)
        try:
            line = Lines(self.proc.stderr).until(
                "serve: listening on ", self.spawned + START_TIMEOUT
            )
            host, _, port = line.rsplit(" ", 1)[1].rpartition(":")
            self.sock = socket.create_connection((host, int(port)), timeout=START_TIMEOUT)
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.reader = self.sock.makefile("rb")
        except BaseException:
            kill(self.proc)
            raise

    def ask(self, line: bytes) -> dict:
        self.sock.sendall(line)
        reply = self.reader.readline()
        if not reply:
            raise BenchmarkError("server closed the connection")
        return json.loads(reply)

    def close(self) -> str:
        """Drain the server (closing stdin asks for it); return its stdout."""
        self.reader.close()
        self.sock.close()
        return finish(self.proc)

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, kind, *exc_info) -> None:
        if kind is not None:
            self.sock.close()
            kill(self.proc)


def encode(request: dict) -> bytes:
    return json.dumps(request).encode("utf-8") + b"\n"


def probe_server(first: dict) -> float:
    with Server(traced=False) as server:
        server.ask(encode(first))
        setup = now() - server.spawned
        server.close()
    return setup


def serve_window(warmup: list[dict], lines: list[bytes], seconds: float,
                 traced: bool) -> dict:
    with Server(traced) as server:
        replies = [server.ask(encode(warmup[0]))]
        setup = now() - server.spawned
        replies += [server.ask(encode(request)) for request in warmup[1:]]
        pid = server.proc.pid
        jiffies, server_cpu, own = cpu_jiffies(), process_cpu_seconds(pid), process_cpu_seconds()
        latencies = []
        start = now()
        deadline = start + seconds
        for line in lines:
            if now() >= deadline:
                break
            began = now()
            replies.append(server.ask(line))
            latencies.append(now() - began)
        window = now() - start
        data = {
            "setup": setup,
            "latencies": latencies,
            "replies": replies,
            "window_s": window,
            "steal_share": steal_share(jiffies, cpu_jiffies()),
            "cpu_s": process_cpu_seconds(pid) - server_cpu,
            "loadgen_cpu_share": (process_cpu_seconds() - own) / window,
            "peak_rss_mb": peak_rss_mb(pid),
            "rss_read_at": f"window end, after request {len(latencies)}",
        }
        stdout = server.close()
    if traced:
        spans = [line for line in stdout.splitlines() if line.startswith("SPANS ")]
        if not spans:
            raise BenchmarkError("traced server printed no spans")
        data["spans"] = json.loads(spans[-1][len("SPANS "):])
    return data


def run_interactive(args) -> dict:
    import numpy as np

    from checks import check_interactive
    from repro.graph import load_proxy

    graph = load_proxy(workloads.GRAPH)
    rng = np.random.default_rng(args.seed)
    warmup = workloads.warmup_requests(graph, rng)
    requests = workloads.interactive_requests(graph, rng, REQUESTS)
    lines = [encode(request) for request in requests]
    phases, setups = [], []
    if args.trace:
        for traced in (False, True):
            phases.append(serve_window(warmup, lines, args.seconds / 2, traced))
    else:
        setups = [probe_server(warmup[0]) for _ in range(SETUP_SAMPLES - 1)]
        phases.append(serve_window(warmup, lines, args.seconds, traced=False))
        setups.append(phases[0]["setup"])
    errors, recomputed = [], []
    for phase in phases:
        sent = warmup + requests[: len(phase["replies"]) - len(warmup)]
        found, sample = check_interactive(graph, sent, phase["replies"])
        errors += found
        recomputed += sample
    data = phases[-1]
    replies = data["replies"][len(warmup):]
    attempted = sum(len(p["replies"]) for p in phases)
    failed = sum(1 for p in phases for reply in p["replies"] if "error" in reply)
    shares = {method: 0 for method, _, _ in workloads.INTERACTIVE_MIX}
    for request in requests[: len(replies)]:
        shares[request["method"]] += 1
    result = {
        "setups": setups,
        "latencies": data["latencies"],
        "ops": len(replies),
        "window_s": data["window_s"],
        "cpu_s": data["cpu_s"],
        "steal_share": data["steal_share"],
        "loadgen_cpu_share": data["loadgen_cpu_share"],
        "peak_rss_mb": data["peak_rss_mb"],
        "rss_read_at": data["rss_read_at"],
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "inputs": {
            "class_shares": {m: c / max(len(replies), 1) for m, c in shares.items()},
            "support_over_n": float(np.mean([r.get("support", 0) for r in replies]))
            / graph.num_vertices,
            "recomputed": recomputed,
            "cache_hit_share": 0.0,
            "rebuild_share": 0.0,
        },
    }
    if args.trace:
        untraced, traced = phases
        rtt = {
            request["id"]: latency
            for request, latency in zip(requests, traced["latencies"])
        }
        result["layers"] = tracing.aggregate(
            traced["spans"],
            rtt_by_op=rtt,
            retained_mb=(graph.offsets.nbytes + graph.neighbors.nbytes) / 2**20,
            overhead_share=tracing.overhead(untraced["latencies"], traced["latencies"]),
        )
    return result


# ----------------------------------------------------------------------
# ncp and evolving: the work runs in worker.py children
# ----------------------------------------------------------------------
def run_worker(args, probe: bool) -> tuple[float, dict]:
    """One ``worker.py`` child: its spawn-to-ready time and (unless a
    probe) its result."""
    command = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ] + (["--probe"] if probe else [])
    spawned = now()
    proc = spawn(command)
    try:
        stdout = Lines(proc.stdout)
        stdout.until("READY", spawned + START_TIMEOUT)
        setup = now() - spawned
        # The result line can be long: it is read once the worker has
        # exited, within the time its window, checks and replay allow.
        text = finish(proc, stdout.buffer,
                      DRAIN_TIMEOUT if probe else args.seconds + 2 * DRAIN_TIMEOUT)
    except BaseException:
        kill(proc)
        raise
    if probe:
        return setup, {}
    results = [line for line in text.splitlines() if line.startswith("RESULT ")]
    if not results:
        raise BenchmarkError("worker printed no result")
    return setup, json.loads(results[-1][len("RESULT "):])


def run_in_process(args) -> dict:
    probes = [] if args.trace else [
        run_worker(args, probe=True)[0] for _ in range(SETUP_SAMPLES - 1)
    ]
    setup, result = run_worker(args, probe=False)
    result["setups"] = [*probes, setup]
    return result


# ----------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------
def summarize(result: dict) -> dict:
    """End-to-end metrics from one run's raw measurements."""
    import statistics

    latencies = result["latencies"]
    return {
        "setup_s": statistics.median(result["setups"]),
        "latency_p50_ms": tracing.percentile(latencies, 50) * 1000.0,
        "latency_p90_ms": tracing.percentile(latencies, 90) * 1000.0,
        "throughput_per_s": result["ops"] / result["window_s"],
        "peak_rss_mb": result["peak_rss_mb"],
    }


def report(args, result: dict) -> dict:
    """Print the human-readable report; return the JSON result object."""
    attempted = max(int(result["attempted"]), 1)
    failed = int(result["failed"])
    correct = not result["errors"] and failed == 0
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"environment: {describe_environment()}")
    samples = len(result["latencies"])
    if args.trace:
        metrics = {
            name: {"value": float(value), "unit": tracing.LAYER_METRICS[name]}
            for name, value in result["layers"].items()
        }
        replay = "; worker-side layers from an in-process replay" if args.workload == "ncp" else ""
        print(f"per-layer metrics (traced half window{replay}):")
        for name, entry in metrics.items():
            print(f"  {name:<32} {entry['value']:>12.4f} {entry['unit']}")
    else:
        values = summarize(result)
        metrics = {
            name: {"value": float(value), "unit": END_TO_END_UNITS[name]}
            for name, value in values.items()
        }
        beyond = sum(1 for x in result["latencies"] if x * 1000.0 > values["latency_p90_ms"])
        counts = {
            "setup_s": f"n={len(result['setups'])} process starts",
            "latency_p50_ms": f"n={samples}",
            "latency_p90_ms": f"n={samples}, {beyond} beyond",
            "throughput_per_s": f"{result['ops']} ops in {result['window_s']:.2f} s",
            "peak_rss_mb": f"n=1, read at {result['rss_read_at']}",
        }
        print("end-to-end metrics:")
        for name, entry in metrics.items():
            print(f"  {name:<18} {entry['value']:>12.4f} {entry['unit']:<4} {counts[name]}")
        print(f"  {'error_rate':<18} {failed / attempted:>12.4f} fraction "
              f"{failed} failed of {attempted} attempted")
        updates = result.get("update_latencies")
        if updates:
            print(f"  {'update_p50_ms':<18} {tracing.percentile(updates, 50) * 1000.0:>12.4f} ms   "
                  f"n={len(updates)}")
    ops = max(result["ops"], 1)
    loadgen = result.get("loadgen_cpu_share")
    print("diagnostics (not metrics): "
          f"steal_share={result['steal_share']:.4f} "
          f"cpu_ms_per_op={1000.0 * result['cpu_s'] / ops:.3f} "
          "loadgen_cpu_share="
          + (f"{loadgen:.4f}" if loadgen is not None else "in-process"))
    inputs = result["inputs"]
    recomputed = inputs["recomputed"]  # (dense or None, support) per recomputed job
    dense = [flag for flag, _ in recomputed if flag is not None]
    support = inputs.get("support_over_n")
    if support is None:
        support = sum(size for _, size in recomputed) / max(len(recomputed), 1) / inputs["n"]
    shares = " ".join(f"{k}={v:.3f}" for k, v in inputs["class_shares"].items())
    print(f"inputs: {shares} support/n={support:.4f} "
          f"core.dense_share={sum(dense) / max(len(dense), 1):.3f} "
          f"(of {len(dense)} recomputed BSP jobs) "
          f"cache_hit_share={inputs['cache_hit_share']:.3f} "
          f"rebuild_share={inputs['rebuild_share']:.3f}")
    print("checks: " + ("all passed" if correct else f"{len(result['errors'])} failures"))
    for error in result["errors"][:20]:
        print(f"  FAIL {error}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="End-to-end benchmark of repro.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program's sources are missing ({SRC}/repro)",
              file=sys.stderr)
        return 2
    pin_environment()
    try:
        if args.workload == "interactive":
            result = run_interactive(args)
        else:
            result = run_in_process(args)
    except (BenchmarkError, OSError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    print(json.dumps(report(args, result)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
