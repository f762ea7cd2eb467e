"""Fast self-test of the benchmark itself, on a tiny proxy graph.

``python3 perfbench/selftest.py`` (about fifteen seconds).  It runs every
workload's generator, window loop and correctness checks -- including a
real ``repro serve`` child for ``interactive`` and ``worker.py`` children
as ``run.py`` drives them -- at REPRO_SCALE=0.02,
shows that each check rejects a tampered output, aggregates real and
synthetic spans, and validates the result object against
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import json
import os
import sys
import time
import unittest
from unittest import mock

sys.path[:0] = [os.path.dirname(os.path.abspath(__file__))]

import common  # noqa: E402

TINY_SCALE = "0.02"
os.environ["REPRO_SCALE"] = TINY_SCALE
os.environ["PYTHONPATH"] = os.pathsep.join([str(common.SRC), str(common.HERE)])
sys.path.insert(0, str(common.SRC))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from repro.graph import load_proxy  # noqa: E402


def tiny_graph():
    return load_proxy(workloads.GRAPH, scale=float(TINY_SCALE))


class Generators(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        graph = tiny_graph()
        for make in (
            lambda rng: workloads.interactive_requests(graph, rng, 120),
            lambda rng: workloads.ncp_calls(graph, rng, 10),
            lambda rng: workloads.evolving_ops(graph, rng, 300),
        ):
            self.assertEqual(make(np.random.default_rng(3)), make(np.random.default_rng(3)))
            self.assertNotEqual(make(np.random.default_rng(3)), make(np.random.default_rng(4)))

    def test_interactive_mix_is_exact_per_block(self):
        graph = tiny_graph()
        requests = workloads.interactive_requests(graph, np.random.default_rng(1), 2 * workloads.MIX_BLOCK)
        eligible = set(workloads.eligible_seeds(graph).tolist())
        for block in (requests[: workloads.MIX_BLOCK], requests[workloads.MIX_BLOCK:]):
            counts = {m: sum(r["method"] == m for r in block) for m, _, _ in workloads.INTERACTIVE_MIX}
            self.assertEqual(counts, {m: c for m, _, c in workloads.INTERACTIVE_MIX})
        self.assertTrue(all(r["seeds"][0] in eligible for r in requests))
        self.assertEqual(len({r["id"] for r in requests}), len(requests))

    def test_every_update_is_effective(self):
        graph = tiny_graph()
        ops = workloads.evolving_ops(graph, np.random.default_rng(2), 400)
        alive: set = set()
        for position, op in enumerate(ops):
            if op[0] == "read":
                continue
            self.assertEqual(position % (workloads.READS_PER_UPDATE + 1), workloads.READS_PER_UPDATE)
            insertions, deletions = set(op[1]), set(op[2])
            self.assertEqual(len(insertions), workloads.INSERTS_PER_UPDATE)
            self.assertFalse(insertions & deletions)
            self.assertTrue(all(not graph.has_edge(*e) and e not in alive for e in insertions))
            self.assertLessEqual(deletions, alive)
            alive = (alive - deletions) | insertions


# In-process windows read RSS after a few operations, not the full mark:
# every read covers the whole tiny graph.
@mock.patch.object(worker, "RSS_MARK_OPS", 60)
class Workloads(unittest.TestCase):
    def test_interactive_round_trip_and_trace(self):
        graph = tiny_graph()
        rng = np.random.default_rng(5)
        warmup = workloads.warmup_requests(graph, rng)
        requests = workloads.interactive_requests(graph, rng, 400)
        lines = [run.encode(request) for request in requests]
        data = run.serve_window(warmup, lines, 1.0, traced=True)
        sent = warmup + requests[: len(data["replies"]) - len(warmup)]
        errors, _ = checks.check_interactive(graph, sent, data["replies"])
        self.assertEqual(errors, [])
        rtt = {r["id"]: latency for r, latency in zip(requests, data["latencies"])}
        layers = tracing.aggregate(data["spans"], rtt_by_op=rtt)
        self.assertEqual(set(layers), set(tracing.LAYER_METRICS))
        for name in ("serve.net.decode_ms_p50", "serve.net.self_ms_p50",
                     "serve.service.wait_ms_p50", "engine.job_ms_p50",
                     "core.diffusion_ms_p50", "prims.hashtable_share", "graph.build_s"):
            self.assertGreater(layers[name], 0.0, name)
        tampered = [dict(reply) for reply in data["replies"]]
        tampered[-1]["conductance"] = 0.5 * tampered[-1]["conductance"]
        self.assertTrue(checks.check_interactive(graph, sent, tampered)[0])

    def test_ncp_window_and_checks(self):
        graph = tiny_graph()
        calls = workloads.ncp_calls(graph, np.random.default_rng(6), 50)
        data = worker.ncp_window(graph, calls, time.perf_counter() + 1.0)
        summaries = data["summaries"]
        errors, _ = checks.check_ncp(graph, calls, summaries, data["sampled"], workloads.ncp_grid())
        self.assertEqual(errors + data["errors"], [])
        bad = dict(data["sampled"])
        bad[0] = np.full_like(bad[0], 2.0)
        self.assertTrue(checks.check_ncp(graph, calls, summaries, bad, workloads.ncp_grid())[0])
        low_runs = [(runs - 1, low, high) for runs, low, high in summaries]
        self.assertTrue(checks.check_ncp(graph, calls, low_runs, {}, workloads.ncp_grid())[0])

    def test_evolving_window_and_checks(self):
        graph = tiny_graph()
        ops = workloads.evolving_ops(graph, np.random.default_rng(7), 2000)
        data = asyncio.run(worker.evolving_window(graph, int(ops[0][1]), lambda: ops, 1.0))
        self.assertGreater(len(data["update_latencies"]), 0)
        args = (data["migrations"], data["cache_stats"], data["cached"], data["reads"])
        errors, _ = checks.check_evolving(data["chain"], data["sampled"], *args)
        self.assertEqual(errors + data["errors"], [])
        index, version, outcome = data["sampled"][0]
        wrong = dataclasses.replace(outcome, pushes=outcome.pushes + 1)
        bad = [(index, version, wrong)] + data["sampled"][1:]
        self.assertTrue(checks.check_evolving(data["chain"], bad, *args)[0])

    def test_evolving_rss_is_read_at_the_mark(self):
        # A window that ends at once still runs, untimed, to the RSS mark.
        graph = tiny_graph()
        ops = workloads.evolving_ops(graph, np.random.default_rng(8), worker.RSS_MARK_OPS + 50)
        data = asyncio.run(worker.evolving_window(graph, int(ops[0][1]), lambda: ops, 0.0))
        self.assertEqual((data["ops"], data["attempted"]), (0, worker.RSS_MARK_OPS))
        self.assertEqual((data["errors"], data["failed"]), ([], 0))
        self.assertGreater(data["peak_rss_mb"], 0.0)
        args = (data["migrations"], data["cache_stats"], data["cached"], data["reads"])
        self.assertEqual(checks.check_evolving(data["chain"], data["sampled"], *args)[0], [])


class Children(unittest.TestCase):
    """The worker child as ``run.py`` drives it: probes, result line, trace."""

    def args(self, workload: str, trace: int):
        return argparse.Namespace(workload=workload, seed=1, seconds=1.0, trace=trace)

    def test_untraced_ncp_run(self):
        result = run.run_in_process(self.args("ncp", 0))
        self.assertEqual(len(result["setups"]), run.SETUP_SAMPLES)
        self.assertEqual((result["errors"], result["failed"]), ([], 0))
        self.assertEqual(set(run.summarize(result)), set(run.END_TO_END_UNITS))

    def test_traced_evolving_run(self):
        _, result = run.run_worker(self.args("evolving", 1), probe=False)
        self.assertEqual((result["errors"], result["failed"]), ([], 0))
        self.assertEqual(set(result["layers"]), set(tracing.LAYER_METRICS))
        self.assertGreater(result["layers"]["cache.get_ms_p50"], 0.0)
        self.assertGreater(result["layers"]["graph.apply_ms_p50"], 0.0)


class Tracing(unittest.TestCase):
    def test_self_time_excludes_children(self):
        spans = [
            (1, "core.diffusion", 0.0, 0.010, None, 0, [5, 2, 3]),
            (2, "ligra.edge_map", 0.001, 0.005, 1, 0, None),
            (3, "prims.sparse", 0.002, 0.004, 2, 0, None),
            (4, "prims.hashtable", 0.0025, 0.0035, 3, 0, None),
            (5, "core.sweep", 0.010, 0.020, None, 0, None),
        ]
        layers = tracing.aggregate(spans)
        self.assertAlmostEqual(layers["ligra.edge_map_share"], 0.002 / 0.020)
        self.assertAlmostEqual(layers["prims.sparse_share"], 0.001 / 0.020)
        self.assertAlmostEqual(layers["prims.hashtable_share"], 0.001 / 0.020)
        self.assertAlmostEqual(layers["core.diffusion_ms_p50"], 10.0)
        self.assertEqual(layers["core.pushes_per_job"], 5.0)

    def test_restore_puts_the_program_back(self):
        import repro
        from repro.engine import executor

        originals = (executor.run_job, dict(repro.ALGORITHMS))
        tracer = tracing.Tracer()
        tracing.install_jobs(tracer)
        tracing.install_evolving(tracer)
        tracing.install_service(tracer)
        self.assertIsNot(executor.run_job, originals[0])
        repro.ncp_profile(tiny_graph(), seeds=[1, 2])
        tracer.restore()
        self.assertIs(executor.run_job, originals[0])
        self.assertEqual(dict(repro.ALGORITHMS), originals[1])
        layers = tracing.aggregate(tracer.spans)
        self.assertGreater(layers["engine.job_ms_p50"], 0.0)
        self.assertGreater(layers["core.rounds_per_job"], 0.0)

    def test_pool_start_and_close_are_outside_dispatch(self):
        import repro

        tracer = tracing.Tracer()
        tracing.install_pool_parent(tracer)
        try:
            repro.ncp_profile(tiny_graph(), seeds=[1, 2], workers=2)
        finally:
            tracer.restore()
        layers = tracing.aggregate(tracer.spans)
        self.assertGreater(layers["engine.pool_start_ms_p50"], 0.0)
        self.assertGreater(layers["engine.pool_close_ms_p50"], 0.0)
        self.assertTrue(0.0 < layers["engine.outside_dispatch_share"] < 1.0)


class Schema(unittest.TestCase):
    def declared(self):
        with open(common.ROOT / "BENCHMARK.json") as handle:
            return json.load(handle)

    def result(self, trace: int) -> dict:
        return {
            "setups": [0.5, 0.6, 0.7], "latencies": [0.01, 0.02, 0.03], "ops": 3,
            "window_s": 1.0, "peak_rss_mb": 80.0, "rss_read_at": "op 3",
            "attempted": 3, "failed": 0,
            "errors": [], "cpu_s": 0.1, "steal_share": 0.0,
            "inputs": {"class_shares": {"read": 1.0}, "recomputed": [(True, 10), (None, 5)],
                       "n": 100, "cache_hit_share": 0.0, "rebuild_share": 0.0},
            "layers": dict.fromkeys(tracing.LAYER_METRICS, 1.0) if trace else None,
        }

    def test_result_object_matches_the_declaration(self):
        declared = self.declared()
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            args = type("Args", (), {"workload": "ncp", "seed": 1, "seconds": 1.0, "trace": trace})
            with open(os.devnull, "w") as sink:
                stdout, sys.stdout = sys.stdout, sink
                try:
                    out = run.report(args, self.result(trace))
                finally:
                    sys.stdout = stdout
            out = json.loads(json.dumps(out))
            self.assertEqual(set(out), {"correct", "attempted", "failed", "metrics"})
            units = {m["name"]: m["unit"] for m in declared[section]}
            self.assertEqual({k: v["unit"] for k, v in out["metrics"].items()}, units)
            self.assertTrue(all(set(v) == {"value", "unit"} for v in out["metrics"].values()))

    def test_declaration_follows_the_contract(self):
        declared = self.declared()
        self.assertEqual(
            set(declared),
            {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
        )
        self.assertEqual([w["name"] for w in declared["workloads"]], list(run.WORKLOADS))
        self.assertIn("setup_s", {m["name"] for m in declared["end_to_end"]})
        self.assertTrue(all(0 < m["bound"] <= 0.25 for m in declared["end_to_end"]))
        setup = next(m for m in declared["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual(setup["bound"], max(m["bound"] for m in declared["end_to_end"]))


if __name__ == "__main__":
    unittest.main()
