"""Evolving-graph plane — cache survival under churn, and the update path.

The workload models a social graph under skewed write traffic: the
Twitter proxy takes a 1%-edge-churn update batch (insert-heavy,
concentrated in one hot BFS neighborhood — real update streams are
localized, not uniform) while a warmed engine keeps serving
PR-Nibble queries whose seeds are spread over the whole graph.
Results cross graph versions only through cache migration:
:func:`repro.cache.advance_version` re-keys entries whose profile
provably avoids the delta region, and under localized churn at least
50% of the warmed entries must survive (and replay as hits on the new
version).  That **cache survival rate** is asserted at full scale.

Correctness is asserted at every scale, smoke included: every surviving
cache hit is bit-identical to a cold recompute on the new version, and
the sum of migration counters balances.  Set ``REPRO_BENCH_SMOKE=1``
(the CI smoke job does) to keep those asserts but skip the survival
floor — on the ~50x-shrunk smoke proxies the hot neighborhood is a large
fraction of the graph, so the full-scale floor does not transfer.

A second leg times the update path itself on the soc-LJ proxy, in the
batch shape of the end-to-end ``evolving`` workload (50 edges inserted
inside one random vertex's 2-hop neighbourhood plus up to 20 deletions
of earlier insertions, with ten cached PR-Nibble reads per version).
Over 100 updates it reports the p50 of ``apply_updates`` (which includes
the new version's block fingerprint), of that incremental fingerprint
alone, of a from-scratch fingerprint for reference, and of
``advance_version``, plus the number of version CSRs still alive.  At
every scale, smoke included, at most three may be alive (the root, the
latest version and its parent), so a retention regression fails CI.

Results: ``results/bench_evolving.csv`` (churn leg),
``results/bench_evolving_updates.csv`` (update leg) and
``BENCH_evolving.json`` (both).
"""

from __future__ import annotations

import gc
import json
import os
import pathlib
import time
import weakref

import numpy as np

from repro.bench import format_table, write_csv
from repro.cache import ResultCache, advance_version
from repro.core.seeding import random_seeds
from repro.engine import BatchEngine, DiffusionJob
from repro.graph import CSRGraph, EvolvingGraph

GRAPH = "Twitter"
NUM_SEEDS = 24
PARAMS = {"alpha": 0.05, "eps": 1e-3}
CHURN_FRACTION = 0.01  # deletions + insertions, as a fraction of edges
DELETION_SHARE = 0.05  # social-graph churn is insert-heavy
SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

SURVIVAL_FLOOR = 0.5

UPDATE_GRAPH = "soc-LJ"
UPDATES = 100
INSERTS_PER_UPDATE = 50
DELETES_PER_UPDATE = 20
READS_PER_UPDATE = 10
READ_PARAMS = {"alpha": 0.05, "eps": 1e-4}
MAX_LIVE_CSRS = 3  # the root, the latest version and its parent
SUMMARY = pathlib.Path("BENCH_evolving.json")


def merge_summary(fields):
    """Update ``BENCH_evolving.json`` with ``fields``, keeping the other leg's."""
    try:
        summary = json.loads(SUMMARY.read_text())
    except (OSError, ValueError):
        summary = {}
    summary.update(fields)
    SUMMARY.write_text(json.dumps(summary, indent=2))


def hot_ball(graph, need_deletions, need_insertions):
    """The smallest BFS ball (from vertex 0) able to host the churn.

    Real update traffic is localized — a trending community churns while
    the rest of the graph idles — so the batch concentrates in one dense
    neighborhood: the ball grows until it holds ``need_deletions``
    internal edges and enough internal non-edges for the insertions.
    """
    from collections import deque

    members = [0]
    member_set = {0}
    internal = 0
    queue = deque(members)
    while queue:
        u = queue.popleft()
        for v in graph.neighbors_of(u).tolist():
            if v in member_set:
                continue
            internal += int(np.isin(graph.neighbors_of(v), np.array(members)).sum())
            member_set.add(v)
            members.append(v)
            queue.append(v)
            n = len(members)
            if internal >= need_deletions and (
                n * (n - 1) // 2 - internal >= need_insertions
            ):
                return members, member_set
    return members, member_set


def churn_batch(graph, rng):
    """A 1%-of-edges update batch concentrated in one hot neighborhood."""
    num_edges = len(graph.neighbors) // 2
    total = max(2, int(round(num_edges * CHURN_FRACTION)))
    need_deletions = max(1, int(round(total * DELETION_SHARE)))
    need_insertions = total - need_deletions
    members, member_set = hot_ball(graph, need_deletions, need_insertions)

    deletions = []
    for u in members:
        for v in graph.neighbors_of(u).tolist():
            if v > u and v in member_set:
                deletions.append((u, int(v)))
    deletions = deletions[:need_deletions]

    present = {tuple(sorted(edge)) for edge in deletions}
    pool = np.array(members)
    insertions = []
    while len(insertions) < need_insertions:
        u, v = (int(x) for x in rng.choice(pool, size=2))
        edge = (min(u, v), max(u, v))
        if u == v or edge in present or graph.has_edge(*edge):
            continue
        present.add(edge)
        insertions.append(edge)
    return insertions, deletions


def _run_experiment(graph):
    rng = np.random.default_rng(17)
    chain = EvolvingGraph(graph)
    seeds = random_seeds(graph, NUM_SEEDS, rng=7)
    jobs = [DiffusionJob.make(int(seed), params=PARAMS) for seed in seeds]

    cache = ResultCache()
    warm_engine = BatchEngine(
        chain, cache=cache, include_vectors=True, graph_version=0
    )
    warm = warm_engine.run(jobs)

    insertions, deletions = churn_batch(graph, rng)
    version = chain.apply_updates(insertions=insertions, deletions=deletions)

    migration = advance_version(cache, version)
    replay_engine = BatchEngine(chain, cache=cache, include_vectors=True)
    replay = replay_engine.run(jobs)

    return {
        "chain": chain,
        "version": version,
        "jobs": jobs,
        "warm": warm,
        "replay": replay,
        "migration": migration,
        "churn": (len(insertions), len(deletions)),
    }


def test_evolving_churn(benchmark, graphs):
    graph = graphs[GRAPH]
    run = benchmark.pedantic(lambda: _run_experiment(graph), rounds=1, iterations=1)

    version = run["version"]
    migration = run["migration"]
    survival = migration.survival_rate
    replay_hits = sum(outcome.cached for outcome in run["replay"])

    headers = ["measure", "value"]
    rows = [
        ["graph", f"{GRAPH} proxy ({graph.num_vertices} vertices)"],
        ["churn (+ins/-del)", f"+{run['churn'][0]}/-{run['churn'][1]}"],
        ["touched vertices", len(version.touched)],
        ["cache migration", migration.describe()],
        ["survival rate", f"{survival:.2f}"],
        ["replay hits", f"{replay_hits}/{NUM_SEEDS}"],
    ]
    print()
    print(
        format_table(
            headers,
            rows,
            title=f"Evolving plane: {GRAPH} proxy, "
            f"{CHURN_FRACTION:.0%}-edge churn in one hot neighborhood",
        )
    )
    write_csv(
        "bench_evolving",
        [
            "graph",
            "seeds",
            "survived",
            "invalidated",
            "skipped",
            "survival_rate",
            "replay_hits",
        ],
        [
            [
                GRAPH,
                NUM_SEEDS,
                migration.survived,
                migration.invalidated,
                migration.skipped,
                survival,
                replay_hits,
            ]
        ],
    )
    summary = {
        "graph": GRAPH,
        "smoke": SMOKE,
        "seeds": NUM_SEEDS,
        "churn_fraction": CHURN_FRACTION,
        "deletion_share": DELETION_SHARE,
        "touched_vertices": len(version.touched),
        "migration": {
            "examined": migration.examined,
            "survived": migration.survived,
            "invalidated": migration.invalidated,
            "skipped": migration.skipped,
        },
        "cache_survival_rate": survival,
        "replay_hits": replay_hits,
    }
    merge_summary(summary)
    print(json.dumps(summary, indent=2))

    # Correctness, at every scale.  The migration counters must balance;
    # every cache hit served on the new version is bit-identical to a cold
    # engine recompute there.
    assert migration.examined == NUM_SEEDS
    assert (
        migration.survived + migration.invalidated + migration.skipped
        == migration.examined
    )
    assert replay_hits == migration.survived
    cold_engine = BatchEngine(version.graph, include_vectors=True)
    cold_outcomes = cold_engine.run(run["jobs"])
    for outcome, reference in zip(run["replay"], cold_outcomes):
        if not outcome.cached:
            continue
        assert outcome.support_size == reference.support_size
        assert np.array_equal(outcome.vector_keys, reference.vector_keys)
        assert np.array_equal(outcome.vector_values, reference.vector_values)

    # The survival floor describes the full-scale workload; the smoke
    # proxies shrink the graph ~50x but not the seed count, so the hot
    # region swallows most supports there.
    if not SMOKE:
        assert survival >= SURVIVAL_FLOOR, f"cache survival {survival:.2f} < 0.5"


def two_hop(graph, center):
    first = graph.neighbors_of(center)
    pieces = [np.asarray([center]), first]
    pieces.extend(graph.neighbors_of(int(v)) for v in first.tolist())
    return np.unique(np.concatenate(pieces))


def update_batches(graph, rng, count):
    """``count`` (insertions, deletions) batches: INSERTS_PER_UPDATE new
    edges inside one random vertex's 2-hop neighbourhood (in the root
    graph), and up to DELETES_PER_UPDATE edges earlier batches inserted.
    Every change is effective, so every batch makes a new version."""
    n = graph.num_vertices
    alive = []  # encoded u * n + v, inserted and not yet deleted
    batches = []
    while len(batches) < count:
        hood = two_hop(graph, int(rng.integers(n)))
        if len(hood) < 16:
            continue
        pairs = hood[rng.integers(0, len(hood), size=(8 * INSERTS_PER_UPDATE, 2))]
        codes = np.unique(pairs.min(axis=1) * n + pairs.max(axis=1))
        taken = set(alive)
        fresh = [
            code
            for code in rng.permutation(codes).tolist()
            if code // n != code % n
            and code not in taken
            and not graph.has_edge(code // n, code % n)
        ][:INSERTS_PER_UPDATE]
        if len(fresh) < INSERTS_PER_UPDATE:
            continue
        picks = set(rng.choice(len(alive), min(DELETES_PER_UPDATE, len(alive)), replace=False).tolist())
        deletions = [code for i, code in enumerate(alive) if i in picks]
        alive = [code for i, code in enumerate(alive) if i not in picks] + fresh
        batches.append(
            (
                [(code // n, code % n) for code in fresh],
                [(code // n, code % n) for code in deletions],
            )
        )
    return batches


def _run_updates(graph):
    rng = np.random.default_rng(21)
    batches = update_batches(graph, rng, UPDATES)
    degrees = graph.degrees()
    readable = np.flatnonzero(degrees > 0)
    popular = rng.choice(readable, min(64, len(readable)), replace=False)
    chain = EvolvingGraph(graph)
    cache = ResultCache()
    live = [weakref.ref(graph)]
    apply_s, fingerprint_s, scratch_s, migrate_s, migrations, most_live = [], [], [], [], [], 0

    def read(version):
        seeds = rng.choice(popular, READS_PER_UPDATE)
        BatchEngine(chain, cache=cache, graph_version=version).run(
            [DiffusionJob.make(int(seed), params=READ_PARAMS) for seed in seeds]
        )

    read(0)
    for number, (insertions, deletions) in enumerate(batches, start=1):
        parent = chain.latest
        start = time.perf_counter()
        version = chain.apply_updates(insertions=insertions, deletions=deletions)
        apply_s.append(time.perf_counter() - start)
        migrated = advance_version(cache, version)
        migrate_s.append(time.perf_counter() - start - apply_s[-1])
        migrations.append(migrated)

        # The fingerprint apply_updates paid, timed alone on a copy, and
        # the from-scratch hash it replaces.
        arrays = version.graph
        copy = CSRGraph(arrays.offsets, arrays.neighbors)
        start = time.perf_counter()
        incremental = copy.inherit_fingerprint(parent.graph, version.touched)
        fingerprint_s.append(time.perf_counter() - start)
        copy = CSRGraph(arrays.offsets, arrays.neighbors)
        start = time.perf_counter()
        scratch = copy.fingerprint()
        scratch_s.append(time.perf_counter() - start)
        assert incremental == scratch == version.fingerprint()

        live.append(weakref.ref(arrays))
        del parent, version, arrays, copy
        read(number)
        if number % 10 == 0 or number == len(batches):
            gc.collect()
            most_live = max(most_live, sum(ref() is not None for ref in live))
    return {
        "chain": chain,
        "apply_s": apply_s,
        "fingerprint_s": fingerprint_s,
        "scratch_s": scratch_s,
        "migrate_s": migrate_s,
        "migrations": migrations,
        "live_csrs": most_live,
    }


def test_evolving_updates(benchmark, graphs):
    graph = graphs[UPDATE_GRAPH]
    run = benchmark.pedantic(lambda: _run_updates(graph), rounds=1, iterations=1)

    def p50_ms(seconds):
        return float(np.median(seconds)) * 1e3

    apply_ms = p50_ms(run["apply_s"])
    migrate_ms = p50_ms(run["migrate_s"])
    update_ms = p50_ms(np.add(run["apply_s"], run["migrate_s"]))
    fingerprint_ms = p50_ms(run["fingerprint_s"])
    scratch_ms = p50_ms(run["scratch_s"])
    migrations = run["migrations"]
    examined = sum(m.examined for m in migrations)
    survived = sum(m.survived for m in migrations)
    survival = survived / examined if examined else 0.0
    rows = [
        ["graph", f"{UPDATE_GRAPH} proxy ({graph.num_vertices} vertices)"],
        ["updates", f"{UPDATES} x (+{INSERTS_PER_UPDATE}/-{DELETES_PER_UPDATE} edges)"],
        ["apply p50 (incl. fingerprint)", f"{apply_ms:.2f} ms"],
        ["incremental fingerprint p50", f"{fingerprint_ms:.2f} ms"],
        ["from-scratch fingerprint p50", f"{scratch_ms:.2f} ms"],
        ["migrate p50", f"{migrate_ms:.2f} ms"],
        ["update p50 (apply + migrate)", f"{update_ms:.2f} ms"],
        ["entries examined per update", f"{examined / len(migrations):.1f}"],
        ["survival rate", f"{survival:.2f}"],
        ["most version CSRs alive", run["live_csrs"]],
    ]
    print()
    print(format_table(["measure", "value"], rows, title="Evolving plane: update path"))
    headers = [
        "graph", "updates", "apply_ms_p50", "fingerprint_ms_p50",
        "scratch_fingerprint_ms_p50", "migrate_ms_p50", "update_ms_p50",
        "examined_per_update", "survival_rate", "live_csrs",
    ]
    values = [
        UPDATE_GRAPH, UPDATES, apply_ms, fingerprint_ms, scratch_ms, migrate_ms,
        update_ms, examined / len(migrations), survival, run["live_csrs"],
    ]
    write_csv("bench_evolving_updates", headers, [values])
    merge_summary({"update_leg": dict(zip(headers, values))})

    # At every scale: the counters balance, every update made a version,
    # and no more than three version CSRs were ever alive at a check.
    assert len(run["chain"]) == UPDATES + 1
    for stats in migrations:
        assert stats.examined == stats.survived + stats.invalidated + stats.skipped
    assert run["live_csrs"] <= MAX_LIVE_CSRS, (
        f"{run['live_csrs']} version CSRs alive; expected at most {MAX_LIVE_CSRS}"
    )
