"""Workload inputs, all generated from the workload seed before any timing.

The program under test only ever receives what these functions return:
the NDJSON request stream of ``interactive``, the seed lists of ``ncp``
and the read/update operation stream of ``evolving``.  Every generator
takes a ``numpy.random.Generator`` built from ``--seed`` and the graph
(for vertex counts, degrees and neighbourhoods), so the same seed gives
the same inputs on any checkout.
"""

from __future__ import annotations

import numpy as np

GRAPH = "soc-LJ"

#: ``interactive`` request classes: (method, params, requests per block).
#: PR-Nibble is the majority (the analyst's default query); the class
#: shares 70/12/12/6 keep p50 inside the PR-Nibble class and p90 inside
#: the rand-HK-PR class, away from any class boundary, so a small shift in
#: the mix cannot flip either percentile to another class's latency.
INTERACTIVE_MIX = (
    ("pr-nibble", {"alpha": 0.05, "eps": 1e-4}, 35),
    ("nibble", {"eps": 1e-5}, 6),
    ("rand-hk-pr", {"num_walks": 10_000}, 6),
    ("hk-pr", {"t": 5.0, "eps": 1e-4}, 3),
)
#: Shares are exact within every block of this many requests, so any
#: window of a closed loop sees the mix above, not a random draw of it.
MIX_BLOCK = sum(count for _, _, count in INTERACTIVE_MIX)

#: ``ncp``: seeds per ``ncp_profile`` call on the library's default grid
#: (alpha in {0.1, 0.01} x eps in {1e-4, 1e-5}), so one call is 4x this
#: many jobs.  Every call starts and closes its own two-worker pool, so
#: the call size sets how much of a call that costs.  On a 2-vCPU VM the
#: time outside dispatch (``engine.outside_dispatch_share`` of the traced
#: run), nearly all of it pool start and close (about 13 ms), is 11% of a
#: 1-seed call, 8% at 2 seeds, 4% at 4 and 2% at 8.  Two seeds (about
#: 190 ms a call) is the largest size at which a 25 s window still
#: completes the 100+ calls that put ten latency samples beyond p90; the
#: library default (100 seeds in one call) would complete two or three.
NCP_SEEDS_PER_CALL = 2

#: ``evolving``: PR-Nibble reads over Zipf-popular seeds, one update batch
#: after every READS_PER_UPDATE reads.
READ_PARAMS = {"alpha": 0.05, "eps": 1e-4}
POPULAR_SEEDS = 512
ZIPF_EXPONENT = 1.1
READS_PER_UPDATE = 10
INSERTS_PER_UPDATE = 50
DELETES_PER_UPDATE = 20


def eligible_seeds(graph) -> np.ndarray:
    """Vertices a query may start from (degree >= 1)."""
    return np.flatnonzero(graph.degrees() > 0).astype(np.int64)


def interactive_requests(graph, rng: np.random.Generator, count: int) -> list[dict]:
    """``count`` wire-v1 requests in the fixed class mix, shuffled per block."""
    eligible = eligible_seeds(graph)
    block = [
        (method, params)
        for method, params, share in INTERACTIVE_MIX
        for _ in range(share)
    ]
    requests = []
    while len(requests) < count:
        for position in rng.permutation(len(block)).tolist():
            method, params = block[position]
            requests.append(
                {
                    "v": 1,
                    "id": f"r{len(requests)}",
                    "seeds": [int(rng.choice(eligible))],
                    "method": method,
                    "params": dict(params),
                    "rng": int(rng.integers(0, 2**31 - 1)),
                    "include_cluster": True,
                }
            )
    return requests[:count]


def warmup_requests(graph, rng: np.random.Generator) -> list[dict]:
    """One untimed request per class, so lazy imports and first-call costs
    of every method are paid before the timed window."""
    eligible = eligible_seeds(graph)
    return [
        {
            "v": 1,
            "id": f"w{index}",
            "seeds": [int(rng.choice(eligible))],
            "method": method,
            "params": dict(params),
            "rng": int(rng.integers(0, 2**31 - 1)),
            "include_cluster": True,
        }
        for index, (method, params, _) in enumerate(INTERACTIVE_MIX)
    ]


def ncp_grid() -> dict:
    """The grid ``ncp_profile`` runs by default: ``{"alpha": ..., "eps": ...}``."""
    import inspect

    from repro import ncp_profile

    defaults = inspect.signature(ncp_profile).parameters
    return {"alpha": tuple(defaults["alphas"].default),
            "eps": tuple(defaults["eps_values"].default)}


def ncp_calls(graph, rng: np.random.Generator, count: int) -> list[list[int]]:
    """``count`` seed lists, one per ``ncp_profile`` call."""
    eligible = eligible_seeds(graph)
    return [
        sorted(int(s) for s in rng.choice(eligible, NCP_SEEDS_PER_CALL, replace=False))
        for _ in range(count)
    ]


def _two_hop(graph, center: int) -> np.ndarray:
    first = graph.neighbors_of(center)
    pieces = [np.asarray([center], dtype=np.int64), first]
    pieces.extend(graph.neighbors_of(int(v)) for v in first.tolist())
    return np.unique(np.concatenate(pieces))


def _new_edges(graph, rng: np.random.Generator, eligible: np.ndarray,
               alive: set[int]) -> list[int]:
    """INSERTS_PER_UPDATE encoded non-edges inside one centre's 2-hop
    neighbourhood; a neighbourhood without enough free pairs after a few
    sampling rounds is abandoned for another centre."""
    n = graph.num_vertices
    while True:
        hood = _two_hop(graph, int(rng.choice(eligible)))
        if len(hood) < 16:
            continue
        chosen: dict[int, None] = {}  # insertion-ordered set
        for _ in range(8):
            pairs = hood[rng.integers(0, len(hood), size=(2 * INSERTS_PER_UPDATE, 2))]
            pairs = pairs[pairs[:, 0] != pairs[:, 1]]
            for code in (pairs.min(axis=1) * n + pairs.max(axis=1)).tolist():
                if code in alive or code in chosen or graph.has_edge(code // n, code % n):
                    continue
                chosen[code] = None
                if len(chosen) == INSERTS_PER_UPDATE:
                    return sorted(chosen)


def evolving_ops(graph, rng: np.random.Generator, count: int) -> list[tuple]:
    """``count`` operations: ``("read", seed)`` and, after every
    READS_PER_UPDATE reads, ``("update", insertions, deletions)``.

    Each update inserts INSERTS_PER_UPDATE new edges between vertices of
    one random centre's 2-hop neighbourhood (in the root graph) and
    deletes up to DELETES_PER_UPDATE edges that earlier batches inserted.
    Insertions are never existing edges and deletions always are, and no
    edge appears on both sides of a batch, so every update is effective
    and none can be refused.
    """
    eligible = eligible_seeds(graph)
    n = graph.num_vertices
    popular = rng.choice(eligible, POPULAR_SEEDS, replace=False)
    weights = 1.0 / np.arange(1, POPULAR_SEEDS + 1) ** ZIPF_EXPONENT
    reads = popular[rng.choice(POPULAR_SEEDS, count, p=weights / weights.sum())]
    # Edges are encoded u * n + v with u < v.
    alive: list[int] = []  # inserted by earlier batches, not yet deleted
    alive_set: set[int] = set()
    ops: list[tuple] = []
    for seed in reads.tolist():
        if len(ops) >= count:
            break
        ops.append(("read", seed))
        if len(ops) % (READS_PER_UPDATE + 1) != READS_PER_UPDATE:
            continue
        insertions = _new_edges(graph, rng, eligible, alive_set)
        picks = rng.choice(len(alive), min(DELETES_PER_UPDATE, len(alive)), replace=False)
        deletions = sorted(alive[i] for i in picks.tolist())
        for i in sorted(picks.tolist(), reverse=True):
            alive[i] = alive[-1]
            alive.pop()
        alive_set.difference_update(deletions)
        alive.extend(insertions)
        alive_set.update(insertions)
        ops.append((
            "update",
            [(code // n, code % n) for code in insertions],
            [(code // n, code % n) for code in deletions],
        ))
    return ops
