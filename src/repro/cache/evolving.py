"""Region-aware cross-version cache migration.

Cache keys embed the graph's content fingerprint, so a version advance
(:mod:`repro.graph.evolving`) never *corrupts* the cache — an entry can
only ever answer queries against the exact edge set it was computed on.
What an advance would naively do is strand every entry: the new version's
fingerprint misses everything.  This module carries the survivors forward.

The rule rests on what a diffusion actually reads.  The push/walk
algorithms read adjacency lists only at vertices that end up carrying
mass (for the monotone-support methods, every pushed/visited vertex is in
the final vector support) and degrees at most one hop beyond them; the
sweep cut reads adjacency only inside the support.  So if the entry's
recorded profile — its seed set plus its persisted vector support
(``JobOutcome.vector_keys``) — is disjoint from the **delta region**
(touched vertices plus their neighborhoods in *both* versions), a cold
run on the new version would perform the bit-identical execution.  Such
entries are re-keyed to the new fingerprint without recompute; entries
whose profile intersects the region are left behind (their old-version
key remains valid for pinned-version queries).

Two deliberate exclusions keep the rule sound:

* ``nibble`` truncates vector entries to zero mid-run, so its final
  support does not dominate what it read; its entries never migrate.
* When an update changes the total edge volume, sweep conductances use a
  different ``min(vol, total - vol)`` denominator; an entry migrates only
  if every prefix of its sweep profile stays on the ``vol`` branch under
  both totals (``2 * max_prefix_vol <= min(old_total, new_total)``).

>>> from repro.cache import ResultCache, advance_version
>>> from repro.engine import BatchEngine, DiffusionJob
>>> from repro.graph import EvolvingGraph, cycle_graph
>>> chain = EvolvingGraph(cycle_graph(200))
>>> cache = ResultCache()
>>> engine = BatchEngine(chain.at(0).graph, cache=cache)
>>> _ = engine.run([DiffusionJob.make(0, params={"eps": 1e-3})])
>>> v1 = chain.apply_updates(insertions=[(100, 103)])  # far from vertex 0's cluster
>>> advance_version(cache, v1).survived
1
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..graph.evolving import GraphVersion
from .store import ResultCache

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..graph.csr import CSRGraph

__all__ = ["MigrationStats", "advance_version", "delta_region"]

#: Methods whose final vector support contains every vertex whose adjacency
#: the run read.  ``nibble`` truncates support mid-run and is excluded.
MONOTONE_SUPPORT_METHODS = frozenset({"pr-nibble", "hk-pr", "rand-hk-pr"})


@dataclass
class MigrationStats:
    """What one :func:`advance_version` pass did to the hot cache layer.

    ``examined`` counts old-fingerprint entries scanned; ``survived`` were
    re-keyed to the new fingerprint, ``invalidated`` intersected the delta
    region (or failed the volume guard), and ``skipped`` carried no usable
    profile (no persisted vector, or a non-monotone-support method).
    """

    examined: int = 0
    survived: int = 0
    invalidated: int = 0
    skipped: int = 0

    @property
    def survival_rate(self) -> float:
        return self.survived / self.examined if self.examined else 0.0

    def describe(self) -> str:
        return (
            f"{self.survived}/{self.examined} entries migrated "
            f"({self.survival_rate:.0%}), {self.invalidated} invalidated, "
            f"{self.skipped} without a profile"
        )


def delta_region(
    old_graph: "CSRGraph", new_graph: "CSRGraph", touched: np.ndarray
) -> np.ndarray:
    """Touched vertices plus their neighborhoods in both versions, sorted.

    One hop of slack covers the degree reads the push algorithms make on
    residual-carrying frontier vertices: a run whose support avoids this
    region never observed any changed adjacency list *or* changed degree.
    """
    touched = np.asarray(touched, dtype=np.int64)
    if len(touched) == 0:
        return touched
    pieces = [touched]
    for graph in (old_graph, new_graph):
        for vertex in touched.tolist():
            pieces.append(graph.neighbors_of(int(vertex)))
    return np.unique(np.concatenate(pieces))


def _sweep_volume_safe(outcome, old_total: int, new_total: int) -> bool:
    """Would the entry's sweep conductances be identical under ``new_total``?"""
    if old_total == new_total:
        return True
    sweep = outcome.sweep
    if sweep is None or len(sweep.volumes) == 0:
        return True
    return 2 * int(sweep.volumes.max()) <= min(old_total, new_total)


def advance_version(cache: ResultCache, version: GraphVersion) -> MigrationStats:
    """Carry the parent version's unaffected cache entries to ``version``.

    Visits the in-memory layer's entries keyed by the parent fingerprint
    (the store indexes keys by fingerprint, so other versions' entries
    cost nothing) and re-keys every entry whose recorded profile avoids
    the delta region (see module docstring).  Old-fingerprint entries are
    retained — they remain the correct answers for queries pinned to the
    old version — and the write-through ``put`` persists survivors to
    disk under the new fingerprint as well.
    """
    parent = version.parent
    if parent is None:
        raise ValueError("version has no parent; nothing to migrate from")
    old_fingerprint = parent.fingerprint()
    new_fingerprint = version.fingerprint()
    stats = MigrationStats()
    if old_fingerprint == new_fingerprint:
        return stats
    entries = cache.memory_items(old_fingerprint)
    if not entries:
        return stats
    old_graph = parent.graph
    new_graph = version.graph
    region = np.zeros(new_graph.num_vertices, dtype=bool)
    region[delta_region(old_graph, new_graph, version.touched)] = True
    old_total = len(old_graph.neighbors)
    new_total = len(new_graph.neighbors)
    for key, outcome in entries:
        stats.examined += 1
        if key.method not in MONOTONE_SUPPORT_METHODS:
            stats.skipped += 1
            continue
        if outcome.vector_keys is None and outcome.support_size > 0:
            # No persisted support: the profile is unknown, so the entry
            # cannot prove it avoided the delta.
            stats.skipped += 1
            continue
        if (
            region[list(key.seeds)].any()
            or (outcome.vector_keys is not None and region[outcome.vector_keys].any())
            or not _sweep_volume_safe(outcome, old_total, new_total)
        ):
            stats.invalidated += 1
            continue
        cache.put(dataclasses.replace(key, graph=new_fingerprint), outcome)
        stats.survived += 1
    return stats
