"""Scaled-down proxies for the paper's Table 2 input graphs.

The paper evaluates on ten graphs (Table 2), eight of which are multi-
hundred-million-edge real-world datasets (SNAP crawls, Twitter, a Yahoo Web
graph) that are neither redistributable nor tractable in this environment.
Per the substitution policy in DESIGN.md, each gets a synthetic proxy
matched on the structural property that drives its behaviour in the
evaluation:

* social networks (soc-LJ, com-LJ, com-Orkut)  -> power-law community model
  (heavy-tailed degrees + small dense communities = good local clusters);
* citation network (cit-Patents)               -> copying/recency model;
* microblog / friend crawls (Twitter, com-friendster) -> community model
  with heavy-tailed global degrees (pure R-MAT has no communities);
* Web graph (Yahoo)                            -> community model with far
  larger communities;
* mesh (nlpkkt240)                             -> 3-D grid (the paper itself
  observes these have *no good local clusters* and terminate instantly);
* randLocal, 3D-grid                           -> the paper's own generators,
  implemented exactly.

``scale`` multiplies vertex counts (default from ``REPRO_SCALE``, 1.0);
proxies are cached per ``(name, scale, seed)`` because benchmarks reuse
them heavily.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

from .csr import CSRGraph
from . import generators as gen

__all__ = ["ProxySpec", "PROXIES", "proxy_names", "load_proxy", "default_scale"]


@dataclass(frozen=True)
class ProxySpec:
    """One Table-2 graph: paper-reported sizes plus our proxy builder."""

    name: str
    paper_vertices: int
    paper_edges: int
    kind: str
    build: Callable[[float, int], CSRGraph]

    def describe(self) -> str:
        return (
            f"{self.name}: paper n={self.paper_vertices:,} m={self.paper_edges:,} "
            f"({self.kind} proxy)"
        )


def _scaled(base: int, scale: float, minimum: int = 64) -> int:
    return max(minimum, int(round(base * scale)))


def _social(
    n_base: int,
    intra: float,
    inter: float,
    seed_offset: int,
    min_size: int = 8,
    max_size: int = 2048,
    size_exponent: float = 1.8,
    density_decay: float = 0.25,
):
    def build(scale: float, seed: int) -> CSRGraph:
        return gen.power_law_communities(
            _scaled(n_base, scale),
            intra_degree=intra,
            inter_degree=inter,
            min_size=min_size,
            max_size=max_size,
            size_exponent=size_exponent,
            density_decay=density_decay,
            seed=seed + seed_offset,
        )

    return build


def _citation(n_base: int, refs: int, seed_offset: int):
    def build(scale: float, seed: int) -> CSRGraph:
        return gen.citation_graph(
            _scaled(n_base, scale), references_per_vertex=refs, seed=seed + seed_offset
        )

    return build


def _grid(side_base: int):
    def build(scale: float, seed: int) -> CSRGraph:
        side = max(4, int(round(side_base * scale ** (1.0 / 3.0))))
        return gen.grid_3d(side)

    return build


def _rand_local(n_base: int, seed_offset: int):
    def build(scale: float, seed: int) -> CSRGraph:
        return gen.rand_local(_scaled(n_base, scale), seed=seed + seed_offset)

    return build


#: Table 2 of the paper, in row order, with our proxy builders.
PROXIES: dict[str, ProxySpec] = {
    "soc-LJ": ProxySpec(
        "soc-LJ", 4_847_571, 42_851_237, "social community", _social(40_000, 10.0, 5.0, 1)
    ),
    "cit-Patents": ProxySpec(
        "cit-Patents", 6_009_555, 16_518_947, "citation copying", _citation(50_000, 3, 2)
    ),
    "com-LJ": ProxySpec(
        "com-LJ", 4_036_538, 34_681_189, "social community", _social(36_000, 10.0, 4.0, 3)
    ),
    "com-Orkut": ProxySpec(
        "com-Orkut", 3_072_627, 117_185_083, "dense social community", _social(24_000, 26.0, 10.0, 4)
    ),
    "nlpkkt240": ProxySpec(
        "nlpkkt240", 27_993_601, 373_239_376, "3-D mesh", _grid(30)
    ),
    # The paper's NCP experiments (Figure 12) hinge on these three having
    # real community structure: Twitter/friendster dip at cluster sizes
    # 10-100 then rise; the Yahoo Web graph additionally has good clusters
    # at much larger sizes ("tens of thousands of vertices").  Pure R-MAT
    # lacks communities entirely, so the proxies combine power-law
    # community sizes with heavy-tailed global degrees; Yahoo's proxy uses
    # a flatter size exponent and far larger maximum community.
    "Twitter": ProxySpec(
        "Twitter",
        41_652_231,
        1_202_513_046,
        "skewed social community",
        _social(65_000, 18.0, 2.0, 5, min_size=8, max_size=1024),
    ),
    "com-friendster": ProxySpec(
        "com-friendster",
        124_836_180,
        1_806_607_135,
        "social community",
        _social(65_000, 11.0, 1.5, 6, min_size=8, max_size=2048),
    ),
    # Yahoo's decay is much weaker: the paper's Web-graph NCP keeps good
    # clusters at sizes of tens of thousands of vertices.
    "Yahoo": ProxySpec(
        "Yahoo",
        1_413_511_391,
        6_434_561_035,
        "web-like community",
        _social(
            130_000,
            6.0,
            0.6,
            7,
            min_size=16,
            max_size=40_000,
            size_exponent=1.5,
            density_decay=0.12,
        ),
    ),
    "randLocal": ProxySpec(
        "randLocal", 10_000_000, 49_100_524, "paper generator", _rand_local(40_000, 8)
    ),
    "3D-grid": ProxySpec(
        "3D-grid", 9_938_375, 29_815_125, "paper generator", _grid(32)
    ),
}

_CACHE: dict[tuple[str, float, int], CSRGraph] = {}


def proxy_names() -> list[str]:
    """Table-2 row order."""
    return list(PROXIES)


def default_scale() -> float:
    """Scale multiplier, from ``REPRO_SCALE`` (default 1.0)."""
    return float(os.environ.get("REPRO_SCALE", "1.0"))


def load_proxy(name: str, scale: float | None = None, seed: int = 0) -> CSRGraph:
    """Build (or fetch the cached) proxy graph for a Table-2 name."""
    if name not in PROXIES:
        raise KeyError(f"unknown proxy {name!r}; known: {', '.join(PROXIES)}")
    if scale is None:
        scale = default_scale()
    key = (name, float(scale), int(seed))
    graph = _CACHE.get(key)
    if graph is None:
        graph = PROXIES[name].build(float(scale), int(seed))
        _CACHE[key] = graph
    return graph
