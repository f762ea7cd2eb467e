"""Result types returned by the diffusion algorithms and the sweep cut,
and the seed normaliser and parameter type checks every diffusion
shares."""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..prims.sparse import SparseDict, SparseVector

__all__ = [
    "DiffusionResult",
    "SweepResult",
    "ClusterResult",
    "check_count",
    "check_flag",
    "check_real",
    "seed_array",
    "vector_items",
]


def check_count(name: str, value: object, minimum: int) -> None:
    """Raise unless ``value`` is an integer of at least ``minimum``.

    ``bool`` and integral floats such as ``20.0`` are refused with
    ``TypeError``: a parameter dataclass that stored one would pass
    validation and then fail inside a batch, where numpy refuses a float
    as a size or a count.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}")


def check_real(name: str, value: object) -> None:
    """Raise ``TypeError`` unless ``value`` is a real number other than a
    bool: ``t=True`` would pass a range check as ``1`` yet get a different
    cache key than the ``1.0`` it runs as."""
    if isinstance(value, float):  # the common case, without the ABC lookup
        return
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a real number, got {value!r}")


def check_flag(name: str, value: object) -> None:
    """Raise ``TypeError`` unless ``value`` is a bool: a flag read by
    truthiness would run ``"false"`` as ``True``."""
    if not isinstance(value, bool):
        raise TypeError(f"{name} must be a bool, got {value!r}")


def seed_array(seeds: "int | np.ndarray", num_vertices: int) -> np.ndarray:
    """The unique ascending seed ids of a diffusion on ``num_vertices``
    vertices; raises ``ValueError`` when none is given or one lies outside
    ``[0, num_vertices)`` (numpy would wrap a negative id, and the
    compiled kernels index by id unchecked)."""
    array = np.unique(np.atleast_1d(np.asarray(seeds, dtype=np.int64)))
    if len(array) == 0:
        raise ValueError("at least one seed vertex is required")
    if array[0] < 0 or array[-1] >= num_vertices:
        raise ValueError(
            f"seed vertex out of range for a {num_vertices}-vertex graph"
        )
    return array


def vector_items(vector: "SparseDict | SparseVector | dict") -> tuple[np.ndarray, np.ndarray]:
    """``(keys, values)`` arrays of any supported sparse-vector type.

    Accepts the dict-backed sequential sparse set, the hash-table-backed
    parallel sparse set, or a plain ``dict`` — the sweep cut and the tests
    treat them uniformly.
    """
    if isinstance(vector, SparseVector):
        return vector.items()
    if isinstance(vector, SparseDict):
        data = vector.to_dict()
    elif isinstance(vector, dict):
        data = vector
    else:
        raise TypeError(f"unsupported vector type: {type(vector).__name__}")
    keys = np.fromiter(data.keys(), dtype=np.int64, count=len(data))
    values = np.fromiter(data.values(), dtype=np.float64, count=len(data))
    return keys, values


@dataclass
class DiffusionResult:
    """Output of one diffusion (Nibble / PR-Nibble / HK-PR / rand-HK-PR).

    Attributes
    ----------
    vector:
        The mass vector ``p`` handed to the sweep cut.
    iterations:
        Number of frontier iterations (parallel) or queue pops (sequential
        Nibble-style loops); the quantity in the paper's Table 1 third
        column for the parallel algorithms.
    pushes:
        Number of push operations performed (Table 1, first two columns).
        For rand-HK-PR this counts random-walk steps instead.
    touched_edges:
        Total edge traversals — the *work* of the diffusion in the paper's
        locality analysis.
    extras:
        Algorithm-specific diagnostics (residual mass, frontier sizes per
        iteration, ...).
    """

    vector: SparseDict | SparseVector
    iterations: int
    pushes: int
    touched_edges: int
    extras: dict[str, Any] = field(default_factory=dict)

    def support_size(self) -> int:
        """Number of vertices with stored mass."""
        return self.vector.nnz


@dataclass
class SweepResult:
    """Full sweep profile: conductance of every prefix of the ordering.

    ``order[i]`` is the vertex of rank i+1 (sorted by non-increasing
    ``p[v]/d(v)``); ``conductances[i]``, ``volumes[i]`` and ``cuts[i]``
    describe the prefix set ``{order[0], ..., order[i]}``.
    """

    order: np.ndarray
    conductances: np.ndarray
    volumes: np.ndarray
    cuts: np.ndarray
    best_index: int

    @property
    def best_cluster(self) -> np.ndarray:
        """The minimum-conductance prefix (the returned cluster)."""
        return self.order[: self.best_index + 1]

    @property
    def best_conductance(self) -> float:
        return float(self.conductances[self.best_index])

    @property
    def num_candidates(self) -> int:
        """N — number of vertices with positive mass that were swept."""
        return len(self.order)

    def __str__(self) -> str:
        return (
            f"SweepResult(N={self.num_candidates}, |S*|={self.best_index + 1}, "
            f"phi*={self.best_conductance:.4g})"
        )


@dataclass
class ClusterResult:
    """End-to-end result of diffusion + sweep (the high-level API's output)."""

    cluster: np.ndarray
    conductance: float
    algorithm: str
    params: dict[str, Any]
    diffusion: DiffusionResult
    sweep: SweepResult

    @property
    def size(self) -> int:
        return len(self.cluster)

    def __str__(self) -> str:
        return (
            f"{self.algorithm}: |S|={self.size} phi={self.conductance:.4g} "
            f"(support={self.diffusion.support_size()}, "
            f"iterations={self.diffusion.iterations})"
        )
