"""Sparse sets (sparse vectors keyed by vertex id) with ``⊥ = 0`` semantics.

Section 2 ("Sparse Sets"): the implementations *use hash tables to represent
a sparse set to store data associated with the vertices touched... For
sequential implementations we use the unordered_map data structure in STL.
For parallel implementations, we use the non-deterministic concurrent hash
table described in [42]* — with the convention that updating a non-existent
key first creates ``(k, ⊥)`` with ``⊥ = 0``.

Two realisations:

* :class:`SparseDict` — a plain ``dict`` wrapper, the analogue of STL's
  ``unordered_map``, used by the sequential reference algorithms.
* :class:`SparseVector` — backed by the batched table in
  :mod:`repro.prims.hashtable`, the analogue of the concurrent table of
  [42], used by the parallel (bulk-synchronous) algorithms.  Entries are
  stored key-sorted, so every whole-set view lists keys in ascending
  order; the recorded work/depth charges still model the paper's hash
  table.

Both never allocate Θ(|V|) memory: size is proportional to the number of
touched vertices, which is what makes the algorithms *local*.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .hashtable import IntFloatHashTable, TableCharges

__all__ = ["SparseDict", "SparseVector"]


class SparseDict:
    """Dict-backed sparse vector: missing keys read as 0.0.

    Mirrors the paper's sequential sparse set.  Reading a missing key does
    not materialise an entry (the observable value is ``⊥ = 0`` either way);
    writes and in-place adds do.
    """

    __slots__ = ("_data",)

    def __init__(self, data: dict[int, float] | None = None) -> None:
        self._data: dict[int, float] = dict(data) if data else {}

    def __getitem__(self, key: int) -> float:
        return self._data.get(key, 0.0)

    def __setitem__(self, key: int, value: float) -> None:
        self._data[key] = float(value)

    def __contains__(self, key: int) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)

    def __iter__(self) -> Iterator[int]:
        return iter(self._data)

    def add(self, key: int, delta: float) -> None:
        """``self[key] += delta`` creating the entry from ``⊥`` if absent."""
        self._data[key] = self._data.get(key, 0.0) + delta

    def items(self) -> Iterator[tuple[int, float]]:
        return iter(self._data.items())

    def keys(self) -> Iterator[int]:
        return iter(self._data.keys())

    def copy(self) -> "SparseDict":
        return SparseDict(self._data)

    def to_dict(self) -> dict[int, float]:
        return dict(self._data)

    def l1_norm(self) -> float:
        """Sum of absolute values (the residual-mass measure of Theorem 3)."""
        return float(sum(abs(v) for v in self._data.values()))

    @property
    def nnz(self) -> int:
        return len(self._data)


class SparseVector:
    """Hash-table-backed sparse vector with batched NumPy operations.

    The parallel algorithms read/update whole frontiers at once; this class
    exposes array-in/array-out ``get`` / ``add`` / ``set`` so one call
    corresponds to one data-parallel round over the frontier (a batch of
    lookups / fetch-and-adds in the paper's concurrent table).
    """

    __slots__ = ("_table",)

    def __init__(self, capacity_hint: int = 0) -> None:
        self._table = IntFloatHashTable(capacity_hint)

    @classmethod
    def from_pairs(cls, keys: np.ndarray, values: np.ndarray | float) -> "SparseVector":
        vector = cls(capacity_hint=len(np.atleast_1d(keys)))
        vector.set(np.atleast_1d(keys), values)
        return vector

    @classmethod
    def from_sorted(
        cls, keys: np.ndarray, values: np.ndarray, charges: TableCharges
    ) -> "SparseVector":
        """Adopt ascending ``keys``/``values`` whose inserts ``charges``
        already accounted for; records nothing (a compiled kernel's result)."""
        vector = cls.__new__(cls)
        vector._table = IntFloatHashTable.from_sorted(keys, values, charges)
        return vector

    @classmethod
    def from_dict(cls, data: dict[int, float]) -> "SparseVector":
        keys = np.fromiter(data.keys(), dtype=np.int64, count=len(data))
        values = np.fromiter(data.values(), dtype=np.float64, count=len(data))
        return cls.from_pairs(keys, values)

    # ------------------------------------------------------------------
    # Batched interface (one call = one parallel round)
    # ------------------------------------------------------------------
    def get(self, keys: np.ndarray) -> np.ndarray:
        """Values at ``keys``; absent keys read as 0.0."""
        return self._table.lookup(np.asarray(keys, dtype=np.int64))

    def add(self, keys: np.ndarray, deltas: np.ndarray | float) -> None:
        """Batch fetch-and-add; duplicate keys accumulate."""
        self._table.accumulate(np.asarray(keys, dtype=np.int64), deltas)

    def set(self, keys: np.ndarray, values: np.ndarray | float) -> None:
        """Batch assignment; duplicate keys take the last value."""
        self._table.assign(np.asarray(keys, dtype=np.int64), values)

    # ------------------------------------------------------------------
    # Scalar interface
    # ------------------------------------------------------------------
    def __getitem__(self, key: int) -> float:
        return self._table.get_one(int(key))

    def __setitem__(self, key: int, value: float) -> None:
        self._table.set_one(int(key), float(value))

    def add_scalar(self, key: int, delta: float) -> None:
        self._table.add_one(int(key), float(delta))

    def __contains__(self, key: int) -> bool:
        return int(key) in self._table

    def __len__(self) -> int:
        return len(self._table)

    # ------------------------------------------------------------------
    # Whole-set views
    # ------------------------------------------------------------------
    def keys(self) -> np.ndarray:
        """Stored keys, ascending."""
        keys, _ = self._table.items()
        return keys

    def items(self) -> tuple[np.ndarray, np.ndarray]:
        """``(keys, values)`` arrays over stored entries, keys ascending."""
        return self._table.items()

    def to_dict(self) -> dict[int, float]:
        keys, values = self._table.items()
        return {int(k): float(v) for k, v in zip(keys, values)}

    def copy(self) -> "SparseVector":
        keys, values = self._table.items()
        clone = SparseVector(capacity_hint=len(keys))
        if len(keys) > 0:
            clone.set(keys, values)
        return clone

    def l1_norm(self) -> float:
        _, values = self._table.items()
        return float(np.abs(values).sum())

    @property
    def nnz(self) -> int:
        return len(self._table)
