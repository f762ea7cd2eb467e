"""Sparse-set table with the cost profile of the paper's concurrent hash table.

The paper's parallel implementations store the ``p``/``r`` vectors in the
*phase-concurrent* lock-free hash table of Shun & Blelloch [42]: linear
probing, compare-and-swap to claim slots, fetch-and-add to combine values,
sized proportionally to the number of stored elements so a batch of N
inserts/searches costs O(N) work and O(log N) depth w.h.p. (Section 2,
"Sparse Sets").

Two pieces realise that structure here:

* :class:`TableCharges` is the cost model alone: the table's power-of-two
  capacity (load factor at most 1/2, grown 4x past it, starting at 8) and
  the work/depth each batch charges, computed from counts — batch sizes
  and how many keys each batch adds.  It is the one owner of the growth
  policy; the table below and the compiled kernels' replays (in
  :mod:`repro.core.pr_nibble`, :mod:`~repro.core.nibble`,
  :mod:`~repro.core.hk_pr`, :mod:`~repro.core.rand_hk_pr` and
  :mod:`~repro.core.sweep`) both charge through it, so a compiled run
  records the same profile as this table.
* :class:`IntFloatHashTable` stores the entries: int64 keys, float64
  values, kept **key-sorted**, so batched lookups and inserts are
  ``searchsorted`` and a merge with no probe loop, and :meth:`items`
  returns entries in ascending key order — the order a compiled kernel
  reproduces by sorting its touched keys.  The recorded charges still
  model the paper's hash table, not this layout, so Figures 9–10 are
  unchanged by it.

Keys must be non-negative (vertex identifiers).  The zero element ``⊥`` of
the paper's sparse sets is ``0.0``: looking up an absent key yields 0.0.
Deletion is not supported (the algorithms never delete), only ``clear``.
"""

from __future__ import annotations

import numpy as np

from ..runtime import log2ceil, record

__all__ = ["IntFloatHashTable", "TableCharges"]

_MIN_CAPACITY = 8


def _next_pow2(n: int) -> int:
    power = _MIN_CAPACITY
    while power < n:
        power <<= 1
    return power


class TableCharges:
    """Capacity and work/depth charges of the paper's hash table, from counts.

    ``insert(batch, new)`` charges one batch of ``batch`` distinct keys of
    which ``new`` were absent: when the batch could push the load factor
    past 1/2 the table first grows to ``4 * (size + batch)`` slots (rounded
    up to a power of two) and re-inserts its live keys, then the batch
    itself is charged.  ``lookup(batch)`` charges a batch of searches and
    ``scan()`` a pass over every slot.
    """

    __slots__ = ("capacity", "size")

    def __init__(self, capacity_hint: int = 0) -> None:
        self.capacity = _next_pow2(max(_MIN_CAPACITY, 2 * capacity_hint))
        self.size = 0

    def insert(self, batch: int, new: int) -> None:
        if batch == 0:
            return
        needed = self.size + batch
        if 2 * needed > self.capacity:
            self.capacity = _next_pow2(4 * needed)
            if self.size > 0:
                record(work=self.size, depth=log2ceil(self.size), category="hash")
        record(work=batch, depth=log2ceil(batch), category="hash")
        self.size += new

    def lookup(self, batch: int) -> None:
        if batch > 0:
            record(work=batch, depth=log2ceil(batch), category="hash")

    def scan(self) -> None:
        record(work=self.capacity, depth=log2ceil(self.capacity), category="hash")


class IntFloatHashTable:
    """Key-sorted int64 -> float64 map with batched vectorised ops."""

    __slots__ = ("_keys", "_vals", "_charges")

    def __init__(self, capacity_hint: int = 0) -> None:
        self._keys = np.empty(0, dtype=np.int64)
        self._vals = np.empty(0, dtype=np.float64)
        self._charges = TableCharges(capacity_hint)

    @classmethod
    def from_sorted(
        cls, keys: np.ndarray, values: np.ndarray, charges: TableCharges
    ) -> "IntFloatHashTable":
        """Adopt strictly ascending ``keys`` and their ``values`` as-is.

        Records nothing: the caller has already charged the inserts that
        built these entries to ``charges`` (a compiled kernel's replay).
        """
        if len(keys) != charges.size:
            raise ValueError("charges must account for exactly the adopted keys")
        table = cls.__new__(cls)
        table._keys = np.asarray(keys, dtype=np.int64)
        table._vals = np.asarray(values, dtype=np.float64)
        table._charges = charges
        return table

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._keys)

    @property
    def capacity(self) -> int:
        """Slots of the modelled hash table (load factor at most 1/2)."""
        return self._charges.capacity

    def __contains__(self, key: int) -> bool:
        self._charges.lookup(1)
        return bool(self._search(np.asarray([key], dtype=np.int64))[1][0])

    def items(self) -> tuple[np.ndarray, np.ndarray]:
        """``(keys, values)`` arrays over stored entries, keys ascending."""
        self._charges.scan()
        return self._keys.copy(), self._vals.copy()

    def clear(self) -> None:
        self._keys = np.empty(0, dtype=np.int64)
        self._vals = np.empty(0, dtype=np.float64)
        self._charges = TableCharges()

    # ------------------------------------------------------------------
    # Search and insert
    # ------------------------------------------------------------------
    def _search(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Insertion point of each key in the sorted arrays, and whether
        the key is stored there.  Keys need not be unique."""
        positions = np.searchsorted(self._keys, keys)
        found = positions < len(self._keys)
        found[found] = self._keys[positions[found]] == keys[found]
        return positions, found

    def _insert(self, keys: np.ndarray) -> np.ndarray:
        """Find-or-create the entry of each of a batch of *sorted unique*
        keys; returns their indices.  New entries hold 0.0 (``⊥``)."""
        positions, found = self._search(keys)
        new = ~found
        self._charges.insert(len(keys), int(new.sum()))
        if not new.any():
            return positions
        at = positions[new]
        self._keys = np.insert(self._keys, at, keys[new])
        self._vals = np.insert(self._vals, at, 0.0)
        # every earlier new key of the batch shifts this one right by one
        return positions + np.cumsum(new) - new

    # ------------------------------------------------------------------
    # Batched operations
    # ------------------------------------------------------------------
    def lookup(self, keys: np.ndarray, default: float = 0.0) -> np.ndarray:
        """Values for ``keys``; absent keys read as ``default`` (``⊥``)."""
        keys = np.asarray(keys, dtype=np.int64)
        self._charges.lookup(len(keys))
        positions, found = self._search(keys)
        values = np.full(len(keys), default, dtype=np.float64)
        values[found] = self._vals[positions[found]]
        return values

    def accumulate(self, keys: np.ndarray, deltas: np.ndarray | float) -> None:
        """Batch fetch-and-add: ``table[k] += delta`` with duplicates summed.

        Colliding updates are pre-combined (sort + segmented sum, in batch
        order) and then applied once per distinct key — the deterministic
        equivalent of the paper's concurrent fetch-and-adds into the table.
        """
        keys = np.asarray(keys, dtype=np.int64)
        if len(keys) == 0:
            return
        deltas = np.broadcast_to(np.asarray(deltas, dtype=np.float64), keys.shape)
        unique, inverse = np.unique(keys, return_inverse=True)
        sums = np.bincount(inverse, weights=deltas, minlength=len(unique))
        positions = self._insert(unique)  # may rebind self._vals
        self._vals[positions] += sums

    def assign(self, keys: np.ndarray, values: np.ndarray | float) -> None:
        """Batch store ``table[k] = value``; duplicate keys take the last value."""
        keys = np.asarray(keys, dtype=np.int64)
        if len(keys) == 0:
            return
        values = np.broadcast_to(np.asarray(values, dtype=np.float64), keys.shape)
        unique, last_index = np.unique(keys[::-1], return_index=True)
        positions = self._insert(unique)
        self._vals[positions] = values[::-1][last_index]

    # ------------------------------------------------------------------
    # Scalar convenience operations
    # ------------------------------------------------------------------
    def get_one(self, key: int, default: float = 0.0) -> float:
        return float(self.lookup(np.asarray([key], dtype=np.int64), default=default)[0])

    def set_one(self, key: int, value: float) -> None:
        position = self._insert(np.asarray([key], dtype=np.int64))[0]
        self._vals[position] = value

    def add_one(self, key: int, delta: float) -> None:
        position = self._insert(np.asarray([key], dtype=np.int64))[0]
        self._vals[position] += delta
