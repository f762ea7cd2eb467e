"""Parallel sorting primitives: comparison sort and integer (radix) sort.

Section 2: *parallel comparison sorting takes O(N log N) work and O(log N)
depth; parallel integer sorting takes O(N) work and O(log N) depth w.h.p.
for keys in a polynomial range* [Rajasekaran–Reif].  The paper uses the
comparison sort for the initial degree-normalised ordering in the sweep cut
and the integer sort for sorting the ``Z`` pair array by rank (Theorem 1)
and for aggregating random-walk destinations in rand-HK-PR (Section 3.5).

``integer_sort`` here is a least-significant-digit radix sort: a sequence of
stable per-digit counting passes over 11-bit digits, the classic
linear-work / logarithmic-depth construction.  Each pass is realised with a
vectorised stable partition.  Costs recorded against the tracker charge the
paper's bounds (O(N + range) work per pass, O(log N) depth).
"""

from __future__ import annotations

import numpy as np

from ..runtime import log2ceil, record

__all__ = [
    "charge_integer_sort",
    "comparison_sort",
    "comparison_sort_order",
    "integer_sort",
    "integer_sort_order",
]

_RADIX_BITS = 11
_RADIX = 1 << _RADIX_BITS


def comparison_sort(values: np.ndarray) -> np.ndarray:
    """Sort ``values`` ascending; O(N log N) work, O(log N) depth."""
    values = np.asarray(values)
    n = len(values)
    record(work=n * max(log2ceil(n), 1.0), depth=log2ceil(n), category="sort")
    return np.sort(values, kind="stable")


def comparison_sort_order(keys: np.ndarray) -> np.ndarray:
    """Stable permutation that sorts ``keys`` ascending.

    The sweep cut sorts vertices by *non-increasing* ``p[v]/d(v)``; callers
    negate the key (and add an id tiebreak) to express that ordering.
    """
    keys = np.asarray(keys)
    n = len(keys)
    record(work=n * max(log2ceil(n), 1.0), depth=log2ceil(n), category="sort")
    return np.argsort(keys, kind="stable")


def _digit_passes(max_key: int) -> int:
    """Number of radix passes needed for keys in ``[0, max_key]``."""
    passes = 1
    limit = _RADIX
    while max_key >= limit:
        passes += 1
        limit <<= _RADIX_BITS
    return passes


def charge_integer_sort(n: int, max_key: int) -> None:
    """Record the cost of integer-sorting ``n`` keys in ``[0, max_key]``:
    O(passes * (N + radix)) work, O(passes * log N) depth."""
    passes = _digit_passes(max_key)
    record(work=passes * (n + _RADIX), depth=passes * log2ceil(n), category="sort")


def integer_sort_order(keys: np.ndarray, max_key: int | None = None) -> np.ndarray:
    """Stable permutation sorting non-negative integer ``keys`` ascending.

    LSD radix sort: for each 11-bit digit (least significant first) perform
    a stable counting pass.  Total work is O(passes * N) with
    O(passes * log N) depth — the integer-sort bounds the paper's Theorem 1
    relies on, since ranks are bounded by N + 1.
    """
    keys = np.asarray(keys)
    if len(keys) == 0:
        return np.empty(0, dtype=np.int64)
    if not np.issubdtype(keys.dtype, np.integer):
        raise TypeError("integer_sort requires integer keys")
    if keys.min() < 0:
        raise ValueError("integer_sort requires non-negative keys")
    if max_key is None:
        max_key = int(keys.max())
    n = len(keys)
    passes = _digit_passes(max_key)
    charge_integer_sort(n, max_key)

    order = np.arange(n, dtype=np.int64)
    remaining = keys.astype(np.int64, copy=True)
    for _ in range(passes):
        digit = remaining[order] & (_RADIX - 1)
        # Stable partition by digit value: counting sort realised with a
        # stable argsort over the small digit domain (one pass of LSD radix).
        order = order[np.argsort(digit, kind="stable")]
        remaining >>= _RADIX_BITS
        if not remaining.any():
            break
    return order


def integer_sort(keys: np.ndarray, max_key: int | None = None) -> np.ndarray:
    """Sorted copy of non-negative integer ``keys`` (LSD radix sort)."""
    keys = np.asarray(keys)
    return keys[integer_sort_order(keys, max_key=max_key)]
