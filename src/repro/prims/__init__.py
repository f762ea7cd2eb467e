"""Parallel primitives: scan, filter, sorting, atomics, sparse sets.

These are the building blocks the paper takes from the Problem Based
Benchmark Suite [43] and the phase-concurrent hash table of [42]; every
clustering algorithm and the sweep cut are expressed in terms of them.
"""

from .atomics import combine_duplicates, compare_and_swap, fetch_and_add
from .compact import filter_array, pack, pack_index
from .hashtable import IntFloatHashTable, TableCharges
from .scan import (
    argmin_via_scan,
    exclusive_prefix_sum,
    prefix_max,
    prefix_min,
    prefix_sum,
)
from .sort import comparison_sort, comparison_sort_order, integer_sort, integer_sort_order
from .sparse import SparseDict, SparseVector

__all__ = [
    "combine_duplicates",
    "compare_and_swap",
    "fetch_and_add",
    "filter_array",
    "pack",
    "pack_index",
    "IntFloatHashTable",
    "TableCharges",
    "argmin_via_scan",
    "exclusive_prefix_sum",
    "prefix_max",
    "prefix_min",
    "prefix_sum",
    "comparison_sort",
    "comparison_sort_order",
    "integer_sort",
    "integer_sort_order",
    "SparseDict",
    "SparseVector",
]
