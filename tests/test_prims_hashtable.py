"""Tests for the sparse-set table (repro.prims.hashtable).

The table is checked against a plain dict model, including under randomised
operation sequences (the hypothesis tests), heavy collision loads and
growth.  Its entries are stored key-sorted while its recorded charges model
the paper's hash table; the golden profiles below pin those charges to the
values the earlier linear-probing table recorded, so Figures 9-10 are
unchanged by the layout.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import (
    HKPRParams,
    NibbleParams,
    PRNibbleParams,
    hk_pr,
    nibble,
    pr_nibble,
    sweep_cut,
)
from repro.graph import rand_local
from repro.prims import IntFloatHashTable, TableCharges
from repro.runtime import track

keys_strategy = st.lists(st.integers(min_value=0, max_value=2**50), min_size=0, max_size=200)


class TestBasicOperations:
    def test_empty_table(self):
        table = IntFloatHashTable()
        assert len(table) == 0
        assert 7 not in table
        assert table.lookup(np.array([1, 2, 3])).tolist() == [0.0, 0.0, 0.0]

    def test_accumulate_and_lookup(self):
        table = IntFloatHashTable()
        table.accumulate(np.array([5, 5, 9]), np.array([1.0, 2.0, 3.0]))
        assert table.get_one(5) == 3.0
        assert table.get_one(9) == 3.0
        assert table.get_one(123) == 0.0
        assert len(table) == 2

    def test_bottom_element_is_zero(self):
        # The paper's sparse-set convention: absent keys read as ⊥ = 0.
        table = IntFloatHashTable()
        assert table.lookup(np.array([42]), default=0.0)[0] == 0.0
        assert table.lookup(np.array([42]), default=-1.0)[0] == -1.0

    def test_assign_overwrites(self):
        table = IntFloatHashTable()
        table.assign(np.array([1, 2]), np.array([10.0, 20.0]))
        table.assign(np.array([2, 3]), np.array([99.0, 30.0]))
        assert table.get_one(1) == 10.0
        assert table.get_one(2) == 99.0
        assert table.get_one(3) == 30.0

    def test_assign_duplicate_keys_last_wins(self):
        table = IntFloatHashTable()
        table.assign(np.array([7, 7, 7]), np.array([1.0, 2.0, 3.0]))
        assert table.get_one(7) == 3.0
        assert len(table) == 1

    def test_scalar_operations(self):
        table = IntFloatHashTable()
        table.set_one(11, 1.5)
        table.add_one(11, 0.5)
        table.add_one(12, 2.0)
        assert table.get_one(11) == 2.0
        assert table.get_one(12) == 2.0
        assert 11 in table and 13 not in table

    def test_items_returns_all_entries(self):
        table = IntFloatHashTable()
        expected = {k: float(k) * 2 for k in range(50)}
        table.assign(np.arange(50), np.arange(50) * 2.0)
        keys, values = table.items()
        assert dict(zip(keys.tolist(), values.tolist())) == expected

    def test_clear(self):
        table = IntFloatHashTable()
        table.assign(np.arange(100), 1.0)
        table.clear()
        assert len(table) == 0
        assert table.get_one(5) == 0.0

    def test_empty_batches_are_noops(self):
        table = IntFloatHashTable()
        table.accumulate(np.array([], dtype=np.int64), np.array([]))
        table.assign(np.array([], dtype=np.int64), np.array([]))
        assert len(table) == 0


class TestGrowthAndCollisions:
    def test_growth_preserves_contents(self):
        table = IntFloatHashTable()  # minimum capacity
        n = 10_000
        table.accumulate(np.arange(n), np.ones(n))
        assert len(table) == n
        assert table.capacity >= 2 * n  # load factor <= 1/2
        assert np.array_equal(table.lookup(np.arange(n)), np.ones(n))

    def test_load_factor_bounded(self):
        table = IntFloatHashTable()
        for start in range(0, 5000, 500):
            table.accumulate(np.arange(start, start + 500), 1.0)
            assert len(table) * 2 <= table.capacity

    def test_adversarial_same_slot_keys(self):
        # Keys spaced by the capacity multiple all target nearby slots,
        # exercising long probe chains.
        table = IntFloatHashTable()
        keys = np.arange(64, dtype=np.int64) * (2**40)
        table.accumulate(keys, np.arange(64, dtype=np.float64))
        assert np.array_equal(table.lookup(keys), np.arange(64, dtype=np.float64))

    def test_incremental_vs_batch_equivalence(self):
        rng = np.random.default_rng(0)
        keys = rng.integers(0, 500, size=1000)
        deltas = rng.random(1000)
        batch = IntFloatHashTable()
        batch.accumulate(keys, deltas)
        incremental = IntFloatHashTable()
        for k, d in zip(keys.tolist(), deltas.tolist()):
            incremental.add_one(k, d)
        bk, bv = batch.items()
        got = dict(zip(bk.tolist(), bv.tolist()))
        want_keys, want_values = incremental.items()
        want = dict(zip(want_keys.tolist(), want_values.tolist()))
        assert set(got) == set(want)
        for key in got:
            assert got[key] == pytest.approx(want[key], rel=1e-12)


class TestAgainstDictModel:
    @given(keys_strategy, st.data())
    def test_accumulate_matches_dict(self, keys, data):
        deltas = data.draw(
            st.lists(
                st.floats(min_value=-100, max_value=100, allow_nan=False),
                min_size=len(keys),
                max_size=len(keys),
            )
        )
        table = IntFloatHashTable()
        table.accumulate(np.asarray(keys, dtype=np.int64), np.asarray(deltas))
        model: dict[int, float] = {}
        for k, d in zip(keys, deltas):
            model[k] = model.get(k, 0.0) + d
        assert len(table) == len(model)
        for k, v in model.items():
            assert table.get_one(k) == pytest.approx(v, rel=1e-9, abs=1e-12)

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["accumulate", "assign", "lookup"]),
                st.lists(st.integers(0, 40), min_size=1, max_size=20),
            ),
            max_size=20,
        )
    )
    def test_operation_sequences_match_dict(self, operations):
        table = IntFloatHashTable()
        model: dict[int, float] = {}
        for op, key_list in operations:
            keys = np.asarray(key_list, dtype=np.int64)
            values = np.asarray([float(k) + 1.0 for k in key_list])
            if op == "accumulate":
                table.accumulate(keys, values)
                for k, v in zip(key_list, values.tolist()):
                    model[k] = model.get(k, 0.0) + v
            elif op == "assign":
                table.assign(keys, values)
                for k, v in zip(key_list, values.tolist()):
                    model[k] = v
            else:
                got = table.lookup(keys)
                want = [model.get(k, 0.0) for k in key_list]
                assert got.tolist() == pytest.approx(want, rel=1e-9, abs=1e-12)
        assert len(table) == len(model)

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["accumulate", "assign", "add_one", "set_one"]),
                st.lists(st.integers(0, 2**40), min_size=1, max_size=60),
            ),
            max_size=25,
        )
    )
    def test_items_key_ascending_and_match_dict(self, operations):
        # Any insertion history, including ones that grow the table many
        # times past the minimum capacity.
        table = IntFloatHashTable()
        model: dict[int, float] = {}
        for op, key_list in operations:
            keys = np.asarray(key_list, dtype=np.int64)
            values = np.asarray([float(k % 97) + 0.5 for k in key_list])
            if op == "accumulate":
                table.accumulate(keys, values)
                for k, v in zip(key_list, values.tolist()):
                    model[k] = model.get(k, 0.0) + v
            elif op == "assign":
                table.assign(keys, values)
                model.update(zip(key_list, values.tolist()))
            elif op == "add_one":
                table.add_one(key_list[0], float(values[0]))
                model[key_list[0]] = model.get(key_list[0], 0.0) + float(values[0])
            else:
                table.set_one(key_list[0], float(values[0]))
                model[key_list[0]] = float(values[0])
            assert 2 * len(table) <= table.capacity
        keys, values = table.items()
        assert keys.tolist() == sorted(model)
        assert values.tolist() == pytest.approx([model[k] for k in sorted(model)])


class TestTableCharges:
    def test_growth_policy_from_counts(self):
        charges = TableCharges()
        assert charges.capacity == 8
        charges.insert(4, 4)  # 2 * (0 + 4) <= 8: no growth
        assert (charges.capacity, charges.size) == (8, 4)
        charges.insert(3, 1)  # 2 * (4 + 3) > 8: grow to next_pow2(28)
        assert (charges.capacity, charges.size) == (32, 5)

    def test_table_charges_what_its_accountant_charges(self):
        with track() as table_profile:
            table = IntFloatHashTable(capacity_hint=3)
            table.assign(np.arange(6), 1.0)
            table.accumulate(np.asarray([2, 9, 9, 40]), 1.0)
            table.lookup(np.arange(10))
            table.items()
        with track() as replay_profile:
            charges = TableCharges(3)
            charges.insert(6, 6)
            charges.insert(3, 2)
            charges.lookup(10)
            charges.scan()
        assert table.capacity == charges.capacity and len(table) == charges.size
        assert table_profile.snapshot() == replay_profile.snapshot()
        assert table_profile.rounds == replay_profile.rounds


#: ``snapshot()`` and ``rounds`` of each BSP diffusion followed by the
#: parallel sweep on ``rand_local(1000, 4, seed=3)``, as recorded by the
#: linear-probing table the key-sorted one replaced.
GOLDEN_PROFILES = {
    "pr-nibble": (320, {
        "hash": (54412.0, 1112.0), "vertex_map": (3346.0, 177.0),
        "scan": (21770.0, 221.0), "edge_map": (64186.0, 553.0),
        "filter": (29380.0, 267.0), "sort": (27472.0, 24.0),
        "misc": (15424.0, 13.0),
    }),
    "pr-nibble-original": (203, {
        "hash": (31882.0, 723.0), "vertex_map": (1592.0, 111.0),
        "scan": (8335.0, 151.0), "edge_map": (29012.0, 348.0),
        "filter": (12744.0, 173.0), "sort": (10993.0, 22.0),
        "misc": (5642.0, 12.0),
    }),
    "nibble": (137, {
        "hash": (51958.0, 559.0), "vertex_map": (849.0, 71.0),
        "scan": (9311.0, 111.0), "edge_map": (18156.0, 226.0),
        "filter": (11322.0, 112.0), "sort": (13174.0, 22.0),
        "misc": (7130.0, 12.0),
    }),
    "hk-pr": (132, {
        "scan": (25984.0, 140.0), "hash": (70757.0, 568.0),
        "vertex_map": (7160.0, 91.0), "edge_map": (126772.0, 267.0),
        "filter": (23621.0, 118.0), "sort": (27472.0, 24.0),
        "misc": (15424.0, 13.0),
    }),
}


class TestGoldenProfiles:
    @pytest.mark.parametrize("name", sorted(GOLDEN_PROFILES))
    def test_bsp_profile_matches_probing_table(self, name):
        graph = rand_local(1000, 4, seed=3)
        runs = {
            "pr-nibble": lambda: pr_nibble(
                graph, [5, 77], PRNibbleParams(alpha=0.05, eps=1e-4), kernel="python"
            ),
            "pr-nibble-original": lambda: pr_nibble(
                graph, 11, PRNibbleParams(alpha=0.1, eps=1e-4, optimized=False),
                kernel="python",
            ),
            "nibble": lambda: nibble(graph, 5, NibbleParams(eps=1e-4, max_iterations=12)),
            "hk-pr": lambda: hk_pr(graph, 5, HKPRParams(t=5.0, eps=1e-4)),
        }
        with track() as tracker:
            result = runs[name]()
            sweep_cut(graph, result.vector, kernel="python")
        rounds, snapshot = GOLDEN_PROFILES[name]
        assert tracker.snapshot() == snapshot
        assert tracker.rounds == rounds
