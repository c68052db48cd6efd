"""Unit and property tests for the continuous knapsack (Section 4.2)."""

import random
from fractions import Fraction
from functools import cmp_to_key

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import KnapsackItem, solve_continuous, solve_integral
from repro.core.fastnum import knapsack_order_cmp
from repro.core.knapsack import _greedy_order


def items_of(*triples):
    return [KnapsackItem.of(k, p, w) for k, p, w in triples]


class TestContinuous:
    def test_all_fit(self):
        sol = solve_continuous(items_of(("a", 5, 3), ("b", 2, 2)), 10)
        assert sol.x("a") == 1 and sol.x("b") == 1
        assert sol.value == 7
        assert sol.split_key is None
        assert sol.used_capacity == 5

    def test_split_item(self):
        # densities: a = 2, b = 1 → a first, b split at 2/4
        sol = solve_continuous(items_of(("a", 6, 3), ("b", 4, 4)), 5)
        assert sol.x("a") == 1
        assert sol.x("b") == Fraction(1, 2)
        assert sol.split_key == "b"
        assert sol.value == 6 + 2
        assert sol.used_capacity == 5

    def test_zero_capacity(self):
        sol = solve_continuous(items_of(("a", 6, 3)), 0)
        assert sol.x("a") == 0 and sol.value == 0 and sol.split_key is None

    def test_negative_capacity(self):
        sol = solve_continuous(items_of(("a", 6, 3)), -4)
        assert sol.unselected == ["a"]

    def test_zero_weight_always_selected(self):
        sol = solve_continuous(items_of(("free", 3, 0), ("b", 5, 10)), 1)
        assert sol.x("free") == 1
        assert sol.split_key == "b"

    def test_duplicate_keys_rejected(self):
        with pytest.raises(ValueError):
            solve_continuous(items_of(("a", 1, 1), ("a", 2, 2)), 3)

    def test_negative_item_rejected(self):
        with pytest.raises(ValueError):
            KnapsackItem.of("a", -1, 2)

    def test_selected_unselected_partition(self):
        sol = solve_continuous(items_of(("a", 6, 3), ("b", 4, 4), ("c", 1, 9)), 5)
        assert set(sol.selected) | set(sol.unselected) | (
            {sol.split_key} if sol.split_key else set()
        ) == {"a", "b", "c"}

    def test_deterministic_tiebreak(self):
        a = solve_continuous(items_of(("x", 2, 2), ("y", 2, 2)), 3)
        b = solve_continuous(items_of(("y", 2, 2), ("x", 2, 2)), 3)
        assert a.fractions == b.fractions


class TestGreedyOrderComparator:
    """``fastnum.knapsack_order_cmp`` sorts int triples as ``_greedy_order``
    sorts the same items (zero weights first, density and profit
    descending, ``repr(key)`` ascending), signed weights included."""

    @staticmethod
    def _orders(triples):
        by_cmp = sorted(triples, key=cmp_to_key(knapsack_order_cmp))
        reference = _greedy_order(
            [KnapsackItem(k, Fraction(p), Fraction(w)) for k, p, w in triples]
        )
        return [k for k, _, _ in by_cmp], [it.key for it in reference]

    def test_every_tie_break(self):
        triples = [
            (7, 0, 3), (9, 2, 2), (8, 1, -2), (4, 2, 1), (10, 2, 2),
            (6, 1, 0), (11, 0, -1), (3, 4, 2), (5, 3, 0),
        ]
        got, reference = self._orders(triples)
        # zero weights by profit; density 2 by profit; 10 before 9 by
        # repr; density 0 with equal profits by repr; negative density last
        assert got == reference == [5, 6, 3, 4, 10, 9, 11, 7, 8]

    @pytest.mark.parametrize("seed", range(30))
    def test_seeded_items(self, seed):
        rng = random.Random(seed)
        keys = rng.sample(range(40), rng.randint(2, 14))
        triples = [(k, rng.randint(0, 4), rng.randint(-3, 4)) for k in keys]
        got, reference = self._orders(triples)
        assert got == reference


class TestIntegralReference:
    def test_small_exact(self):
        val, sel = solve_integral(items_of(("a", 6, 3), ("b", 4, 4), ("c", 5, 2)), 5)
        assert val == 11  # a + c
        assert sel == {"a", "c"}

    def test_empty(self):
        val, sel = solve_integral([], 10)
        assert val == 0 and sel == set()


@settings(max_examples=80, deadline=None)
@given(
    triples=st.lists(
        st.tuples(st.integers(0, 12), st.integers(0, 12)), min_size=0, max_size=8
    ),
    capacity=st.integers(0, 30),
)
def test_continuous_dominates_integral(triples, capacity):
    items = [KnapsackItem.of(i, p, w) for i, (p, w) in enumerate(triples)]
    cont = solve_continuous(items, capacity)
    best, chosen = solve_integral(items, capacity)
    # LP relaxation dominates ILP
    assert cont.value >= best
    # at most one fractional variable; capacity respected
    fractional = [k for k, v in cont.fractions.items() if 0 < v < 1]
    assert len(fractional) <= 1
    assert cont.used_capacity <= capacity or capacity < 0
    # greedy value recomputation matches
    recomputed = sum(
        (it.profit * cont.x(it.key) for it in items), Fraction(0)
    )
    assert recomputed == cont.value
    # rounding the split item down stays feasible
    used_floor = sum(
        (it.weight for it in items if cont.x(it.key) == 1), Fraction(0)
    )
    assert used_floor <= max(capacity, 0)
    # structural optimality of the greedy: value is the LP optimum.
    # Verify against a tiny LP oracle: any swap of one unit of capacity from a
    # selected to an unselected item cannot improve (exchange argument).
    densities = {
        it.key: (it.profit / it.weight) if it.weight else None for it in items
    }
    worst_in = min(
        (densities[k] for k, v in cont.fractions.items() if v > 0 and densities[k] is not None),
        default=None,
    )
    best_out = max(
        (densities[k] for k, v in cont.fractions.items() if v < 1 and densities[k] is not None),
        default=None,
    )
    if worst_in is not None and best_out is not None and cont.used_capacity == capacity:
        assert worst_in >= best_out
