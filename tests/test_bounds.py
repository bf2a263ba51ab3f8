"""Case bounds: values, witnesses, and the entropy-decomposition identity."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from pinkey import NetworkSpec, broadcast_bound, group_bound, subgroup_bound
from pinkey.errors import NotAStar
from pinkey.graph import Partition
from pinkey.oracles import enumerate_partitions, min_st_cut_bruteforce

from helpers import random_spec, random_star_spec

TRIANGLE = NetworkSpec.from_pairs(3, [(0, 1, 5), (0, 2, 4), (1, 2, 3)])


class TestBroadcastBound:
    def test_poorest_leaf_wins(self):
        report = broadcast_bound(NetworkSpec.star([7, 5, 9]))
        assert report.value == Fraction(5)
        assert str(report.witness) == "{0,1,3}|{2}"
        assert report.formula == "min-leaf-budget"

    def test_two_terminals(self):
        assert broadcast_bound(NetworkSpec.star([5])).value == Fraction(5)

    def test_zero_budget_leaf_forces_zero(self):
        assert broadcast_bound(NetworkSpec.star([4, 0, 6])).value == 0

    def test_tie_goes_to_smallest_leaf(self):
        report = broadcast_bound(NetworkSpec.star([3, 3]))
        assert str(report.witness) == "{0,2}|{1}"

    def test_non_star_rejected(self):
        with pytest.raises(NotAStar):
            broadcast_bound(TRIANGLE)


class TestSubgroupBound:
    def test_triangle(self):
        report = subgroup_bound(TRIANGLE, 0, 2)
        assert report.value == Fraction(7)
        assert isinstance(report.witness, Partition)
        assert str(report.witness) == "{0,1}|{2}"
        assert report.witness.crossing_weight(TRIANGLE) == 7

    def test_single_edge(self):
        assert subgroup_bound(NetworkSpec(2, {(0, 1): 5}), 0, 1).value == 5

    def test_disconnected_pair_is_zero(self):
        spec = NetworkSpec(3, {(0, 1): 4})
        assert subgroup_bound(spec, 0, 2).value == 0

    def test_rejects_bad_terminals(self):
        with pytest.raises(ValueError):
            subgroup_bound(TRIANGLE, 1, 1)
        with pytest.raises(ValueError):
            subgroup_bound(TRIANGLE, 0, 3)

    def test_matches_cut_enumeration_on_random_specs(self):
        rng = random.Random(505)
        for _ in range(60):
            spec = random_spec(rng, max_m=9)
            s, t = rng.sample(range(spec.m), 2)
            expected = min_st_cut_bruteforce(spec, s, t)[0]
            assert subgroup_bound(spec, s, t).value == expected


class TestGroupBound:
    def test_triangle(self):
        report = group_bound(TRIANGLE)
        assert report.value == Fraction(6)
        assert str(report.witness) == "{0}|{1}|{2}"

    def test_uniform_complete_graphs_give_half_mw(self):
        # all budgets w=2u on K_m: the singleton partition gives m*u
        for m, u in [(4, 1), (4, 2), (5, 1)]:
            assert group_bound(NetworkSpec.complete(m, 2 * u)).value == Fraction(m * u)

    def test_fractional_bound(self):
        assert group_bound(NetworkSpec.complete(3, 1)).value == Fraction(3, 2)

    def test_disconnected_graph_bounds_to_zero(self):
        assert group_bound(NetworkSpec(3, {(0, 1): 9})).value == 0


def test_witnesses_reproduce_their_values():
    rng = random.Random(501)
    for _ in range(30):
        spec = random_spec(rng, max_m=5)
        report = group_bound(spec)
        assert isinstance(report.witness, Partition)
        assert report.witness.normalized_weight(spec) == report.value
        s, t = rng.sample(range(spec.m), 2)
        cut_report = subgroup_bound(spec, s, t)
        cut = cut_report.witness
        assert cut.k == 2 and cut.block_index()[s] != cut.block_index()[t]
        assert Fraction(cut.crossing_weight(spec)) == cut_report.value


def test_group_bound_never_exceeds_its_relaxations():
    rng = random.Random(502)
    for _ in range(30):
        spec = random_spec(rng, max_m=6)
        value = group_bound(spec).value
        global_min_cut = min(p.normalized_weight(spec) for p in enumerate_partitions(spec.m) if p.k == 2)
        assert value <= global_min_cut
        assert value <= Fraction(spec.total_budget(), spec.m - 1)


def _block_entropy(spec: NetworkSpec, block: frozenset[int]) -> int:
    """Bit-count entropy of everything the block's terminals observe.

    A pair inside the block contributes its budget once (the two sides
    hold identical bits); a pair crossing out of the block also
    contributes its budget, seen from the inside endpoint alone.
    """
    total = 0
    for (i, j), budget in spec.budgets.items():
        if i in block or j in block:
            total += budget
    return total


def test_entropy_decomposition_identity():
    # sum of block entropies minus the total equals the crossing weight,
    # for every partition of every sampled spec
    rng = random.Random(503)
    for _ in range(20):
        spec = random_spec(rng, max_m=6)
        whole = spec.total_budget()
        for partition in enumerate_partitions(spec.m):
            lhs = sum(_block_entropy(spec, b) for b in partition.blocks) - whole
            assert lhs == partition.crossing_weight(spec)


def test_star_group_bound_equals_broadcast_bound():
    # isolating the poorest leaf is always an optimal partition of a star
    rng = random.Random(504)
    for _ in range(30):
        spec = random_star_spec(rng, max_m=8)
        assert group_bound(spec).value == broadcast_bound(spec).value
