"""Acceptance gate: one test per criterion, one pass/fail line each.

Run with ``pytest -v tests/test_acceptance.py`` to get the per-criterion
verdict lines; each test also prints ``ACCEPTANCE <n> PASS`` once its
assertions hold.  Shared sweeps live in module-scoped fixtures so the
secrecy criterion can audit every run the other criteria produced.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from math import floor

import pytest

from pinkey import (
    LinearForm,
    NetworkSpec,
    SpanningTree,
    broadcast_bound,
    brute_force_mutual_information,
    budget_graph,
    enumerate_partitions,
    generate_pairwise_keys,
    group_bound,
    is_connected,
    max_flow,
    min_st_cut_bruteforce,
    optimal_tree_packing_bruteforce,
    run_broadcast,
    run_group_key,
    run_subgroup,
    single_bit_round,
    verify_independence,
)

from pinkey.secrecy import gf2_rank

from helpers import random_connected_spec, random_spec, random_star_spec

TRIANGLE = NetworkSpec.from_pairs(3, [(0, 1, 5), (0, 2, 4), (1, 2, 3)])


def announce(n: int, label: str) -> None:
    print(f"ACCEPTANCE {n} PASS - {label}")


def timed(fn):
    started = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - started


@pytest.fixture(scope="module")
def triangle_run():
    def work():
        store = generate_pairwise_keys(TRIANGLE, 7)
        return run_group_key(store, TRIANGLE)

    return timed(work)


@pytest.fixture(scope="module")
def complete_runs():
    def work():
        out = []
        for m, u in [(4, 1), (4, 2), (5, 1)]:
            spec = NetworkSpec.complete(m, 2 * u)
            store = generate_pairwise_keys(spec, 11)
            out.append((m, u, run_group_key(store, spec)))
        return out

    return timed(work)


@pytest.fixture(scope="module")
def subgroup_runs():
    def work():
        out = []
        rng = random.Random(901)
        for _ in range(100):
            spec = random_connected_spec(rng, max_m=6, max_budget=8)
            s, t = rng.sample(range(spec.m), 2)
            store = generate_pairwise_keys(spec, rng.randrange(2**32))
            result = run_subgroup(store, spec, s, t, rng.randrange(2**32))
            expected = min_st_cut_bruteforce(budget_graph(spec), s, t).value
            out.append((result, expected))
        return out

    return timed(work)


@pytest.fixture(scope="module")
def broadcast_runs():
    def work():
        out = []
        rng = random.Random(902)
        for _ in range(50):
            spec = random_star_spec(rng, max_m=8, max_budget=12)
            store = generate_pairwise_keys(spec, rng.randrange(2**32))
            out.append((spec, run_broadcast(store, spec)))
        return out

    return timed(work)


@pytest.fixture(scope="module")
def all_results(triangle_run, complete_runs, subgroup_runs, broadcast_runs):
    collected = [triangle_run[0]]
    collected += [result for _, _, result in complete_runs[0]]
    collected += [result for result, _ in subgroup_runs[0]]
    collected += [result for _, result in broadcast_runs[0]]
    return collected


def test_c1_running_example_reaches_its_bound(triangle_run):
    result, elapsed = triangle_run
    assert len(result.key) == 6
    assert result.bound == Fraction(6)
    assert result.gap == 0
    assert elapsed < 1.0
    announce(1, "triangle group key has exactly 6 bits")


def test_c2_even_complete_graphs_are_tight(complete_runs):
    runs, elapsed = complete_runs
    for m, u, result in runs:
        assert len(result.key) == m * u, (m, u)
        assert result.bound == Fraction(m * u)
        assert result.gap == 0
    assert elapsed < 3.0
    announce(2, "complete graphs with even budgets meet the exact bound")


def test_c3_tree_choice_changes_the_yield():
    def work():
        spec = NetworkSpec.complete(4, 1)

        store = generate_pairwise_keys(spec, 2)
        star = SpanningTree(((0, 1), (0, 2), (0, 3)))
        single_bit_round(star, store, spec)
        g = budget_graph(spec)
        for i, j in star.edges:
            g.set_weight(i, j, g.weight(i, j) - 1)
        star_disconnects = not is_connected(g)

        store = generate_pairwise_keys(spec, 2)
        lex_bits = len(run_group_key(store, spec, "lex-kruskal").key)
        store = generate_pairwise_keys(spec, 2)
        degree_bits = len(run_group_key(store, spec, "degree-min").key)
        packed = optimal_tree_packing_bruteforce(budget_graph(spec))
        bound = group_bound(spec).value
        return star_disconnects, lex_bits, degree_bits, packed, bound

    (star_disconnects, lex_bits, degree_bits, packed, bound), elapsed = timed(work)
    assert star_disconnects
    assert lex_bits == 1
    assert degree_bits == 2
    assert packed == 2
    assert bound == Fraction(2)
    assert elapsed < 1.0
    announce(3, "uniform K4: star tree yields 1 bit, degree-min packs the optimal 2")


def test_c4_subgroup_keys_match_the_min_cut(subgroup_runs):
    runs, elapsed = subgroup_runs

    store = generate_pairwise_keys(TRIANGLE, 5)
    result = run_subgroup(store, TRIANGLE, 0, 2, 5)
    g = budget_graph(TRIANGLE)
    assert len(result.key) == 7
    assert max_flow(g, 0, 2).value == 7
    assert min_st_cut_bruteforce(g, 0, 2).value == 7

    for result, expected in runs:
        assert len(result.key) == expected
        assert result.gap == 0
    assert elapsed < 30.0
    announce(4, "100 random subgroup runs hit the brute-force min cut exactly")


def test_c5_broadcast_keys_match_the_poorest_leaf(broadcast_runs):
    runs, elapsed = broadcast_runs
    for spec, result in runs:
        expected = min(spec.budget(0, leaf) for leaf in range(1, spec.m))
        assert len(result.key) == expected
        assert result.bound == Fraction(expected)
        assert result.gap == 0
    assert elapsed < 10.0
    announce(5, "50 random stars all yield the poorest leaf's budget")


def test_c6_nothing_leaks_anywhere(all_results):
    def work():
        for result in all_results:
            report = verify_independence(
                result.key_forms, result.transcript.forms(), result.basis
            )
            assert report.leaked_bits == 0
            assert report.uniform

        rng = random.Random(903)
        for _ in range(50):
            size = rng.randint(1, 5)
            labels = [f"R0:{t}" for t in range(size)]

            def pick():
                chosen = [lab for lab in labels if rng.random() < 0.5]
                return LinearForm(frozenset(chosen))

            keys = tuple(pick() for _ in range(rng.randint(0, 3)))
            public = tuple(pick() for _ in range(rng.randint(0, 3)))
            exact = brute_force_mutual_information(keys, public, size)
            assert _rank_leak(keys, public) == exact
        return None

    _, elapsed = timed(work)
    assert elapsed < 30.0
    announce(6, "every run is perfectly secret; ranks agree with exhaustive MI")


def _rank_leak(keys, public):
    index: dict[str, int] = {}
    for form in (*keys, *public):
        for label in sorted(form.labels):
            index.setdefault(label, len(index))

    def mask(form):
        return sum(1 << index[lab] for lab in form.labels)

    rk = gf2_rank([mask(f) for f in keys])
    rt = gf2_rank([mask(f) for f in public])
    rj = gf2_rank([mask(f) for f in (*keys, *public)])
    return rk + rt - rj


def test_c7_bounds_are_consistent():
    def work():
        rng = random.Random(904)
        for _ in range(100):
            spec = random_spec(rng, max_m=6, max_budget=8)
            report = group_bound(spec)
            store = generate_pairwise_keys(spec, rng.randrange(2**32))
            result = run_group_key(store, spec)
            assert len(result.key) <= floor(report.value)

            g = budget_graph(spec)
            total = spec.total_budget()
            if spec.m > 2:
                two_block = min(
                    p.crossing_weight(g)
                    for p in enumerate_partitions(spec.m)
                    if p.k == 2
                )
                assert report.value <= two_block
            assert report.value <= Fraction(total, spec.m - 1)

            basis = store.basis
            for partition in enumerate_partitions(spec.m):
                where = partition.block_index()
                internal = crossing = 0
                for label in basis.labels:
                    owners = basis.owners_of(label)
                    blocks = {where[o] for o in owners}
                    if len(blocks) == 1:
                        internal += 1
                    else:
                        crossing += 1
                assert crossing == partition.crossing_weight(g)
                assert internal + crossing == total
        return None

    _, elapsed = timed(work)
    assert elapsed < 60.0
    announce(7, "group keys respect the bound; the bound respects its relaxations")


def test_c8_the_model_is_exact_not_asymptotic(triangle_run):
    # Zero leakage and uniformity hold exactly, bit for bit, with no
    # error terms: the exhaustive distribution check must return a
    # rational zero, never a small float.
    result, _ = triangle_run
    leak = brute_force_mutual_information(
        result.key_forms, result.transcript.forms(), len(result.basis)
    )
    assert leak == 0
    assert isinstance(leak, Fraction)
    report = verify_independence(result.key_forms, result.transcript.forms(), result.basis)
    assert report.leaked_bits == 0
    assert report.uniform
    announce(8, "secrecy is exact: the distribution test returns a rational zero")
