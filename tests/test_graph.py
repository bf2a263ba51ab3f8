"""Graph algorithms against their exhaustive oracles."""

from __future__ import annotations

import random
import tracemalloc
from collections import Counter, deque
from fractions import Fraction

import pytest

from pinkey import (
    TIE_BREAK_POLICIES,
    Partition,
    NetworkSpec,
    generate_pairwise_keys,
    graph_strength,
    greedy_spanning_trees,
    max_flow,
    run_group_key,
    run_subgroup,
)
import pinkey.graph
from pinkey.errors import GraphDisconnected, InstanceTooLarge, InvariantViolation
from pinkey.oracles import (
    enumerate_partitions,
    enumerate_spanning_trees,
    is_connected,
    maximum_spanning_tree,
    min_normalized_multicut,
    min_st_cut_bruteforce,
    optimal_tree_packing_bruteforce,
)

from helpers import (debit, plain_max_flow, random_connected_spec, random_spec, restricted_growth_partitions,
                     sparse_spec)

TRIANGLE = NetworkSpec(3, {(0, 1): 5, (0, 2): 4, (1, 2): 3})


def bfs_connected(g: NetworkSpec) -> bool:
    """Reference connectivity: breadth-first search from node 0."""
    adjacency: dict[int, list[int]] = {v: [] for v in range(g.m)}
    for i, j in g.budgets:
        adjacency[i].append(j)
        adjacency[j].append(i)
    seen = {0}
    queue = deque([0])
    while queue:
        for v in adjacency[queue.popleft()]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return len(seen) == g.m


def degree_min_by_rescan(g: NetworkSpec) -> tuple[tuple[int, int], ...]:
    """Reference degree-min: rescan every edge for each pick; the edges in the order picked.

    Among all addable edges of the heaviest addable weight, take the one
    minimizing the resulting maximum degree, then the smallest pair.
    """
    parent = list(range(g.m))

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    degree = [0] * g.m
    chosen = []
    while len(chosen) < g.m - 1:
        addable = [(i, j, w) for (i, j), w in g.budgets.items() if find(i) != find(j)]
        if not addable:
            raise GraphDisconnected("graph has no spanning tree")
        top = max(w for _, _, w in addable)
        current_max = max(degree)
        i, j = min(
            ((i, j) for i, j, w in addable if w == top),
            key=lambda e: (max(current_max, degree[e[0]] + 1, degree[e[1]] + 1), e),
        )
        parent[find(j)] = find(i)
        degree[i] += 1
        degree[j] += 1
        chosen.append((i, j))
    return tuple(chosen)


def lex_kruskal_reference(g: NetworkSpec) -> tuple[tuple[int, int], ...]:
    """Reference lex-kruskal: edges by (weight desc, pair), each one that joins two components;
    the edges in the order picked."""
    parent = list(range(g.m))

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    chosen = []
    for (i, j), _ in sorted(g.budgets.items(), key=lambda e: (-e[1], e[0])):
        if find(i) != find(j):
            parent[find(j)] = find(i)
            chosen.append((i, j))
    if len(chosen) < g.m - 1:
        raise GraphDisconnected("graph has no spanning tree")
    return tuple(chosen)


def trees_by_repeated_maximum(g: NetworkSpec, policy: str) -> list[tuple[tuple[int, int], ...]]:
    """The tree loop without a kept edge index: a fresh maximum spanning tree of
    the residual weights each round, then a debit of its edges."""
    trees = []
    while True:
        try:
            trees.append(maximum_spanning_tree(g, policy))
        except GraphDisconnected:
            return trees
        g = debit(g, trees[-1])


def greedy_rounds_checked_against_references(graphs) -> int:
    """Check every greedy round of each graph, under both policies, against the
    policy's reference on the residual, edge for edge in the order chosen, and
    that the residual ends disconnected; return the number of rounds."""
    references = {"lex-kruskal": lex_kruskal_reference, "degree-min": degree_min_by_rescan}
    rounds = 0
    for g in graphs:
        for policy, reference in references.items():
            residual = g
            for edges in greedy_spanning_trees(g, policy):
                assert edges == reference(residual), (g, policy)
                residual = debit(residual, edges)
                rounds += 1
            assert not bfs_connected(residual)
            with pytest.raises(GraphDisconnected):
                reference(residual)
    return rounds


class TestWeightedGraph:
    """The NetworkSpec read as the weighted graph the graph layer works on."""

    def test_neighbors_and_totals(self):
        neighbors = {v: sorted(u for pair in TRIANGLE.pairs() if v in pair for u in pair if u != v) for v in range(3)}
        assert neighbors == {0: [1, 2], 1: [0, 2], 2: [0, 1]}
        assert [sum(TRIANGLE.budget(v, u) for u in neighbors[v]) for v in range(3)] == [9, 8, 7]
        assert TRIANGLE.total_budget() == 12


class TestConnectivity:
    def test_triangle_is_connected(self):
        assert is_connected(TRIANGLE)

    def test_missing_node_is_disconnected(self):
        assert not is_connected(NetworkSpec(3, {(0, 1): 1}))

    def test_k4_minus_star_edges_is_disconnected(self):
        g = debit(NetworkSpec.complete(4, 1), ((0, 1), (0, 2), (0, 3)))
        assert not is_connected(g)

    def test_equals_breadth_first_search(self):
        # sparse random graphs with m 2..9, so isolated nodes are common
        rng = random.Random(408)
        graphs = []
        for _ in range(300):
            m = rng.randint(2, 9)
            p = rng.choice((0.1, 0.3, 0.6))
            graphs.append(NetworkSpec(m, {(i, j): 1 for i in range(m) for j in range(i + 1, m)
                                          if rng.random() < p}))
        assert {is_connected(g) for g in graphs} == {True, False}
        for g in graphs:
            assert is_connected(g) == bfs_connected(g)


class TestMaxFlow:
    def test_triangle_value_and_paths(self):
        # cuts isolating {0} and {0,1} weigh 9 and 7; the latter is minimal
        fa = max_flow(TRIANGLE, 0, 2)
        assert fa.value == 7
        assert fa.paths == (((0, 1, 2), 3), ((0, 2), 4))

    def test_single_edge(self):
        g = NetworkSpec(2, {(0, 1): 5})
        fa = max_flow(g, 0, 1)
        assert fa.value == 5 and fa.paths == (((0, 1), 5),)

    def test_disconnected_terminals(self):
        g = NetworkSpec(3, {(0, 1): 4})
        fa = max_flow(g, 0, 2)
        assert fa.value == 0 and fa.paths == ()

    def test_rejects_equal_terminals(self):
        # and terminals outside 0..m-1, in the flow and in its brute-force oracle
        for oracle in (max_flow, min_st_cut_bruteforce):
            for s, t in ((1, 1), (0, 5), (-1, 2), (True, 2), (0, False), (0.0, 2)):
                with pytest.raises(ValueError):
                    oracle(TRIANGLE, s, t)

    def test_flow_invariants_on_random_graphs(self):
        rng = random.Random(401)
        for _ in range(100):
            g = random_spec(rng)
            nodes = range(g.m)
            s, t = rng.sample(nodes, 2)
            fa = max_flow(g, s, t)
            # agrees with exhaustive cut enumeration
            assert fa.value == min_st_cut_bruteforce(g, s, t)[0]
            # the paths are simple s-t paths whose amounts sum to the value
            flows: dict[tuple[int, int], int] = {}
            for path, amount in fa.paths:
                assert path[0] == s and path[-1] == t and amount > 0
                assert len(set(path)) == len(path)
                for hop in zip(path, path[1:]):
                    flows[hop] = flows.get(hop, 0) + amount
            assert sum(a for _, a in fa.paths) == fa.value
            # their per-pair sums stay within capacity, one direction only
            for (u, v), f in flows.items():
                assert 0 < f <= g.budget(u, v)
                assert (v, u) not in flows
            # conservation at every relay node
            for n in nodes:
                inflow = sum(f for (u, v), f in flows.items() if v == n)
                outflow = sum(f for (u, v), f in flows.items() if u == n)
                if n == s:
                    assert outflow - inflow == fa.value
                elif n == t:
                    assert inflow - outflow == fa.value
                else:
                    assert inflow == outflow

    def test_equals_a_plain_edmonds_karp(self):
        # the kernel pushes its first paths in bulk and searches residual matrices; the
        # textbook kernel must give the same value, path decomposition and cut
        rng = random.Random(409)
        lengths = set()
        for _ in range(100):
            m = rng.randint(2, 12)
            g = sparse_spec(m, rng.choice((0.2, 0.4, 0.7, 1.0)), rng.randrange(1 << 32), rng.choice((1, 3, 9)))
            s, t = rng.sample(range(m), 2)
            value, paths, side = plain_max_flow(g, s, t)
            fa = max_flow(g, s, t)
            assert (fa.value, fa.paths, fa.cut) == (value, paths, Partition((side, frozenset(range(m)) - side)))
            lengths.update(min(len(path), 5) for path, _ in paths)
        # direct arcs, two-hop paths and longer ones all occur
        assert lengths == {2, 3, 4, 5}

    def test_a_sparse_flow_takes_memory_in_its_arcs_not_in_m_squared(self):
        # a path 0-1-...-2999 of budget 3 plus 3,000 random chords: two m x m matrices
        # would take over 100 MiB
        m, rng = 3000, random.Random(5)
        budgets = {(i, i + 1): 3 for i in range(m - 1)}
        for _ in range(m):
            budgets.setdefault(tuple(sorted(rng.sample(range(m), 2))), rng.randint(1, 3))
        spec = NetworkSpec(m, budgets)
        tracemalloc.start()
        try:
            fa = max_flow(spec, 0, m - 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        assert fa.value == 7 == sum(amount for _, amount in fa.paths) and len(fa.paths) == 7
        assert fa.cut == Partition((frozenset({0}), frozenset(range(1, m))))


class TestMinCut:
    def test_fast_and_bruteforce_agree_with_witnesses(self):
        rng = random.Random(402)
        for _ in range(60):
            g = random_spec(rng)
            s, t = rng.sample(range(g.m), 2)
            flow = max_flow(g, s, t)
            value, brute = min_st_cut_bruteforce(g, s, t)
            assert flow.value == value
            for cut in (flow.cut, brute):
                assert cut.k == 2 and sum(map(len, cut.blocks)) == g.m
                where = cut.block_index()
                assert where[s] != where[t]
                assert cut.crossing_weight(g) == value

    def test_single_edge_cut(self):
        g = NetworkSpec(2, {(0, 1): 5})
        assert min_st_cut_bruteforce(g, 0, 1) == (5, Partition((frozenset({0}), frozenset({1}))))

    def test_tied_cuts_give_the_first_minimizer_in_enumeration_order(self):
        # the path 0 -5- 1 -1- 2 -1- 3: from 0, the sides {0, 1} and {0, 1, 2} both cut 1, and
        # from 3, the sides {3} and {2, 3}; the witness, which pinkey oracle mincut prints, is
        # the first in enumeration order, the others as bits of a rising mask
        g = NetworkSpec(4, {(0, 1): 5, (1, 2): 1, (2, 3): 1})
        assert min_st_cut_bruteforce(g, 0, 3) == (1, Partition((frozenset({0, 1}), frozenset({2, 3}))))
        assert min_st_cut_bruteforce(g, 3, 0) == (1, Partition((frozenset({3}), frozenset({0, 1, 2}))))

    def test_guard(self):
        with pytest.raises(InstanceTooLarge):
            min_st_cut_bruteforce(NetworkSpec(21), 0, 1)

    def test_wrong_flow_value_is_an_invariant_violation(self, monkeypatch):
        real_kernel = pinkey.graph._edmonds_karp
        # the flow of 7 from 0 to 2 with the side {0}, whose cut weighs 9
        monkeypatch.setattr(pinkey.graph, "_edmonds_karp", lambda *args: (real_kernel(*args)[0], (0,)))
        with pytest.raises(InvariantViolation, match="residual cut"):
            max_flow(TRIANGLE, 0, 2)
        monkeypatch.setattr(pinkey.graph, "_edmonds_karp",
                            lambda *args: (lambda value, side: (value + 1, side))(*real_kernel(*args)))
        with pytest.raises(InvariantViolation, match="flow paths"):
            max_flow(TRIANGLE, 0, 2)


class TestSpanningTrees:
    def test_triangle_maximum_tree(self):
        tree = maximum_spanning_tree(TRIANGLE)
        assert tree == ((0, 1), (0, 2))
        assert sum(TRIANGLE.budget(i, j) for i, j in tree) == 9

    def test_tree_input_returns_itself(self):
        g = NetworkSpec(4, {(0, 1): 3, (1, 2): 1, (1, 3): 7})
        assert maximum_spanning_tree(g) == ((0, 1), (1, 2), (1, 3))

    def test_disconnected_raises(self):
        for g in (NetworkSpec(3, {(0, 1): 1}), NetworkSpec(2)):
            for policy in TIE_BREAK_POLICIES:
                with pytest.raises(GraphDisconnected):
                    maximum_spanning_tree(g, policy)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            maximum_spanning_tree(TRIANGLE, "random")

    def test_degree_min_on_uniform_k4_is_a_path(self):
        tree = maximum_spanning_tree(NetworkSpec.complete(4, 1), "degree-min")
        assert max(Counter(node for edge in tree for node in edge).values()) == 2
        assert tree == ((0, 1), (0, 2), (2, 3))

    def test_lex_kruskal_on_uniform_k4_is_the_star(self):
        tree = maximum_spanning_tree(NetworkSpec.complete(4, 1), "lex-kruskal")
        assert tree == ((0, 1), (0, 2), (0, 3))

    def test_both_policies_reach_maximum_weight(self):
        rng = random.Random(403)
        graphs = [random_connected_spec(rng, max_m=6, max_budget=5) for _ in range(60)]
        # many ties: weights 1..3 on about half the pairs, which keeps m=8 enumerable
        rng = random.Random(409)
        while len(graphs) < 120:
            m = rng.randint(2, 8)
            g = NetworkSpec(m, {(i, j): rng.randint(1, 3) for i in range(m) for j in range(i + 1, m)
                                if rng.random() < 0.5})
            if is_connected(g):
                graphs.append(g)
        def weight(tree, g):
            return sum(g.budget(i, j) for i, j in tree)

        for g in graphs:
            best = max(weight(t, g) for t in enumerate_spanning_trees(g))
            for policy in TIE_BREAK_POLICIES:
                assert weight(maximum_spanning_tree(g, policy), g) == best

    def test_degree_min_equals_the_per_pick_rescan(self):
        # disconnected graphs included: both must raise
        rng = random.Random(410)
        for _ in range(300):
            g = random_spec(rng, max_m=9, max_budget=rng.choice((1, 3, 8)))
            try:
                expected = degree_min_by_rescan(g)
            except GraphDisconnected:
                with pytest.raises(GraphDisconnected):
                    maximum_spanning_tree(g, "degree-min")
            else:
                assert maximum_spanning_tree(g, "degree-min") == tuple(sorted(expected))

    def test_policies_are_deterministic(self):
        rng = random.Random(404)
        for _ in range(20):
            g = random_connected_spec(rng, max_m=5, max_budget=3)
            for policy in ("lex-kruskal", "degree-min"):
                assert maximum_spanning_tree(g, policy) == maximum_spanning_tree(g, policy)

    def test_greedy_trees_equal_the_loop_that_ranks_every_round(self):
        rng = random.Random(411)
        for _ in range(150):
            m, top = rng.randint(2, 10), rng.choice((1, 3, 8))
            pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
            g = NetworkSpec(m, {pair: w for pair in pairs if (w := rng.randint(0, top))})
            for policy in TIE_BREAK_POLICIES:
                trees = [tuple(sorted(edges)) for edges in greedy_spanning_trees(g, policy)]
                assert trees == trees_by_repeated_maximum(g, policy), (g, policy)

    def test_every_greedy_round_equals_its_reference_and_the_residual_ends_disconnected(self):
        rng = random.Random(412)
        graphs = [random_spec(rng, max_m=10, max_budget=rng.choice((1, 3, 8))) for _ in range(60)]
        assert greedy_rounds_checked_against_references(graphs) > 500

    def test_every_greedy_round_in_large_tie_heavy_classes_equals_its_reference(self):
        # budgets 1..3 on m 11..16: few, long weight classes, where degree-min holds
        # back the most addable pairs and rechecks them as its degree bar rises
        rng = random.Random(413)
        graphs = [random_spec(rng, max_m=16, max_budget=3, min_m=11) for _ in range(200)]
        assert greedy_rounds_checked_against_references(graphs) > 3000

    def test_every_greedy_round_on_dense_graphs_of_the_benchmark_size_equals_its_reference(self):
        # m 24..40 with budgets up to 1..8, as group runs of the benchmark have: few, long
        # weight classes, which lex-kruskal's positional debit empties and refills every round
        rng = random.Random(414)
        graphs = [random_spec(rng, max_m=m, max_budget=top, min_m=m) for m, top in ((24, 8), (32, 2), (40, 5))]
        assert greedy_rounds_checked_against_references(graphs) > 150

    def test_greedy_trees_check_the_policy_when_called(self):
        with pytest.raises(ValueError, match="unknown tie-break"):
            greedy_spanning_trees(TRIANGLE, "random")

    @pytest.mark.parametrize("policy", TIE_BREAK_POLICIES)
    def test_greedy_trees_leave_the_graph_unchanged(self, policy):
        # the graph layer reads the caller's budgets dict itself, so neither its
        # entries nor their order may change; the pairs go in in descending order
        k5 = NetworkSpec(5, dict(reversed(NetworkSpec.complete(5, 3).budgets.items())))
        triangle = NetworkSpec(3, {(1, 2): 3, (0, 2): 4, (0, 1): 5})
        for g in (k5, triangle):
            before = list(g.budgets.items())
            trees = [tuple(sorted(edges)) for edges in greedy_spanning_trees(g, policy)]
            assert list(g.budgets.items()) == before and trees == trees_by_repeated_maximum(g, policy)
            for read in (lambda: max_flow(g, 0, 2), lambda: graph_strength(g),
                         lambda: run_group_key(generate_pairwise_keys(g, 1), policy),
                         lambda: run_subgroup(generate_pairwise_keys(g, 1), 0, 2)):
                read()
                assert list(g.budgets.items()) == before
        optimal_tree_packing_bruteforce(triangle)
        assert list(triangle.budgets.items()) == [((1, 2), 3), ((0, 2), 4), ((0, 1), 5)]

    def test_enumeration_counts(self):
        # Cayley: K4 has 16 spanning trees, K5 has 125
        assert sum(1 for _ in enumerate_spanning_trees(NetworkSpec.complete(4, 1))) == 16
        assert sum(1 for _ in enumerate_spanning_trees(NetworkSpec.complete(5, 1))) == 125
        with pytest.raises(InstanceTooLarge):
            next(enumerate_spanning_trees(NetworkSpec.complete(9, 1)))


class TestPartitions:
    def test_counts_for_small_m(self):
        assert sum(1 for _ in enumerate_partitions(3)) == 4
        assert sum(1 for _ in enumerate_partitions(4)) == 14

    def test_counts_are_the_bell_numbers_less_one(self):
        # Bell(1..9); the one-block partition is not enumerated
        for m, bell in enumerate([1, 2, 5, 15, 52, 203, 877, 4140, 21147], start=1):
            assert sum(1 for _ in enumerate_partitions(m)) == bell - 1

    def test_order_is_that_of_a_recursive_restricted_growth_walk(self):
        for m in range(1, 7):
            expected = [Partition(blocks) for blocks in restricted_growth_partitions(m)]
            assert list(enumerate_partitions(m)) == expected

    def test_guard(self):
        with pytest.raises(InstanceTooLarge):
            next(enumerate_partitions(13))

    def test_partition_validation_and_order(self):
        p = Partition((frozenset({2}), frozenset({0, 1})))
        assert str(p) == "{0,1}|{2}"
        assert p.k == 2 and sum(map(len, p.blocks)) == 3
        with pytest.raises(ValueError):
            Partition((frozenset({0}), frozenset({0, 1})))
        with pytest.raises(ValueError):
            Partition((frozenset({0}), frozenset({2})))

    @pytest.mark.parametrize("node", [True, False, 1.0, 0.0, "1", None], ids=repr)
    def test_a_node_that_is_no_int_is_refused(self, node):
        # [0, True] == [0, 1], so True once passed for node 1 and printed {0}|{True}
        for blocks in ((frozenset({node}), frozenset({0})), (frozenset({2, node}),), (frozenset({node}),)):
            with pytest.raises(ValueError, match="^nodes must be ints$"):
                Partition(blocks)


class TestNormalizedMulticut:
    def test_triangle_minimum_is_all_singletons(self):
        value, witness = min_normalized_multicut(TRIANGLE)
        assert value == Fraction(6)
        assert str(witness) == "{0}|{1}|{2}"

    def test_uniform_complete_graphs(self):
        assert min_normalized_multicut(NetworkSpec.complete(4, 1))[0] == Fraction(2)
        assert min_normalized_multicut(NetworkSpec.complete(4, 2))[0] == Fraction(4)
        assert min_normalized_multicut(NetworkSpec.complete(5, 2))[0] == Fraction(5)

    def test_fractional_value(self):
        value, _ = min_normalized_multicut(NetworkSpec.complete(3, 1))
        assert value == Fraction(3, 2)

    def test_witness_attains_value(self):
        rng = random.Random(405)
        for _ in range(40):
            g = random_spec(rng, max_m=5)
            value, witness = min_normalized_multicut(g)
            assert witness.normalized_weight(g) == value

    def test_scores_each_partition_as_its_blocks_do(self):
        # the incremental crossing weights, compared by cross-multiplication, pick the value and
        # the first witness that scoring each Partition of the recursive reference walk picks
        rng = random.Random(409)
        for _ in range(40):
            g = random_spec(rng, max_m=6, max_budget=rng.choice((1, 2, 8)))
            partitions = map(Partition, restricted_growth_partitions(g.m))
            scored = [(p.normalized_weight(g), k, p) for k, p in enumerate(partitions)]
            value, _, witness = min(scored, key=lambda entry: entry[:2])
            assert min_normalized_multicut(g) == (value, witness)

    def test_never_exceeds_its_own_two_block_and_singleton_relaxations(self):
        rng = random.Random(406)
        for _ in range(40):
            g = random_spec(rng, max_m=6)
            value, _ = min_normalized_multicut(g)
            two_block = min(
                p.normalized_weight(g) for p in enumerate_partitions(g.m) if p.k == 2
            )
            assert value <= two_block
            assert value <= Fraction(g.total_budget(), g.m - 1)


class TestGraphStrength:
    def test_equals_enumeration_on_random_graphs(self):
        # max_budget=1 gives unit weights: many ties and many disconnected graphs
        rng = random.Random(407)
        graphs = [NetworkSpec(2), NetworkSpec(2, {(0, 1): 3})]
        graphs += [random_spec(rng, max_m=9, max_budget=rng.choice((1, 2, 8))) for _ in range(80)]
        assert any(not is_connected(g) for g in graphs)
        for g in graphs:
            value, witness = graph_strength(g)
            assert value == min_normalized_multicut(g)[0]
            assert witness.normalized_weight(g) == value

    def test_witness_refines_every_tied_partition(self):
        rng = random.Random(408)
        for _ in range(60):
            g = random_spec(rng, max_m=6, max_budget=rng.choice((1, 2)))
            value, witness = graph_strength(g)
            where = witness.block_index()
            for partition in enumerate_partitions(g.m):
                if partition.normalized_weight(g) == value:
                    block = partition.block_index()
                    assert all(block[u] == block[v] for u in range(g.m) for v in range(g.m)
                               if where[u] == where[v]), (g, witness, partition)

    def test_singletons_witness_a_uniform_complete_graph(self):
        value, witness = graph_strength(NetworkSpec.complete(4, 1))
        assert value == 2 and str(witness) == "{0}|{1}|{2}|{3}"

    def test_closed_forms_past_the_enumeration_guard(self):
        for m in (13, 16, 40):
            assert graph_strength(NetworkSpec.complete(m, 3))[0] == Fraction(3 * m, 2)
            cycle = NetworkSpec.from_pairs(m, [(i, (i + 1) % m, 1) for i in range(m)])
            assert graph_strength(cycle) == (Fraction(m, m - 1), Partition(
                tuple(frozenset((v,)) for v in range(m))))
            # leaf budgets 5..15, so the poorest leaf recurs from m = 13 on;
            # the finest witness isolates every poorest leaf
            leaves = [5 + (7 * i) % 11 for i in range(m - 1)]
            star = NetworkSpec.star(leaves)
            poorest = frozenset(i + 1 for i, b in enumerate(leaves) if b == min(leaves))
            assert graph_strength(star) == (Fraction(min(leaves)), Partition(
                (frozenset(range(m)) - poorest, *(frozenset((v,)) for v in poorest))))

    def test_a_step_that_raises_the_ratio_is_an_invariant_violation(self, monkeypatch):
        # Newton starts the triangle at W / 2 = 6; a step to {0}|{1,2}, of ratio 9, must not be taken
        step = Partition((frozenset({0}), frozenset({1, 2})))
        monkeypatch.setattr(pinkey.graph, "_min_penalized_partition", lambda spec, ratio: step)
        with pytest.raises(InvariantViolation, match="raised the ratio"):
            graph_strength(TRIANGLE)

    @pytest.mark.parametrize("m,p,seed,value,isolated", [
        (64, 0.3, 3, Fraction(641, 21), range(64)),
        (128, 0.1, 3, Fraction(13), (33, 116)),
        (128, 0.1, 4, Fraction(12), (105,)),
    ])
    def test_sparse_graphs_past_the_enumeration_guard(self, m, p, seed, value, isolated):
        # the m = 128 graphs start Newton at their least weighted degree, which is the
        # strength; the finest witness isolates every node of that degree
        g = sparse_spec(m, p, seed)
        rest = frozenset(range(m)).difference(isolated)
        witness = Partition(tuple(frozenset((v,)) for v in isolated) + ((rest,) if rest else ()))
        assert graph_strength(g) == (value, witness)
        assert witness.normalized_weight(g) == value


class TestTreePacking:
    def test_known_optima(self):
        assert optimal_tree_packing_bruteforce(TRIANGLE) == 6
        assert optimal_tree_packing_bruteforce(NetworkSpec.complete(4, 1)) == 2
        assert optimal_tree_packing_bruteforce(NetworkSpec.complete(5, 2)) == 5

    def test_disconnected_packs_nothing(self):
        assert optimal_tree_packing_bruteforce(NetworkSpec(3, {(0, 1): 9})) == 0

    def test_guards(self):
        with pytest.raises(InstanceTooLarge):
            optimal_tree_packing_bruteforce(NetworkSpec.complete(7, 1))
        with pytest.raises(InstanceTooLarge):
            optimal_tree_packing_bruteforce(NetworkSpec(2, {(0, 1): 25}))

    def test_packing_never_beats_the_partition_bound(self):
        rng = random.Random(407)
        for _ in range(40):
            g = random_spec(rng, max_m=4, max_budget=3)
            if g.total_budget() > 24:
                continue
            packed = optimal_tree_packing_bruteforce(g)
            bound, _ = min_normalized_multicut(g)
            assert packed <= bound
