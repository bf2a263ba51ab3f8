"""Graph algorithms against their exhaustive oracles."""

from __future__ import annotations

import random
from collections import deque
from fractions import Fraction

import pytest

from pinkey import (
    TIE_BREAK_POLICIES,
    Partition,
    SpanningTree,
    WeightedGraph,
    enumerate_partitions,
    enumerate_spanning_trees,
    graph_strength,
    greedy_spanning_trees,
    is_connected,
    max_flow,
    maximum_spanning_tree,
    min_normalized_multicut,
    min_st_cut,
    min_st_cut_bruteforce,
    optimal_tree_packing_bruteforce,
)
import pinkey.graph
from pinkey.errors import GraphDisconnected, InstanceTooLarge, InvariantViolation

from helpers import random_connected_spec, random_spec
from pinkey import budget_graph

TRIANGLE = WeightedGraph(3, {(0, 1): 5, (0, 2): 4, (1, 2): 3})


def complete_graph(m: int, w: int) -> WeightedGraph:
    return WeightedGraph(m, {(i, j): w for i in range(m) for j in range(i + 1, m)})


def random_graph(rng: random.Random, max_m: int = 6, max_w: int = 8) -> WeightedGraph:
    return budget_graph(random_spec(rng, max_m=max_m, max_budget=max_w))


def bfs_connected(g: WeightedGraph) -> bool:
    """Reference connectivity: breadth-first search from node 0."""
    adjacency: dict[int, list[int]] = {v: [] for v in range(g.m)}
    for i, j, _ in g.edges():
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


def degree_min_by_rescan(g: WeightedGraph) -> SpanningTree:
    """Reference degree-min: rescan every edge for each pick.

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
        addable = [(i, j, w) for i, j, w in g.edges() if find(i) != find(j)]
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
    return SpanningTree(tuple(chosen))


def lex_kruskal_reference(g: WeightedGraph) -> SpanningTree:
    """Reference lex-kruskal: edges by (weight desc, pair), each one that joins two components."""
    parent = list(range(g.m))

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    chosen = []
    for i, j, _ in sorted(g.edges(), key=lambda e: (-e[2], e[0], e[1])):
        if find(i) != find(j):
            parent[find(j)] = find(i)
            chosen.append((i, j))
    if len(chosen) < g.m - 1:
        raise GraphDisconnected("graph has no spanning tree")
    return SpanningTree(tuple(chosen))


def debit(g: WeightedGraph, tree: SpanningTree) -> None:
    for i, j in tree.edges:
        g.set_weight(i, j, g.weight(i, j) - 1)


def trees_by_repeated_maximum(g: WeightedGraph, policy: str) -> list[SpanningTree]:
    """The tree loop without a kept edge index: a fresh maximum spanning tree of
    the residual weights each round, then a debit of its edges."""
    g = g.copy()
    trees = []
    while True:
        try:
            trees.append(maximum_spanning_tree(g, policy))
        except GraphDisconnected:
            return trees
        if not trees[-1].edges:  # one node: the empty tree would repeat forever
            return trees
        debit(g, trees[-1])


class TestWeightedGraph:
    def test_zero_weight_removes_edge(self):
        g = WeightedGraph(3, {(0, 1): 2})
        g.set_weight(0, 1, 0)
        assert g.edge_count() == 0 and g.weight(0, 1) == 0

    def test_rejects_self_loops_and_bad_nodes(self):
        g = WeightedGraph(3)
        with pytest.raises(ValueError):
            g.set_weight(1, 1, 2)
        with pytest.raises(ValueError):
            g.set_weight(0, 3, 2)
        with pytest.raises(ValueError):
            g.set_weight(0, 1, -1)

    def test_neighbors_and_totals(self):
        assert TRIANGLE.total_weight() == 12
        assert TRIANGLE.copy().edges() == TRIANGLE.edges()


class TestConnectivity:
    def test_triangle_is_connected(self):
        assert is_connected(TRIANGLE)

    def test_missing_node_is_disconnected(self):
        assert not is_connected(WeightedGraph(3, {(0, 1): 1}))

    def test_k4_minus_star_edges_is_disconnected(self):
        g = complete_graph(4, 1)
        for leaf in (1, 2, 3):
            g.set_weight(0, leaf, 0)
        assert not is_connected(g)

    def test_equals_breadth_first_search(self):
        # sparse random graphs with m 1..9, so isolated nodes are common
        rng = random.Random(408)
        graphs = [WeightedGraph(1)]
        for _ in range(300):
            m = rng.randint(1, 9)
            p = rng.choice((0.1, 0.3, 0.6))
            graphs.append(WeightedGraph(m, {(i, j): 1 for i in range(m) for j in range(i + 1, m)
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
        g = WeightedGraph(2, {(0, 1): 5})
        fa = max_flow(g, 0, 1)
        assert fa.value == 5 and fa.paths == (((0, 1), 5),)

    def test_disconnected_terminals(self):
        g = WeightedGraph(3, {(0, 1): 4})
        fa = max_flow(g, 0, 2)
        assert fa.value == 0 and fa.paths == () and fa.flows == {}

    def test_rejects_equal_terminals(self):
        with pytest.raises(ValueError):
            max_flow(TRIANGLE, 1, 1)

    def test_flow_invariants_on_random_graphs(self):
        rng = random.Random(401)
        for _ in range(100):
            g = random_graph(rng)
            nodes = range(g.m)
            s, t = rng.sample(nodes, 2)
            fa = max_flow(g, s, t)
            # agrees with exhaustive cut enumeration
            assert fa.value == min_st_cut_bruteforce(g, s, t).value
            # per-pair flow within capacity, one direction only
            for (u, v), f in fa.flows.items():
                assert 0 < f <= g.weight(u, v)
                assert (v, u) not in fa.flows
            # conservation at every relay node
            for n in nodes:
                inflow = sum(f for (u, v), f in fa.flows.items() if v == n)
                outflow = sum(f for (u, v), f in fa.flows.items() if u == n)
                if n == s:
                    assert outflow - inflow == fa.value
                elif n == t:
                    assert inflow - outflow == fa.value
                else:
                    assert inflow == outflow
            # decomposition re-sums to the per-edge flows
            resum: dict[tuple[int, int], int] = {}
            for path, amount in fa.paths:
                assert path[0] == s and path[-1] == t
                assert len(set(path)) == len(path)
                for hop in zip(path, path[1:]):
                    resum[hop] = resum.get(hop, 0) + amount
            assert resum == fa.flows
            assert sum(a for _, a in fa.paths) == fa.value


class TestMinCut:
    def test_fast_and_bruteforce_agree_with_witnesses(self):
        rng = random.Random(402)
        for _ in range(60):
            g = random_graph(rng)
            s, t = rng.sample(range(g.m), 2)
            fast = min_st_cut(g, s, t)
            brute = min_st_cut_bruteforce(g, s, t)
            assert fast.value == brute.value
            for cut in (fast, brute):
                assert s in cut.source_side and t not in cut.source_side
                crossing = sum(
                    w for i, j, w in g.edges() if (i in cut.source_side) != (j in cut.source_side)
                )
                assert crossing == cut.value

    def test_single_edge_cut(self):
        g = WeightedGraph(2, {(0, 1): 5})
        assert min_st_cut_bruteforce(g, 0, 1).value == 5

    def test_guard(self):
        with pytest.raises(InstanceTooLarge):
            min_st_cut_bruteforce(WeightedGraph(21), 0, 1)

    def test_wrong_flow_value_is_an_invariant_violation(self, monkeypatch):
        real_kernel = pinkey.graph._edmonds_karp
        monkeypatch.setattr(pinkey.graph, "_edmonds_karp", lambda *args: real_kernel(*args) + 1)
        with pytest.raises(InvariantViolation, match="residual cut"):
            min_st_cut(TRIANGLE, 0, 2)
        with pytest.raises(InvariantViolation, match="flow paths"):
            max_flow(TRIANGLE, 0, 2)


class TestSpanningTrees:
    def test_triangle_maximum_tree(self):
        tree = maximum_spanning_tree(TRIANGLE)
        assert tree.edges == ((0, 1), (0, 2))
        assert tree.weight(TRIANGLE) == 9

    def test_tree_input_returns_itself(self):
        g = WeightedGraph(4, {(0, 1): 3, (1, 2): 1, (1, 3): 7})
        assert maximum_spanning_tree(g).edges == ((0, 1), (1, 2), (1, 3))

    def test_disconnected_raises(self):
        for g in (WeightedGraph(3, {(0, 1): 1}), WeightedGraph(2)):
            for policy in TIE_BREAK_POLICIES:
                with pytest.raises(GraphDisconnected):
                    maximum_spanning_tree(g, policy)

    @pytest.mark.parametrize("policy", TIE_BREAK_POLICIES)
    def test_single_node_gives_the_empty_tree(self, policy):
        assert maximum_spanning_tree(WeightedGraph(1), policy) == SpanningTree(())

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            maximum_spanning_tree(TRIANGLE, "random")

    def test_degree_min_on_uniform_k4_is_a_path(self):
        tree = maximum_spanning_tree(complete_graph(4, 1), "degree-min")
        assert tree.max_degree() == 2
        assert tree.edges == ((0, 1), (0, 2), (2, 3))

    def test_lex_kruskal_on_uniform_k4_is_the_star(self):
        tree = maximum_spanning_tree(complete_graph(4, 1), "lex-kruskal")
        assert tree.edges == ((0, 1), (0, 2), (0, 3))

    def test_both_policies_reach_maximum_weight(self):
        rng = random.Random(403)
        graphs = [budget_graph(random_connected_spec(rng, max_m=6, max_budget=5)) for _ in range(60)]
        # many ties: weights 1..3 on about half the pairs, which keeps m=8 enumerable
        rng = random.Random(409)
        while len(graphs) < 120:
            m = rng.randint(2, 8)
            g = WeightedGraph(m, {(i, j): rng.randint(1, 3) for i in range(m) for j in range(i + 1, m)
                                  if rng.random() < 0.5})
            if is_connected(g):
                graphs.append(g)
        for g in graphs:
            best = max(t.weight(g) for t in enumerate_spanning_trees(g))
            for policy in TIE_BREAK_POLICIES:
                assert maximum_spanning_tree(g, policy).weight(g) == best

    def test_degree_min_equals_the_per_pick_rescan(self):
        # disconnected graphs included: both must raise
        rng = random.Random(410)
        for _ in range(300):
            g = random_graph(rng, max_m=9, max_w=rng.choice((1, 3, 8)))
            try:
                expected = degree_min_by_rescan(g)
            except GraphDisconnected:
                with pytest.raises(GraphDisconnected):
                    maximum_spanning_tree(g, "degree-min")
            else:
                assert maximum_spanning_tree(g, "degree-min") == expected

    def test_policies_are_deterministic(self):
        rng = random.Random(404)
        for _ in range(20):
            g = budget_graph(random_connected_spec(rng, max_m=5, max_budget=3))
            for policy in ("lex-kruskal", "degree-min"):
                assert maximum_spanning_tree(g, policy) == maximum_spanning_tree(g, policy)

    def test_greedy_trees_equal_the_loop_that_ranks_every_round(self):
        rng = random.Random(411)
        for _ in range(150):
            m, top = rng.randint(1, 10), rng.choice((1, 3, 8))
            pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
            g = WeightedGraph(m, {pair: w for pair in pairs if (w := rng.randint(0, top))})
            for policy in TIE_BREAK_POLICIES:
                trees = list(greedy_spanning_trees(g, policy))
                assert trees == trees_by_repeated_maximum(g, policy), (g, policy)

    def test_every_greedy_round_equals_its_reference_and_the_residual_ends_disconnected(self):
        rng = random.Random(412)
        references = {"lex-kruskal": lex_kruskal_reference, "degree-min": degree_min_by_rescan}
        rounds = 0
        for _ in range(60):
            g = random_graph(rng, max_m=10, max_w=rng.choice((1, 3, 8)))
            for policy, reference in references.items():
                residual = g.copy()
                for tree in greedy_spanning_trees(g, policy):
                    assert tree == reference(residual), (g, policy)
                    debit(residual, tree)
                    rounds += 1
                assert not bfs_connected(residual)
                with pytest.raises(GraphDisconnected):
                    reference(residual)
        assert rounds > 500

    def test_greedy_trees_check_the_policy_when_called(self):
        with pytest.raises(ValueError, match="unknown tie-break"):
            greedy_spanning_trees(TRIANGLE, "random")

    @pytest.mark.parametrize("policy", TIE_BREAK_POLICIES)
    def test_greedy_trees_on_one_node_stop_after_the_empty_tree(self, policy):
        assert list(greedy_spanning_trees(WeightedGraph(1), policy)) == [SpanningTree(())]

    @pytest.mark.parametrize("policy", TIE_BREAK_POLICIES)
    def test_greedy_trees_leave_the_graph_unchanged(self, policy):
        g = complete_graph(5, 3)
        before = repr(g)
        trees = list(greedy_spanning_trees(g, policy))
        assert repr(g) == before and trees == trees_by_repeated_maximum(g, policy)

    def test_spanning_tree_validation(self):
        with pytest.raises(ValueError):
            SpanningTree(((0, 1), (0, 1)))
        with pytest.raises(ValueError):
            SpanningTree(((0, 1), (0, 2), (1, 2)))  # cycle, misses node 3
        tree = SpanningTree(((2, 3), (0, 1), (1, 2)))
        assert tree.edges == ((0, 1), (1, 2), (2, 3))
        assert tree.m == 4

    def test_enumeration_counts(self):
        # Cayley: K4 has 16 spanning trees, K5 has 125
        assert sum(1 for _ in enumerate_spanning_trees(complete_graph(4, 1))) == 16
        assert sum(1 for _ in enumerate_spanning_trees(complete_graph(5, 1))) == 125
        with pytest.raises(InstanceTooLarge):
            next(enumerate_spanning_trees(complete_graph(9, 1)))


class TestPartitions:
    def test_counts_for_small_m(self):
        assert sum(1 for _ in enumerate_partitions(3)) == 4
        assert sum(1 for _ in enumerate_partitions(4)) == 14

    def test_guard(self):
        with pytest.raises(InstanceTooLarge):
            next(enumerate_partitions(13))

    def test_partition_validation_and_order(self):
        p = Partition((frozenset({2}), frozenset({0, 1})))
        assert str(p) == "{0,1}|{2}"
        assert p.k == 2 and p.m == 3
        with pytest.raises(ValueError):
            Partition((frozenset({0}), frozenset({0, 1})))
        with pytest.raises(ValueError):
            Partition((frozenset({0}), frozenset({2})))


class TestNormalizedMulticut:
    def test_triangle_minimum_is_all_singletons(self):
        value, witness = min_normalized_multicut(TRIANGLE)
        assert value == Fraction(6)
        assert str(witness) == "{0}|{1}|{2}"

    def test_uniform_complete_graphs(self):
        assert min_normalized_multicut(complete_graph(4, 1))[0] == Fraction(2)
        assert min_normalized_multicut(complete_graph(4, 2))[0] == Fraction(4)
        assert min_normalized_multicut(complete_graph(5, 2))[0] == Fraction(5)

    def test_fractional_value(self):
        value, _ = min_normalized_multicut(complete_graph(3, 1))
        assert value == Fraction(3, 2)

    def test_witness_attains_value(self):
        rng = random.Random(405)
        for _ in range(40):
            g = random_graph(rng, max_m=5)
            value, witness = min_normalized_multicut(g)
            assert witness.normalized_weight(g) == value

    def test_never_exceeds_its_own_two_block_and_singleton_relaxations(self):
        rng = random.Random(406)
        for _ in range(40):
            g = random_graph(rng, max_m=6)
            value, _ = min_normalized_multicut(g)
            two_block = min(
                p.normalized_weight(g) for p in enumerate_partitions(g.m) if p.k == 2
            )
            assert value <= two_block
            assert value <= Fraction(g.total_weight(), g.m - 1)


class TestGraphStrength:
    def test_equals_enumeration_on_random_graphs(self):
        # max_w=1 gives unit weights: many ties and many disconnected graphs
        rng = random.Random(407)
        graphs = [WeightedGraph(2), WeightedGraph(2, {(0, 1): 3})]
        graphs += [random_graph(rng, max_m=8, max_w=rng.choice((1, 2, 8))) for _ in range(80)]
        assert any(not is_connected(g) for g in graphs)
        for g in graphs:
            value, witness = graph_strength(g)
            assert value == min_normalized_multicut(g)[0]
            assert witness.normalized_weight(g) == value

    def test_witness_refines_every_tied_partition(self):
        rng = random.Random(408)
        for _ in range(60):
            g = random_graph(rng, max_m=6, max_w=rng.choice((1, 2)))
            value, witness = graph_strength(g)
            where = witness.block_index()
            for partition in enumerate_partitions(g.m):
                if partition.normalized_weight(g) == value:
                    block = partition.block_index()
                    assert all(block[u] == block[v] for u in range(g.m) for v in range(g.m)
                               if where[u] == where[v]), (g, witness, partition)

    def test_singletons_witness_a_uniform_complete_graph(self):
        value, witness = graph_strength(complete_graph(4, 1))
        assert value == 2 and str(witness) == "{0}|{1}|{2}|{3}"

    def test_closed_forms_past_the_enumeration_guard(self):
        for m in (13, 16, 40):
            assert graph_strength(complete_graph(m, 3))[0] == Fraction(3 * m, 2)
            cycle = WeightedGraph(m, {(i, (i + 1) % m): 1 for i in range(m)})
            assert graph_strength(cycle) == (Fraction(m, m - 1), Partition(
                tuple(frozenset((v,)) for v in range(m))))
            # leaf budgets 5..15, so the poorest leaf recurs from m = 13 on;
            # the finest witness isolates every poorest leaf
            leaves = [5 + (7 * i) % 11 for i in range(m - 1)]
            star = WeightedGraph(m, {(0, i + 1): b for i, b in enumerate(leaves)})
            poorest = frozenset(i + 1 for i, b in enumerate(leaves) if b == min(leaves))
            assert graph_strength(star) == (Fraction(min(leaves)), Partition(
                (frozenset(range(m)) - poorest, *(frozenset((v,)) for v in poorest))))

    def test_needs_two_nodes(self):
        with pytest.raises(ValueError):
            graph_strength(WeightedGraph(1))


class TestTreePacking:
    def test_known_optima(self):
        assert optimal_tree_packing_bruteforce(TRIANGLE) == 6
        assert optimal_tree_packing_bruteforce(complete_graph(4, 1)) == 2
        assert optimal_tree_packing_bruteforce(complete_graph(5, 2)) == 5

    def test_disconnected_packs_nothing(self):
        assert optimal_tree_packing_bruteforce(WeightedGraph(3, {(0, 1): 9})) == 0

    def test_guards(self):
        with pytest.raises(InstanceTooLarge):
            optimal_tree_packing_bruteforce(complete_graph(7, 1))
        with pytest.raises(InstanceTooLarge):
            optimal_tree_packing_bruteforce(WeightedGraph(2, {(0, 1): 25}))

    def test_packing_never_beats_the_partition_bound(self):
        rng = random.Random(407)
        for _ in range(40):
            g = random_graph(rng, max_m=4, max_w=3)
            if g.total_weight() > 24:
                continue
            packed = optimal_tree_packing_bruteforce(g)
            bound, _ = min_normalized_multicut(g)
            assert packed <= bound
