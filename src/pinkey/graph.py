"""Weighted-graph machinery: flows, cuts, strength, spanning trees, partitions.

The graph here is a `NetworkSpec`: terminals are its nodes and the pair
budgets its undirected positive integer weights.  A pairwise key is one
budget usable in either direction, so directed capacities collapse onto a
single weight per pair, and zero-budget pairs are simply absent.  Nothing
here changes a spec's budgets.  Every max flow, including the min cuts
behind graph strength, runs on one Edmonds-Karp kernel.

The exhaustive operations (cut enumeration, partition enumeration, tree
packing) are oracles for testing the fast paths and for measuring how far
the greedy protocols sit from optimal.  Each is protected by a hard
instance-size guard and raises InstanceTooLarge beyond it rather than
silently truncating.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, insort
from collections import Counter, deque
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from fractions import Fraction

from .errors import GraphDisconnected, InstanceTooLarge, invariant
from .model import NetworkSpec, Pair

CUT_ENUM_NODE_LIMIT = 20        # min_st_cut_bruteforce enumerates 2**(m-2) sides
PARTITION_NODE_LIMIT = 12       # Bell(12) is ~4.2e6, the practical ceiling
TREE_ENUM_NODE_LIMIT = 8        # spanning-tree enumeration scans C(E, m-1) subsets
PACKING_NODE_LIMIT = 6          # tree-packing search space explodes past this
PACKING_WEIGHT_LIMIT = 24

TIE_BREAK_POLICIES = ("lex-kruskal", "degree-min")


def is_connected(spec: NetworkSpec) -> bool:
    """True iff every node is reachable from node 0 over positive edges."""
    uf = _UnionFind(spec.m)
    return sum(uf.union(i, j) for i, j in spec.budgets) == spec.m - 1


# --- partitions ---------------------------------------------------------


@dataclass(frozen=True)
class Partition:
    """A partition of the node set [0, m) into disjoint nonempty blocks.

    Blocks are canonically ordered by their smallest element, so equal
    partitions compare and print identically.
    """

    blocks: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        if not self.blocks or any(not b for b in self.blocks):
            raise ValueError("blocks must be nonempty")
        nodes = sorted(n for b in self.blocks for n in b)
        if len(nodes) != len(set(nodes)):
            raise ValueError("blocks must be disjoint")
        if nodes != list(range(len(nodes))):
            raise ValueError(f"blocks must cover 0..{len(nodes) - 1} exactly")
        ordered = tuple(sorted(self.blocks, key=min))
        object.__setattr__(self, "blocks", ordered)

    @property
    def k(self) -> int:
        return len(self.blocks)

    def block_index(self) -> dict[int, int]:
        out = {}
        for t, block in enumerate(self.blocks):
            for node in block:
                out[node] = t
        return out

    def crossing_weight(self, spec: NetworkSpec) -> int:
        """Total weight of edges whose endpoints lie in different blocks."""
        where = self.block_index()
        return sum(w for (i, j), w in spec.budgets.items() if where[i] != where[j])

    def normalized_weight(self, spec: NetworkSpec) -> Fraction:
        """Crossing weight divided by k - 1; needs at least two blocks."""
        if self.k < 2:
            raise ValueError("normalized weight needs k >= 2 blocks")
        return Fraction(self.crossing_weight(spec), self.k - 1)

    def __str__(self) -> str:
        return "|".join("{" + ",".join(str(n) for n in sorted(b)) + "}" for b in self.blocks)


def enumerate_partitions(m: int):
    """Yield every partition of [0, m) with k >= 2 blocks.

    Enumeration is by restricted growth strings, so the order is
    deterministic.  Hard guard: m <= 12.
    """
    if m > PARTITION_NODE_LIMIT:
        raise InstanceTooLarge(f"partition enumeration is limited to m <= {PARTITION_NODE_LIMIT}, got {m}")
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")

    code = [0] * m

    def extend(pos: int, top: int):
        if pos == m:
            yield tuple(code)
            return
        for value in range(top + 2):
            code[pos] = value
            yield from extend(pos + 1, max(top, value))

    for rgs in extend(1, 0):
        k = max(rgs) + 1
        if k < 2:
            continue
        blocks = [set() for _ in range(k)]
        for node, which in enumerate(rgs):
            blocks[which].add(node)
        yield Partition(tuple(frozenset(b) for b in blocks))


def min_normalized_multicut(spec: NetworkSpec) -> tuple[Fraction, Partition]:
    """Minimize crossing_weight / (k - 1) over partitions with k >= 2 blocks, exactly.

    Returns the exact rational minimum and the first partition attaining
    it in enumeration order.  Hard guard: m <= 12.
    """
    best: Fraction | None = None
    witness: Partition | None = None
    for partition in enumerate_partitions(spec.m):
        value = partition.normalized_weight(spec)
        if best is None or value < best:
            best, witness = value, partition
    if best is None or witness is None:
        raise ValueError(f"no qualifying partition of m={spec.m} nodes")
    return best, witness


# --- flows and cuts -----------------------------------------------------


@dataclass(frozen=True)
class FlowAssignment:
    """An integral s-t flow: its value, its path decomposition, and a minimum cut.

    paths is a tuple of (node tuple, amount) entries sorted
    lexicographically; their amounts sum to value, and their per-pair sums
    are the flow, which uses at most one direction of each pair.  cut is
    the minimum cut read off the residual graph, of weight value, as the
    2-block partition of s's residual side and the rest.
    """

    value: int
    paths: tuple[tuple[tuple[int, ...], int], ...]
    cut: Partition


def _undirected_capacities(spec: NetworkSpec) -> dict[int, dict[int, int]]:
    # Residual capacities start at the full weight in both directions;
    # pushing f along u->v moves capacity from (u,v) to (v,u), which is
    # the standard undirected-edge treatment.
    cap: dict[int, dict[int, int]] = {u: {} for u in range(spec.m)}
    for (i, j), w in spec.budgets.items():
        cap[i][j] = w
        cap[j][i] = w
    return cap


def _edmonds_karp(cap: dict[int, dict[int, int]], s: int, t: int) -> int:
    """Augment the residual table ``cap`` to a maximum s-t flow; return its value.

    ``cap[u][v]`` is the residual capacity of arc u->v, and every arc
    needs its reverse entry (zero for a one-way arc).  Neighbours are
    scanned in ascending order, which fixes the flow found and so the
    path decomposition that subgroup transcripts follow.
    """
    order = {u: sorted(arcs) for u, arcs in cap.items()}
    value = 0
    while True:
        parent = _reach(cap, order, s, t)
        if t not in parent:
            return value
        bottleneck = None
        node = t
        while parent[node] is not None:
            prev = parent[node]
            c = cap[prev][node]
            bottleneck = c if bottleneck is None else min(bottleneck, c)
            node = prev
        invariant(bottleneck is not None and bottleneck > 0, "augmenting path has no capacity")
        node = t
        while parent[node] is not None:
            prev = parent[node]
            cap[prev][node] -= bottleneck
            cap[node][prev] += bottleneck
            node = prev
        value += bottleneck


def _reach(
    cap: dict[int, dict[int, int]], order: dict[int, Iterable[int]], s: int, t: int | None = None
) -> dict[int, int | None]:
    """Breadth-first parents from s over arcs with ``cap[u][v] > 0``, scanning
    each node's neighbours in ``order``, until t is reached."""
    parent: dict[int, int | None] = {s: None}
    queue = deque([s])
    while queue and t not in parent:
        u = queue.popleft()
        for v in order.get(u, ()):
            if v not in parent and cap[u][v] > 0:
                parent[v] = u
                queue.append(v)
    return parent


def _decompose(
    flows: dict[tuple[int, int], int], s: int, t: int
) -> tuple[tuple[tuple[int, ...], int], ...]:
    remaining: dict[int, dict[int, int]] = {}
    for (u, v), f in flows.items():
        remaining.setdefault(u, {})[v] = f
    order = {u: sorted(arcs) for u, arcs in remaining.items()}
    paths = []
    while t in (parent := _reach(remaining, order, s, t)):
        path = [t]
        while parent[path[-1]] is not None:
            path.append(parent[path[-1]])  # type: ignore[arg-type]
        path.reverse()
        hops = list(zip(path, path[1:]))
        amount = min(remaining[u][v] for u, v in hops)
        for u, v in hops:
            remaining[u][v] -= amount
        paths.append((tuple(path), amount))
    return tuple(sorted(paths))


def max_flow(spec: NetworkSpec, s: int, t: int) -> FlowAssignment:
    """Maximum s-t flow with an exact integral path decomposition.

    The decomposition follows the s-t paths of the net flow, so any
    cyclic slack the augmenting search produced is left out of it.
    """
    _check_terminals(spec, s, t)
    cap = _undirected_capacities(spec)
    value = _edmonds_karp(cap, s, t)
    net: dict[tuple[int, int], int] = {}
    for i, j in spec.budgets:
        x = (cap[j][i] - cap[i][j]) // 2
        if x > 0:
            net[(i, j)] = x
        elif x < 0:
            net[(j, i)] = -x
    paths = _decompose(net, s, t)
    invariant(sum(amount for _, amount in paths) == value, "flow paths do not add up to the flow value")
    return FlowAssignment(value=value, paths=paths, cut=_residual_cut(spec, cap, s, value))


def _check_terminals(spec: NetworkSpec, s: int, t: int) -> None:
    if s == t:
        raise ValueError("source and sink must differ")
    for node in (s, t):
        if not (0 <= node < spec.m):
            raise ValueError(f"terminal {node} out of range for m={spec.m}")


def _residual_cut(spec: NetworkSpec, cap: dict[int, dict[int, int]], s: int, value: int) -> Partition:
    """The cut around what s reaches in the residual table of a flow of ``value``."""
    cut = _cut(spec, _reach(cap, cap, s))  # around the smallest min-cut side
    invariant(cut.crossing_weight(spec) == value, "residual cut does not match the flow value")
    return cut


def _cut(spec: NetworkSpec, side: Iterable[int]) -> Partition:
    """The 2-block partition of a source side and the rest."""
    side = frozenset(side)
    return Partition((side, frozenset(range(spec.m)) - side))


def min_st_cut_bruteforce(spec: NetworkSpec, s: int, t: int) -> tuple[int, Partition]:
    """Minimum s-t cut by enumerating all 2**(m-2) source sides.

    Oracle for max_flow; returns the cut's weight and the first minimizer
    in enumeration order, as the partition of its source side and the
    rest.  Raises ValueError unless s and t are two distinct terminals,
    at any m; hard guard: m <= 20.
    """
    _check_terminals(spec, s, t)
    if spec.m > CUT_ENUM_NODE_LIMIT:
        raise InstanceTooLarge(f"cut enumeration is limited to m <= {CUT_ENUM_NODE_LIMIT}, got {spec.m}")
    others = [v for v in range(spec.m) if v not in (s, t)]
    edges = spec.budgets.items()
    best_value: int | None = None
    best_side: frozenset[int] | None = None
    for mask in range(1 << len(others)):
        side = {s} | {others[b] for b in range(len(others)) if (mask >> b) & 1}
        crossing = sum(w for (i, j), w in edges if (i in side) != (j in side))
        if best_value is None or crossing < best_value:
            best_value = crossing
            best_side = frozenset(side)
    assert best_value is not None and best_side is not None
    return best_value, _cut(spec, best_side)


# --- strength -----------------------------------------------------------


def graph_strength(spec: NetworkSpec) -> tuple[Fraction, Partition]:
    """Minimize crossing_weight / (k - 1) over partitions with k >= 2 blocks, exactly.

    The same minimum as min_normalized_multicut, in polynomial time
    (Cunningham, "Optimal attack and reinforcement of a network", JACM
    1985).  A Newton loop on the ratio starts at the singleton partition's
    W / (m - 1); each step finds a partition minimizing
    crossing_weight - ratio * (k - 1), and moves to that partition's ratio
    while it is smaller.

    The witness is the partition of the last improving step, or the
    singletons if none improved: the finest partition attaining the
    minimum, which refines every other partition that attains it.
    """
    best = Fraction(spec.total_budget(), spec.m - 1)
    witness = Partition(tuple(frozenset((v,)) for v in range(spec.m)))
    while True:
        partition = _min_penalized_partition(spec, best)
        if partition.k < 2:
            break
        ratio = partition.normalized_weight(spec)
        if ratio >= best:
            break
        best, witness = ratio, partition
    return best, witness


def _min_penalized_partition(spec: NetworkSpec, ratio: Fraction) -> Partition:
    """A partition, k = 1 allowed, minimizing crossing_weight - ratio * (k - 1).

    With ratio = p/q and d(S) the weight leaving S, 2q times that
    objective is sum(f(B) for B in blocks) + 2p for f(S) = q d(S) - 2p,
    so the minimizer is the Dilworth truncation of f.  Its greedy over
    nodes i = 0..m-1 sets x_i to the least f(S) - x(S - i) over sets S
    with i in S and S within 0..i.  That is one min cut: source i, every
    node after i merged into a sink, the sign of each earlier x_u as an
    arc from the source or to the sink.  Each smallest minimizing S is
    tight for the final x, so the sets merged where they meet are the
    blocks of a minimizer.
    """
    p, q = ratio.numerator, ratio.denominator
    edges = sorted(spec.budgets.items())
    x = [0] * spec.m
    blocks = _UnionFind(spec.m)
    for i in range(spec.m):
        sink = i + 1  # stands for all of i + 1 .. m - 1
        cap: dict[int, dict[int, int]] = {u: {} for u in range(i + 2)}
        for (u, v), w in edges:
            if u > i:
                break
            _add_arc(cap, u, min(v, sink), q * w, q * w)
        offset = 0
        for u in range(i):
            if x[u] > 0:
                _add_arc(cap, i, u, x[u])
                offset += x[u]
            elif x[u] < 0:
                _add_arc(cap, u, sink, -x[u])
        # The cut of side S is q d(S) + offset - x(S - i).
        x[i] = _edmonds_karp(cap, i, sink) - offset - 2 * p
        for u in _reach(cap, cap, i):
            blocks.union(i, u)
    members: dict[int, set[int]] = {}
    for v in range(spec.m):
        members.setdefault(blocks.find(v), set()).add(v)
    return Partition(tuple(frozenset(b) for b in members.values()))


def _add_arc(cap: dict[int, dict[int, int]], u: int, v: int, c: int, back: int = 0) -> None:
    cap[u][v] = cap[u].get(v, 0) + c
    cap[v][u] = cap[v].get(u, 0) + back


# --- spanning trees -----------------------------------------------------


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True


@dataclass(frozen=True)
class SpanningTree:
    """A checked tree: m-1 edges on nodes 0..m-1, in sorted order.  Runs flood bare edge lists."""

    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        m = len(self.edges) + 1
        ordered = tuple(sorted(tuple(sorted(e)) for e in self.edges))
        uf = _UnionFind(m)
        for i, j in ordered:
            if not (0 <= i < j < m):
                raise ValueError(f"edge ({i}, {j}) cannot belong to a tree on {m} nodes")
            if not uf.union(i, j):
                raise ValueError(f"edges {ordered} contain a cycle")
        object.__setattr__(self, "edges", ordered)

    def max_degree(self) -> int:
        return max(Counter(node for edge in self.edges for node in edge).values())


def maximum_spanning_tree(spec: NetworkSpec, tie_break: str = "lex-kruskal") -> SpanningTree:
    """Maximum-weight spanning tree under a named deterministic tie-break: the first
    of ``greedy_spanning_trees``; GraphDisconnected if none."""
    for edges in greedy_spanning_trees(spec, tie_break):
        return SpanningTree(edges)
    raise GraphDisconnected("graph has no spanning tree")


def greedy_spanning_trees(spec: NetworkSpec, tie_break: str = "lex-kruskal") -> Iterator[tuple[Pair, ...]]:
    """The greedy group protocol's trees, each as its edges (i, j) in the order chosen:
    each round's maximum spanning tree of the remaining weights, whose edges are
    debited by one after the round.  The spec's pairs are ranked once into weight
    classes, each in pair order, and a debited edge moves down one class; the spec
    itself is not changed.  The trees stop at the first round that cannot span, so
    the weights left are disconnected.

    A round is one ``_kruskal`` scan over the classes, heaviest first.  lex-kruskal
    takes each class's edges in order, each one that joins two components.
    degree-min repeatedly takes the addable edge that minimizes the forest's
    resulting maximum degree, then the smallest pair: as that maximum is the
    peak degree or one more, the first addable edge with both endpoints below
    the peak, else the first addable edge.  Both yield maximum-weight trees.
    """
    if tie_break not in TIE_BREAK_POLICIES:
        raise ValueError(f"unknown tie-break policy {tie_break!r}; choose from {TIE_BREAK_POLICIES}")
    classes: dict[int, list[Pair]] = {}
    for pair, w in sorted(spec.budgets.items()):
        classes.setdefault(w, []).append(pair)
    return _greedy_trees(spec.m, classes, tie_break == "degree-min")


def _greedy_trees(m: int, classes: dict[int, list[Pair]], degree_min: bool) -> Iterator[tuple[Pair, ...]]:
    while len(chosen := _kruskal(m, classes, degree_min)) == m - 1:
        yield tuple(pair for _, pair in chosen)
        for w, pair in chosen:
            pairs = classes[w]
            del pairs[bisect_left(pairs, pair)]
            if not pairs:
                del classes[w]
            if w > 1:
                insort(classes.setdefault(w - 1, []), pair)


def _kruskal(m: int, classes: dict[int, list[Pair]], degree_min: bool) -> list[tuple[int, Pair]]:
    """One round: a spanning tree's (weight, pair) edges, or fewer if they do not span.

    One forward scan per class passes over each pair inside one component for
    good, and picks each addable pair with both ends below the bar.  The addable
    pairs the bar holds back wait in class order.  When nothing ahead qualifies,
    the first of them is the pick; that raises the bar, so the rest go back in
    front of the scan, as only now can they qualify.  Stops at m - 1 edges.
    """
    component = list(range(m))
    members = [[v] for v in range(m)]
    degree = [0] * m
    bar = 0 if degree_min else m  # the peak degree for degree-min, above every degree for lex-kruskal
    chosen: list[tuple[int, Pair]] = []
    for w in sorted(classes, reverse=True):
        ahead, held = iter(classes[w]), []  # held: addable pairs the bar holds back
        while True:
            for pick in ahead:
                i, j = pick
                if component[i] != component[j]:
                    if degree[i] < bar > degree[j]:
                        break
                    held.append(pick)
            else:
                held = [pair for pair in held if component[pair[0]] != component[pair[1]]]
                if not held:
                    break
                i, j = pick = held.pop(0)
                bar = max(degree[i], degree[j]) + 1
                ahead, held = itertools.chain(held, ahead), []
            chosen.append((w, pick))
            if len(chosen) == m - 1:
                return chosen
            degree[i] += 1
            degree[j] += 1
            a, b = component[i], component[j]
            if len(members[a]) < len(members[b]):
                a, b = b, a
            for v in members[b]:
                component[v] = a
            members[a] += members[b]
    return chosen


def enumerate_spanning_trees(spec: NetworkSpec):
    """Yield every spanning tree of the spec's budget graph, in lexicographic edge-set order.

    Exhaustive oracle for maximum_spanning_tree.  Hard guard: m <= 8.
    """
    if spec.m > TREE_ENUM_NODE_LIMIT:
        raise InstanceTooLarge(f"tree enumeration is limited to m <= {TREE_ENUM_NODE_LIMIT}, got {spec.m}")
    for combo in itertools.combinations(spec.pairs(), spec.m - 1):
        uf = _UnionFind(spec.m)
        if all(uf.union(i, j) for i, j in combo):
            yield SpanningTree(combo)


def optimal_tree_packing_bruteforce(spec: NetworkSpec) -> int:
    """Longest sequence of spanning trees a budget graph can support.

    A tree may be picked when all its edges still have positive weight;
    picking it costs one unit on each tree edge.  The optimum is searched
    by DFS over tree choices with memoization on the residual graph.
    Hard guards: m <= 6 and total weight <= 24.
    """
    if spec.m > PACKING_NODE_LIMIT:
        raise InstanceTooLarge(f"tree packing is limited to m <= {PACKING_NODE_LIMIT}, got {spec.m}")
    if spec.total_budget() > PACKING_WEIGHT_LIMIT:
        raise InstanceTooLarge(
            f"tree packing is limited to total weight <= {PACKING_WEIGHT_LIMIT}, got {spec.total_budget()}"
        )
    trees = [t.edges for t in enumerate_spanning_trees(spec)]
    memo: dict[tuple, int] = {}

    def pack(weights: dict[tuple[int, int], int]) -> int:
        key = tuple(sorted(weights.items()))
        if key in memo:
            return memo[key]
        if not is_connected(NetworkSpec(spec.m, weights)):
            memo[key] = 0
            return 0
        ceiling = sum(weights.values()) // (spec.m - 1)
        best = 0
        for tree in trees:
            if all(weights.get(e, 0) > 0 for e in tree):
                child = dict(weights)
                for e in tree:
                    child[e] -= 1
                    if child[e] == 0:
                        del child[e]
                best = max(best, 1 + pack(child))
                if best == ceiling:
                    break
        memo[key] = best
        return best

    return pack(spec.budgets)
