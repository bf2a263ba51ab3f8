"""Weighted-graph machinery: flows, cuts, strength, greedy spanning trees, partitions.

The graph here is a `NetworkSpec`: terminals are its nodes and the pair
budgets its undirected positive integer weights.  A pairwise key is one
budget usable in either direction, so directed capacities collapse onto a
single weight per pair, and zero-budget pairs are simply absent.  Nothing
here changes a spec's budgets.  Every max flow, including the min cuts
behind graph strength, runs on one Edmonds-Karp kernel.

The exhaustive operations that check these fast paths (cut enumeration,
partition enumeration, tree packing) live in ``pinkey.oracles``, which
no run imports.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, insort
from collections import deque
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from fractions import Fraction

from .errors import invariant
from .model import NetworkSpec, Pair

TIE_BREAK_POLICIES = ("lex-kruskal", "degree-min")


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
    # Each pair's weight starts as residual capacity in both directions;
    # pushing f along u->v moves capacity from (u,v) to (v,u).
    cap: dict[int, dict[int, int]] = {u: {} for u in range(spec.m)}
    for (i, j), w in spec.budgets.items():
        _add_arc(cap, i, j, w, w)
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
    for node in (s, t):
        if not (type(node) is int and 0 <= node < spec.m):
            raise ValueError(f"terminal {node} out of range for m={spec.m}")
    if s == t:
        raise ValueError("source and sink must differ")


def _residual_cut(spec: NetworkSpec, cap: dict[int, dict[int, int]], s: int, value: int) -> Partition:
    """The cut around what s reaches in the residual table of a flow of ``value``."""
    cut = _cut(spec, _reach(cap, cap, s))  # around the smallest min-cut side
    invariant(cut.crossing_weight(spec) == value, "residual cut does not match the flow value")
    return cut


def _cut(spec: NetworkSpec, side: Iterable[int]) -> Partition:
    """The 2-block partition of a source side and the rest."""
    side = frozenset(side)
    return Partition((side, frozenset(range(spec.m)) - side))


# --- strength -----------------------------------------------------------


def graph_strength(spec: NetworkSpec) -> tuple[Fraction, Partition]:
    """Minimize crossing_weight / (k - 1) over partitions with k >= 2 blocks, exactly.

    The same minimum as oracles.min_normalized_multicut, in polynomial time
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


def greedy_spanning_trees(spec: NetworkSpec, tie_break: str = "lex-kruskal") -> Iterator[tuple[Pair, ...]]:
    """The greedy group protocol's trees, each as its edges (i, j) in the order chosen:
    each round's maximum spanning tree of the remaining weights, whose edges are
    debited by one after the round.  The spec's pairs are ranked once, in pair
    order, and each weight class holds its pairs' ranks, ascending: the scans go
    in pair order, and the debit, which moves a rank down one class, bisects
    ints, not pairs.  The spec itself is not changed.  The trees stop at the
    first round that cannot span, so the weights left are disconnected.

    A round is one ``_kruskal`` scan over the classes, heaviest first.  lex-kruskal
    takes each class's edges in order, each one that joins two components.
    degree-min repeatedly takes the addable edge that minimizes the forest's
    resulting maximum degree, then the smallest pair: as that maximum is the
    peak degree or one more, the first addable edge with both endpoints below
    the peak, else the first addable edge.  Both yield maximum-weight trees.
    """
    if tie_break not in TIE_BREAK_POLICIES:
        raise ValueError(f"unknown tie-break policy {tie_break!r}; choose from {TIE_BREAK_POLICIES}")
    pairs = sorted(spec.budgets)
    classes: dict[int, list[int]] = {}
    for rank, pair in enumerate(pairs):
        classes.setdefault(spec.budgets[pair], []).append(rank)
    return _greedy_trees(spec.m, pairs, classes, tie_break == "degree-min")


def _greedy_trees(m: int, pairs: list[Pair], classes: dict[int, list[int]],
                  degree_min: bool) -> Iterator[tuple[Pair, ...]]:
    while len(chosen := _kruskal(m, pairs, classes, degree_min)) == m - 1:
        yield tuple(pairs[rank] for _, rank in chosen)
        for w, rank in chosen:
            ranks = classes[w]
            del ranks[bisect_left(ranks, rank)]
            if not ranks:
                del classes[w]
            if w > 1:
                insort(classes.setdefault(w - 1, []), rank)


def _kruskal(m: int, pairs: list[Pair], classes: dict[int, list[int]], degree_min: bool) -> list[tuple[int, int]]:
    """One round: a spanning tree's (weight, rank) edges, or fewer if they do not span.
    The pair of rank r is ``pairs[r]``.

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
    chosen: list[tuple[int, int]] = []
    for w in sorted(classes, reverse=True):
        ahead, held = iter(classes[w]), []  # held: addable ranks the bar holds back
        while True:
            for pick in ahead:
                i, j = pairs[pick]
                if component[i] != component[j]:
                    if degree[i] < bar > degree[j]:
                        break
                    held.append(pick)
            else:
                held = [rank for rank in held if component[pairs[rank][0]] != component[pairs[rank][1]]]
                if not held:
                    break
                pick = held.pop(0)
                i, j = pairs[pick]
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
