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
from collections import defaultdict
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from fractions import Fraction
from operator import sub

from .errors import invariant
from .model import NetworkSpec, Pair

TIE_BREAK_POLICIES = ("lex-kruskal", "degree-min")
Row = list[int] | dict[int, int]  # a node's residual capacities, by head node


# --- partitions ---------------------------------------------------------


@dataclass(frozen=True)
class Partition:
    """A partition of the node set [0, m) into disjoint nonempty blocks.

    Blocks are canonically ordered by their smallest element, so equal
    partitions compare and print identically.  Nodes are ints: a bool or
    a float, which would equal one, is refused.
    """

    blocks: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        if not self.blocks or any(not b for b in self.blocks):
            raise ValueError("blocks must be nonempty")
        nodes = [n for b in self.blocks for n in b]
        if set(map(type, nodes)) - {int}:  # before sorting, which would compare a node of another type
            raise ValueError("nodes must be ints")
        nodes.sort()
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
        return {node: t for t, block in enumerate(self.blocks) for node in block}

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


def _edmonds_karp(cap: list[Row], s: int, t: int) -> tuple[int, Iterable[int]]:
    """Augment the residual capacities ``cap`` to a maximum s-t flow; return its value and
    s's residual side, s first: its last search's parents, or s alone if no arc leaves s.

    Row ``cap[u]`` holds the residual capacity ``cap[u][v]`` of each arc u->v:
    a list over all nodes, or a ``defaultdict(int)`` keyed by u's heads in
    ascending order, reverse arcs included, where a read may add only a zero
    arc that no push raises.  Each search scans neighbours in ascending
    order, which fixes the flow found and so the path decomposition that
    subgroup transcripts follow.  The arc s->t and then each path s->u->t, u
    ascending, are pushed in bulk first: they are the searches' first
    augmentations, in their order, as a search finds t among s's neighbours,
    else from the first of them with an arc to t, and a push only adds arcs
    into s and out of t.
    """
    source, sink = cap[s], cap[t]
    value = source[t]
    source[t] = 0
    sink[s] += value
    values = source if type(source) is list else source.values()  # a live view of a row of arcs
    for u in itertools.compress(range(len(source)) if values is source else source, values):
        row = cap[u]
        if c := min(source[u], row[t]):
            source[u] -= c
            row[s] += c
            row[t] -= c
            sink[u] += c
            value += c
    if not any(values):  # no search can leave s
        return value, (s,)
    paths, side = _augmenting_paths(cap, s, t, True)
    return value + sum(amount for _, amount in paths), side


def _augmenting_paths(cap: list[Row], s: int, t: int, residual: bool) -> tuple[list, dict[int, int | None]]:
    """Each breadth-first s-t path over the arcs of ``cap`` and its bottleneck, taken off
    each arc before the next search, and put on its reverse if ``residual``; and the
    parents of the last search, which did not reach t."""
    arcs: list[int | None] | None = [None] * len(cap) if type(cap[s]) is list else None
    paths = []
    while t in (parent := _reach(cap, arcs, s, t)):
        path = [t]
        while (u := parent[path[-1]]) is not None:
            path.append(u)
        path.reverse()
        hops = list(zip(path, path[1:]))
        amount = min(cap[u][v] for u, v in hops)
        invariant(amount > 0, "augmenting path has no capacity")
        for u, v in hops:  # the search cached row u, and row v unless v is t
            cap[u][v] -= amount
            if arcs is not None and not cap[u][v]:
                arcs[u] ^= 1 << v
            if residual:
                cap[v][u] += amount
                if arcs is not None and arcs[v] is not None:
                    arcs[v] |= 1 << u
        paths.append((path, amount))
    return paths, parent


def _reach(cap: list[Row], arcs: list[int | None] | None, s: int, t: int) -> dict[int, int | None]:
    """Breadth-first parents from s over the arcs u->v with ``cap[u][v] > 0``, each node's
    in ascending order, until t is reached.  A row of arcs is scanned in key order; ``arcs[u]``
    caches list row u's arcs as the bits v of an int, filled in as rows are scanned."""
    parent: dict[int, int | None] = {s: None}
    unseen = ~(1 << s)
    queue = [s]
    for u in queue:
        if arcs is None:
            for v, c in cap[u].items():
                if c and v not in parent:
                    parent[v] = u
                    queue.append(v)
        else:
            if (new := arcs[u]) is None:
                new = arcs[u] = sum(map(_BIT, itertools.compress(range(len(cap)), cap[u])))
            new &= unseen
            unseen ^= new
            while new:
                low = new & -new
                parent[v := low.bit_length() - 1] = u
                queue.append(v)
                new ^= low
        if t in parent:
            break
    return parent


_BIT = (1).__lshift__  # v -> 1 << v


def max_flow(spec: NetworkSpec, s: int, t: int) -> FlowAssignment:
    """Maximum s-t flow with an exact integral path decomposition, over rows of arcs built
    from the spec's pairs in pair order: O(m + E) space, and O(m + E) time per search.

    The decomposition follows the s-t paths of the net flow, so any
    cyclic slack the augmenting search produced is left out of it.
    """
    _check_terminals(spec, s, t)
    # Each pair's weight starts as residual capacity in both directions;
    # pushing f along u->v moves capacity from (u,v) to (v,u).
    cap: list[Row] = [defaultdict(int) for _ in range(spec.m)]
    net: list[Row] = [{} for _ in range(spec.m)]
    for i, j in (pairs := spec.pairs()):
        cap[i][j] = cap[j][i] = spec.budgets[i, j]
    value, side = _edmonds_karp(cap, s, t)
    for i, j in pairs:
        if f := (cap[j][i] - cap[i][j]) // 2:  # the net flow i -> j
            net[i if f > 0 else j][j if f > 0 else i] = abs(f)
    paths = tuple(sorted((tuple(path), amount) for path, amount in _augmenting_paths(net, s, t, False)[0]))
    invariant(sum(amount for _, amount in paths) == value, "flow paths do not add up to the flow value")
    cut = _cut(spec, side)  # around the smallest min-cut side
    invariant(cut.crossing_weight(spec) == value, "residual cut does not match the flow value")
    return FlowAssignment(value=value, paths=paths, cut=cut)


def _check_terminals(spec: NetworkSpec, s: int, t: int) -> None:
    for node in (s, t):
        if not (type(node) is int and 0 <= node < spec.m):
            raise ValueError(f"terminal {node} out of range for m={spec.m}")
    if s == t:
        raise ValueError("source and sink must differ")


def _weights(spec: NetworkSpec, scale: int = 1) -> list[list[int]]:
    """The m x m matrix of scale times each pair's weight, zero off the pairs."""
    matrix = [[0] * spec.m for _ in range(spec.m)]
    for (i, j), w in spec.budgets.items():
        matrix[i][j] = matrix[j][i] = scale * w
    return matrix


def _cut(spec: NetworkSpec, side: Iterable[int]) -> Partition:
    """The 2-block partition of a source side and the rest."""
    side = frozenset(side)
    return Partition((side, frozenset(range(spec.m)) - side))


# --- strength -----------------------------------------------------------


def graph_strength(spec: NetworkSpec) -> tuple[Fraction, Partition]:
    """Minimize crossing_weight / (k - 1) over partitions with k >= 2 blocks, exactly.

    The same minimum as oracles.min_normalized_multicut, in polynomial time
    (Cunningham, "Optimal attack and reinforcement of a network", JACM
    1985).  A Newton loop on the ratio starts at the smaller of the
    singletons' W / (m - 1) and the least weighted degree, the ratio of that
    node against the rest.  Each step finds a partition minimizing
    crossing_weight - ratio * (k - 1), whose ratio is at most the current
    one, as the current one's partition scores zero, and moves to it.

    The witness is the step's partition once its ratio ties: the finest
    partition attaining the minimum, which refines every other that does.
    """
    best = min(Fraction(spec.total_budget(), spec.m - 1), Fraction(min(map(sum, _weights(spec)))))
    while True:
        partition = _min_penalized_partition(spec, best)
        ratio = partition.normalized_weight(spec)
        invariant(ratio <= best, "a strength step raised the ratio")
        if ratio == best:
            return best, partition
        best = ratio


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
    blocks of a minimizer.  Each cut's network is row slices of one weight
    matrix, with each earlier node's running weight to the nodes after i.
    """
    p, q = ratio.numerator, ratio.denominator
    weight = _weights(spec, q)
    to_sink = [sum(row) for row in weight]
    x = [0] * spec.m
    blocks = _UnionFind(spec.m)
    for i in range(spec.m):
        sink = i + 1  # stands for all of i + 1 .. m - 1
        to_sink = list(map(sub, to_sink, weight[i]))  # for each u <= i, its weight after i
        cap = [weight[u][:sink] + [to_sink[u]] for u in range(sink)]
        cap.append(to_sink[:sink] + [0])
        offset = 0
        for u in range(i):
            if x[u] > 0:
                cap[i][u] += x[u]
                offset += x[u]
            elif x[u] < 0:
                cap[u][sink] -= x[u]
        # The cut of side S is q d(S) + offset - x(S - i).
        flow, side = _edmonds_karp(cap, i, sink)
        x[i] = flow - offset - 2 * p
        for u in itertools.islice(side, 1, None):  # after i itself
            blocks.union(i, u)
    members: dict[int, set[int]] = {}
    for v in range(spec.m):
        members.setdefault(blocks.find(v), set()).add(v)
    return Partition(tuple(frozenset(b) for b in members.values()))


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
    in pair order, and the debit, which moves a rank down one class, works on
    ints, not pairs.  The spec itself is not changed.  The trees stop at the
    first round that cannot span, so the weights left are disconnected.

    A round is one scan over the classes, heaviest first.  lex-kruskal
    (``_kruskal``) takes each class's edges in order, each one that joins two
    components.  degree-min (``_degree_min``) repeatedly takes the addable edge
    that minimizes the forest's resulting maximum degree, then the smallest
    pair: as that maximum is the peak degree or one more, the first addable
    edge with both endpoints below the peak, else the first addable edge.
    Both yield maximum-weight trees.
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
    """Each round's tree, then its debit, until a round's scan does not span.

    lex-kruskal's picks come class by class as positions.  The debit goes
    through the picked classes lightest first and pops each one's picks back
    to front.  Each class is done popping before it takes any rank from the
    class above, so the positions hold.  The moved ranks are appended to the
    class below, which is sorted once.  degree-min's picks come as ranks:
    each is found by bisection, deleted, and inserted one class down.
    """
    while chosen := (_degree_min(m, pairs, classes) if degree_min else _kruskal(m, pairs, classes)):
        if degree_min:
            yield tuple(pairs[rank] for _, rank in chosen)
            for w, rank in chosen:
                ranks = classes[w]
                del ranks[bisect_left(ranks, rank)]
                if not ranks:
                    del classes[w]
                if w > 1:
                    insort(classes.setdefault(w - 1, []), rank)
        else:
            tree: list[int] = []
            for w, positions in chosen:
                tree += map(classes[w].__getitem__, positions)
            yield tuple(map(pairs.__getitem__, tree))
            for w, positions in reversed(chosen):
                ranks = classes[w]
                moved = [ranks.pop(position) for position in reversed(positions)]
                if not ranks:
                    del classes[w]
                if w > 1:
                    lower = classes.setdefault(w - 1, [])
                    lower += moved
                    lower.sort()


def _kruskal(m: int, pairs: list[Pair], classes: dict[int, list[int]]) -> list[tuple[int, list[int]]]:
    """One lex-kruskal round: each class it picks from, heaviest first, with the positions
    of its picks in the class's list, ascending; or no classes if the picks do not span.
    The pair of rank r is ``pairs[r]``.

    One forward scan per class takes each pair that joins two components,
    until m - 1 pairs are taken.
    """
    component = list(range(m))
    members = [[v] for v in range(m)]
    chosen: list[tuple[int, list[int]]] = []
    left = m - 1
    for w in sorted(classes, reverse=True):
        positions = []
        for position, rank in enumerate(classes[w]):
            i, j = pairs[rank]
            a, b = component[i], component[j]
            if a != b:
                positions.append(position)
                left -= 1
                if not left:
                    chosen.append((w, positions))
                    return chosen
                if len(members[a]) < len(members[b]):
                    a, b = b, a
                for v in members[b]:
                    component[v] = a
                members[a] += members[b]
        if positions:
            chosen.append((w, positions))
    return []


def _degree_min(m: int, pairs: list[Pair], classes: dict[int, list[int]]) -> list[tuple[int, int]]:
    """One degree-min round: a spanning tree's (weight, rank) edges in the order chosen, or
    none if the picks do not span.  The pair of rank r is ``pairs[r]``.

    One forward scan per class passes over each pair inside one component for
    good, and picks each addable pair with both ends below the bar, the peak
    degree.  The addable pairs the bar holds back wait in class order.  When
    nothing ahead qualifies, the first of them is the pick; that raises the
    bar, so the rest go back in front of the scan, as only now can they
    qualify.  Stops at m - 1 edges.
    """
    component = list(range(m))
    members = [[v] for v in range(m)]
    degree = [0] * m
    bar = 0
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
    return []
