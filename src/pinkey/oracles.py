"""Exhaustive oracles and the rank audit: the references the runs are tested against.

Each oracle enumerates what a run computes in polynomial time or greedily:
s-t cuts against ``max_flow``, partitions against ``graph_strength``,
spanning trees and tree packings against the greedy tree loop, and the
joint distribution of key and transcript against the rank audit.  The
rank audit, ``verify_independence``, reduces any label-level forms over
GF(2); on a run's forms it gives the ranks that the run's self-check
gives in closed form.  No run imports this module; ``pinkey oracle``,
the tests and the demos do.  Each exhaustive oracle is protected by a
hard instance-size guard and raises InstanceTooLarge beyond it rather
than silently truncating.  The rank audit is polynomial and has no size
guard.
"""

from __future__ import annotations

import itertools
from collections import Counter
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from fractions import Fraction
from operator import xor

from .errors import GraphDisconnected, InstanceTooLarge, UnknownBasisLabel
from .graph import Partition, _check_terminals, _cut, _UnionFind, greedy_spanning_trees
from .model import NetworkSpec, Pair, SourceBitBasis
from .protocols import LinearForm

CUT_ENUM_NODE_LIMIT = 20        # min_st_cut_bruteforce enumerates 2**(m-2) sides
PARTITION_NODE_LIMIT = 12       # Bell(12) is ~4.2e6, the practical ceiling
TREE_ENUM_NODE_LIMIT = 8        # spanning-tree enumeration scans C(E, m-1) subsets
PACKING_NODE_LIMIT = 6          # tree-packing search space explodes past this
PACKING_WEIGHT_LIMIT = 24
MI_BASIS_LIMIT = 20             # brute_force_mutual_information enumerates 2**basis_size assignments


def is_connected(spec: NetworkSpec) -> bool:
    """True iff every node is reachable from node 0 over positive edges."""
    uf = _UnionFind(spec.m)
    return sum(uf.union(i, j) for i, j in spec.budgets) == spec.m - 1


# --- cuts and partitions -----------------------------------------------


def _codes(m: int, spec: NetworkSpec | None = None) -> Iterator[tuple[list[int], int, int]]:
    """Yield (code, k, crossing) for every partition of [0, m) with k >= 2 blocks.

    code[v] is node v's block, blocks numbered in order of their first
    node: a restricted growth string, one list updated in place, the codes
    in lexicographic order.  crossing is the weight of the spec's pairs
    between blocks, 0 without a spec, carried along: node v adds its
    weight to the nodes before it, less its weight into the block it
    joins.  The last node's weight into each block is summed once for all
    its choices.  Hard guard: m <= 12.
    """
    if m > PARTITION_NODE_LIMIT:
        raise InstanceTooLarge(f"partition enumeration is limited to m <= {PARTITION_NODE_LIMIT}, got {m}")
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    below: list[list[tuple[int, int]]] = [[] for _ in range(m)]  # below[v]: (u, weight) per pair u < v
    for (u, v), weight in spec.budgets.items() if spec else ():
        below[v].append((u, weight))
    code = [0] * m
    blocks = [0] * m  # blocks[v]: how many blocks nodes 0..v-1 use
    crossing = [0] * m  # crossing[v]: the weight between those nodes' blocks
    last, v = m - 1, 0
    while True:
        for node in range(v, last):  # node joins block code[node]; the nodes after it restart at block 0
            block = code[node]
            blocks[node + 1] = max(blocks[node], block + 1)
            crossing[node + 1] = crossing[node] + sum(weight for u, weight in below[node] if code[u] != block)
            code[node + 1] = 0
        top = blocks[last]  # the last node joins each of these blocks in turn, then opens block top
        into = [0] * (top + 1)
        for u, weight in below[last]:
            into[code[u]] += weight
        reach = crossing[last] + sum(into)
        for block in range(top + 1):
            k = max(top, block + 1)
            if k > 1:
                code[last] = block
                yield code, k, reach - into[block]
        v = last - 1  # back to the latest node before the last that can join a later block, maybe a new one
        while v > 0 and code[v] == blocks[v]:
            v -= 1
        if v <= 0:
            return
        code[v] += 1


def enumerate_partitions(m: int) -> Iterator[Partition]:
    """Yield every partition of [0, m) with k >= 2 blocks.

    Enumeration is by restricted growth strings, so the order is
    deterministic.  Hard guard: m <= 12.
    """
    for code, k, _ in _codes(m):
        yield _partition(code, k)


def _partition(code: list[int], k: int) -> Partition:
    """The partition of the k blocks that ``code`` numbers."""
    blocks: list[set[int]] = [set() for _ in range(k)]
    for node, which in enumerate(code):
        blocks[which].add(node)
    return Partition(tuple(map(frozenset, blocks)))


def min_normalized_multicut(spec: NetworkSpec) -> tuple[Fraction, Partition]:
    """Minimize crossing_weight / (k - 1) over partitions with k >= 2 blocks, exactly.

    Returns the exact rational minimum and the first partition attaining
    it in enumeration order.  Each code is scored by its crossing weight
    and k - 1, compared by cross-multiplication; only the witness becomes
    a ``Partition``.  Hard guard: m <= 12.
    """
    best: tuple[int, int, list[int]] | None = None  # crossing, k - 1 and a copy of the code
    for code, k, crossing in _codes(spec.m, spec):
        if best is None or crossing * best[1] < best[0] * (k - 1):
            best = crossing, k - 1, code[:]
    if best is None:
        raise ValueError(f"no qualifying partition of m={spec.m} nodes")
    return Fraction(best[0], best[1]), _partition(best[2], best[1] + 1)


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

    def side(mask: int) -> frozenset[int]:
        return frozenset([s, *(v for b, v in enumerate(others) if (mask >> b) & 1)])

    def crossing(mask: int) -> tuple[int, int]:
        source = side(mask)
        return sum(w for (i, j), w in edges if (i in source) != (j in source)), mask

    # ties go to the smaller mask, so the minimizer is the first in enumeration order
    best_value, best_mask = min(map(crossing, range(1 << len(others))))
    return best_value, _cut(spec, side(best_mask))


# --- spanning trees -----------------------------------------------------


def maximum_spanning_tree(spec: NetworkSpec, tie_break: str = "lex-kruskal") -> tuple[Pair, ...]:
    """Maximum-weight spanning tree under a named deterministic tie-break: the first
    of ``greedy_spanning_trees``, as its sorted edges; GraphDisconnected if none."""
    for edges in greedy_spanning_trees(spec, tie_break):
        return tuple(sorted(edges))
    raise GraphDisconnected("graph has no spanning tree")


def enumerate_spanning_trees(spec: NetworkSpec):
    """Yield every spanning tree of the spec's budget graph as its sorted edges,
    in lexicographic edge-set order.

    Exhaustive oracle for maximum_spanning_tree.  Hard guard: m <= 8.
    """
    if spec.m > TREE_ENUM_NODE_LIMIT:
        raise InstanceTooLarge(f"tree enumeration is limited to m <= {TREE_ENUM_NODE_LIMIT}, got {spec.m}")
    for combo in itertools.combinations(spec.pairs(), spec.m - 1):
        uf = _UnionFind(spec.m)
        if all(uf.union(i, j) for i, j in combo):
            yield combo


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
    trees = list(enumerate_spanning_trees(spec))
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


# --- mutual information -------------------------------------------------


def _exact_log2(ratio: Fraction) -> int:
    num, den = ratio.numerator, ratio.denominator
    if num & (num - 1) or den & (den - 1):
        raise ValueError(f"ratio {ratio} is not a power of two; cannot take an exact log")
    return (num.bit_length() - 1) - (den.bit_length() - 1)


def brute_force_mutual_information(
    key_forms: Iterable[LinearForm],
    transcript_forms: Iterable[LinearForm],
    basis_size: int,
) -> Fraction:
    """I(K; V) by exhaustive enumeration, with exact dyadic probabilities.

    Enumerates every assignment of the labels the forms reference and
    histograms the induced (K, V) values.  Basis bits no form mentions are
    independent of both sides, so skipping them scales every count by the
    same power of two and leaves the mutual information unchanged.

    Form f's value is bit f of one int state, the key forms below the
    transcript forms, and each label is the mask of the forms that hold
    it.  The assignments go in Gray-code order, step i flipping the label
    numbered by the trailing zeros of i, so each state is the one before
    XOR one label's mask, and one ``Counter`` over the states is the
    joint histogram.

    Returns 0 iff the joint distribution factorizes.  All probability
    ratios of linear-form systems are powers of two, so the value is
    computed log-free as an exact Fraction in bits, from integer
    exponents.
    """
    if basis_size > MI_BASIS_LIMIT:
        raise InstanceTooLarge(
            f"basis of {basis_size} bits exceeds the exhaustive limit of {MI_BASIS_LIMIT}"
        )
    key_forms = list(key_forms)
    transcript_forms = list(transcript_forms)
    labels = sorted(set().union(*(f.labels for f in key_forms + transcript_forms)) or set())
    if len(labels) > basis_size:
        raise ValueError(
            f"forms reference {len(labels)} labels but basis_size is {basis_size}"
        )

    index = {label: t for t, label in enumerate(labels)}
    masks = [0] * len(labels)
    for f, form in enumerate(key_forms + transcript_forms):
        for label in form.labels:
            masks[index[label]] |= 1 << f
    steps: list[int] = []  # steps[i - 1]: the label that step i flips
    for t in range(len(labels)):
        steps += [t, *steps]
    joint = Counter(itertools.accumulate(map(masks.__getitem__, steps), xor, initial=0))
    key_mask, shift = (1 << len(key_forms)) - 1, len(key_forms)
    key_marginal: Counter[int] = Counter()
    transcript_marginal: Counter[int] = Counter()
    for state, count in joint.items():
        key_marginal[state & key_mask] += count
        transcript_marginal[state >> shift] += count
    total = 1 << len(labels)

    # sum of count * log2(count * total / (key count * transcript count)) over the states, in bits
    bits = 0
    for state, count in joint.items():
        num, den = count * total, key_marginal[state & key_mask] * transcript_marginal[state >> shift]
        if num & (num - 1) or den & (den - 1):  # not both powers of two: reduce, or refuse
            bits += count * _exact_log2(Fraction(num, den))
        else:
            bits += count * (num.bit_length() - den.bit_length())
    return Fraction(bits, total)


# --- rank audit ---------------------------------------------------------
#
# For jointly linear collections the mutual information between the key
# bits K and the public transcript bits V is exactly
#
#     I(K; V) = rank(K) + rank(V) - rank(K ∪ V)   bits,
#
# and K is uniform exactly when its forms are linearly independent.


@dataclass(frozen=True)
class SecrecyReport:
    """Ranks of the key forms, transcript forms, and their union."""

    rank_key: int
    rank_transcript: int
    rank_joint: int
    key_count: int

    @property
    def leaked_bits(self) -> int:
        return self.rank_key + self.rank_transcript - self.rank_joint

    @property
    def uniform(self) -> bool:
        return self.rank_key == self.key_count

    def __post_init__(self) -> None:
        leaked = self.rank_key + self.rank_transcript - self.rank_joint
        if not 0 <= leaked <= min(self.rank_key, self.rank_transcript):
            raise ValueError(f"inconsistent ranks in {self!r}")


def gf2_rank(masks: Iterable[int], pivots: dict[int, int] | None = None) -> int:
    """Rank of a set of GF(2) row vectors packed as ints.

    With ``pivots``, reduce against that table and extend it in place; the
    result is then the rank the rows add to it.
    """
    if pivots is None:
        pivots = {}
    rank = 0
    for mask in masks:
        while mask:
            top = mask.bit_length() - 1
            if top not in pivots:
                pivots[top] = mask
                rank += 1
                break
            mask ^= pivots[top]
    return rank


def verify_independence(
    key_forms: Iterable[LinearForm],
    transcript_forms: Iterable[LinearForm],
    basis: SourceBitBasis,
) -> SecrecyReport:
    """Exact leakage between key and transcript, in bits.

    leaked_bits == 0 iff the key is statistically independent of the
    public transcript; every label must be one of ``basis.labels``, else
    UnknownBasisLabel names the first that is not.  It numbers
    the labels the forms mention, packs each form as an int row over them
    and reduces the rows with ``gf2_rank``.
    """
    key_forms = [form.labels for form in key_forms]
    transcript_forms = [form.labels for form in transcript_forms]
    # Number the labels the forms mention, in order of first appearance;
    # basis bits no form mentions cannot change a rank.
    index = {label: k for k, label in enumerate(dict.fromkeys(itertools.chain(*transcript_forms, *key_forms)))}
    known = set(basis.labels)
    for label in index:
        if label not in known:
            raise UnknownBasisLabel(f"label {label!r} is not in the basis")

    # A form's row has bit k set for each of its labels numbered k.
    transcript_rows, key_rows = ([sum(1 << index[label] for label in form) for form in forms]
                                 for forms in (transcript_forms, key_forms))
    table: dict[int, int] = {}
    rank_transcript = gf2_rank(transcript_rows, table)
    return SecrecyReport(
        rank_key=gf2_rank(key_rows),
        rank_transcript=rank_transcript,
        rank_joint=rank_transcript + gf2_rank(key_rows, table),
        key_count=len(key_rows),
    )
