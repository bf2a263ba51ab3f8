"""Seeded scenario generators for the three benchmark workloads.

Each workload is a fixed list of scenario shapes (protocol, m, density,
budget range, tie-break); the seed only decides which random graph,
which budget goes on which pair, which terminals are s and t, and the
run seed written into the scenario file.  Budgets are stratified: the
values of one scenario are evenly spread over its range and then
shuffled onto the pairs, so every seed sees the same budget multiset
and the per-pass work varies little from seed to seed.

The generator shares no code with the package under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

WORKLOADS = ("group-flood", "group-bound", "pads")


@dataclass(frozen=True)
class Case:
    """One generated scenario, kept by the benchmark for its own checks."""

    name: str
    protocol: str
    m: int
    budgets: dict[tuple[int, int], int] = field(repr=False)
    seed: int
    tie_break: str = "lex-kruskal"
    s: int | None = None
    t: int | None = None

    def to_text(self) -> str:
        """The scenario in the package's ``version 1`` file format."""
        lines = ["version 1", f"m {self.m}", f"protocol {self.protocol}", f"seed {self.seed}"]
        if self.protocol == "group":
            lines.append(f"tie_break {self.tie_break}")
        if self.protocol == "subgroup":
            lines += [f"s {self.s}", f"t {self.t}"]
        lines += [f"pair {i} {j} {w}" for (i, j), w in sorted(self.budgets.items())]
        return "\n".join(lines) + "\n"


def _spread(rng: random.Random, count: int, lo: int, hi: int) -> list[int]:
    """``count`` budgets evenly covering [lo, hi], in seeded random order."""
    if count == 1:
        values = [lo]
    else:
        values = [lo + (hi - lo) * k // (count - 1) for k in range(count)]
    rng.shuffle(values)
    return values


def connected(m: int, pairs: list[tuple[int, int]]) -> bool:
    """Whether the pairs connect all of terminals 0..m-1."""
    adjacency: dict[int, list[int]] = {v: [] for v in range(m)}
    for i, j in pairs:
        adjacency[i].append(j)
        adjacency[j].append(i)
    seen = {0}
    stack = [0]
    while stack:
        for v in adjacency[stack.pop()]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == m


def _dense_pairs(rng: random.Random, m: int, density: float) -> list[tuple[int, int]]:
    """A connected random subset of round(density * C(m, 2)) pairs."""
    every = [(i, j) for i in range(m) for j in range(i + 1, m)]
    keep = round(density * len(every))
    while True:
        pairs = sorted(rng.sample(every, keep))
        if connected(m, pairs):
            return pairs


def _sparse_pairs(rng: random.Random, m: int, degree: int) -> list[tuple[int, int]]:
    """A random spanning tree plus random extra pairs up to mean degree ``degree``."""
    order = list(range(m))
    rng.shuffle(order)
    pairs = set()
    for k in range(1, m):
        u, v = order[k], order[rng.randrange(k)]
        pairs.add((min(u, v), max(u, v)))
    target = m * degree // 2
    while len(pairs) < target:
        u, v = rng.sample(range(m), 2)
        pairs.add((min(u, v), max(u, v)))
    return sorted(pairs)


def _budgets(rng: random.Random, pairs: list[tuple[int, int]], lo: int, hi: int) -> dict[tuple[int, int], int]:
    return dict(zip(pairs, _spread(rng, len(pairs), lo, hi)))


def _group(rng, name, m, density, lo, hi, tie_break) -> Case:
    pairs = _dense_pairs(rng, m, density)
    budgets = _budgets(rng, pairs, lo, hi)
    # Reshuffle until every terminal's weighted degree clears total // (m-1)
    # by a margin: then no single terminal sets the bound, which stays near
    # the same figure on every seed, and the key varies only by greedy gap.
    while min(degrees(m, budgets)) <= sum(budgets.values()) // (m - 1) + 5:
        budgets = _budgets(rng, pairs, lo, hi)
    return Case(name, "group", m, budgets, rng.getrandbits(64), tie_break=tie_break)


def degrees(m: int, budgets: dict[tuple[int, int], int]) -> list[int]:
    """Each terminal's weighted degree."""
    degree = [0] * m
    for (i, j), w in budgets.items():
        degree[i] += w
        degree[j] += w
    return degree


def _star(rng, name, m, lo, hi, part, parts) -> Case:
    # The poorest leaf's key is the group key, and the cost of replaying it
    # grows with that leaf's place in the basis.  The stars of one pass put
    # it at the middle of successive 1/parts slices of the leaf ids, so a
    # pass costs the same on every seed.
    values = _spread(rng, m - 1, lo, hi)
    values.remove(lo)
    values.insert((m - 1) * (2 * part + 1) // (2 * parts), lo)
    return Case(name, "broadcast", m, {(0, leaf): w for leaf, w in enumerate(values, 1)}, rng.getrandbits(64))


_ENDPOINT_PADS = 4


def _relay(rng, name, m, degree, lo, hi) -> Case:
    # s and t each reach the relay core over ``_ENDPOINT_PADS`` pairs whose
    # budgets sum to the same total on every seed, and the core is given
    # minimum degree 4, so the min cut (the key length) is usually that
    # total whatever the core looks like.
    s, t = rng.sample(range(m), 2)
    core = [v for v in range(m) if v not in (s, t)]
    relabel = dict(enumerate(core))
    pairs = {(min(relabel[i], relabel[j]), max(relabel[i], relabel[j]))
             for i, j in _sparse_pairs(rng, m - 2, degree)}
    for v in core:
        while sum(v in p for p in pairs) < 4:
            u = rng.choice(core)
            if u != v:
                pairs.add((min(u, v), max(u, v)))
    budgets = _budgets(rng, sorted(pairs), lo, hi)
    for end in (s, t):
        ends = rng.sample(core, _ENDPOINT_PADS)
        for v, w in zip(ends, _spread(rng, _ENDPOINT_PADS, lo, (lo + hi) // 2)):
            budgets[(min(end, v), max(end, v))] = w
    return Case(name, "subgroup", m, budgets, rng.getrandbits(64), s=s, t=t)


# Shapes per workload; sizes are chosen so one pass over a workload takes
# a few seconds on a 2-core x86-64 host, and so each workload is dominated by
# the layer it is meant to exercise (see README.md).
def _group_flood(rng: random.Random) -> list[Case]:
    # m >= 10: run_group_key attaches no partition bound, so the greedy
    # tree loop (connectivity, MST, flooding, replay) is all the work.
    return [
        _group(rng, "flood-k16-lex", 16, 1.0, 1, 30, "lex-kruskal"),
        _group(rng, "flood-k16-deg", 16, 1.0, 1, 30, "degree-min"),
        _group(rng, "flood-d24-lex", 24, 0.8, 1, 20, "lex-kruskal"),
        _group(rng, "flood-d24-deg", 24, 0.8, 1, 20, "degree-min"),
        _group(rng, "flood-d32-lex", 32, 0.7, 1, 12, "lex-kruskal"),
        _group(rng, "flood-k40-lex", 40, 1.0, 1, 8, "lex-kruskal"),
    ]


def _group_bound(rng: random.Random) -> list[Case]:
    # m <= 9: run_group_key enumerates all Bell(m) partitions for its bound.
    cases = []
    for k in range(6):
        cases.append(_group(rng, f"bound-k8-{k}", 8, 1.0, 1, 20, ("lex-kruskal", "degree-min")[k % 2]))
        cases.append(_group(rng, f"bound-k9-{k}", 9, 1.0, 1, 20, ("degree-min", "lex-kruskal")[k % 2]))
    return cases


def _pads(rng: random.Random) -> list[Case]:
    # Large budgets: m-holder replay on stars, big bases on sparse relays;
    # relays with m <= 12 also run the brute-force cut cross-check.
    return [
        *(_star(rng, f"pads-star48-{k}", 48, 120, 240, k, 3) for k in range(3)),
        _relay(rng, "pads-relay64a", 64, 6, 100, 300),
        _relay(rng, "pads-relay64b", 64, 6, 100, 300),
        _relay(rng, "pads-relay12a", 12, 4, 100, 300),
        _relay(rng, "pads-relay12b", 12, 4, 100, 300),
    ]


_SHAPES = {"group-flood": _group_flood, "group-bound": _group_bound, "pads": _pads}


def generate(workload: str, seed: int) -> list[Case]:
    """The workload's scenarios; the same (workload, seed) gives the same list."""
    return _SHAPES[workload](random.Random(f"pinkey-bench:{workload}:{seed}"))
