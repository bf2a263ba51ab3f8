"""Network model: terminals, pairwise key budgets, and realized source bits.

Every unordered terminal pair {i, j} owns an integer budget of perfectly
shared, perfectly secret random bits.  Budgets double as the edge weights
used by the capacity bounds, so achieved-versus-bound gaps come out as
exact integers with no sampling noise.

Terminals are 0-indexed everywhere.  Budgets are stored once per unordered
pair under the canonical key ``(min(i, j), max(i, j))``; an absent pair is
a budget of zero.

All randomness in a run descends from one 64-bit seed, and the
``PairwiseKeyStore`` of (spec, seed) draws every bit: each pair's key
and each terminal's local bits are a Mersenne Twister stream of their
own, seeded by a SHA-256 mix of the run seed and the pair or terminal,
so streams are independent of draw order and stable across processes.
Each draw reseeds the store's one generator.  ``check_seed`` is the one
rule for a seed, which the store and a scenario both apply: an ``int``
in [0, 2**64), so no bool, float or string stands in for one.

Realized source bits are numbered by int id from 0, one run of
consecutive ids per draw, with their values in one ``bytearray``; the
basis holds the bits its store drew and no others.  Every bit has a
label ``prefix + index``: ``K0-1:3`` is bit 3 of pair {0, 1}'s key and
``R2:0`` terminal 2's first local bit.  Labels are never stored:
``labels`` renders them all, run by run, into a list that ids index,
``label`` one, and a label is parsed back only where a caller looks it
up.  The run path works on ids alone.
"""

from __future__ import annotations

import hashlib
import random
from bisect import bisect_right
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from types import MappingProxyType

from .errors import InsufficientKeyMaterial, UnknownBasisLabel

Pair = tuple[int, int]

_BIT_VALUES = frozenset((0, 1))

# Byte b of a Mersenne Twister word maps to its top bit, b >> 7.
_TOP_BIT = bytes(b >> 7 for b in range(256))

# The C-level seed of random.Random's base, which random.Random.seed calls after checking its
# argument's type in Python: an int seeds the generator alike, with no Python frame per draw.
_SEED = random.Random.__base__.seed


def check_seed(seed: int) -> None:
    """Raise ValueError unless ``seed`` is an ``int`` in [0, 2**64); a bool is no seed."""
    if not (type(seed) is int and 0 <= seed < 2**64):
        raise ValueError(f"must fit in an unsigned 64-bit integer, got {seed!r}")


def canonical_pair(i: int, j: int) -> Pair:
    """Return the unordered pair {i, j} as a sorted tuple.

    Raises ValueError on a self-pair; range checks are the caller's job
    because not every caller knows m.
    """
    if i == j:
        raise ValueError(f"self-pair ({i}, {j}) is not allowed")
    return (i, j) if i < j else (j, i)


@dataclass(frozen=True, eq=True)
class NetworkSpec:
    """Terminal count plus one nonnegative bit budget per unordered pair.

    Attributes
    ----------
    m:
        Number of terminals, at least 2.
    budgets:
        Mapping from canonical pair to a positive budget.  Zero-budget
        entries are dropped on construction so the stored form is unique,
        and the stored mapping is read-only, so it stays as validated.
    """

    m: int
    budgets: Mapping[Pair, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if type(self.m) is not int or self.m < 2:
            raise ValueError(f"need at least 2 terminals, got m={self.m!r}")
        cleaned: dict[Pair, int] = {}
        for pair, budget in self.budgets.items():
            i, j = pair if type(pair) is tuple and len(pair) == 2 else (None, None)
            # ints before any comparison, which a pair of another type would fail with TypeError
            if not (type(i) is type(j) is int and 0 <= i < self.m and 0 <= j < self.m):
                raise ValueError(f"pair {pair!r} out of range for m={self.m}")
            if i == j:
                raise ValueError(f"self-pair ({i}, {j}) is not allowed")
            if i > j:
                raise ValueError(f"pair {pair!r} is not in canonical (i < j) form")
            if type(budget) is not int or budget < 0:
                raise ValueError(f"budget for pair {pair!r} must be a nonnegative int, got {budget!r}")
            if budget > 0:
                cleaned[pair] = budget
        object.__setattr__(self, "budgets", MappingProxyType(cleaned))

    @classmethod
    def from_pairs(cls, m: int, pairs: list[tuple[int, int, int]]) -> "NetworkSpec":
        """Build a spec from (i, j, budget) triples, canonicalizing pairs."""
        budgets: dict[Pair, int] = {}
        for i, j, budget in pairs:
            if not type(i) is type(j) is int:
                raise ValueError(f"pair {(i, j)!r} out of range for m={m}")
            key = canonical_pair(i, j)
            if key in budgets:
                raise ValueError(f"duplicate pair {key!r}")
            budgets[key] = budget
        return cls(m, budgets)

    @classmethod
    def star(cls, leaf_budgets: list[int]) -> "NetworkSpec":
        """Star centered at terminal 0; leaf i+1 gets leaf_budgets[i]."""
        m = len(leaf_budgets) + 1
        return cls(m, {(0, i + 1): b for i, b in enumerate(leaf_budgets)})

    @classmethod
    def complete(cls, m: int, weight: int) -> "NetworkSpec":
        """Complete network with the same budget on every pair."""
        return cls(m, {(i, j): weight for i in range(m) for j in range(i + 1, m)})

    def budget(self, i: int, j: int) -> int:
        pair = canonical_pair(i, j)
        if not (type(i) is type(j) is int and 0 <= pair[0] and pair[1] < self.m):
            raise ValueError(f"pair {pair!r} out of range for m={self.m}")
        return self.budgets.get(pair, 0)

    def pairs(self) -> list[Pair]:
        """Positive-budget pairs in ascending canonical order."""
        return sorted(self.budgets)

    def total_budget(self) -> int:
        return sum(self.budgets.values())

    def is_star(self) -> bool:
        """True when every positive budget touches terminal 0."""
        return all(0 in pair for pair in self.budgets)


class SourceBitBasis:
    """Registry of every realized source bit in a run, numbered by int id.

    A source bit is either one bit of a pairwise key (owned natively by
    both endpoints) or one locally generated random bit (owned by its
    generator).  Every key bit and every public payload bit a protocol
    produces is a GF(2) combination of these, which is what makes exact
    secrecy accounting possible.

    Each registering call adds runs of consecutive ids, each with one
    owner set and one label prefix.  A run's bits are labelled ``prefix +
    index``, the indices going on from the prefix's earlier runs, so
    every label is unique.
    """

    __slots__ = ("values", "_starts", "_runs", "_prefixed")

    def __init__(self) -> None:
        self.values = bytearray()
        self._starts: list[int] = []  # first id of each run, ascending
        # per run: ids, owners, label prefix, and the id of label index 0
        self._runs: list[tuple[range, frozenset[int], str, int]] = []
        self._prefixed: dict[str, list[tuple[range, int]]] = {}  # prefix -> (ids, base) per run

    def __len__(self) -> int:
        return len(self.values)

    def __contains__(self, label: str) -> bool:
        return self.id_of(label) is not None

    def __getitem__(self, label: str) -> int:
        if (ident := self.id_of(label)) is None:
            raise UnknownBasisLabel(f"label {label!r} is not in the basis")
        return self.values[ident]

    def __iter__(self) -> Iterator[str]:
        return iter(self.labels)

    @property
    def labels(self) -> list[str]:
        """Every bit's label, in a new list that ids index.

        Each run renders its label indices through one ``index_digits``
        table, so indices that runs share are rendered once, and prefixes
        them in one join.
        """
        digits: list[str] = []
        labels: list[str] = []
        for ids, _, prefix, base in self._runs:
            indices = index_digits(digits, ids.start - base, ids.stop - base)
            labels += (prefix + f" {prefix}".join(indices)).split(" ")  # no label holds a space
        return labels

    def _add_runs(self, runs: Sequence[tuple[str, frozenset[int], int]], values: Sequence[int]) -> list[range]:
        """Register ``values`` as consecutive runs, each (prefix, owners, length), and return
        their ids.  A run's bits are labelled ``prefix + index``, the indices going on from
        the prefix's earlier runs.

        Nothing is registered unless every value is 0 or 1 and every owner
        set is not empty.
        """
        try:
            bad = bytes(values).translate(None, b"\0\1")
        except (TypeError, ValueError):  # refused: a non-bit such as -1 or 0.5, or a bit such as 1.0
            bad = b"?"
        if bad and not _BIT_VALUES.issuperset(values):
            value = next(v for v in values if v not in _BIT_VALUES)
            raise ValueError(f"bit value must be 0 or 1, got {value!r}")
        if not all(owners for _, owners, _ in runs):
            raise ValueError("a source bit needs at least one owner")
        added, start = [], len(self)
        self.values += bytes(values)
        for prefix, owners, length in runs:
            ids = range(start, start + length)
            if ids:
                prefixed = self._prefixed.setdefault(prefix, [])
                # the prefix's label indices go on from its last run's stop
                base = start - (prefixed[-1][0].stop - prefixed[-1][1] if prefixed else 0)
                self._starts.append(start)
                self._runs.append((ids, owners, prefix, base))
                prefixed.append((ids, base))
            added.append(ids)
            start += length
        return added

    def id_of(self, label: str) -> int | None:
        """The id of a label, or None when the basis has no such bit."""
        prefix, colon, digits = label.rpartition(":")
        if digits.isascii() and digits.isdigit() and str(int(digits)) == digits:
            for ids, base in self._prefixed.get(prefix + colon, ()):
                if int(digits) + base in ids:
                    return int(digits) + base
        return None

    def label(self, ident: int) -> str:
        if not 0 <= ident < len(self.values):
            raise ValueError(f"id {ident} is not in the basis of {len(self.values)} bits")
        _, _, prefix, base = self._runs[bisect_right(self._starts, ident) - 1]
        return f"{prefix}{ident - base}"

    def run_of(self, ids: range) -> tuple[str, int] | None:
        """The label prefix and first label index of ``ids`` when they ascend by one over ids of
        one run, else None."""
        k = bisect_right(self._starts, ids[0]) - 1 if ids else -1
        if k < 0 or ids[-1] - ids[0] != len(ids) - 1 or ids[-1] >= self._runs[k][0].stop:
            return None
        _, _, prefix, base = self._runs[k]
        return prefix, ids[0] - base

    def runs(self) -> list[tuple[range, frozenset[int]]]:
        """Each run's ids and owners, in id order."""
        return [run[:2] for run in self._runs]

    def bits(self, ids: Iterable[int]) -> tuple[int, ...]:
        """The realized values of the given ids."""
        return tuple(map(self.values.__getitem__, ids))

    def realized(self) -> SourceBitBasis:
        """Label-to-value lookups for evaluating linear forms: the basis itself,
        which reads like a mapping and builds no label map."""
        return self


def index_digits(table: list[str], first: int, stop: int) -> list[str]:
    """``str(k)`` for each k in range(first, stop), from ``table``, which holds ``str(k)`` at k.

    The table first grows to ``stop``, so each index is rendered once for
    all the ranges sliced from one table.
    """
    table += map(str, range(len(table), stop))
    return table[first:stop]


class PairwiseKeyStore:
    """The whole input of a run, and the only thing that draws its bits.

    The store holds the spec, the seed and the basis, one generator, and
    each pair's and terminal's count of drawn bits.  A take draws and
    registers the pair's next key bits, so a pair no protocol touches is
    never drawn; ``fresh`` draws a terminal's next local bits.  Bits are
    handed out strictly left to right and never twice, across runs too:
    once a protocol consumes a bit it is gone, which is exactly the
    one-time-pad discipline the message constructions rely on.  A seed
    that ``check_seed`` refuses raises ValueError before any bit is drawn.
    """

    __slots__ = ("basis", "_spec", "_seed", "_drawn", "_rng")

    def __init__(self, spec: NetworkSpec, seed: int) -> None:
        check_seed(seed)
        self.basis = SourceBitBasis()
        self._spec, self._seed = spec, seed
        self._drawn: dict[Pair | int, int] = {}  # bits drawn per pair, and per terminal of its local bits
        self._rng = random.Random(0)  # reseeded by every draw

    @property
    def spec(self) -> NetworkSpec:
        return self._spec

    @property
    def seed(self) -> int:
        return self._seed

    def remaining(self, i: int, j: int) -> int:
        """Pair {i, j}'s unused bits; ValueError, as from ``NetworkSpec.budget``, for no pair of the spec."""
        return self._spec.budget(i, j) - self._drawn.get(canonical_pair(i, j), 0)

    def take(self, i: int, j: int, count: int) -> range:
        """Draw the next ``count`` unused bits of pair {i, j}'s key; return their ids.

        ``take_each`` of the one pair: it raises as that does, and nothing is drawn then.
        """
        pair = canonical_pair(i, j)
        return self.take_each({pair: count})[pair]

    def take_each(self, counts: Mapping[Pair, int]) -> dict[Pair, range]:
        """Draw the next ``counts[pair]`` unused bits of each canonical pair, all or nothing;
        return each pair's ids, one run per pair with a positive count.

        Before any bit is drawn, raises ValueError for a pair that is not
        (i, j) of ints with 0 <= i < j < m or a count that is not a
        nonnegative int, and InsufficientKeyMaterial, naming the pair, when
        some pair has fewer unused bits than its count.
        """
        m = self._spec.m
        for pair, count in counts.items():
            i, j = pair if type(pair) is tuple and len(pair) == 2 else (None, None)
            if not (type(i) is type(j) is int and 0 <= i < j < m):
                raise ValueError(f"pair {pair!r} is not (i, j) with 0 <= i < j < m={m}")
            if type(count) is not int or count < 0:
                raise ValueError(f"count for pair {pair!r} must be a nonnegative int, got {count!r}")
            if count > (left := self._spec.budgets.get(pair, 0) - self._drawn.get(pair, 0)):
                raise InsufficientKeyMaterial(f"pair {pair} has {left} unused bits, {count} needed")
        runs, chunks = [], []
        for (i, j), count in counts.items():
            if count:
                done = self._drawn.get((i, j), 0)
                self._drawn[i, j] = done + count
                chunks.append(_draw(self._rng, f"pinkey:pair:{self._seed}:{i}:{j}", done, count))
                runs.append((f"K{i}-{j}:", frozenset((i, j)), count))
        added = iter(self.basis._add_runs(runs, b"".join(chunks)))
        return {pair: next(added) if count else range(0) for pair, count in counts.items()}

    def fresh(self, owner: int, count: int) -> range:
        """Draw ``count`` local bits of terminal ``owner``, the next of its own stream; return their ids."""
        if not (type(owner) is int and 0 <= owner < self._spec.m):
            raise ValueError(f"owner {owner!r} is not a terminal below m={self._spec.m}")
        if type(count) is not int or count < 0:
            raise ValueError(f"count must be a nonnegative int, got {count!r}")
        done = self._drawn.get(owner, 0)
        self._drawn[owner] = done + count
        return self.basis._add_runs([(f"R{owner}:", frozenset((owner,)), count)],
                                    _draw(self._rng, f"pinkey:local:{self._seed}:{owner}", done, count))[0]


def _draw(rng: random.Random, tag: str, done: int, count: int) -> bytes:
    """Bits ``done`` .. ``done + count - 1`` of the stream of ``tag``: ``rng`` reseeded by
    SHA-256 of ``tag``, which keeps the streams disjoint and independent of Python's
    salted hash().  One ``getrandbits`` call reads the stream from its start, so a later take
    of a pair re-derives its ``done`` earlier words; ``flood`` takes each pair once per run.
    """
    _SEED(rng, int.from_bytes(hashlib.sha256(tag.encode()).digest()[:8], "big"))
    words = done + count
    return rng.getrandbits(32 * words).to_bytes(4 * words, "little")[4 * done + 3::4].translate(_TOP_BIT)


def generate_pairwise_keys(spec: NetworkSpec, seed: int) -> PairwiseKeyStore:
    """The store of every pair's key material for one run seed, with no bit drawn yet.

    Values are a pure function of (spec, seed): bit t of a pair's key, or
    of a terminal's local bits, is what the t-th one-bit ``getrandbits``
    call on its stream (``pinkey:pair:{seed}:{i}:{j}`` or ``pinkey:local:{seed}:{owner}``)
    returns, however the draws split it.  Each draw takes its bits in one
    call: on CPython, ``getrandbits(32 * n)`` packs the next n 32-bit
    Mersenne Twister words little-endian, word 0 lowest, and a one-bit call
    returns the top bit of the next word.  So bit t is the top bit of byte
    4t + 3 of ``getrandbits(32 * n).to_bytes(4 * n, "little")`` for any n > t
    read from the stream's start, and draws in chunks concatenate.
    """
    return PairwiseKeyStore(spec, seed)
