"""Network model: terminals, pairwise key budgets, and realized source bits.

Every unordered terminal pair {i, j} owns an integer budget of perfectly
shared, perfectly secret random bits.  Budgets double as the edge weights
used by the capacity bounds, so achieved-versus-bound gaps come out as
exact integers with no sampling noise.

Terminals are 0-indexed everywhere.  Budgets are stored once per unordered
pair under the canonical key ``(min(i, j), max(i, j))``; an absent pair is
a budget of zero.

All randomness in a run descends from one 64-bit seed.  Each pair's key
stream is generated from its own ``random.Random`` instance whose seed is
a SHA-256 mix of the run seed and the pair, so streams are independent of
generation order and stable across platforms and processes.

Realized source bits are numbered by int id, one run of consecutive ids
per draw, with their values in one ``bytearray``.  A pair's bits are
drawn only when a protocol takes them, so the basis holds the bits a
run drew and no others.  Every bit has a label
of one scheme, ``prefix + index``: ``K0-1:3`` is bit 3 of pair {0, 1}'s
key and ``R2:0`` terminal 2's first local bit.  Labels are never stored
per bit: they are rendered from ids when read, through one walk over the
runs and a digit table that lives for one call, and parsed back only
where a caller looks a label up.  The run path works on ids alone.
"""

from __future__ import annotations

import hashlib
import random
from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from types import MappingProxyType

from .errors import InsufficientKeyMaterial, UnknownBasisLabel

# Terminals are plain ints in [0, m).  The alias marks intent in signatures.
TerminalId = int

Pair = tuple[int, int]

_BIT_VALUES = frozenset((0, 1))

# Byte b of a Mersenne Twister word maps to its top bit, b >> 7.
_TOP_BIT = bytes(b >> 7 for b in range(256))


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
            i, j = pair
            if canonical_pair(i, j) != (i, j):
                raise ValueError(f"pair {pair!r} is not in canonical (i < j) form")
            if not (0 <= i < j < self.m):
                raise ValueError(f"pair {pair!r} out of range for m={self.m}")
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
            key = canonical_pair(i, j)
            if key in budgets:
                raise ValueError(f"duplicate pair {key!r}")
            budgets[key] = budget
        return cls(m, budgets)

    @classmethod
    def star(cls, leaf_budgets: list[int]) -> "NetworkSpec":
        """Star centered at terminal 0; leaf i+1 gets leaf_budgets[i]."""
        m = len(leaf_budgets) + 1
        return cls(m, {(0, i + 1): b for i, b in enumerate(leaf_budgets) if b > 0})

    @classmethod
    def complete(cls, m: int, weight: int) -> "NetworkSpec":
        """Complete network with the same budget on every pair."""
        return cls(m, {(i, j): weight for i in range(m) for j in range(i + 1, m)})

    def budget(self, i: int, j: int) -> int:
        pair = canonical_pair(i, j)
        if not (0 <= pair[0] and pair[1] < self.m):
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
        return self.values[self._id(label)]

    def __iter__(self) -> Iterator[str]:
        return iter(self.labels)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(self.labels_of(range(len(self))))

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

    def _id(self, label: str) -> int:
        ident = self.id_of(label)
        if ident is None:
            raise UnknownBasisLabel(f"label {label!r} is not in the basis")
        return ident

    def _run(self, ident: int) -> tuple[range, frozenset[int], str, int]:
        if not 0 <= ident < len(self.values):
            raise ValueError(f"id {ident} is not in the basis of {len(self.values)} bits")
        return self._runs[bisect_right(self._starts, ident) - 1]

    def label(self, ident: int) -> str:
        _, _, prefix, base = self._run(ident)
        return f"{prefix}{ident - base}"

    def labels_of(self, ids: Sequence[int]) -> list[str]:
        """``label`` of each id, rendered in bulk over the distinct ids: one forward walk
        over the runs they touch, each index read from a digit table built for this call."""
        # an ascending range is already sorted and distinct
        distinct = ids if isinstance(ids, range) and ids.step > 0 else sorted(set(ids))
        for ident in (distinct[0], distinct[-1]) if distinct else ():
            self._run(ident)  # range check, on the smallest and largest id
        digits: list[str] = []  # digits[k] == str(k), as far as the column renders
        rendered: list[str] = []
        k = 0
        while (lo := len(rendered)) < len(distinct):
            k = bisect_right(self._starts, distinct[lo], k) - 1
            run, _, prefix, base = self._runs[k]
            hi = bisect_left(distinct, run.stop, lo)
            first, last = distinct[lo] - base, distinct[hi - 1] - base  # label index: ident - base
            digits += map(str, range(len(digits), last + 1))
            offsets = (digits[first:last + 1] if last - first == hi - lo - 1
                       else map(digits.__getitem__, map(base.__rsub__, distinct[lo:hi])))
            rendered += map(prefix.__add__, offsets)
        if distinct is ids or distinct == ids:
            return rendered
        return list(map(dict(zip(distinct, rendered)).__getitem__, ids))

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

    def new_local_ids(self, owner: int, count: int, rng: random.Random) -> range:
        """Draw ``count`` fresh local bits for ``owner``, register them, and return their ids."""
        if count < 0:
            raise ValueError(f"count must be nonnegative, got {count}")
        return self._add_runs([(f"R{owner}:", frozenset((owner,)), count)], _random_bits(rng, count))[0]


class PairwiseKeyStore:
    """Every pair's key, drawn from the pair's own stream as protocols take it.

    The store holds the spec's budgets, the seed and, per pair, how many
    bits are drawn so far.  A take draws and registers the pair's next
    bits, so a pair no protocol touches is never drawn.  Bits are handed
    out strictly left to right and never twice; once a protocol consumes
    a bit it is gone, which is exactly the one-time-pad discipline the
    message constructions rely on.
    """

    __slots__ = ("basis", "_budgets", "_seed", "_drawn", "_streams")

    def __init__(self, spec: NetworkSpec, seed: int) -> None:
        self.basis = SourceBitBasis()
        self._budgets, self._seed = spec.budgets, seed
        self._drawn: dict[Pair, int] = {}
        self._streams: dict[Pair, random.Random] = {}  # pairs with bits drawn and bits left

    def remaining(self, i: int, j: int) -> int:
        pair = canonical_pair(i, j)
        return self._budgets.get(pair, 0) - self._drawn.get(pair, 0)

    def take(self, i: int, j: int, count: int) -> range:
        """Draw the next ``count`` unused bits of pair {i, j}'s key; return their ids.

        Raises InsufficientKeyMaterial when fewer than ``count`` bits
        remain; nothing is drawn then.
        """
        if count < 0:
            raise ValueError(f"count must be nonnegative, got {count}")
        pair = canonical_pair(i, j)
        if count > (left := self.remaining(*pair)):
            raise InsufficientKeyMaterial(f"pair {pair} has {left} unused bits, {count} requested")
        return self._draw({pair: count})[pair] if count else range(0)

    def take_each(self, counts: Mapping[Pair, int]) -> dict[Pair, range]:
        """Draw the next ``counts[pair]`` unused bits of each canonical pair, all or nothing.

        Raises InsufficientKeyMaterial, naming the pair, before any bit is
        drawn when some pair has fewer unused bits than its count.
        """
        for pair, count in counts.items():
            if count > (left := self.remaining(*pair)):
                raise InsufficientKeyMaterial(f"pair {pair} has {left} unused bits, {count} needed")
        return self._draw(counts)

    def _draw(self, counts: Mapping[Pair, int]) -> dict[Pair, range]:
        """Draw and register each pair's next ``counts[pair] > 0`` bits in one pass: one run
        per pair, from the pair's stream, dropped once the pair's budget is drawn."""
        runs, chunks = [], []
        for (i, j), count in counts.items():
            stream = self._streams.pop((i, j), None) or _pair_rng(self._seed, i, j)
            drawn = self._drawn[i, j] = self._drawn.get((i, j), 0) + count
            if drawn < self._budgets[i, j]:
                self._streams[i, j] = stream
            chunks.append(_random_bits(stream, count))
            runs.append((f"K{i}-{j}:", frozenset((i, j)), count))
        return dict(zip(counts, self.basis._add_runs(runs, b"".join(chunks))))


def _pair_rng(seed: int, i: int, j: int) -> random.Random:
    # SHA-256 of a tagged string keeps pair streams disjoint and makes the
    # derivation independent of Python's salted hash().
    digest = hashlib.sha256(f"pinkey:pair:{seed}:{i}:{j}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def local_rng(seed: int, owner: int) -> random.Random:
    """Stream for terminal-local randomness, disjoint from every pair stream."""
    digest = hashlib.sha256(f"pinkey:local:{seed}:{owner}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _random_bits(rng: random.Random, count: int) -> bytes:
    """The bits of ``count`` one-bit ``rng.getrandbits`` calls, from one draw.

    See ``generate_pairwise_keys`` for why the two agree; ``rng`` ends in
    the same state either way.
    """
    words = rng.getrandbits(32 * count).to_bytes(4 * count, "little")
    return words[3::4].translate(_TOP_BIT)


def generate_pairwise_keys(spec: NetworkSpec, seed: int) -> PairwiseKeyStore:
    """The store of every pair's key material for one run seed, with no bit drawn yet.

    Values are a pure function of (spec, seed): bit t of a pair's key is
    what the t-th one-bit ``getrandbits`` call on the pair's stream
    returns, however the takes split the key.  Each take draws its bits
    in one call: on CPython, ``getrandbits(32 * n)`` packs the next n
    32-bit Mersenne Twister words little-endian, word 0 lowest, and a
    one-bit call returns the top bit of the next word.  So bit t of a
    draw is the top bit of byte 4t + 3 of
    ``getrandbits(32 * n).to_bytes(4 * n, "little")``, and draws in
    chunks concatenate.
    """
    return PairwiseKeyStore(spec, seed)
