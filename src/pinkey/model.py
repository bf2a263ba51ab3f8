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
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Sequence

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


def pair_bit_label(i: int, j: int, index: int) -> str:
    """Label of bit ``index`` of the shared key of pair {i, j}."""
    return f"{_pair_label_prefix(i, j)}{index}"


def _pair_label_prefix(i: int, j: int) -> str:
    i, j = canonical_pair(i, j)
    return f"K{i}-{j}:"


def local_bit_label(owner: int, index: int) -> str:
    """Label of the ``index``-th random bit generated locally by ``owner``."""
    return f"R{owner}:{index}"


@dataclass(frozen=True, eq=True)
class NetworkSpec:
    """Terminal count plus one nonnegative bit budget per unordered pair.

    Attributes
    ----------
    m:
        Number of terminals, at least 2.
    budgets:
        Mapping from canonical pair to a positive budget.  Zero-budget
        entries are dropped on construction so the stored form is unique.
    """

    m: int
    budgets: dict[Pair, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.m, int) or self.m < 2:
            raise ValueError(f"need at least 2 terminals, got m={self.m!r}")
        cleaned: dict[Pair, int] = {}
        for pair, budget in self.budgets.items():
            i, j = pair
            if canonical_pair(i, j) != (i, j):
                raise ValueError(f"pair {pair!r} is not in canonical (i < j) form")
            if not (0 <= i < j < self.m):
                raise ValueError(f"pair {pair!r} out of range for m={self.m}")
            if not isinstance(budget, int) or budget < 0:
                raise ValueError(f"budget for pair {pair!r} must be a nonnegative int, got {budget!r}")
            if budget > 0:
                cleaned[pair] = budget
        object.__setattr__(self, "budgets", cleaned)

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
        return self.budgets.get(canonical_pair(i, j), 0)

    def pairs(self) -> list[Pair]:
        """Positive-budget pairs in ascending canonical order."""
        return sorted(self.budgets)

    def total_budget(self) -> int:
        return sum(self.budgets.values())

    def is_star(self, center: int = 0) -> bool:
        """True when every positive budget touches ``center``."""
        return all(center in pair for pair in self.budgets)

    def check_terminal(self, i: int) -> None:
        if not (0 <= i < self.m):
            raise ValueError(f"terminal {i} out of range for m={self.m}")


class SourceBitBasis:
    """Ordered registry of every realized source bit in a run.

    A source bit is either one bit of a pairwise key (owned natively by
    both endpoints) or one locally generated random bit (owned by its
    generator).  Every key bit and every public payload bit a protocol
    produces is a GF(2) combination of these, which is what makes exact
    secrecy accounting possible.
    """

    __slots__ = ("_values", "_owners", "_local_counts")

    def __init__(self) -> None:
        # Both dicts are keyed by label in registration order, the basis order.
        self._values: dict[str, int] = {}
        self._owners: dict[str, frozenset[int]] = {}
        self._local_counts: dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, label: str) -> bool:
        return label in self._values

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(self._values)

    def add(self, label: str, value: int, owners: frozenset[int]) -> int:
        """Register a bit and return its position. Labels must be unique."""
        return self.add_bits([label], (value,), owners)

    def add_bits(self, labels: list[str], values: Sequence[int], owners: frozenset[int]) -> int:
        """Register bits that share one owner set; return the first one's position.

        Nothing is registered unless every label is new and unique, every
        value is 0 or 1, and the owner set is not empty.
        """
        if len(values) != len(labels):
            raise ValueError(f"{len(labels)} labels but {len(values)} values")
        new = dict(zip(labels, values))
        if len(new) < len(labels) or not self._values.keys().isdisjoint(new):
            seen = set(self._values)
            for label in labels:
                if label in seen:
                    raise ValueError(f"duplicate basis label {label!r}")
                seen.add(label)
        if not _BIT_VALUES.issuperset(values):
            value = next(v for v in values if v not in _BIT_VALUES)
            raise ValueError(f"bit value must be 0 or 1, got {value!r}")
        if not owners:
            raise ValueError("a source bit needs at least one owner")
        start = len(self._values)
        self._values.update(new)
        self._owners.update(dict.fromkeys(labels, owners))
        return start

    def value_of(self, label: str) -> int:
        try:
            return self._values[label]
        except KeyError:
            raise UnknownBasisLabel(f"label {label!r} is not in the basis") from None

    def owners_of(self, label: str) -> frozenset[int]:
        try:
            return self._owners[label]
        except KeyError:
            raise UnknownBasisLabel(f"label {label!r} is not in the basis") from None

    def known_to(self, terminal: int) -> list[str]:
        """Labels the terminal holds natively, in basis order."""
        return [lab for lab, owners in self._owners.items() if terminal in owners]

    def realized(self) -> dict[str, int]:
        """Label-to-value mapping for evaluating linear forms. Treat as read-only."""
        return self._values

    def new_local_bits(self, owner: int, count: int, rng: random.Random) -> list[str]:
        """Draw ``count`` fresh local bits for ``owner`` and register them."""
        if count < 0:
            raise ValueError(f"count must be nonnegative, got {count}")
        start = self._local_counts.get(owner, 0)
        labels = [local_bit_label(owner, start + offset) for offset in range(count)]
        self.add_bits(labels, _random_bits(rng, count), frozenset((owner,)))
        self._local_counts[owner] = start + count
        return labels


@dataclass
class PairwiseKeyStore:
    """Holds every pair's key bits plus a consumption cursor per pair.

    Bits are handed out strictly left to right and never twice; once a
    protocol consumes a bit it is gone, which is exactly the one-time-pad
    discipline the message constructions rely on.
    """

    spec: NetworkSpec
    basis: SourceBitBasis
    _keys: dict[Pair, tuple[int, ...]]
    _cursors: dict[Pair, int]

    def key_bits(self, i: int, j: int) -> tuple[int, ...]:
        return self._keys.get(canonical_pair(i, j), ())

    def key_labels(self, i: int, j: int) -> tuple[str, ...]:
        pair = canonical_pair(i, j)
        prefix = _pair_label_prefix(*pair)
        return tuple(f"{prefix}{t}" for t in range(len(self._keys.get(pair, ()))))

    def remaining(self, i: int, j: int) -> int:
        pair = canonical_pair(i, j)
        return len(self._keys.get(pair, ())) - self._cursors.get(pair, 0)

    def consume_bits(self, i: int, j: int, count: int) -> tuple[tuple[int, ...], tuple[str, ...]]:
        """Take the next ``count`` unused bits of pair {i, j}'s key.

        Returns (bit values, basis labels).  Raises InsufficientKeyMaterial
        when fewer than ``count`` bits remain; the cursor is untouched then.
        """
        if count < 0:
            raise ValueError(f"count must be nonnegative, got {count}")
        pair = canonical_pair(i, j)
        have = self.remaining(i, j)
        if count > have:
            raise InsufficientKeyMaterial(
                f"pair {pair} has {have} unused bits, {count} requested"
            )
        start = self._cursors.get(pair, 0)
        self._cursors[pair] = start + count
        bits = self._keys.get(pair, ())[start:start + count]
        prefix = _pair_label_prefix(*pair)
        labels = tuple(f"{prefix}{t}" for t in range(start, start + count))
        return bits, labels


def _pair_rng(seed: int, i: int, j: int) -> random.Random:
    # SHA-256 of a tagged string keeps pair streams disjoint and makes the
    # derivation independent of Python's salted hash().
    digest = hashlib.sha256(f"pinkey:pair:{seed}:{i}:{j}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def local_rng(seed: int, owner: int) -> random.Random:
    """Stream for terminal-local randomness, disjoint from every pair stream."""
    digest = hashlib.sha256(f"pinkey:local:{seed}:{owner}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _random_bits(rng: random.Random, count: int) -> tuple[int, ...]:
    """The bits of ``count`` one-bit ``rng.getrandbits`` calls, from one draw.

    See ``generate_pairwise_keys`` for why the two agree; ``rng`` ends in
    the same state either way.
    """
    words = rng.getrandbits(32 * count).to_bytes(4 * count, "little")
    return tuple(words[3::4].translate(_TOP_BIT))


def generate_pairwise_keys(spec: NetworkSpec, seed: int) -> PairwiseKeyStore:
    """Realize every pair's key material from a single run seed.

    Pairs are registered in the basis in ascending canonical order with
    bit indices ascending, so the basis layout is a pure function of the
    spec and the generated values a pure function of (spec, seed).

    Bit t of a pair's key is what the t-th one-bit ``getrandbits`` call on
    the pair's stream returns, drawn in one call: on CPython,
    ``getrandbits(32 * n)`` packs the next n 32-bit Mersenne Twister words
    little-endian, word 0 lowest, and a one-bit call returns the top bit
    of the next word.  So bit t is the top bit of byte 4t + 3 of
    ``getrandbits(32 * n).to_bytes(4 * n, "little")``.
    """
    basis = SourceBitBasis()
    keys: dict[Pair, tuple[int, ...]] = {}
    for pair in spec.pairs():
        i, j = pair
        bits = _random_bits(_pair_rng(seed, i, j), spec.budgets[pair])
        prefix = _pair_label_prefix(i, j)
        basis.add_bits([f"{prefix}{t}" for t in range(len(bits))], bits, frozenset(pair))
        keys[pair] = bits
    return PairwiseKeyStore(spec=spec, basis=basis, _keys=keys, _cursors={})
