"""Exact secrecy and uniformity checks via GF(2) linear algebra.

Every bit a protocol touches is an XOR of independent uniform source
bits.  For jointly linear collections the mutual information between the
key bits K and the public transcript bits V is exactly

    I(K; V) = rank(K) + rank(V) - rank(K ∪ V)   bits,

and K is uniform exactly when its forms are linearly independent.  Both
facts are checked here two ways: a rank computation over int bitsets, and
an exhaustive histogram oracle that never looks at ranks.

All GF(2) elimination in the package, ranks here and replay in
``protocols``, goes through one kernel.  ``support_index`` numbers the
labels a set of forms mentions, its support; ``form_rows`` encodes forms
as int rows over it, with support position k at row bit k + 1 and bit 0
carrying the value the row is claimed to take; ``gf2_rank`` reduces rows
into a pivot table keyed by each row's top bit.  Rows are as wide as the
support, not the basis: basis bits no form mentions cannot change a rank
or a replay, so they get no column.  Ranks use value 0 throughout.  For
equations, a row whose residue is exactly ``1`` says ``0 = 1``: it lands
as pivot 0, so a table holding pivot 0 is inconsistent.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from typing import Iterable, Iterator, Mapping

from .errors import InstanceTooLarge, UnknownBasisLabel
from .model import SourceBitBasis

MI_BASIS_LIMIT = 20  # exhaustive oracle enumerates 2**basis_size assignments


@dataclass(frozen=True)
class LinearForm:
    """A GF(2) linear combination of source bits, stored as a label set."""

    labels: frozenset[str]

    @classmethod
    def unit(cls, label: str) -> "LinearForm":
        return cls(frozenset((label,)))

    @classmethod
    def zero(cls) -> "LinearForm":
        return cls(frozenset())

    def __xor__(self, other: "LinearForm") -> "LinearForm":
        return LinearForm(self.labels ^ other.labels)

    def evaluate(self, values: Mapping[str, int]) -> int:
        acc = 0
        for label in self.labels:
            acc ^= values[label]
        return acc

    def __str__(self) -> str:
        if not self.labels:
            return "0"
        return "^".join(sorted(self.labels))


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


def support_index(basis: SourceBitBasis, *form_groups: Iterable[LinearForm]) -> dict[str, int]:
    """Number the labels the forms mention, densely, in order of first appearance.

    The order within one form is its set order, which can differ between
    processes; no rank or replay depends on it.  Raises UnknownBasisLabel
    for a label that is not in ``basis``.
    """
    index: dict[str, int] = {}
    for forms in form_groups:
        for form in forms:
            for label in form.labels:
                if label not in index:
                    if label not in basis:
                        raise UnknownBasisLabel(f"label {label!r} is not in the basis")
                    index[label] = len(index)
    return index


def form_rows(
    forms: Iterable[LinearForm], index: Mapping[str, int], values: Iterable[int] | None = None
) -> list[int]:
    """Encode forms as kernel rows: support position k at bit k + 1, the value in bit 0.

    ``index`` comes from ``support_index`` over these forms.  ``values``
    gives each form's claimed value; without it every value is 0.
    """
    return [
        sum(2 << index[label] for label in form.labels) | value
        for form, value in zip(forms, repeat(0) if values is None else values)
    ]


def own_rows(basis: SourceBitBasis, index: Mapping[str, int]) -> dict[int, Iterator[int]]:
    """Each terminal's own source bits inside the support, as kernel rows.

    A bit's row is what ``form_rows`` gives for its unit form and its
    realized value.  Own bits outside the support are left out: such a
    bit's row is a unit on a column no other row has, so it can never
    reduce another row nor yield ``0 = 1``.  The rows are built only as
    each owner's iterator is read, so each can be read once.
    """
    values = basis.realized()
    owned: dict[int, list[str]] = {}
    for label in index:
        for owner in basis.owners_of(label):
            owned.setdefault(owner, []).append(label)
    return {
        owner: ((2 << index[label]) | values[label] for label in labels)
        for owner, labels in owned.items()
    }


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
    public transcript; every label must exist in ``basis``.
    """
    key_forms = list(key_forms)
    transcript_forms = list(transcript_forms)
    index = support_index(basis, transcript_forms, key_forms)
    key_rows = form_rows(key_forms, index)
    table: dict[int, int] = {}
    rank_transcript = gf2_rank(form_rows(transcript_forms, index), table)
    return SecrecyReport(
        rank_key=gf2_rank(key_rows),
        rank_transcript=rank_transcript,
        rank_joint=rank_transcript + gf2_rank(key_rows, table),
        key_count=len(key_rows),
    )


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

    Returns 0 iff the joint distribution factorizes.  All probability
    ratios of linear-form systems are powers of two, so the value is
    computed log-free as an exact Fraction in bits.
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

    joint: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}
    key_marginal: dict[tuple[int, ...], int] = {}
    transcript_marginal: dict[tuple[int, ...], int] = {}
    total = 1 << len(labels)
    for assignment in range(total):
        values = {label: (assignment >> t) & 1 for t, label in enumerate(labels)}
        k = tuple(f.evaluate(values) for f in key_forms)
        v = tuple(f.evaluate(values) for f in transcript_forms)
        joint[(k, v)] = joint.get((k, v), 0) + 1
        key_marginal[k] = key_marginal.get(k, 0) + 1
        transcript_marginal[v] = transcript_marginal.get(v, 0) + 1

    if all(
        count * total == key_marginal[k] * transcript_marginal[v]
        for (k, v), count in joint.items()
    ):
        return Fraction(0)

    info = Fraction(0)
    for (k, v), count in joint.items():
        ratio = Fraction(count * total, key_marginal[k] * transcript_marginal[v])
        info += Fraction(count, total) * _exact_log2(ratio)
    return info
