"""Exact secrecy and uniformity checks via GF(2) linear algebra.

Every bit a protocol touches is an XOR of independent uniform source
bits.  For jointly linear collections the mutual information between the
key bits K and the public transcript bits V is exactly

    I(K; V) = rank(K) + rank(V) - rank(K ∪ V)   bits,

and K is uniform exactly when its forms are linearly independent.  Both
facts are checked here by a rank computation over int bitsets; the
exhaustive histogram oracle that never looks at ranks is
``pinkey.oracles.brute_force_mutual_information``.

All GF(2) elimination in the package, ranks here and the self-check and
replay in ``protocols``, goes through one kernel.  ``support_index``
numbers the source bits a set of forms mentions, its support: by int id
on the run path, by label in ``verify_independence``.  Forms are encoded
as int rows over it, with support position k at row bit k + 1 and bit 0
carrying the value the row is claimed to take; ``gf2_rank`` reduces rows
into a pivot table keyed by each row's top bit.  Basis bits no form
mentions cannot change a rank or a replay, so they get no column, and a
row with a column of its own is eliminated with it: ``secrecy_report``
counts it, and a private pad tells its owners its plain bit.  A row
whose residue is exactly ``1`` says ``0 = 1``: it lands as pivot 0, so
a table holding pivot 0 is inconsistent.  A consistent system has the
same ranks with and without its values, so a run's self-check takes its
secrecy report from the table it replays with.  ``verify_independence``
and the exhaustive oracle read labelled ``LinearForm``s; runs keep
source-bit ids and render such forms from them only when they are read.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Hashable, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from itertools import chain, count, repeat
from operator import xor

from .errors import UnknownBasisLabel
from .model import SourceBitBasis


@dataclass(frozen=True)
class LinearForm:
    """A GF(2) linear combination of source bits, stored as a label set."""

    labels: frozenset[str]

    @classmethod
    def unit(cls, label: str) -> "LinearForm":
        return cls(frozenset((label,)))

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


def support_index(*groups: Iterable[Hashable]) -> dict[Hashable, int]:
    """Number the distinct keys densely, in order of first appearance: source-bit
    ids on the run path, labels in the label-level audit, which checks them."""
    return dict(zip(dict.fromkeys(chain(*groups)), count()))


_COLUMN = (2).__lshift__  # support position k -> its row bit, 2 << k


def column_rows(columns: Iterable[Iterable[Hashable]], index: Mapping[Hashable, int],
                values: Iterable[int]) -> Iterator[int]:
    """Encode forms as kernel rows: form k is the XOR of the k-th key of every
    column, its support position p at row bit p + 1, and value k sits in bit 0."""
    rows = values
    for keys in columns:
        rows = map(xor, rows, map(_COLUMN, map(index.__getitem__, keys)))
    return rows


def owned_ids(basis: SourceBitBasis, ids: Sequence[int], terminals: Iterable[int]) -> dict[int, list[int]]:
    """The ids among the sorted ``ids`` whose bits each of ``terminals`` owns.  Only runs
    that one of them owns are looked at, their ids found by bisection, not walked."""
    owned: dict[int, list[int]] = {terminal: [] for terminal in terminals}
    for run, owners in basis.runs():
        if served := owners.intersection(owned):
            inside = ids[bisect_left(ids, run.start):bisect_left(ids, run.stop)]
            for owner in served:
                owned[owner] += inside
    return owned


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


def secrecy_report(transcript: dict[int, int], key_rows: list[int], eliminated: int = 0) -> SecrecyReport:
    """The report for the key rows and a consistent pivot table of the transcript
    rows, which it extends in place; rows may carry values that hold together.
    Each of ``eliminated`` more transcript rows has a column of its own."""
    rank_transcript = len(transcript) + eliminated
    return SecrecyReport(
        rank_key=gf2_rank(key_rows),
        rank_transcript=rank_transcript,
        rank_joint=rank_transcript + gf2_rank(key_rows, transcript),
        key_count=len(key_rows),
    )


def verify_independence(
    key_forms: Iterable[LinearForm],
    transcript_forms: Iterable[LinearForm],
    basis: SourceBitBasis,
) -> SecrecyReport:
    """Exact leakage between key and transcript, in bits.

    leaked_bits == 0 iff the key is statistically independent of the
    public transcript; every label must exist in ``basis``.  This is the
    label-level audit; runs get the same report from their self-check.
    """
    key_forms = [form.labels for form in key_forms]
    transcript_forms = [form.labels for form in transcript_forms]
    index = support_index(*transcript_forms, *key_forms)
    for label in index:
        if label not in basis:
            raise UnknownBasisLabel(f"label {label!r} is not in the basis")

    # A form's row is the sum of its labels' distinct unit rows.
    transcript_rows, key_rows = ([sum(column_rows((form,), index, repeat(0))) for form in forms]
                                 for forms in (transcript_forms, key_forms))
    table: dict[int, int] = {}
    gf2_rank(transcript_rows, table)
    return secrecy_report(table, key_rows)
