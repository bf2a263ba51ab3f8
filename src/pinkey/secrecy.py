"""Exact secrecy and uniformity checks via GF(2) linear algebra.

Every bit a protocol touches is an XOR of independent uniform source
bits.  For jointly linear collections the mutual information between the
key bits K and the public transcript bits V is exactly

    I(K; V) = rank(K) + rank(V) - rank(K ∪ V)   bits,

and K is uniform exactly when its forms are linearly independent.  Both
facts are checked here by a rank computation over int bitsets; the
exhaustive histogram oracle that never looks at ranks is
``pinkey.oracles.brute_force_mutual_information``.

Runs need no elimination: every pad a run publishes is private, used
once and no key id or plain id, so each public bit's row has a column of
its own and the self-check in ``protocols`` gives the report in closed
form.  ``verify_independence`` is the general audit, for any forms: it
numbers the labels the forms mention, packs each form as an int row over
them and reduces the rows with ``gf2_rank``.  It reads labelled
``LinearForm``s; runs keep source-bit ids and render such forms from
them only when they are read.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import chain

from .errors import UnknownBasisLabel
from .model import SourceBitBasis


@dataclass(frozen=True)
class LinearForm:
    """A GF(2) linear combination of source bits, stored as a label set."""

    labels: frozenset[str]

    @classmethod
    def unit(cls, label: str) -> "LinearForm":
        return cls(frozenset((label,)))

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


def verify_independence(
    key_forms: Iterable[LinearForm],
    transcript_forms: Iterable[LinearForm],
    basis: SourceBitBasis,
) -> SecrecyReport:
    """Exact leakage between key and transcript, in bits.

    leaked_bits == 0 iff the key is statistically independent of the
    public transcript; every label must exist in ``basis``.  This is the
    label-level audit of any forms; a run's self-check gives the same
    report in closed form, as its pads are private.
    """
    key_forms = [form.labels for form in key_forms]
    transcript_forms = [form.labels for form in transcript_forms]
    # Number the labels the forms mention, in order of first appearance;
    # basis bits no form mentions cannot change a rank.
    index = {label: k for k, label in enumerate(dict.fromkeys(chain(*transcript_forms, *key_forms)))}
    for label in index:
        if label not in basis:
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
