"""Exact upper bounds on achievable key length for the three cases.

Each bound is an exact rational with a combinatorial witness, so a
protocol's gap to its bound is an exact number, never an estimate:

- broadcast case (star networks): the smallest leaf budget;
- two-terminal case with helpers: the minimum s-t cut of the budget graph;
- group case: the minimum over node partitions of crossing weight
  divided by (block count - 1), i.e. the normalized multicut.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import NotAStar
from .graph import Partition, graph_strength, max_flow
from .model import NetworkSpec


@dataclass(frozen=True)
class BoundReport:
    """A bound value, the witness attaining it, and which formula produced it."""

    case: str
    value: Fraction
    witness: Partition
    formula: str

    def __post_init__(self) -> None:
        if self.value < 0:
            raise ValueError("bounds are nonnegative")


def broadcast_bound(spec: NetworkSpec) -> BoundReport:
    """Smallest leaf budget of a star centered at terminal 0.

    The witness is the 2-partition isolating the poorest leaf (smallest
    id on ties).  Raises NotAStar when some positive budget avoids the
    center.
    """
    if not spec.is_star():
        raise NotAStar("broadcast case needs a star centered at terminal 0")
    leaves = range(1, spec.m)
    poorest = min(leaves, key=lambda i: (spec.budget(0, i), i))
    value = spec.budget(0, poorest)
    witness = Partition((frozenset((poorest,)), frozenset(range(spec.m)) - {poorest}))
    return BoundReport(case="broadcast", value=Fraction(value), witness=witness, formula="min-leaf-budget")


def subgroup_bound(spec: NetworkSpec, s: int, t: int) -> BoundReport:
    """Minimum s-t cut of the budget graph, witnessed by the 2-block partition
    of s's residual side and the rest.

    Computed from the max-flow residual; the tests compare it with
    exhaustive cut enumeration.  Raises ValueError unless s and t are two
    distinct terminals.
    """
    flow = max_flow(spec, s, t)
    return BoundReport(case="subgroup", value=Fraction(flow.value), witness=flow.cut, formula="min-st-cut")


def group_bound(spec: NetworkSpec) -> BoundReport:
    """Minimum normalized multicut of the budget graph, as an exact rational.

    Minimizes crossing_weight / (k - 1) over all partitions of the
    terminals into k >= 2 blocks, at any m: this is the strength of the
    budget graph, computed with polynomially many min cuts (Cunningham,
    JACM 1985).  The witness is the finest partition attaining the
    minimum; it refines every other one.  The tests compare value and
    witness with exhaustive partition enumeration.
    """
    value, witness = graph_strength(spec)
    return BoundReport(case="group", value=value, witness=witness, formula="min-normalized-multicut")
