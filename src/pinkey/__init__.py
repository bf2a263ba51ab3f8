"""Group secret-key agreement over pair-wise shared randomness.

A library for simulating, bounding, and auditing secret-key agreement
among m terminals that start from independent pairwise shared keys and
may talk only over a public channel.  Everything is exact: integer key
budgets, rational bounds, and GF(2) linear algebra for secrecy, so every
claim the protocols make is checkable bit for bit.  The exhaustive
oracles and the GF(2) rank audit that the tests check the runs against
live in ``pinkey.oracles``, which is not imported here.
"""

from . import errors
from .bounds import BoundReport, broadcast_bound, group_bound, subgroup_bound
from .graph import (
    FlowAssignment,
    Partition,
    TIE_BREAK_POLICIES,
    graph_strength,
    greedy_spanning_trees,
    max_flow,
)
from .model import (
    NetworkSpec,
    PairwiseKeyStore,
    SourceBitBasis,
    generate_pairwise_keys,
)
from .protocols import (
    GroupKeyResult,
    LinearForm,
    PublicMessage,
    Transcript,
    flood,
    replay_key,
    run_broadcast,
    run_group_key,
    run_subgroup,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "FlowAssignment",
    "GroupKeyResult",
    "LinearForm",
    "NetworkSpec",
    "PairwiseKeyStore",
    "Partition",
    "PublicMessage",
    "SourceBitBasis",
    "TIE_BREAK_POLICIES",
    "Transcript",
    "broadcast_bound",
    "errors",
    "flood",
    "generate_pairwise_keys",
    "graph_strength",
    "greedy_spanning_trees",
    "group_bound",
    "max_flow",
    "replay_key",
    "run_broadcast",
    "run_group_key",
    "run_subgroup",
    "subgroup_bound",
]
