"""Group secret-key agreement over pair-wise shared randomness.

A library for simulating, bounding, and auditing secret-key agreement
among m terminals that start from independent pairwise shared keys and
may talk only over a public channel.  Everything is exact: integer key
budgets, rational bounds, and GF(2) linear algebra for secrecy, so every
claim the protocols make is checkable bit for bit.
"""

from . import errors
from .bounds import BoundReport, broadcast_bound, group_bound, subgroup_bound
from .graph import (
    FlowAssignment,
    Partition,
    SpanningTree,
    TIE_BREAK_POLICIES,
    enumerate_partitions,
    enumerate_spanning_trees,
    graph_strength,
    greedy_spanning_trees,
    is_connected,
    max_flow,
    maximum_spanning_tree,
    min_normalized_multicut,
    min_st_cut_bruteforce,
    optimal_tree_packing_bruteforce,
)
from .model import (
    NetworkSpec,
    PairwiseKeyStore,
    SourceBitBasis,
    TerminalId,
    generate_pairwise_keys,
)
from .protocols import (
    GroupKeyResult,
    PublicMessage,
    Transcript,
    flood,
    replay_key,
    run_broadcast,
    run_group_key,
    run_subgroup,
)
from .secrecy import (
    LinearForm,
    SecrecyReport,
    brute_force_mutual_information,
    verify_independence,
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
    "SecrecyReport",
    "SourceBitBasis",
    "SpanningTree",
    "TIE_BREAK_POLICIES",
    "TerminalId",
    "Transcript",
    "broadcast_bound",
    "brute_force_mutual_information",
    "enumerate_partitions",
    "enumerate_spanning_trees",
    "errors",
    "flood",
    "generate_pairwise_keys",
    "graph_strength",
    "greedy_spanning_trees",
    "group_bound",
    "is_connected",
    "max_flow",
    "maximum_spanning_tree",
    "min_normalized_multicut",
    "min_st_cut_bruteforce",
    "optimal_tree_packing_bruteforce",
    "replay_key",
    "run_broadcast",
    "run_group_key",
    "run_subgroup",
    "subgroup_bound",
    "verify_independence",
]
