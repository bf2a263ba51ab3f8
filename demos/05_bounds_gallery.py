"""Exact capacity bounds for all three protocol cases, with witnesses.

Every bound comes with the partition or cut that attains it, and each
one is cross-checked against an exhaustive oracle where the instance is
small enough to enumerate.
"""

from fractions import Fraction

from pinkey import NetworkSpec, broadcast_bound, group_bound, subgroup_bound
from pinkey.oracles import min_normalized_multicut, min_st_cut_bruteforce, optimal_tree_packing_bruteforce


def show(label, report):
    print(f"{label}: {report.value}  formula {report.formula}")
    print(f"  witness {report.witness}")


star = NetworkSpec.star([7, 5, 9])
show("broadcast on a 7/5/9 star", broadcast_bound(star))

triangle = NetworkSpec.from_pairs(3, [(0, 1, 5), (0, 2, 4), (1, 2, 3)])
show("subgroup 0->2 on the triangle", subgroup_bound(triangle, 0, 2))
value, _ = min_st_cut_bruteforce(triangle, 0, 2)
print(f"  brute-force cut agrees: {value}")

show("group key on the triangle", group_bound(triangle))
value, witness = min_normalized_multicut(triangle)
print(f"  multicut oracle agrees: {value} at {witness}")
packed = optimal_tree_packing_bruteforce(triangle)
print(f"  optimal packing attains it: {packed}")

# A fractional bound: on the unit 4-cycle, splitting into all four
# singletons cuts weight 4 over k-1 = 3, and no partition does better.
cycle = NetworkSpec.from_pairs(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)])
report = group_bound(cycle)
show("group key on the unit 4-cycle", report)
assert report.value == Fraction(4, 3)
print("  fractional: protocols can only take the floor, 1 bit")
