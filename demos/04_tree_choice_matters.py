"""The greedy tree you pick decides how many bits the group gets.

On K4 with one bit per pair, the star tree burns all of terminal 0's
budget in a single round and strands it.  Spreading the load across a
path tree doubles the yield, and a brute-force packing confirms two
bits is the true optimum here.
"""

from collections import Counter

from pinkey import NetworkSpec, generate_pairwise_keys, group_bound, run_group_key
from pinkey.oracles import maximum_spanning_tree, optimal_tree_packing_bruteforce

spec = NetworkSpec.complete(4, 1)

print("K4, every pair holds exactly 1 bit")
print("exact bound:", group_bound(spec).value)
print("optimal packing (brute force):", optimal_tree_packing_bruteforce(spec))
print()

for policy in ("lex-kruskal", "degree-min"):
    tree = maximum_spanning_tree(spec, policy)
    store = generate_pairwise_keys(spec, seed=2)
    result = run_group_key(store, policy)
    print(f"{policy}:")
    max_degree = max(Counter(node for edge in tree for node in edge).values())
    print(f"  first tree {tree} (max degree {max_degree})")
    print(f"  key bits: {len(result.key)}")

print()
print("lex-kruskal grabs the star and gets 1 bit; degree-min takes a")
print("path, keeps every budget alive one more round, and gets 2.")
