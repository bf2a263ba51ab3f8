"""Watch the group-key protocol spend its budget one bit at a time.

Each iteration picks a maximum spanning tree of the remaining budgets,
floods a single source bit through it, and debits one bit from every
tree edge.  The loop stops when the budget graph disconnects.
"""

from pinkey import NetworkSpec, generate_pairwise_keys, group_bound, run_group_key
from pinkey.oracles import is_connected, maximum_spanning_tree

spec = NetworkSpec.from_pairs(3, [(0, 1, 5), (0, 2, 4), (1, 2, 3)])
bound = group_bound(spec)
print(f"exact bound: {bound.value} via {bound.formula}, witness {bound.witness}")

# Replay the tree choices by hand to see the budgets drain.
left = spec
iteration = 0
while is_connected(left):
    tree = maximum_spanning_tree(left, "lex-kruskal")
    print(f"  iteration {iteration}: budgets {left.budgets}, tree {tree}")
    left = NetworkSpec(left.m, {pair: w - (pair in tree) for pair, w in left.budgets.items()})
    iteration += 1
print(f"  disconnected after {iteration} iterations")

store = generate_pairwise_keys(spec, seed=7)
result = run_group_key(store)
print(f"\nkey ({len(result.key)} bits): {''.join(map(str, result.key))}")
print(f"bound {result.bound}, gap {result.gap}")
print(f"messages {len(result.transcript)}, public bits {result.transcript.public_bits}")
print("\ntranscript:")
print(result.transcript.to_text(), end="")
