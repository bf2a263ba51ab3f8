"""A hub re-keys its leaves so everyone ends up with the same secret.

Star network: terminal 0 shares an independent pad with each leaf, and the
whole group wants one common key.  The hub picks the shortest pad as the
key and XORs it onto every other leaf's pad in public.
"""

from pinkey import NetworkSpec, generate_pairwise_keys, replay_key, run_broadcast
from pinkey.oracles import verify_independence

spec = NetworkSpec.star([7, 5, 9])
print(f"star with {spec.m} terminals, leaf budgets:",
      {leaf: spec.budget(0, leaf) for leaf in range(1, spec.m)})

store = generate_pairwise_keys(spec, seed=3)
result = run_broadcast(store)

print(f"\ngroup key ({len(result.key)} bits): {''.join(map(str, result.key))}")
print("the poorest leaf (terminal 2, budget 5) sets the length\n")

for msg in result.transcript:
    print(f"  round {msg.round}: 0 -> {msg.receiver}  payload {''.join(map(str, msg.payload))}")
    for form in msg.forms:
        print(f"    published bit = {form}")

# Every terminal reconstructs the key from its own pad plus the public
# messages; nobody needs a bit they do not already hold.
print()
for terminal in range(spec.m):
    assert replay_key(result, terminal) == result.key
    print(f"  terminal {terminal} replays the key: ok")

report = verify_independence(result.key_forms, result.transcript.forms(), result.basis)
print(f"\nleaked bits: {report.leaked_bits}, key uniform: {report.uniform}")
