"""Two terminals build a key across a relay that carries part of it.

Terminals 0 and 2 want a shared key but also share pads with terminal 1.
Fresh random bits from terminal 0 are routed along max-flow paths; every
hop re-encrypts with the pad of that hop, so the eavesdropper sees only
ciphertext it cannot strip.  The relay is a trusted helper: it decrypts
what it forwards, so it can compute the key bits on its path, but never
the direct-edge slice.
"""

from pinkey import (
    LinearForm,
    NetworkSpec,
    generate_pairwise_keys,
    max_flow,
    replay_key,
    run_subgroup,
)
from pinkey.oracles import verify_independence

spec = NetworkSpec.from_pairs(3, [(0, 1, 5), (0, 2, 4), (1, 2, 3)])
flow = max_flow(spec, 0, 2)
print("max flow from 0 to 2:", flow.value)
for path, amount in flow.paths:
    print(f"  {amount} bits along {' -> '.join(map(str, path))}")

store = generate_pairwise_keys(spec, seed=5)
result = run_subgroup(store, s=0, t=2)

print(f"\nkey ({len(result.key)} bits): {''.join(map(str, result.key))}")
print("transcript:")
print(result.transcript.to_text(), end="")

print("\nterminal 0 replays:", replay_key(result, 0) == result.key)
print("terminal 2 replays:", replay_key(result, 2) == result.key)
# The relay carries 3 of the 7 bits but never sees the direct-edge slice:
# what it can compute is what the transcript plus its own pads leak.
basis = result.basis
relay_forms = [LinearForm.unit(basis.label(ident)) for run, owners in basis.runs() if 1 in owners
               for ident in run]
relay = verify_independence(result.key_forms, result.transcript.forms() + relay_forms, basis)
print("relay (terminal 1) can reconstruct the key:", replay_key(result, 1) is not None)
print(f"key bits the relay (terminal 1) can compute: {relay.leaked_bits} of {len(result.key)}")
