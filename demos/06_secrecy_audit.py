"""Prove a run leaked nothing, twice: by rank and by brute force.

Every key bit and every public bit is a GF(2) linear form over the
source bits, so leakage reduces to linear algebra: the transcript tells
an eavesdropper nothing iff key rank + transcript rank equals their
joint rank.  For small runs we can also enumerate every possible world
and histogram the joint distribution directly.
"""

from pinkey import (
    NetworkSpec,
    brute_force_mutual_information,
    generate_pairwise_keys,
    run_group_key,
    verify_independence,
)

spec = NetworkSpec.from_pairs(3, [(0, 1, 5), (0, 2, 4), (1, 2, 3)])
store = generate_pairwise_keys(spec, seed=7)
result = run_group_key(store, spec)

print(f"source bits: {len(result.basis)}, key bits: {len(result.key)}, "
      f"public bits: {result.transcript.public_bits}")

print("\nkey bits as linear forms:")
for form in result.key_forms:
    print(f"  {form}")
print("public bits as linear forms:")
for form in result.transcript.forms():
    print(f"  {form}")

report = verify_independence(result.key_forms, result.transcript.forms(), result.basis)
print(f"\nrank(key) = {report.rank_key}")
print(f"rank(transcript) = {report.rank_transcript}")
print(f"rank(joint) = {report.rank_joint}")
print(f"leaked bits = {report.leaked_bits}")
print(f"key uniform = {report.uniform}")

# The expensive route: enumerate all 2^12 assignments of the source bits
# and measure I(K; V) from the exact joint histogram.
mi = brute_force_mutual_information(result.key_forms, result.transcript.forms(), len(result.basis))
print(f"\nexhaustive mutual information over 2^{len(result.basis)} worlds: {mi}")
assert mi == 0 and report.leaked_bits == 0
print("both audits agree: the transcript is useless to an eavesdropper")
