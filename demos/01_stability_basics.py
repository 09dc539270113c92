"""A first walk through local-stability certification.

The running example is the four-state product UPB on three qubits:
|000>, |+-1>, |1+->, |-1+>.  No single party can start a nontrivial
measurement without breaking some orthogonality, and the certificate
quantifies that party by party.
"""

import json

import numpy as np

import locstab as ls

s = ls.upb_qubit3()
print(f"set: {s.label}, {len(s)} states over dims {s.dims}\n")

# Mutual orthogonality is the precondition for everything else.
offending = ls.check_mutual_orthogonality(s)
print(f"non-orthogonal pairs: {offending or 'none'}\n")

# A "conflict pair" at party i is a pair of states whose factors on every
# OTHER party still overlap.  Orthogonality then has to be carried by party
# i itself, which pins down what measurements party i may perform.  The
# certificate records each party's conflict pairs.
cert = ls.is_locally_stable(s)
for record in cert.parties:
    print(f"party {record.party}: conflict pairs {record.conflict_pairs}")
print()

# Each conflict pair contributes one operator |a><b| built from the party's
# own factors.  The party is stable when these operators span the whole
# traceless space, dimension d^2 - 1.
gens = ls.span_generators(s)[0]
print(f"party 0 has {len(gens)} generators; span dimension {ls.span_rank(gens)}")
print("one generator:")
print(np.round(gens[2], 3), "\n")

# Everything that remains orthogonal to the span must be proportional to
# the identity: the only measurement party 0 can make reveals nothing.
complement = ls.orthocomplement_basis(gens, dim=2)
print(f"orthocomplement dimension: {len(complement)}")
print("its single element, rescaled:")
print(np.round(complement[0] / complement[0][0, 0], 6), "\n")

print("certificate:")
print(json.dumps(cert.to_dict(), indent=2, default=tuple))
