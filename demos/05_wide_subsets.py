"""Square-root-sized stable subsets on many qubits.

On N = 2n-1 > 36 qubits, picking 3*ceil(sqrt(N)) states of the shift
family suffices for stability: the selected first-party indices are spread
so that every cyclic shift keeps at least two complementary pairs {x, N-x},
and complementary table entries are exactly the orthogonal ones.

Numerical note: orthogonality is decided per factor.  Factors are unit
vectors, so the default cutoff 1e-10 serves every N, although the product
of the N-1 overlaps away from a conflict's party shrinks geometrically
(about 2e-18 on 49 parties).
"""

import locstab as ls

plan, subset = ls.sqrt_subset(25)
print(f"n=25: N={plan.parties} qubits, block={plan.block}")
print(f"selected first-party indices ({len(plan.indices)}):")
print(f"  {plan.indices}\n")

pairs = ls.verify_two_pairs(plan)
print(f"complementary-pair counts per shift: min={pairs.minimum}, "
      f"ok={pairs.ok}")
print(f"  first few counts: {pairs.counts[:10]}\n")

cert = ls.is_locally_stable(subset)
largest = max(
    abs(ls.vec_inner(subset[j].factors[r.party], subset[k].factors[r.party]))
    for r in cert.parties
    for j, k in r.conflict_pairs
)
print(f"21-state set on 49 qubits: stable = {cert.stable}")
print(f"largest factor overlap admitted as a zero: {largest:.1e} "
      f"(cutoff {ls.DEFAULT_TOL.orth_abs:.0e}, one factor at a time)\n")

# the same default tolerance certifies the wider subsets
for n in (50, 100, 200):
    wide_plan, wide_set = ls.sqrt_subset(n)
    wide_cert = ls.is_locally_stable(wide_set)
    least = min(len(r.conflict_pairs) for r in wide_cert.parties)
    print(f"{len(wide_set)}-state set on {wide_plan.parties} qubits: "
          f"stable = {wide_cert.stable}, fewest conflict pairs at a party = {least}")
print()

# the plan holds for every odd width in (36, 201]
sizes_ok = True
pairs_ok = True
for parties in range(37, 202, 2):
    p = ls.sqrt_subset_plan((parties + 1) // 2)
    sizes_ok &= len(p.indices) == 3 * p.block
    pairs_ok &= ls.verify_two_pairs(p).ok
print(f"every odd N in (36, 201]: size 3*ceil(sqrt(N)) = {sizes_ok}, "
      f"two pairs per shift = {pairs_ok}")
