"""Is there a product state in a set's orthogonal complement?

``decide_extension`` answers it.  For all-product sets the partition test
decides it exactly: a product state lies in the complement if and only if
the states split into one group per party whose factors at that party do
not span the party's space.  Each party's capacity, the most of its factors
inside one hyperplane, bounds the groups; a capacity sum below the set size
proves the set unextendible with no search.  A set with dense members goes
to the partition test when every member factorizes, and is extendible by
the dimension count when it has at most sum(d_i - 1) states.  Only then does
the see-saw search, which maximizes <phi|P|phi> over product states |phi>,
P the projector onto the complement, one party at a time from seeded random
restarts, propose a witness, and that witness counts only once it is
checked.
"""

import numpy as np

import locstab as ls

# extendible warm-up: {|00>, |01>, |10>} misses exactly |11>
e0, e1 = [1.0, 0.0], [0.0, 1.0]
trio = ls.StateSet(
    (2, 2),
    [ls.ProductState([e0, e0]), ls.ProductState([e0, e1]), ls.ProductState([e1, e0])],
    "extendible-trio",
)
report = ls.decide_extension(trio)
print(f"{trio.label}: {report.verdict}, groups {report.groups}, {report.nodes} nodes")
print("witness factors (magnitudes):")
for factor in report.witness.factors:
    print(f"  {np.round(np.abs(factor), 6)}")
print()

# the named UPBs: proved unextendible, by the capacity bound or by search
for build in (ls.upb_qubit3, ls.upb_tiles33, ls.upb_sep333, ls.upb_44_reducible):
    state_set = build()
    report = ls.decide_extension(state_set)
    print(f"{state_set.label}: {report.verdict}; capacities {report.capacities} "
          f"(sum {sum(report.capacities)} for {len(state_set)} states), "
          f"{report.nodes} nodes")
print()

# sets with dense members: decide_extension applies exact rules first
triple = ls.entangled_triple(3)
report = ls.decide_extension(triple)
print(f"{triple.label}: method {report.method}, verdict {report.verdict} "
      f"({len(triple)} states <= sum(d_i - 1) = {sum(d - 1 for d in triple.dims)})")
tiles = ls.upb_tiles33()
dense = ls.StateSet(tiles.dims, [ls.tensor_expand(s) for s in tiles], tiles.label + "-dense")
report = ls.decide_extension(dense)
print(f"{dense.label}: method {report.method}, verdict {report.verdict}; "
      f"every member factorized, capacities {report.capacities}")
print()

# past the dimension count with an entangled member, the see-saw proposes a
# witness and decide_extension checks it against every state
phi_plus = ls.DenseState([1, 0, 0, 1], (2, 2))
phi_minus = ls.DenseState([1, 0, 0, -1], (2, 2))
bell_sets = [
    # {Phi+, Phi-, |01>} leaves exactly the product state |10>
    ls.StateSet((2, 2), [phi_plus, phi_minus, ls.ProductState([e0, e1])], "phi+ phi- |01>"),
    # {Phi+, Phi-, Psi+} leaves only the entangled Psi-, at overlap 1/2
    # with the nearest product state: no witness, so no verdict
    ls.StateSet((2, 2), [phi_plus, phi_minus, ls.DenseState([0, 1, 1, 0], (2, 2))],
                "phi+ phi- psi+"),
]
for state_set in bell_sets:
    report = ls.decide_extension(state_set, restarts=50, iters=200, rng_seed=0)
    search = report.search
    print(f"{state_set.label}: method {report.method}, verdict {report.verdict}; "
          f"residual 1 - overlap = {1 - search.overlap:.3e}, "
          f"{search.sweeps} sweeps, capped: {search.capped}")
    if report.witness is not None:
        print("witness factors (magnitudes):")
        for factor in report.witness.factors:
            print(f"  {np.round(np.abs(factor), 6)}")
    # restarts are seeded substreams, so the whole decision replays exactly
    again = ls.decide_extension(state_set, restarts=50, iters=200, rng_seed=0)
    same = (again.verdict, again.search.overlap, again.search.sweeps) == (
        report.verdict, search.overlap, search.sweeps
    ) and all(np.array_equal(a, b) for a, b in zip(again.search.witness.factors,
                                                   search.witness.factors))
    print(f"replay with the same seed reproduces the search bit for bit: {same}")
