"""End-to-end acceptance suite.

Each test prints one [PASS]/[FAIL] line (visible with ``pytest -s``) and
asserts the same condition, covering: named-set stability verdicts, size
bound values, the heptagon six-subset campaign plus its misprint variant,
shift-family subset campaigns, the square-root subset reproduction
certified on every odd width from 37 to 201 and on 399 qubit parties,
five randomized property suites at 1000 trials each, compositions of
stable sets, partition proofs that the named UPBs and upb_shifts(n) for
n = 3..64 are unextendible, exact complement decisions for dense
triples and dense-expanded UPBs, and the complement see-saw evidence.
"""

import itertools
import math
import time

import numpy as np
import pytest

import locstab as ls
from locstab.stability import _see_saw
from oracles import hs_inner

TRIALS = 1000

# frozen see-saw regression values (seed 0, 50 restarts, 200 iters)
QUBIT3_BEST_OVERLAP = 0.9185586535436913
TILES33_BEST_OVERLAP = 0.9715837866642706


def _report(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] {name}{suffix}")
    assert ok, f"{name}{suffix}"


def _haar_unitary(d, rng):
    ginibre = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(ginibre)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_orthogonal_product_set(rng):
    """A random subset of a product basis, rotated by one local unitary per
    party: orthogonal and fully product by construction."""
    pool = [(2, 2), (3, 3), (2, 3), (2, 2, 2), (2, 2, 3)]
    dims = pool[int(rng.integers(len(pool)))]
    basis = list(itertools.product(*(range(d) for d in dims)))
    size = int(rng.integers(2, min(len(basis), 8) + 1))
    chosen = rng.choice(len(basis), size=size, replace=False)
    unitaries = [_haar_unitary(d, rng) for d in dims]
    states = [
        ls.ProductState([u[:, i] for u, i in zip(unitaries, basis[pick])])
        for pick in chosen
    ]
    return ls.StateSet(dims, states, "random-rotated-basis")


def random_valid_seeds(n, rng):
    while True:
        seeds = [
            rng.standard_normal(2) + 1j * rng.standard_normal(2)
            for _ in range(n - 1)
        ]
        try:
            return ls.validate_seeds(seeds, n)
        except ValueError:
            continue


def to_dense_set(state_set):
    return ls.StateSet(
        state_set.dims,
        [ls.as_dense(s) for s in state_set],
        state_set.label + "-dense",
    )


def permute_parties(state_set, perm):
    dims = tuple(state_set.dims[p] for p in perm)
    states = []
    for s in state_set:
        if isinstance(s, ls.ProductState):
            states.append(ls.ProductState([s.factors[p] for p in perm]))
        else:
            arr = s.amplitudes.reshape(state_set.dims).transpose(perm).ravel()
            states.append(ls.DenseState(arr, dims))
    return ls.StateSet(dims, states, state_set.label)


def with_random_phases(state_set, rng):
    states = []
    for s in state_set:
        phase = np.exp(2j * np.pi * rng.random())
        if isinstance(s, ls.ProductState):
            factors = [s.factors[0] * phase] + [f for f in s.factors[1:]]
            states.append(ls.ProductState(factors))
        else:
            states.append(ls.DenseState(s.amplitudes * phase, s.dims))
    return ls.StateSet(state_set.dims, states, state_set.label)


def test_named_set_stability_verdicts():
    start = time.monotonic()
    checks = [
        ("qubit3 stable", ls.is_locally_stable(ls.upb_qubit3()).stable),
        ("triple stable", ls.is_locally_stable(ls.entangled_triple()).stable),
        ("tiles33 stable", ls.is_locally_stable(ls.upb_tiles33()).stable),
        ("reducible44 unstable", not ls.is_locally_stable(ls.upb_44_reducible()).stable),
    ]
    for n in range(2, 7):
        checks.append(
            (f"shifts n={n} stable", ls.is_locally_stable(ls.upb_shifts(n)).stable)
        )
    elapsed = time.monotonic() - start
    checks.append(("runtime < 5 s", elapsed < 5.0))
    failed = [name for name, ok in checks if not ok]
    _report(
        "named-set stability verdicts",
        not failed,
        f"{elapsed:.2f}s" + (f"; failed: {failed}" if failed else ""),
    )


def test_bound_values_integer_exact():
    checks = [
        ls.cardinality_lower_bound((2, 2, 2)).min_size == 4,
        ls.cardinality_lower_bound((3, 3)).min_size == 5,
        ls.cardinality_lower_bound((3, 3, 3)).min_size == 6,
        ls.cardinality_lower_bound((2, 2, 2)).trivial_upb_bound == 4,
        ls.cardinality_lower_bound((3, 3, 3)).trivial_upb_bound == 7,
        ls.cardinality_upper_bounds(5, "qubit_subset") == 5,
        ls.cardinality_upper_bounds(9, "qubit_subset") == 7,
        ls.cardinality_upper_bounds(10, "qubit_subset") == 9,
        ls.cardinality_upper_bounds(49, "qubit_sqrt") == 21,
    ]
    _report("size bound values integer-exact", all(checks))


def test_heptagon_six_subset_campaign():
    start = time.monotonic()
    report = ls.subset_campaign(ls.upb_sep333(), 6)
    corrected_ok = (
        report.checked == 7 and report.stable == 7 and report.unstable == 0
    )
    misprint = ls.heptagon_qutrit_states((1, 2, 6))
    misprint_fails = bool(ls.check_mutual_orthogonality(misprint))
    elapsed = time.monotonic() - start
    _report(
        "heptagon six-subset campaign and misprint variant",
        corrected_ok and misprint_fails and elapsed < 10.0,
        f"{report.stable}/7 stable, misprint orthogonality "
        f"{'fails' if misprint_fails else 'holds'}, {elapsed:.2f}s",
    )


def test_shift_family_subset_campaigns():
    start = time.monotonic()
    rep4 = ls.subset_campaign(ls.shift_family(4), 6)
    rep5 = ls.subset_campaign(ls.shift_family(5), 7)
    elapsed = time.monotonic() - start
    ok = (
        rep4.checked == math.comb(7, 6)
        and rep4.unstable == 0
        and rep5.checked == math.comb(9, 7)
        and rep5.unstable == 0
        and elapsed < 30.0
    )
    _report(
        "shift-family subset campaigns",
        ok,
        f"n=4: {rep4.stable}/{rep4.checked}, n=5: {rep5.stable}/{rep5.checked}, "
        f"{elapsed:.2f}s",
    )


def sqrt_subset_conflicts_match_plan(plan, certificate):
    """Each state pair of a shift family is orthogonal at exactly one party:
    states a != b (first-party table entries) at the party p with
    a + b = 2p mod N.  So the conflict pairs at p are exactly those pairs,
    j outer and k inner."""
    idx = plan.indices
    half = (plan.parties + 1) // 2  # the inverse of 2 mod N
    expected = [[] for _ in range(plan.parties)]
    for j, a in enumerate(idx):
        for k, b in enumerate(idx):
            if j != k:
                expected[(a + b) * half % plan.parties].append((j, k))
    return len(certificate.parties) == plan.parties and all(
        record.conflict_pairs == tuple(pairs)
        for record, pairs in zip(certificate.parties, expected)
    )


def test_sqrt_subset_reproduction():
    start = time.monotonic()
    plan, subset = ls.sqrt_subset(25)
    indices_ok = plan.indices == tuple(range(16)) + (21, 28, 35, 42, 48)
    size_ok = len(plan.indices) == 21 and len(subset) == 21
    pairs = ls.verify_two_pairs(plan)
    pairs_ok = pairs.ok and len(pairs.counts) == 49
    # certified at the default tolerance on every odd width from 37 to 399
    # with the default seeds, and on N = 49, 99, 199 and 399 with random
    # valid ones
    rng = np.random.default_rng(29)
    runs = [((parties + 1) // 2, None) for parties in range(37, 400, 2)]
    runs += [(n, random_valid_seeds(n, rng)) for n in (25, 50, 100, 200)]
    certified = []
    all_widths_ok = True
    for n, seeds in runs:
        wide_plan, wide_set = ls.sqrt_subset(n, seeds)
        if len(wide_plan.indices) != 3 * wide_plan.block:
            all_widths_ok = False
        if not ls.verify_two_pairs(wide_plan).ok:
            all_widths_ok = False
        certificate = ls.is_locally_stable(wide_set)
        if certificate.stable and sqrt_subset_conflicts_match_plan(
            wide_plan, certificate
        ):
            certified.append(wide_plan.parties)
    certified_ok = certified == list(range(37, 400, 2)) + [49, 99, 199, 399]
    elapsed = time.monotonic() - start
    ok = (
        indices_ok
        and size_ok
        and pairs_ok
        and certified_ok
        and all_widths_ok
        and elapsed < 60.0
    )
    _report(
        "square-root subset reproduction",
        ok,
        f"|T|={len(plan.indices)}, two-pairs min={pairs.minimum}, "
        f"stable at {len(set(certified))} widths from {min(certified, default=None)} "
        f"to {max(certified, default=None)}, plans ok={all_widths_ok}, "
        f"{elapsed:.2f}s",
    )


def test_property_conflict_disjointness():
    rng = np.random.default_rng(101)
    failures = 0
    for _ in range(TRIALS):
        state_set = random_orthogonal_product_set(rng)
        if not ls.conflict_audit(state_set).disjoint:
            failures += 1
    _report(
        f"property: conflict-set disjointness ({TRIALS} trials)",
        failures == 0,
        f"failures={failures}",
    )


def test_property_span_bounds_and_identity_orthogonality():
    rng = np.random.default_rng(103)
    failures = 0
    for _ in range(TRIALS):
        state_set = random_orthogonal_product_set(rng)
        party = int(rng.integers(len(state_set.dims)))
        d = state_set.dims[party]
        generators = ls.span_generators(state_set)[party]
        dim = ls.span_rank(generators)
        if dim > d * d - 1:
            failures += 1
            continue
        eye = np.eye(d, dtype=complex)
        for g in generators:
            if abs(hs_inner(eye, g / np.linalg.norm(g))) >= 1e-9:
                failures += 1
                break
    _report(
        f"property: span bounds and identity orthogonality ({TRIALS} trials)",
        failures == 0,
        f"failures={failures}",
    )


def test_property_product_vs_dense_paths():
    rng = np.random.default_rng(107)
    builders = [
        lambda: ls.upb_qubit3(),
        lambda: ls.upb_tiles33(),
        lambda: ls.upb_sep333(),
        lambda: ls.upb_44_reducible(),
        lambda: ls.upb_sep333().subset(
            sorted(rng.choice(7, size=6, replace=False).tolist())
        ),
        lambda: ls.shift_family(2, random_valid_seeds(2, rng)),
        lambda: ls.shift_family(3, random_valid_seeds(3, rng)),
        lambda: ls.upb_shifts(2, random_valid_seeds(2, rng)),
        lambda: ls.upb_shifts(3, random_valid_seeds(3, rng)),
        lambda: ls.compose(ls.upb_qubit3(), 0, ls.upb_tiles33(), 0),
        lambda: ls.compose(ls.upb_tiles33(), 0, ls.upb_tiles33(), 0),
    ]
    failures = 0
    for _ in range(TRIALS):
        state_set = builders[int(rng.integers(len(builders)))]()
        product_cert = ls.is_locally_stable(state_set)
        dense_cert = ls.is_locally_stable(to_dense_set(state_set))
        same = product_cert.stable == dense_cert.stable and all(
            a.span_dim == b.span_dim
            for a, b in zip(product_cert.parties, dense_cert.parties)
        )
        if not same:
            failures += 1
    _report(
        f"property: product vs dense path agreement ({TRIALS} trials)",
        failures == 0,
        f"failures={failures}",
    )


def test_property_permutation_and_phase_invariance():
    rng = np.random.default_rng(109)
    builders = [
        ls.upb_qubit3,
        ls.upb_tiles33,
        ls.upb_sep333,
        ls.entangled_triple,
        lambda: ls.upb_shifts(2),
    ]
    failures = 0
    for _ in range(TRIALS):
        base = builders[int(rng.integers(len(builders)))]()
        cert = ls.is_locally_stable(base)
        spans = tuple(r.span_dim for r in cert.parties)

        state_perm = rng.permutation(len(base)).tolist()
        shuffled = ls.StateSet(
            base.dims, [base[i] for i in state_perm], base.label
        )
        cert_shuffled = ls.is_locally_stable(shuffled)

        party_perm = rng.permutation(len(base.dims)).tolist()
        permuted = permute_parties(base, party_perm)
        cert_permuted = ls.is_locally_stable(permuted)

        phased = with_random_phases(base, rng)
        cert_phased = ls.is_locally_stable(phased)

        ok = (
            cert_shuffled.stable == cert.stable
            and tuple(r.span_dim for r in cert_shuffled.parties) == spans
            and cert_permuted.stable == cert.stable
            and tuple(r.span_dim for r in cert_permuted.parties)
            == tuple(spans[p] for p in party_perm)
            and cert_phased.stable == cert.stable
            and tuple(r.span_dim for r in cert_phased.parties) == spans
        )
        if not ok:
            failures += 1
    _report(
        f"property: permutation and phase invariance ({TRIALS} trials)",
        failures == 0,
        f"failures={failures}",
    )


def test_property_span_rank_invariance():
    rng = np.random.default_rng(113)
    failures = 0
    trials = 0
    while trials < TRIALS:
        state_set = random_orthogonal_product_set(rng)
        party = int(rng.integers(len(state_set.dims)))
        generators = ls.span_generators(state_set)[party]
        if not len(generators):
            continue
        trials += 1
        base = ls.span_rank(generators)
        scaled = [
            g * ((0.1 + 9.9 * rng.random()) * np.exp(2j * np.pi * rng.random()))
            for g in generators
        ]
        order = rng.permutation(len(scaled)).tolist()
        if ls.span_rank([scaled[i] for i in order]) != base:
            failures += 1
    _report(
        f"property: span-rank scalar/permutation invariance ({TRIALS} trials)",
        failures == 0,
        f"failures={failures}",
    )


def test_compositions_of_stable_sets():
    roster = {
        "qubit3": ls.upb_qubit3(),
        "triple": ls.entangled_triple(),
        "tiles33": ls.upb_tiles33(),
        "shifts2": ls.upb_shifts(2),
        "shifts3": ls.upb_shifts(3),
        "sep6": ls.upb_sep333().subset(range(6)),
    }
    for name, state_set in roster.items():
        assert ls.is_locally_stable(state_set).stable, name
    checked = 0
    failures = []
    for (name_a, set_a), (name_b, set_b) in itertools.combinations_with_replacement(
        sorted(roster.items()), 2
    ):
        if len(set_a.dims) + len(set_b.dims) > 8:
            continue
        combined = ls.compose(set_a, 0, set_b, 0)
        checked += 1
        if len(combined) != len(set_a) + len(set_b) - 1:
            failures.append(f"{name_a}+{name_b} size")
        elif not ls.is_locally_stable(combined).stable:
            failures.append(f"{name_a}+{name_b} verdict")
    _report(
        "compositions of stable sets stay stable",
        checked > 0 and not failures,
        f"{checked} compositions" + (f"; failed: {failures}" if failures else ""),
    )


def test_partition_proofs_of_unextendibility():
    start = time.monotonic()
    named = [ls.upb_qubit3(), ls.upb_tiles33(), ls.upb_sep333(), ls.upb_44_reducible()]
    shifts = range(3, 65)
    reports = [ls.decide_extension(s) for s in named]
    reports += [ls.decide_extension(ls.upb_shifts(n)) for n in shifts]
    proved = [r.label for r in reports if r.verdict == "unextendible"]
    searched = [r.label for r in reports if r.nodes]
    elapsed = time.monotonic() - start
    _report(
        "partition proofs of unextendibility",
        len(proved) == len(reports) and searched == ["tiles-4x4-reducible"] and elapsed < 60.0,
        f"{len(proved)} of {len(reports)} sets proved (upb_shifts n = 3..64), "
        f"searched: {searched}, {elapsed:.2f}s",
    )


def test_complement_search_evidence():
    e0, e1 = [1.0, 0.0], [0.0, 1.0]
    trio = ls.StateSet(
        (2, 2),
        [
            ls.ProductState([e0, e0]),
            ls.ProductState([e0, e1]),
            ls.ProductState([e1, e0]),
        ],
        "extendible-trio",
    )

    def overlap(state_set, restarts=50, iters=200):
        vectors = [ls.as_dense(s).amplitudes for s in state_set]
        return _see_saw(vectors, state_set.dims, restarts, iters, rng_seed=0).overlap

    overlap_trio = overlap(trio, restarts=10, iters=100)
    overlap_q3 = overlap(ls.upb_qubit3())
    overlap_q3_again = overlap(ls.upb_qubit3())
    overlap_tiles = overlap(ls.upb_tiles33())
    checks = [
        ("extendible overlap 1", abs(overlap_trio - 1.0) <= 1e-6),
        ("qubit3 below UPB cutoff", overlap_q3 < 1 - 1e-3),
        ("tiles33 below UPB cutoff", overlap_tiles < 1 - 1e-3),
        ("seed determinism", overlap_q3 == overlap_q3_again),
        ("qubit3 regression", abs(overlap_q3 - QUBIT3_BEST_OVERLAP) < 1e-6),
        ("tiles33 regression", abs(overlap_tiles - TILES33_BEST_OVERLAP) < 1e-6),
    ]
    failed = [name for name, ok in checks if not ok]
    _report(
        "complement search evidence",
        not failed,
        f"qubit3={overlap_q3:.6f}, tiles33={overlap_tiles:.6f}"
        + (f"; failed: {failed}" if failed else ""),
    )


def test_dense_complement_decisions():
    # dense GHZ/W triples: l = 3 <= n = sum(d_i - 1), so the dimension count
    # settles them; the named UPBs, every state tensor-expanded, factorize
    # back into product sets that the partition test proves unextendible
    triples = [ls.decide_extension(ls.entangled_triple(n)) for n in range(3, 15)]
    counted = all(
        (r.method, r.verdict) == ("dimension-count", "extendible") for r in triples
    )
    upbs = []
    for build in (ls.upb_qubit3, ls.upb_tiles33, ls.upb_sep333, ls.upb_44_reducible):
        product = build()
        dense = ls.StateSet(product.dims, [ls.tensor_expand(s) for s in product], product.label)
        report = ls.decide_extension(dense)
        upbs.append(
            (report.method, report.verdict, report.capacities)
            == ("partition", "unextendible", ls.decide_extension(product).capacities)
        )
    _report(
        "dense complements decided exactly",
        counted and all(upbs),
        f"triples n = 3..14 by dimension count: {counted}; "
        f"dense UPBs by partition: {sum(upbs)} of {len(upbs)}",
    )
