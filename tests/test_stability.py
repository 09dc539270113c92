"""Certifier tests: conflict pairs, span generators, certificates, bounds,
counting audits, and the complement see-saw."""

import collections
import dataclasses
import functools
import math

import numpy as np
import pytest

import locstab.stability
import locstab.states
from locstab import (
    DEFAULT_TOL,
    DenseState,
    SearchReport,
    as_dense,
    bpart_decompose,
    OrthogonalityError,
    ProductState,
    StateSet,
    cardinality_lower_bound,
    cardinality_upper_bounds,
    compose,
    conflict_audit,
    decide_extension,
    entangled_triple,
    is_locally_stable,
    shift_family,
    span_generators,
    span_rank,
    sqrt_subset,
    tensor_expand,
    upb_44_reducible,
    upb_qubit3,
    upb_sep333,
    upb_shifts,
    upb_tiles33,
    validate_seeds,
    vec_inner,
)
from locstab.stability import _see_saw
from oracles import (
    conflict_attribution_loop,
    extension_brute,
    hs_inner,
    seesaw_sequential,
)

KET0 = np.array([1.0, 0.0], dtype=complex)
KET1 = np.array([0.0, 1.0], dtype=complex)
PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
MINUS = np.array([1.0, -1.0], dtype=complex) / np.sqrt(2)


def outer(a, b):
    return np.outer(a, np.conj(b))


def basis_set_2x2():
    e = np.eye(2, dtype=complex)
    states = [ProductState([e[i], e[j]]) for i in range(2) for j in range(2)]
    return StateSet((2, 2), states, "computational-2x2")


class TestConflictRecords:
    """Each party record of a certificate carries that party's conflict
    pairs."""

    def test_qubit3_party0(self):
        record = is_locally_stable(upb_qubit3()).parties[0]
        assert set(record.conflict_pairs) == {(0, 2), (2, 0), (1, 3), (3, 1)}

    def test_qubit3_all_parties_size_four(self):
        records = is_locally_stable(upb_qubit3()).parties
        assert [len(r.conflict_pairs) for r in records] == [4, 4, 4]

    def test_computational_basis_party1(self):
        record = is_locally_stable(basis_set_2x2()).parties[1]
        assert set(record.conflict_pairs) == {(0, 1), (1, 0), (2, 3), (3, 2)}

    def test_singleton_empty(self):
        single = StateSet((2, 2), [ProductState([KET0, KET0])])
        record = is_locally_stable(single).parties[0]
        assert record.conflict_pairs == ()

    def test_closed_under_swap(self):
        pairs = set(is_locally_stable(upb_sep333()).parties[1].conflict_pairs)
        assert all((k, j) in pairs for j, k in pairs)


class TestSpanGenerators:
    def test_qubit3_party0_matrices(self):
        expected = {
            (0, 2): outer(KET0, KET1),
            (2, 0): outer(KET1, KET0),
            (1, 3): outer(PLUS, MINUS),
            (3, 1): outer(MINUS, PLUS),
        }
        pairs = is_locally_stable(upb_qubit3()).parties[0].conflict_pairs
        gens = span_generators(upb_qubit3())[0]
        assert len(gens) == 4
        for pair, gen in zip(pairs, gens):
            assert np.allclose(gen, expected[pair], atol=1e-12)

    def test_singleton_empty(self):
        single = StateSet((2, 2), [ProductState([KET0, KET0])])
        gens = span_generators(single)
        assert isinstance(gens, tuple)
        assert [g.shape for g in gens] == [(0, 2, 2), (0, 2, 2)]

    def test_bell_pair_general_path(self):
        plus = DenseState([1, 0, 0, 1], (2, 2))
        minus = DenseState([1, 0, 0, -1], (2, 2))
        pair = StateSet((2, 2), [plus, minus], "bell-pair")
        gens = span_generators(pair)[0]
        assert len(gens) == 2
        target = np.diag([1.0, -1.0])
        for g in gens:
            scaled = g / g[0, 0]
            assert np.allclose(scaled, target, atol=1e-12)

    def test_ghz_pair_general_path_every_party(self):
        ghz_plus = DenseState([1, 0, 0, 0, 0, 0, 0, 1], (2, 2, 2))
        ghz_minus = DenseState([1, 0, 0, 0, 0, 0, 0, -1], (2, 2, 2))
        pair = StateSet((2, 2, 2), [ghz_plus, ghz_minus], "ghz-pair")
        target = np.diag([1.0, -1.0])
        for gens in span_generators(pair):
            assert len(gens) == 2
            for g in gens:
                assert np.allclose(g / g[0, 0], target, atol=1e-12)

    def test_generators_traceless(self):
        for gens in span_generators(upb_sep333()):
            for g in gens:
                assert abs(np.trace(g)) < 1e-12


class TestOnePass:
    """A certificate and a span_generators call each build the set's factor
    zero pattern once, not once per party."""

    @pytest.mark.parametrize("view", [is_locally_stable, span_generators])
    def test_one_zero_pattern_per_call(self, monkeypatch, view):
        family = shift_family(30)
        builds = []
        original = locstab.states.factor_zero_pattern

        def counted(*args, **kwargs):
            builds.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(locstab.states, "factor_zero_pattern", counted)
        view(family)
        assert len(builds) == 1


class TestPartyVerdicts:
    def test_qubit3(self):
        records = is_locally_stable(upb_qubit3()).parties
        assert [(r.stable, r.span_dim) for r in records] == [(True, 3)] * 3

    def test_computational_basis_party0(self):
        record = is_locally_stable(basis_set_2x2()).parties[0]
        assert (record.stable, record.span_dim) == (False, 2)

    def test_entangled_triple(self):
        records = is_locally_stable(entangled_triple()).parties
        assert [(r.stable, r.span_dim) for r in records] == [(True, 3)] * 3


class TestCertificates:
    def test_qubit3_stable(self):
        cert = is_locally_stable(upb_qubit3())
        assert cert.stable
        assert [r.span_dim for r in cert.parties] == [3, 3, 3]
        assert [r.required for r in cert.parties] == [3, 3, 3]

    def test_reducible44_unstable_spans_recorded(self):
        cert = is_locally_stable(upb_44_reducible())
        assert not cert.stable
        assert [r.span_dim for r in cert.parties] == [14, 14]
        assert all(r.span_dim < r.required for r in cert.parties)

    def test_sep333_drop_any_one(self):
        sep = upb_sep333()
        for drop in range(7):
            sub = sep.subset([i for i in range(7) if i != drop])
            assert is_locally_stable(sub).stable

    def test_non_orthogonal_input_raises_with_pairs(self):
        s = StateSet((2, 2), [ProductState([KET0, KET0]), ProductState([KET0, PLUS])])
        with pytest.raises(OrthogonalityError) as excinfo:
            is_locally_stable(s)
        assert (0, 1) in [(j, k) for j, k, _ in excinfo.value.pairs]

    def test_product_records_conflict_pairs_dense_does_not(self):
        cert = is_locally_stable(upb_qubit3())
        assert all(r.conflict_pairs is not None for r in cert.parties)
        cert_dense = is_locally_stable(entangled_triple())
        assert all(r.conflict_pairs is None for r in cert_dense.parties)

    def test_certificate_json_shape(self):
        payload = is_locally_stable(upb_qubit3()).to_dict()
        assert payload["stable"] is True
        assert payload["label"] == "qubit3-upb"
        assert payload["tolerance"] == {"rank_rel": 1e-8, "orth_abs": 1e-10}
        assert len(payload["parties"]) == 3
        entry = payload["parties"][0]
        assert set(entry) == {"party", "span_dim", "required", "stable", "conflict_pairs"}

    def test_span_dim_never_exceeds_required(self):
        for builder in (upb_qubit3, upb_sep333, upb_44_reducible, entangled_triple):
            cert = is_locally_stable(builder())
            assert all(r.span_dim <= r.required for r in cert.parties)

    def test_identity_orthogonal_to_generators(self):
        for builder in (upb_qubit3, upb_sep333, entangled_triple):
            s = builder()
            for d, gens in zip(s.dims, span_generators(s)):
                eye = np.eye(d, dtype=complex)
                for g in gens:
                    assert abs(hs_inner(eye, g / np.linalg.norm(g))) < 1e-9

    def test_stable_party_complement_is_identity_line(self):
        from locstab import orthocomplement_basis

        for builder in (upb_qubit3, upb_sep333):
            s = builder()
            for d, gens in zip(s.dims, span_generators(s)):
                basis = orthocomplement_basis(gens, dim=d)
                assert len(basis) == 1
                scaled = basis[0] / basis[0][0, 0]
                assert np.max(np.abs(scaled - np.eye(d))) < 1e-8

    def test_mixed_product_dense_set_uses_general_path(self):
        q3 = upb_qubit3()
        mixed = StateSet(
            (2, 2, 2),
            [q3[0], q3[1], as_dense(q3[2]), as_dense(q3[3])],
            "qubit3-mixed",
        )
        cert = is_locally_stable(mixed)
        assert cert.stable
        assert all(r.conflict_pairs is None for r in cert.parties)
        assert [r.span_dim for r in cert.parties] == [3, 3, 3]


def named_product_sets():
    return [
        upb_qubit3(),
        upb_tiles33(),
        upb_sep333(),
        upb_44_reducible(),
        upb_shifts(3),
        upb_shifts(6),
        shift_family(5),
        shift_family(10),
        sqrt_subset(19)[1],
        compose(upb_qubit3(), 0, upb_tiles33(), 4),
    ]


class TestOneConflictRoutine:
    """The certificate's conflict pairs and span_generators read one zero
    pattern, so they must agree pair for pair with per-pair reference loops."""

    @pytest.mark.parametrize("state_set", named_product_sets(), ids=lambda s: s.label)
    def test_views_agree_on_named_sets(self, state_set):
        # reference: per-pair loops over vec_inner
        size, parties = len(state_set), len(state_set.dims)
        vanishing = {
            (j, k): {
                r
                for r in range(parties)
                if abs(vec_inner(state_set[j].factors[r], state_set[k].factors[r]))
                < DEFAULT_TOL.orth_abs
            }
            for j in range(size)
            for k in range(size)
            if j != k
        }
        cert = is_locally_stable(state_set)
        for record, gens in zip(cert.parties, span_generators(state_set), strict=True):
            party = record.party
            pairs = record.conflict_pairs
            assert pairs == tuple(
                pair for pair, zeros in vanishing.items() if zeros == {party}
            )
            factors = [s.factors[party] for s in state_set]
            assert len(gens) == len(pairs)
            for (j, k), gen in zip(pairs, gens):
                assert np.array_equal(gen, np.outer(factors[j], factors[k].conj()))
            assert span_rank(gens) == record.span_dim


class TestCertificateRanksInStacks:
    """is_locally_stable ranks parties of one dimension together, in stacks
    bounded by _RANK_BUDGET entries."""

    @staticmethod
    def _counting(monkeypatch, name):
        calls = []
        original = getattr(locstab.stability, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(locstab.stability, name, counted)
        return calls

    @pytest.mark.parametrize("budget", [1, 64, 1 << 20])
    def test_stack_bounds_do_not_move_a_certificate(self, monkeypatch, budget):
        q3 = upb_qubit3()
        sets = named_product_sets() + [
            entangled_triple(),
            StateSet(q3.dims, [q3[0], q3[1], as_dense(q3[2]), as_dense(q3[3])], "mixed"),
        ]
        want = [is_locally_stable(s) for s in sets]
        monkeypatch.setattr(locstab.stability, "_RANK_BUDGET", budget)
        assert [is_locally_stable(s) for s in sets] == want

    def test_wide_set_ranks_in_few_kernel_calls(self, monkeypatch):
        family = shift_family(100)
        parties = len(family.dims)
        kernel = self._counting(monkeypatch, "_orthonormal_rows")
        cert = is_locally_stable(family)
        assert cert.stable
        widest = max(len(r.conflict_pairs) for r in cert.parties)
        # no per-party rank: the module holds no span_rank to call
        assert not hasattr(locstab.stability, "span_rank")
        assert sum(len(args[0]) for args in kernel) == parties
        budget = locstab.stability._RANK_BUDGET
        assert len(kernel) <= math.ceil(parties * widest * 4 / budget) + 1


def dense_expansion(state_set):
    return StateSet(state_set.dims, [as_dense(s) for s in state_set], state_set.label)


class TestDenseViews:
    """On dense sets span_generators and the certificate read the block
    contractions of every ordered pair, j outer and k inner."""

    @pytest.mark.parametrize(
        "state_set",
        [
            dense_expansion(upb_qubit3()),
            dense_expansion(upb_tiles33()),
            dense_expansion(upb_sep333()),
            dense_expansion(upb_44_reducible()),
            dense_expansion(upb_shifts(5)),
            entangled_triple(3),
            entangled_triple(10),
        ],
        ids=lambda s: s.label,
    )
    def test_views_agree_with_pair_loop(self, state_set):
        cert = is_locally_stable(state_set)
        size = len(state_set)
        for record, gens in zip(cert.parties, span_generators(state_set), strict=True):
            party = record.party
            # reference: one contraction per ordered pair, then the norm filter
            blocks = [np.stack(bpart_decompose(s, party)) for s in state_set]
            contractions = [
                blocks[k].T @ blocks[m].conj()
                for k in range(size)
                for m in range(size)
                if k != m
            ]
            expected = [
                mat for mat in contractions
                if np.linalg.norm(mat) >= DEFAULT_TOL.orth_abs
            ]
            assert len(gens) == len(expected)
            for gen, ref in zip(gens, expected):
                assert np.array_equal(gen, ref)
            assert record.conflict_pairs is None
            assert span_rank(gens) == record.span_dim


def random_shift_seeds(n, rng):
    while True:
        raw = rng.standard_normal((n - 1, 2)) + 1j * rng.standard_normal((n - 1, 2))
        try:
            return validate_seeds(list(raw), n)
        except ValueError:
            continue


class TestConflictAudit:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_shift_family_50_has_every_orthogonal_pair(self, seed):
        # every state pair is orthogonal at exactly one party, so each of the
        # 99 parties keeps all 2(n-1) = 98 of its orthogonal pairs
        family = shift_family(50, random_shift_seeds(50, np.random.default_rng(seed)))
        audit = conflict_audit(family)
        assert audit.conflict_counts == (98,) * 99
        assert audit.disjoint
        assert audit.stable

    def test_reuses_a_held_certificate(self):
        q3 = upb_qubit3()
        cert = is_locally_stable(q3)
        assert conflict_audit(q3, certificate=cert) == conflict_audit(q3)

    def test_certificate_of_another_signature_rejected(self):
        with pytest.raises(ValueError, match="certificate"):
            conflict_audit(upb_qubit3(), certificate=is_locally_stable(upb_tiles33()))

    def test_qubit3_numbers(self):
        audit = conflict_audit(upb_qubit3())
        assert audit.disjoint
        assert audit.conflict_counts == (4, 4, 4)
        assert audit.span_dims == (3, 3, 3)
        assert audit.counts_cover_span
        assert audit.pair_budget == 12
        assert audit.required_span_total == 9
        assert audit.stable and audit.size_bound_ok

    def test_computational_basis_vacuous_bound(self):
        audit = conflict_audit(basis_set_2x2())
        assert audit.disjoint
        assert not audit.stable
        assert audit.size_bound_ok is None

    def test_dense_rejected(self):
        with pytest.raises(ValueError, match="all-product"):
            conflict_audit(entangled_triple())

    @pytest.mark.parametrize(
        "build",
        [upb_qubit3, upb_tiles33, upb_sep333, upb_44_reducible, basis_set_2x2,
         lambda: upb_shifts(5), lambda: shift_family(10), lambda: sqrt_subset(19)[1]],
    )
    def test_matches_attribution_loop(self, build):
        state_set = build()
        audit = conflict_audit(state_set)
        shared, counts = conflict_attribution_loop(is_locally_stable(state_set))
        assert audit.shared_pairs == shared
        assert audit.conflict_counts == counts

    def test_shared_pairs_of_a_hand_made_certificate(self):
        # conflict pairs that no real certificate has: unordered pairs at
        # several parties, in both orders at one party
        q3 = upb_qubit3()
        cert = is_locally_stable(q3)
        pairs = [
            ((0, 1), (1, 0), (2, 3)),
            ((1, 2), (3, 2), (0, 2)),
            ((2, 3), (0, 1), (3, 0)),
        ]
        cert = dataclasses.replace(
            cert,
            parties=tuple(
                dataclasses.replace(record, conflict_pairs=p)
                for record, p in zip(cert.parties, pairs)
            ),
        )
        audit = conflict_audit(q3, certificate=cert)
        assert audit.shared_pairs == (((0, 1), (0, 2)), ((2, 3), (0, 1, 2)))
        assert (audit.shared_pairs, audit.conflict_counts) == conflict_attribution_loop(cert)
        assert not audit.disjoint
        assert audit.to_dict()["shared_pairs"] == [
            {"pair": [0, 1], "parties": [0, 2]},
            {"pair": [2, 3], "parties": [0, 1, 2]},
        ]


class TestCardinalityLowerBound:
    @pytest.mark.parametrize(
        "dims,expected_total,expected_min",
        [((2, 2, 2), 9, 4), ((3, 3), 16, 5), ((3, 3, 3), 24, 6)],
    )
    def test_known_values(self, dims, expected_total, expected_min):
        report = cardinality_lower_bound(dims)
        assert report.required_span_total == expected_total
        assert report.min_size == expected_min

    def test_min_size_is_least(self):
        for dims in [(2, 2), (2, 2, 2), (3, 3), (4, 4), (2, 3, 4), (2,) * 9]:
            report = cardinality_lower_bound(dims)
            size, total = report.min_size, report.required_span_total
            assert size * (size - 1) >= total
            assert size == 1 or (size - 1) * (size - 2) < total

    def test_trivial_upb_bound(self):
        assert cardinality_lower_bound((2, 2, 2)).trivial_upb_bound == 4
        assert cardinality_lower_bound((3, 3, 3)).trivial_upb_bound == 7

    def test_closed_form_as_printed(self):
        report = cardinality_lower_bound((2, 2, 2))
        assert report.closed_form == pytest.approx((-1 + np.sqrt(37)) / 2)


class TestCardinalityUpperBounds:
    def test_qubit_subset_values(self):
        assert cardinality_upper_bounds(5, "qubit_subset") == 5
        assert cardinality_upper_bounds(9, "qubit_subset") == 7
        assert cardinality_upper_bounds(10, "qubit_subset") == 9

    def test_qubit_upb(self):
        assert cardinality_upper_bounds(5, "qubit_upb") == 6
        with pytest.raises(ValueError, match=">= 5"):
            cardinality_upper_bounds(4, "qubit_upb")

    def test_qubit_subset_range_errors(self):
        for n in (3, 4, 6, 8):
            with pytest.raises(ValueError, match="odd n >= 5 or even n >= 10"):
                cardinality_upper_bounds(n, "qubit_subset")

    def test_sqrt_bound(self):
        assert cardinality_upper_bounds(49, "qubit_sqrt") == 21
        with pytest.raises(ValueError, match="above 36"):
            cardinality_upper_bounds(19, "qubit_sqrt")
        with pytest.raises(ValueError, match="odd"):
            cardinality_upper_bounds(48, "qubit_sqrt")

    def test_qutrit_composition_values(self):
        assert [cardinality_upper_bounds(n, "qutrit_composition") for n in range(2, 8)] == [
            5, 6, 9, 10, 11, 14,
        ]
        with pytest.raises(ValueError):
            cardinality_upper_bounds(1, "qutrit_composition")

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown bound kind"):
            cardinality_upper_bounds(5, "nope")


def _extendible_trio():
    e = np.eye(2, dtype=complex)
    return StateSet(
        (2, 2),
        [ProductState([e[0], e[0]]), ProductState([e[0], e[1]]),
         ProductState([e[1], e[0]])],
        "extendible-trio",
    )


_SEARCH_SETS = {
    "qubit3": upb_qubit3,
    "tiles33": upb_tiles33,
    "sep333": upb_sep333,
    "upb_shifts(3)": lambda: upb_shifts(3),
    "extendible-trio": _extendible_trio,
    "entangled_triple(3)": lambda: entangled_triple(3),
}
_SEARCH_RESTARTS = 20


def _search(state_set, restarts, iters, rng_seed):
    """The see-saw kernel on a set's amplitude vectors."""
    vectors = [as_dense(s).amplitudes for s in state_set]
    return _see_saw(vectors, state_set.dims, restarts, iters, rng_seed)


@functools.lru_cache(maxsize=None)
def _sequential_search(name, seed, iters):
    return seesaw_sequential(_SEARCH_SETS[name](), _SEARCH_RESTARTS, iters, seed)


def _equal_up_to_phase(phi, factors, atol=1e-9):
    expected = tensor_expand(ProductState(factors)).amplitudes
    overlap = np.vdot(expected, phi)
    if abs(overlap) < 0.5:
        return False
    return np.max(np.abs(expected * overlap / abs(overlap) - phi)) <= atol


class TestComplementSearch:
    def test_single_state_has_full_complement(self):
        s = StateSet((2, 2), [ProductState([KET0, KET0])])
        report = _search(s, restarts=5, iters=50, rng_seed=0)
        assert report.overlap == pytest.approx(1.0, abs=1e-9)

    def test_extendible_trio_finds_missing_basis_state(self):
        report = _search(_extendible_trio(), restarts=10, iters=50, rng_seed=0)
        assert report.overlap == pytest.approx(1.0, abs=1e-9)
        for factor in report.witness.factors:
            assert abs(abs(factor[1]) - 1.0) < 1e-6

    # the see-saw's only entry, decide_extension, checks the set it searches
    def test_complete_set_rejected(self):
        with pytest.raises(ValueError, match="complement is empty"):
            decide_extension(basis_set_2x2())

    def test_non_orthogonal_rejected(self):
        s = StateSet((2, 2), [ProductState([KET0, KET0]), ProductState([KET0, PLUS])])
        with pytest.raises(OrthogonalityError):
            decide_extension(s)

    def test_overlap_never_exceeds_one(self):
        report = _search(upb_qubit3(), restarts=20, iters=100, rng_seed=3)
        assert report.overlap <= 1.0 + 1e-9

    def test_seed_determinism(self):
        a = _search(upb_qubit3(), restarts=10, iters=50, rng_seed=42)
        b = _search(upb_qubit3(), restarts=10, iters=50, rng_seed=42)
        assert (a.overlap, a.sweeps, a.capped) == (b.overlap, b.sweeps, b.capped)
        for fa, fb in zip(a.witness.factors, b.witness.factors):
            assert np.array_equal(fa, fb)

    @pytest.mark.parametrize("iters", [1, 5, 200])
    @pytest.mark.parametrize("seed", [0, 11])
    @pytest.mark.parametrize("name", sorted(_SEARCH_SETS))
    def test_batch_matches_sequential_reference(self, name, seed, iters):
        report = _search(_SEARCH_SETS[name](), _SEARCH_RESTARTS, iters, seed)
        best, _, runs = _sequential_search(name, seed, iters)
        assert abs(report.overlap - best) <= 1e-12
        counts = [count for _, _, count in runs]
        assert report.sweeps == sum(counts)
        assert report.capped == (iters in counts)
        # Restarts that reach the best overlap at different optima tie to
        # within rounding; the witness must be the final state of one
        # restart that ties.
        phi = tensor_expand(report.witness).amplitudes
        tied = [factors for value, factors, _ in runs if value >= best - 1e-12]
        assert any(_equal_up_to_phase(phi, factors) for factors in tied)

    @pytest.mark.parametrize("seed", [0, 11])
    @pytest.mark.parametrize("name", sorted(_SEARCH_SETS))
    def test_witness_is_the_first_restart_near_the_best(self, name, seed):
        witness = _search(_SEARCH_SETS[name](), _SEARCH_RESTARTS, 200, seed).witness
        best, _, runs = _sequential_search(name, seed, 200)
        first = next(factors for value, factors, _ in runs if value >= best - 1e-12)
        assert _equal_up_to_phase(tensor_expand(witness).amplitudes, first)

    def test_exact_ties_keep_the_first_restart(self):
        # restarts end at |01> or |10>, both at overlap exactly 1
        s = StateSet((2, 2), [ProductState([KET0, KET0]), ProductState([KET1, KET1])])
        report = _search(s, restarts=6, iters=20, rng_seed=1)
        best, _, runs = seesaw_sequential(s, 6, 20, 1)
        assert report.overlap == best == 1.0
        assert all(value == 1.0 for value, _, _ in runs)
        phi = tensor_expand(report.witness).amplitudes
        assert _equal_up_to_phase(phi, runs[0][1])
        assert not _equal_up_to_phase(phi, runs[-1][1])

    def test_reference_runs_cover_convergence_and_cap(self):
        sweeps = {
            (name, seed): [count for _, _, count in _sequential_search(name, seed, 200)[2]]
            for name in _SEARCH_SETS
            for seed in (0, 11)
        }
        converged = {count for counts in sweeps.values() for count in counts if count < 200}
        assert len(converged) > 1
        for seed in (0, 11):
            assert 200 in sweeps["entangled_triple(3)", seed]

    def test_triple_search_keeps_its_output(self):
        # the GHZ/W triple's search as the CLI printed it before the
        # dimension count settled that set; floats are compared to 1e-9 so
        # the check does not depend on the BLAS build
        report = _search(entangled_triple(3), restarts=3, iters=10, rng_seed=9)
        assert report.overlap == pytest.approx(0.9999403396029427, abs=1e-9)
        expected = [
            [[-0.9999999999778661, 0.0], [-5.553240611476474e-06, -3.6646241060841612e-06]],
            [[0.08839306383791976, 0.0], [0.8313778953663028, 0.5486323553725595]],
            [[-0.08638346700458285, 0.0], [0.8315250346759875, 0.5487294536794667]],
        ]
        pairs = [np.stack([f.real, f.imag], axis=1) for f in report.witness.factors]
        assert np.allclose(pairs, expected, atol=1e-9, rtol=0)
        # no restart meets the 1e-13 gain stop within 10 sweeps
        assert (report.sweeps, report.capped) == (30, True)


def _no_search(*args, **kwargs):
    raise AssertionError("the see-saw search ran")


def _not_called(*args, **kwargs):
    raise AssertionError("a check ran that this path must not run")


def _dense_expansion(state_set):
    return StateSet(
        state_set.dims, [tensor_expand(s) for s in state_set], state_set.label + "-dense"
    )


_BELL = {
    "phi+": DenseState([1, 0, 0, 1], (2, 2)),
    "phi-": DenseState([1, 0, 0, -1], (2, 2)),
    "psi+": DenseState([0, 1, 1, 0], (2, 2)),
    "psi-": DenseState([0, 1, -1, 0], (2, 2)),
}


def _bell_set(*names, extra=()):
    """Bell states by name plus product states: sets of three states in 2x2
    that are past the dimension count (1 + 1) and not all product."""
    return StateSet((2, 2), [_BELL[n] for n in names] + list(extra), "+".join(names))


class TestDecideExtension:
    def test_mixed_extendible_set_gets_a_checked_witness(self):
        trio = _extendible_trio()
        mixed = StateSet(trio.dims, [trio[0], tensor_expand(trio[1]), trio[2]], "mixed")
        report = decide_extension(mixed)
        assert (report.method, report.verdict) == ("partition", "extendible")
        # the witness is |11> up to phases
        assert [abs(v[1]) for v in report.witness.factors] == pytest.approx([1.0, 1.0])

    def test_dimension_count_has_no_search_limit(self, monkeypatch):
        # D = 2**21, above the see-saw's dense limit of 2**20
        monkeypatch.setattr(locstab.stability, "_see_saw", _no_search)
        report = decide_extension(entangled_triple(21))
        assert (report.method, report.verdict) == ("dimension-count", "extendible")

    def test_seesaw_witness_in_the_complement_is_extendible(self):
        # {Phi+, Phi-, |01>} leaves exactly |10>
        state_set = _bell_set("phi+", "phi-", extra=[ProductState([KET0, KET1])])
        report = decide_extension(state_set, restarts=4, iters=20, rng_seed=0)
        assert (report.method, report.verdict) == ("see-saw", "extendible")
        assert report.witness is report.search.witness
        assert [abs(report.witness.factors[0][1]), abs(report.witness.factors[1][0])] == (
            pytest.approx([1.0, 1.0])
        )
        assert report.capacities is report.groups is report.nodes is None

    def test_seesaw_never_proves_unextendibility(self):
        # {Phi+, Phi-, Psi+} leaves exactly the entangled Psi-
        report = decide_extension(_bell_set("phi+", "phi-", "psi+"), restarts=4, iters=20)
        assert (report.method, report.verdict, report.witness) == ("see-saw", "undecided", None)
        assert report.search.overlap == pytest.approx(0.5)
        assert not report.search.capped

    def test_seesaw_witness_failing_the_check_is_undecided(self, monkeypatch):
        # a search that claims overlap 1 at |00>, which is not orthogonal to Phi+
        claimed = SearchReport(1.0, ProductState([KET0, KET0]), 1, True)
        monkeypatch.setattr(locstab.stability, "_see_saw", lambda *args, **kwargs: claimed)
        state_set = _bell_set("phi+", "phi-", extra=[ProductState([KET0, KET1])])
        report = decide_extension(state_set)
        assert (report.method, report.verdict, report.witness) == ("see-saw", "undecided", None)
        assert report.search is claimed

    def test_input_errors(self, monkeypatch):
        monkeypatch.setattr(locstab.stability, "_see_saw", _no_search)
        with pytest.raises(OrthogonalityError):
            decide_extension(_bell_set("phi+", extra=[ProductState([KET0, KET0])]))
        with pytest.raises(ValueError, match="complement is empty"):
            decide_extension(_bell_set("phi+", "phi-", "psi+", "psi-"))
        for restarts, iters in ((0, 10), (10, 0)):
            with pytest.raises(ValueError, match="must be positive"):
                decide_extension(_bell_set("phi+", "phi-", "psi+"), restarts=restarts, iters=iters)

    def test_near_orthogonal_dense_pair_is_decided_by_its_own_rule(self):
        # factor overlaps 1e-6 at both parties, so the full inner product is
        # 1e-12: orthogonal by the dense rule that check and certify use
        near = np.array([1e-6, 1.0], dtype=complex)
        products = [ProductState([KET0, KET0]), ProductState([near, near])]
        state_set = StateSet((2, 2), [tensor_expand(p) for p in products], "near")
        assert locstab.check_mutual_orthogonality(state_set) == []
        is_locally_stable(state_set)
        report = decide_extension(state_set)
        assert (report.method, report.verdict) == ("partition", "extendible")
        for state in state_set.states:
            overlap = vec_inner(tensor_expand(report.witness).amplitudes, state.amplitudes)
            assert abs(overlap) < DEFAULT_TOL.orth_abs


def _counted(monkeypatch, module, name, calls):
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)


class TestOneCheckPerDecision:
    """decide_extension checks its input once, by the set's own rule, on
    every path; no later step builds a second zero pattern or re-checks."""

    @pytest.mark.parametrize("build, method, patterns", [
        (upb_qubit3, "partition", 1),
        (lambda: _dense_expansion(upb_qubit3()), "partition", 0),
        (lambda: entangled_triple(3), "dimension-count", 0),
        (lambda: _bell_set("phi+", "phi-", extra=[ProductState([KET0, KET1])]), "see-saw", 0),
        (lambda: _bell_set("phi+", "phi-", "psi+"), "see-saw", 0),
    ], ids=["product", "dense-factorized", "dimension-count", "see-saw-extendible",
            "see-saw-undecided"])
    def test_input_is_checked_once(self, monkeypatch, build, method, patterns):
        state_set = build()
        calls = collections.Counter()
        _counted(monkeypatch, locstab.stability, "_span_source", calls)
        _counted(monkeypatch, locstab.stability, "_offending_pairs", calls)
        _counted(monkeypatch, locstab.states, "factor_zero_pattern", calls)
        for module in (locstab.states, locstab.stability, locstab):
            monkeypatch.setattr(module, "check_mutual_orthogonality", _not_called, raising=False)
        report = decide_extension(state_set, restarts=4, iters=20)
        assert report.method == method
        names = ("_span_source", "_offending_pairs", "factor_zero_pattern")
        assert [calls[name] for name in names] == [1, 1, patterns]


def _planted_product_set(rng, dims, size):
    """A random orthogonal product set of at most ``size`` states whose
    factors are vectors of two random bases per party, each times a random
    phase: factors of one basis vector are parallel, of one basis
    orthogonal, and of two bases generic.  A candidate state joins when it
    is orthogonal to every state kept, within one basis at some party."""
    bases = [[np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
              for _ in range(2)] for d in dims]
    labels, states = [], []
    for _ in range(200):
        label = [(int(rng.integers(2)), int(rng.integers(d))) for d in dims]
        if any(all(a[0] != b[0] or a[1] == b[1] for a, b in zip(label, kept)) for kept in labels):
            continue
        labels.append(label)
        states.append(ProductState([
            bases[i][b][:, k] * np.exp(2j * np.pi * rng.random()) for i, (b, k) in enumerate(label)
        ]))
        if len(states) == size:
            break
    return StateSet(dims, states, "planted")


def _with_basis_party(state_set):
    """Every state of ``state_set`` times |0> and times |1> on one more
    qubit; unextendible when ``state_set`` is, with a parallel class of l
    factors at the new party."""
    e = np.eye(2, dtype=complex)
    return StateSet(
        state_set.dims + (2,),
        [ProductState(list(s.factors) + [e[k]]) for s in state_set.states for k in range(2)],
        state_set.label + "x2",
    )


_DISGUISED_BASES = [
    upb_qubit3, upb_tiles33, upb_sep333, functools.partial(upb_shifts, 3),
    lambda: _with_basis_party(upb_qubit3()), lambda: _with_basis_party(_extendible_trio()),
]


def _disguised(rng, state_set, drop):
    """``state_set`` under random local unitaries, factor phases and party
    and state orders, with ``drop`` random states removed: the verdict of
    the whole set does not change, and removing a state from a UPB makes it
    extendible."""
    unitaries = [np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
                 for d in state_set.dims]
    order = rng.permutation(len(state_set.dims))
    kept = rng.permutation(len(state_set))[drop:]
    states = [
        ProductState([
            unitaries[i] @ state_set[j].factors[i] * np.exp(2j * np.pi * rng.random())
            for i in order
        ])
        for j in kept
    ]
    return StateSet(tuple(state_set.dims[i] for i in order), states, "disguised")


def _assert_witness_checks(state_set, report):
    """The witness of an "extendible" report is orthogonal to every state at
    some party, by at least the package's factor cutoff."""
    assert report.verdict == "extendible"
    assert report.witness.dims == state_set.dims
    for state in state_set.states:
        overlaps = [abs(vec_inner(v, a)) for v, a in zip(report.witness.factors, state.factors)]
        assert min(overlaps) < DEFAULT_TOL.orth_abs
    groups = report.groups
    assert sorted(j for group in groups for j in group) == list(range(len(state_set)))


def _assert_agrees_with_brute_force(state_set):
    extendible, capacities = extension_brute(state_set)
    report = decide_extension(state_set)
    assert report.capacities == capacities
    assert report.verdict == ("extendible" if extendible else "unextendible")
    if extendible:
        _assert_witness_checks(state_set, report)


_NAMED_UPBS = {
    "qubit3": upb_qubit3,
    "tiles33": upb_tiles33,
    "sep333": upb_sep333,
    "reducible44": upb_44_reducible,
    **{f"upb_shifts({n})": functools.partial(upb_shifts, n) for n in (3, 4, 5, 6)},
}


class TestPartitionRule:
    @pytest.mark.parametrize("build", [
        upb_qubit3, upb_tiles33, upb_sep333, _extendible_trio,
        functools.partial(upb_shifts, 3), functools.partial(upb_shifts, 4),
        functools.partial(shift_family, 3), functools.partial(shift_family, 4),
        lambda: compose(upb_qubit3(), 0, upb_qubit3(), 0),
    ], ids=["qubit3", "tiles33", "sep333", "trio", "upb_shifts(3)", "upb_shifts(4)",
            "shift_family(3)", "shift_family(4)", "compose-qubit3"])
    def test_agrees_with_brute_force_on_named_sets(self, build):
        state_set = build()
        _assert_agrees_with_brute_force(state_set)

    @pytest.mark.parametrize("seed", range(40))
    def test_agrees_with_brute_force_on_planted_sets(self, seed):
        rng = np.random.default_rng(seed)
        dims = [(2, 2), (2, 2, 2), (2, 3), (3, 3), (2, 2, 2, 2), (3, 2, 2), (4, 2)][seed % 7]
        size = min(int(rng.integers(3, 9)), math.prod(dims) - 1)
        state_set = _planted_product_set(rng, dims, size)
        _assert_agrees_with_brute_force(state_set)

    @pytest.mark.parametrize("seed", range(24))
    def test_agrees_with_brute_force_on_disguised_sets(self, seed):
        rng = np.random.default_rng(1000 + seed)
        base = _DISGUISED_BASES[seed % len(_DISGUISED_BASES)]()
        state_set = _disguised(rng, base, drop=seed // len(_DISGUISED_BASES) % 2)
        _assert_agrees_with_brute_force(state_set)

    def test_disguised_sets_cover_both_verdicts_and_searches(self):
        reports = [
            decide_extension(_disguised(np.random.default_rng(1000 + seed),
                                        _DISGUISED_BASES[seed % len(_DISGUISED_BASES)](),
                                        drop=seed // len(_DISGUISED_BASES) % 2))
            for seed in range(24)
        ]
        assert {r.verdict for r in reports} == {"extendible", "unextendible"}
        assert any(r.verdict == "unextendible" and r.nodes > 0 for r in reports)
        assert any(r.verdict == "extendible" and r.nodes > 0 for r in reports)

    @pytest.mark.parametrize("name", sorted(_NAMED_UPBS))
    def test_named_upbs_minus_one_state_extend(self, name):
        upb = _NAMED_UPBS[name]()
        assert decide_extension(upb).verdict == "unextendible"
        for j in range(len(upb)):
            rest = upb.subset([k for k in range(len(upb)) if k != j])
            _assert_witness_checks(rest, decide_extension(rest))

    def test_shift_family_extends_in_a_few_nodes(self):
        report = decide_extension(shift_family(3))
        assert report.verdict == "extendible"
        assert report.nodes <= 10
        _assert_witness_checks(shift_family(3), report)

    def test_reducible44_needs_a_search(self):
        report = decide_extension(upb_44_reducible())
        assert report.verdict == "unextendible"
        assert sum(report.capacities) >= len(upb_44_reducible())
        assert report.nodes > 0
        assert report.witness is None and report.groups is None

    def test_capacity_bound_decides_without_search(self):
        for build in (upb_qubit3, upb_tiles33, upb_sep333, lambda: upb_shifts(5)):
            report = decide_extension(build())
            assert sum(report.capacities) < len(build())
            assert (report.verdict, report.nodes) == ("unextendible", 0)

    def test_node_cap_reports_undecided(self, monkeypatch):
        monkeypatch.setattr(locstab.stability, "_EXTENSION_NODES", 10)
        report = decide_extension(upb_44_reducible())
        assert (report.verdict, report.nodes) == ("undecided", 10)
        assert report.witness is None and report.groups is None
        # the capacity bound needs no node
        assert decide_extension(upb_qubit3()).verdict == "unextendible"

    @pytest.mark.parametrize("build", [upb_qubit3, upb_tiles33, _extendible_trio,
                                       functools.partial(shift_family, 3)])
    def test_unenumerated_hyperplanes_rank_groups_at_the_leaves(self, build, monkeypatch):
        expected = decide_extension(build()).verdict
        monkeypatch.setattr(locstab.stability, "_HYPERPLANE_SUBSETS", 0)
        report = decide_extension(build())
        assert report.capacities == (len(build()),) * len(build().dims)
        assert report.verdict == expected
        if expected == "extendible":
            _assert_witness_checks(build(), report)

    def test_low_rank_party_holds_every_state(self):
        # every first factor lies in the plane of e0 and e1 inside C^3
        e = np.eye(3, dtype=complex)
        s = StateSet((3, 2), [ProductState([e[0], KET0]), ProductState([e[1], KET0]),
                              ProductState([e[0], KET1])], "flat")
        report = decide_extension(s)
        assert report.capacities[0] == 3
        _assert_witness_checks(s, report)
        assert abs(report.witness.factors[0][2]) == pytest.approx(1.0)

    def test_fewer_states_than_a_hyperplane_needs(self):
        e = np.eye(4, dtype=complex)
        s = StateSet((4, 4), [ProductState([e[0], e[0]]), ProductState([e[1], e[1]])], "pair")
        report = decide_extension(s)
        assert report.capacities == (2, 2)
        _assert_witness_checks(s, report)

    def test_failed_witness_check_is_undecided(self):
        # the first factors are parallel within rank_rel but not within
        # orth_abs, so the split that groups them has no exact witness
        near = np.array([1.0, 1e-9], dtype=complex)
        s = StateSet((2, 2), [ProductState([KET0, PLUS]), ProductState([near, MINUS])], "near")
        report = decide_extension(s)
        assert report.verdict == "undecided"
        assert report.groups == ((0, 1), ())
        assert report.witness is None

    def test_input_checks(self):
        with pytest.raises(ValueError, match="complement is empty"):
            decide_extension(basis_set_2x2())
        with pytest.raises(OrthogonalityError):
            decide_extension(StateSet((2, 2), [ProductState([KET0, KET0]),
                                               ProductState([KET0, PLUS])]))


class TestSpanRankOnGenerators:
    def test_rank_unaffected_by_keeping_both_orders(self):
        # adjoint pairs are kept as separate generators; dropping one of each
        # order must not change the span dimension for this rank-1 family
        gens = span_generators(upb_qubit3())[0]
        half = gens[::2]
        assert span_rank(gens) == 3
        assert span_rank(half) <= 3
