"""Certifier tests: conflict sets, span generators, certificates, bounds,
counting audits, and the complement see-saw."""

import numpy as np
import pytest

from locstab import (
    DEFAULT_TOL,
    DenseState,
    as_dense,
    bpart_decompose,
    OrthogonalityError,
    ProductState,
    StateSet,
    cardinality_lower_bound,
    cardinality_upper_bounds,
    complement_product_search,
    compose,
    conflict_audit,
    conflict_set,
    entangled_triple,
    hs_inner,
    is_locally_stable,
    party_stable,
    rest_inner,
    shift_family,
    span_generators,
    span_rank,
    sqrt_subset,
    upb_44_reducible,
    upb_qubit3,
    upb_sep333,
    upb_shifts,
    upb_tiles33,
    validate_seeds,
    vec_inner,
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


class TestConflictSet:
    def test_qubit3_party0(self):
        cs = conflict_set(upb_qubit3(), 0)
        assert set(cs.pairs) == {(0, 2), (2, 0), (1, 3), (3, 1)}
        assert cs.smallest_magnitude == pytest.approx(0.5)

    def test_qubit3_all_parties_size_four(self):
        for party in range(3):
            assert len(conflict_set(upb_qubit3(), party).pairs) == 4

    def test_computational_basis_party1(self):
        cs = conflict_set(basis_set_2x2(), 1)
        assert set(cs.pairs) == {(0, 1), (1, 0), (2, 3), (3, 2)}

    def test_singleton_empty(self):
        single = StateSet((2, 2), [ProductState([KET0, KET0])])
        cs = conflict_set(single, 0)
        assert cs.pairs == ()
        assert cs.smallest_magnitude is None

    def test_closed_under_swap(self):
        cs = conflict_set(upb_sep333(), 1)
        pairs = set(cs.pairs)
        assert all((k, j) in pairs for j, k in pairs)

    def test_dense_member_rejected(self):
        ghz = DenseState([1, 0, 0, 0, 0, 0, 0, 1], (2, 2, 2))
        mixed = StateSet((2, 2, 2), [upb_qubit3()[0], ghz])
        with pytest.raises(ValueError, match="all-product"):
            conflict_set(mixed, 0)


class TestSpanGenerators:
    def test_qubit3_party0_matrices(self):
        expected = {
            (0, 2): outer(KET0, KET1),
            (2, 0): outer(KET1, KET0),
            (1, 3): outer(PLUS, MINUS),
            (3, 1): outer(MINUS, PLUS),
        }
        pairs = conflict_set(upb_qubit3(), 0).pairs
        gens = span_generators(upb_qubit3(), 0)
        assert len(gens) == 4
        for pair, gen in zip(pairs, gens):
            assert np.allclose(gen, expected[pair], atol=1e-12)

    def test_singleton_empty(self):
        single = StateSet((2, 2), [ProductState([KET0, KET0])])
        assert span_generators(single, 0) == []

    def test_bell_pair_general_path(self):
        plus = DenseState([1, 0, 0, 1], (2, 2))
        minus = DenseState([1, 0, 0, -1], (2, 2))
        pair = StateSet((2, 2), [plus, minus], "bell-pair")
        gens = span_generators(pair, 0)
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
        for party in range(3):
            gens = span_generators(pair, party)
            assert len(gens) == 2
            for g in gens:
                assert np.allclose(g / g[0, 0], target, atol=1e-12)

    def test_generators_traceless(self):
        for party in range(3):
            for g in span_generators(upb_sep333(), party):
                assert abs(np.trace(g)) < 1e-12


class TestPartyStable:
    def test_qubit3(self):
        for party in range(3):
            assert party_stable(upb_qubit3(), party) == (True, 3)

    def test_computational_basis_party0(self):
        assert party_stable(basis_set_2x2(), 0) == (False, 2)

    def test_entangled_triple(self):
        for party in range(3):
            assert party_stable(entangled_triple(), party) == (True, 3)


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
        assert set(entry) == {
            "party",
            "span_dim",
            "required",
            "stable",
            "conflict_pairs",
            "smallest_conflict_magnitude",
        }

    def test_span_dim_never_exceeds_required(self):
        for builder in (upb_qubit3, upb_sep333, upb_44_reducible, entangled_triple):
            cert = is_locally_stable(builder())
            assert all(r.span_dim <= r.required for r in cert.parties)

    def test_identity_orthogonal_to_generators(self):
        for builder in (upb_qubit3, upb_sep333, entangled_triple):
            s = builder()
            for party, d in enumerate(s.dims):
                eye = np.eye(d, dtype=complex)
                for g in span_generators(s, party):
                    assert abs(hs_inner(eye, g / np.linalg.norm(g))) < 1e-9

    def test_stable_party_complement_is_identity_line(self):
        from locstab import orthocomplement_basis

        for builder in (upb_qubit3, upb_sep333):
            s = builder()
            for party, d in enumerate(s.dims):
                basis = orthocomplement_basis(span_generators(s, party), dim=d)
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
    """conflict_set, span_generators, party_stable and is_locally_stable all
    read one zero pattern, so they must agree pair for pair."""

    @pytest.mark.parametrize("state_set", named_product_sets(), ids=lambda s: s.label)
    def test_views_agree_on_named_sets(self, state_set):
        # reference: per-pair loops over vec_inner and rest_inner
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
        for record in cert.parties:
            party = record.party
            cs = conflict_set(state_set, party)
            assert cs.pairs == tuple(
                pair for pair, zeros in vanishing.items() if zeros == {party}
            )
            if cs.pairs:
                assert cs.smallest_magnitude == pytest.approx(
                    min(abs(rest_inner(state_set, j, k, party)) for j, k in cs.pairs),
                    rel=1e-12,
                )
            assert cs.pairs == record.conflict_pairs
            assert cs.smallest_magnitude == record.smallest_conflict_magnitude
            factors = [s.factors[party] for s in state_set]
            gens = span_generators(state_set, party)
            assert len(gens) == len(cs.pairs)
            for (j, k), gen in zip(cs.pairs, gens):
                assert np.array_equal(gen, np.outer(factors[j], factors[k].conj()))
            assert party_stable(state_set, party) == (record.stable, record.span_dim)


def dense_expansion(state_set):
    return StateSet(state_set.dims, [as_dense(s) for s in state_set], state_set.label)


class TestDenseViews:
    """On dense sets span_generators and party_stable read the block
    contractions of every ordered pair, j outer and k inner."""

    @pytest.mark.parametrize(
        "state_set",
        [
            dense_expansion(upb_qubit3()),
            dense_expansion(upb_tiles33()),
            dense_expansion(upb_sep333()),
            dense_expansion(upb_44_reducible()),
            entangled_triple(3),
        ],
        ids=lambda s: s.label,
    )
    def test_views_agree_with_pair_loop(self, state_set):
        cert = is_locally_stable(state_set)
        size = len(state_set)
        for record in cert.parties:
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
            gens = span_generators(state_set, party)
            assert len(gens) == len(expected)
            for gen, ref in zip(gens, expected):
                assert np.array_equal(gen, ref)
            assert record.conflict_pairs is None
            assert party_stable(state_set, party) == (record.stable, record.span_dim)


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


class TestComplementSearch:
    def test_single_state_has_full_complement(self):
        s = StateSet((2, 2), [ProductState([KET0, KET0])])
        overlap, _ = complement_product_search(s, restarts=5, iters=50, rng_seed=0)
        assert overlap == pytest.approx(1.0, abs=1e-9)

    def test_extendible_trio_finds_missing_basis_state(self):
        e = np.eye(2, dtype=complex)
        s = StateSet(
            (2, 2),
            [ProductState([e[0], e[0]]), ProductState([e[0], e[1]]),
             ProductState([e[1], e[0]])],
        )
        overlap, witness = complement_product_search(s, restarts=10, iters=50, rng_seed=0)
        assert overlap == pytest.approx(1.0, abs=1e-9)
        for factor in witness.factors:
            assert abs(abs(factor[1]) - 1.0) < 1e-6

    def test_complete_set_rejected(self):
        with pytest.raises(ValueError, match="complement is empty"):
            complement_product_search(basis_set_2x2())

    def test_non_orthogonal_rejected(self):
        s = StateSet((2, 2), [ProductState([KET0, KET0]), ProductState([KET0, PLUS])])
        with pytest.raises(OrthogonalityError):
            complement_product_search(s)

    def test_overlap_never_exceeds_one(self):
        overlap, _ = complement_product_search(
            upb_qubit3(), restarts=20, iters=100, rng_seed=3
        )
        assert overlap <= 1.0 + 1e-9

    def test_seed_determinism(self):
        a = complement_product_search(upb_qubit3(), restarts=10, iters=50, rng_seed=42)
        b = complement_product_search(upb_qubit3(), restarts=10, iters=50, rng_seed=42)
        assert a[0] == b[0]
        for fa, fb in zip(a[1].factors, b[1].factors):
            assert np.array_equal(fa, fb)


class TestSpanRankOnGenerators:
    def test_rank_unaffected_by_keeping_both_orders(self):
        # adjoint pairs are kept as separate generators; dropping one of each
        # order must not change the span dimension for this rank-1 family
        gens = span_generators(upb_qubit3(), 0)
        half = gens[::2]
        assert span_rank(gens) == 3
        assert span_rank(half) <= 3
