"""State model tests: expansion, inner products, decompositions, JSON."""

import json
import math

import numpy as np
import pytest

from locstab import (
    DenseState,
    ProductState,
    StateFormatError,
    StateSet,
    as_dense,
    bpart_decompose,
    check_mutual_orthogonality,
    check_signature,
    factor_zero_pattern,
    heptagon_qutrit_states,
    load_set,
    rest_inner,
    save_set,
    state_inner,
    state_set_from_dict,
    state_set_to_dict,
    states_close,
    tensor_expand,
    upb_qubit3,
)
from oracles import inner_brute, kron_expand_brute

KET0 = [1.0, 0.0]
KET1 = [0.0, 1.0]
PLUS = [1.0, 1.0]
MINUS = [1.0, -1.0]


def random_product_state(rng, dims):
    factors = []
    for d in dims:
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        factors.append(v)
    return ProductState(factors)


class TestSignaturesAndTypes:
    def test_check_signature_round_trip(self):
        assert check_signature([2, 3, 2]) == (2, 3, 2)

    def test_rejects_small_dimension(self):
        with pytest.raises(ValueError):
            check_signature([2, 1])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            check_signature([])

    def test_product_state_normalizes(self):
        s = ProductState([[2.0, 0.0], [0.0, 3.0]])
        for f in s.factors:
            assert np.linalg.norm(f) == pytest.approx(1.0, abs=1e-12)

    def test_product_state_factors_read_only(self):
        s = ProductState([KET0, KET1])
        with pytest.raises(ValueError):
            s.factors[0][0] = 5.0

    def test_zero_factor_rejected(self):
        with pytest.raises(ValueError):
            ProductState([[0.0, 0.0], KET1])

    def test_dense_state_length_checked(self):
        with pytest.raises(ValueError):
            DenseState([1.0, 0.0, 0.0], (2, 2))

    def test_dense_cap_enforced_before_allocation(self):
        with pytest.raises(ValueError, match="dense limit"):
            DenseState([], (2,) * 30)

    def test_state_set_rejects_wrong_dims(self):
        with pytest.raises(ValueError):
            StateSet((2, 2), [ProductState([KET0, KET0, KET0])])

    def test_state_set_subset(self):
        s = upb_qubit3()
        sub = s.subset([2, 0])
        assert len(sub) == 2
        assert states_close(sub[0], s[2])


class TestTensorExpand:
    def test_zero_zero(self):
        dense = tensor_expand(ProductState([KET0, KET0]))
        assert np.allclose(dense.amplitudes, [1, 0, 0, 0])

    def test_plus_one(self):
        dense = tensor_expand(ProductState([PLUS, KET1]))
        assert np.allclose(dense.amplitudes, np.array([0, 1, 0, 1]) / np.sqrt(2))

    def test_plus_minus_one(self):
        dense = tensor_expand(ProductState([PLUS, MINUS, KET1]))
        expected = np.array([0, 0.5, 0, -0.5, 0, 0.5, 0, -0.5])
        assert np.allclose(dense.amplitudes, expected)

    def test_matches_brute_enumeration(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            n = int(rng.integers(1, 5))
            dims = [int(rng.integers(2, 4)) for _ in range(n)]
            s = random_product_state(rng, dims)
            brute = np.array(kron_expand_brute([f for f in s.factors]))
            assert np.allclose(tensor_expand(s).amplitudes, brute, atol=1e-12)


class TestStateInner:
    def test_orthogonal_third_factor(self):
        a = ProductState([KET0, KET0, KET0])
        b = ProductState([PLUS, MINUS, KET1])
        assert state_inner(a, b) == 0

    def test_self_inner(self):
        a = ProductState([KET0, KET0, KET0])
        assert state_inner(a, a) == pytest.approx(1.0)

    def test_product_against_dense(self):
        a = ProductState([KET0, KET0, KET0])
        ghz = DenseState([1, 0, 0, 0, 0, 0, 0, 1], (2, 2, 2))
        assert state_inner(a, ghz) == pytest.approx(1 / np.sqrt(2))

    def test_signature_mismatch(self):
        with pytest.raises(ValueError):
            state_inner(ProductState([KET0, KET0]), ProductState([KET0, KET0, KET0]))

    def test_product_path_matches_dense_path(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            n = int(rng.integers(1, 11))
            dims = [2] * n
            a = random_product_state(rng, dims)
            b = random_product_state(rng, dims)
            direct = state_inner(a, b)
            expanded = state_inner(as_dense(a), as_dense(b))
            assert abs(direct - expanded) < 1e-12


class TestMutualOrthogonality:
    def test_qubit3_passes(self):
        assert check_mutual_orthogonality(upb_qubit3()) == []

    def test_non_orthogonal_pair_reported(self):
        s = StateSet((2,), [ProductState([KET0]), ProductState([PLUS])])
        offending = check_mutual_orthogonality(s)
        assert [(j, k) for j, k, _ in offending] == [(0, 1), (1, 0)]

    def test_misprinted_heptagon_fails_on_distance_three(self):
        bad = heptagon_qutrit_states((1, 2, 6))
        offending = check_mutual_orthogonality(bad)
        assert offending
        diffs = {(j - k) % 7 for j, k, _ in offending}
        assert diffs == {3, 4}
        for j, k, value in offending:
            direct = inner_brute(
                as_dense(bad[j]).amplitudes, as_dense(bad[k]).amplitudes
            )
            assert abs(value - direct) < 1e-12

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            check_mutual_orthogonality(StateSet((2,), []))

    def test_product_pair_needs_a_vanishing_factor(self):
        # the full overlap is about 1e-80, far below the cutoff, but no factor
        # pair is orthogonal, so the states are not orthogonal
        s = StateSet((2,) * 40, [
            ProductState([KET0] * 40), ProductState([[0.01, 1.0]] * 40)
        ])
        offending = check_mutual_orthogonality(s)
        assert [(j, k) for j, k, _ in offending] == [(0, 1), (1, 0)]
        for j, k, value in offending:
            assert value == pytest.approx(state_inner(s[j], s[k]), rel=1e-12)

    def test_zero_pattern_counts_vanishing_parties(self):
        pattern = factor_zero_pattern(upb_qubit3())
        assert pattern.zeros.shape == (3, 4, 4)
        off_diagonal = ~np.eye(4, dtype=bool)
        # every pair of the 3-qubit UPB is orthogonal at exactly one party
        assert np.all(pattern.zero_count[off_diagonal] == 1)
        assert np.all(pattern.zero_count[~off_diagonal] == 0)

    def test_zero_pattern_rejects_dense_members(self):
        mixed = StateSet((2, 2, 2), [upb_qubit3()[0], as_dense(upb_qubit3()[1])])
        with pytest.raises(ValueError, match="all-product"):
            factor_zero_pattern(mixed)


class TestRestInner:
    def test_nonzero_pair(self):
        # remaining factors <+|0> and <-|0> give 1/2
        assert rest_inner(upb_qubit3(), 0, 2, 0) == pytest.approx(0.5)

    def test_zero_pair(self):
        assert rest_inner(upb_qubit3(), 0, 1, 0) == 0

    def test_same_state_rejected(self):
        with pytest.raises(ValueError):
            rest_inner(upb_qubit3(), 1, 1, 0)

    def test_dense_member_rejected(self):
        ghz = DenseState([1, 0, 0, 0, 0, 0, 0, 1], (2, 2, 2))
        mixed = StateSet((2, 2, 2), [upb_qubit3()[0], ghz])
        with pytest.raises(ValueError, match="general"):
            rest_inner(mixed, 0, 1, 0)

    def test_bad_party(self):
        with pytest.raises(IndexError):
            rest_inner(upb_qubit3(), 0, 1, 5)


class TestBpartDecompose:
    def test_bell_pair_last_party(self):
        bell = DenseState([1, 0, 0, 1], (2, 2))
        vecs = bpart_decompose(bell, 1)
        assert np.allclose(vecs[0], [1 / np.sqrt(2), 0])
        assert np.allclose(vecs[1], [0, 1 / np.sqrt(2)])

    def test_product_state_gives_proportional_vectors(self):
        dense = tensor_expand(ProductState([PLUS, KET1]))
        vecs = bpart_decompose(dense, 1)
        assert np.allclose(vecs[0], np.array([0, 1]) / np.sqrt(2))
        assert np.allclose(vecs[1], np.array([0, 1]) / np.sqrt(2))

    def test_ghz_first_party(self):
        ghz = DenseState([1, 0, 0, 0, 0, 0, 0, 1], (2, 2, 2))
        vecs = bpart_decompose(ghz, 0)
        assert np.allclose(vecs[0], [1 / np.sqrt(2), 0])
        assert np.allclose(vecs[3], [0, 1 / np.sqrt(2)])
        assert np.allclose(vecs[1], 0) and np.allclose(vecs[2], 0)

    def test_reassembly_identity(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            n = int(rng.integers(1, 5))
            dims = tuple(int(rng.integers(2, 4)) for _ in range(n))
            total = math.prod(dims)
            amps = rng.standard_normal(total) + 1j * rng.standard_normal(total)
            state = DenseState(amps, dims)
            party = int(rng.integers(0, n))
            vecs = bpart_decompose(state, party)
            rebuilt = np.moveaxis(
                np.stack(vecs).reshape(
                    tuple(d for r, d in enumerate(dims) if r != party) + (dims[party],)
                ),
                -1,
                party,
            ).ravel()
            assert np.max(np.abs(rebuilt - state.amplitudes)) < 1e-14

    def test_product_factors_are_scalar_multiples(self):
        rng = np.random.default_rng(31)
        s = random_product_state(rng, (2, 3, 2))
        dense = as_dense(s)
        for party in range(3):
            factor = s.factors[party]
            for v in bpart_decompose(dense, party):
                # v must be factor times a scalar: projection leaves nothing
                residual = v - (np.vdot(factor, v)) * factor
                assert np.linalg.norm(residual) < 1e-12

    def test_bad_party_rejected(self):
        with pytest.raises(IndexError):
            bpart_decompose(DenseState([1, 0, 0, 1], (2, 2)), 2)

    def test_rows_are_independent_writable_copies(self):
        rng = np.random.default_rng(37)
        amps = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        state = DenseState(amps, (2, 3, 2))
        for party in range(3):
            rows = bpart_decompose(state, party)
            for pos, row in enumerate(rows):
                assert row.flags.writeable
                assert not np.shares_memory(row, state.amplitudes)
                assert not any(np.shares_memory(row, other) for other in rows[pos + 1:])


class TestJsonFormat:
    def test_round_trip_product(self, tmp_path):
        path = tmp_path / "set.json"
        save_set(upb_qubit3(), path)
        loaded = load_set(path)
        assert loaded.label == "qubit3-upb"
        assert loaded.dims == (2, 2, 2)
        assert all(states_close(a, b) for a, b in zip(loaded, upb_qubit3()))

    def test_round_trip_mixed_kinds(self, tmp_path):
        ghz = DenseState([1, 0, 0, 1], (2, 2))
        s = StateSet((2, 2), [ProductState([KET0, KET1]), ghz], "mixed")
        path = tmp_path / "mixed.json"
        save_set(s, path)
        loaded = load_set(path)
        assert isinstance(loaded[0], ProductState)
        assert isinstance(loaded[1], DenseState)
        assert all(states_close(a, b) for a, b in zip(loaded, s))

    def test_factor_length_mismatch_names_field(self):
        payload = {
            "label": "bad",
            "dims": [2],
            "states": [{"product": [[[1, 0], [0, 0], [0, 0]]]}],
        }
        with pytest.raises(StateFormatError, match=r"states\[0\].product\[0\]"):
            state_set_from_dict(payload)

    def test_dense_wrong_length_names_field(self):
        payload = {
            "label": "bad",
            "dims": [2, 2],
            "states": [{"dense": [[1, 0], [0, 0]]}],
        }
        with pytest.raises(StateFormatError, match=r"states\[0\].dense"):
            state_set_from_dict(payload)

    def test_unknown_kind_rejected(self):
        payload = {"label": "", "dims": [2], "states": [{"weird": []}]}
        with pytest.raises(StateFormatError, match="unknown state kind"):
            state_set_from_dict(payload)

    def test_bad_pair_rejected(self):
        payload = {"label": "", "dims": [2], "states": [{"product": [[[1, 0], "x"]]}]}
        with pytest.raises(StateFormatError, match="number pair"):
            state_set_from_dict(payload)

    def test_bad_dims_rejected(self):
        with pytest.raises(StateFormatError, match="dims"):
            state_set_from_dict({"label": "", "dims": [2, 1], "states": []})

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(StateFormatError, match="invalid JSON"):
            load_set(path)

    def test_payload_is_json_serializable_and_stable(self):
        payload = state_set_to_dict(upb_qubit3())
        first = json.dumps(payload)
        second = json.dumps(state_set_to_dict(upb_qubit3()))
        assert first == second


class TestStatesClose:
    def test_global_phase_ignored(self):
        a = ProductState([KET0, KET1])
        b = ProductState([[1j, 0], KET1])
        assert states_close(a, b)
        assert not states_close(a, b, up_to_phase=False)

    def test_different_states(self):
        assert not states_close(ProductState([KET0]), ProductState([KET1]))
