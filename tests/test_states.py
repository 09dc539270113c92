"""State model tests: expansion, inner products, decompositions, JSON."""

import contextlib
import gc
import io
import json
import math
import os
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

import golden_guard
import locstab.states as states_module
from locstab import (
    DenseState,
    OrthogonalityError,
    entangled_triple,
    factorize,
    ProductState,
    StateFormatError,
    StateSet,
    Tolerance,
    as_dense,
    check_mutual_orthogonality,
    check_signature,
    compose,
    decide_extension,
    factor_zero_pattern,
    heptagon_qutrit_states,
    is_locally_stable,
    load_set,
    save_set,
    state_set_from_dict,
    subset_campaign,
    tensor_expand,
    shift_family,
    sqrt_subset,
    upb_44_reducible,
    upb_qubit3,
    upb_sep333,
    upb_shifts,
    upb_tiles33,
    validate_seeds,
)
from locstab.cli import main as cli_main
from oracles import (
    conflict_pairs_scan,
    factor_zero_pattern_per_party,
    dense_offending_stacked,
    inner_brute,
    kron_expand_brute,
    party_blocks_loop,
    product_offending_loop,
    split_codes_bytes,
    state_inner,
    state_set_to_dict,
    states_close,
    unit_reference,
)

KET0 = [1.0, 0.0]
KET1 = [0.0, 1.0]
PLUS = [1.0, 1.0]
MINUS = [1.0, -1.0]


def _random_shift_family(n, seed):
    """shift_family(n) on random seeds drawn from ``seed``; shift_family
    rejects a draw that is not valid."""
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((n - 1, 2)) + 1j * rng.standard_normal((n - 1, 2))
    return shift_family(n, list(raw))


def _two_rays(size, parties, seed):
    """``size`` qubit product states whose every factor is one of two
    antipodal rays a and a^perp, drawn at random per state and party, so
    that each party's keys take two values."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    rays = [a, np.array([-np.conj(a[1]), np.conj(a[0])])]
    picks = rng.integers(0, 2, size=(size, parties))
    states = [ProductState([rays[i] for i in row]) for row in picks]
    return StateSet((2,) * parties, states, f"two-rays-{size}x{parties}")


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

    def test_product_dims_stored_once(self):
        s = ProductState([KET0, [1.0, 0.0, 0.0]])
        assert s.dims == (2, 3)
        assert s.dims is s.dims

    def test_zero_factor_rejected(self):
        with pytest.raises(ValueError):
            ProductState([[0.0, 0.0], KET1])

    @pytest.mark.parametrize("scale", [1e200, 1e-160, 1e-200, 1e-320])
    def test_extreme_magnitudes_normalize_like_their_scaled_rows(self, scale):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            state = ProductState([[scale, scale], [scale, 2j * scale]])
        reference = ProductState([[1, 1], [1, 2j]])
        for factor, expected in zip(state.factors, reference.factors):
            assert factor.tobytes() == expected.tobytes()

    def test_extreme_rows_leave_other_rows_alone(self):
        stack = np.array([[3e200, 4e200], [1.0, 2.0], [1e-200, 0.0]], dtype=complex)
        rows = states_module._unit_rows(stack)
        assert rows[0].tobytes() == unit_reference([3.0, 4.0]).tobytes()
        assert rows[1].tobytes() == unit_reference([1.0, 2.0]).tobytes()
        assert rows[2].tobytes() == unit_reference([1.0, 0.0]).tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    def test_non_finite_amplitudes_refused(self, bad):
        with pytest.raises(ValueError, match="not finite"):
            ProductState([[bad, 1.0], KET1])
        with pytest.raises(ValueError, match="not finite"):
            DenseState([1.0, 0.0, bad, 0.0], (2, 2))
        with pytest.raises(ValueError, match="not finite"):
            states_module._unit_rows(np.array([[1.0, 2.0], [bad, 0.0]], dtype=complex))

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

    @staticmethod
    def _assert_values_exact(state_set):
        # every pair, value and the list's order equal the per-pair oracle's
        # bit for bit, in the list and in OrthogonalityError.pairs
        expected = product_offending_loop(state_set)
        assert expected
        assert check_mutual_orthogonality(state_set) == expected
        with pytest.raises(OrthogonalityError) as excinfo:
            is_locally_stable(state_set)
        assert excinfo.value.pairs == tuple(expected)

    def test_misprint_values_exact(self):
        self._assert_values_exact(heptagon_qutrit_states((1, 2, 6)))

    def test_ket0_plus_values_exact(self):
        self._assert_values_exact(
            StateSet((2, 2), [ProductState([KET0, KET0]), ProductState([KET0, PLUS])])
        )

    @pytest.mark.parametrize("seed", range(8))
    def test_random_mixed_dimension_values_exact(self, seed):
        # basis-vector factors make some factor overlaps vanish exactly, so
        # orthogonal and non-orthogonal pairs mix
        rng = np.random.default_rng(seed)
        dims = tuple(int(d) for d in rng.integers(2, 6, size=int(rng.integers(2, 7))))
        members = []
        for _ in range(int(rng.integers(3, 12))):
            factors = []
            for d in dims:
                factor = rng.standard_normal(d) + 1j * rng.standard_normal(d)
                if rng.random() < 0.3:
                    factor = np.eye(d)[int(rng.integers(d))]
                factors.append(factor)
            members.append(ProductState(factors))
        self._assert_values_exact(StateSet(dims, members))

    @pytest.mark.parametrize("seed", range(12))
    def test_dense_pairs_match_the_stacked_overlaps(self, seed):
        # orthonormal columns, some pairs then tilted past the cutoff, some
        # members replaced by product states: every ordered pair's value
        # and the list's order must be those of the stacked (l, D) overlaps
        rng = np.random.default_rng(seed)
        dims = [(2, 2), (2, 3, 2), (2,) * 9, (2,) * 14][seed % 4]
        total = math.prod(dims)
        size = int(rng.integers(2, 6))
        basis = np.linalg.qr(rng.standard_normal((total, size))
                             + 1j * rng.standard_normal((total, size)))[0].T
        members = [DenseState(basis[0], dims)]
        for vec in basis[1:]:
            if rng.random() < 0.5:
                vec = vec + 10.0 ** -rng.integers(3, 9) * basis[0]
            members.append(DenseState(vec, dims))
            if rng.random() < 0.3:
                factors = [rng.standard_normal(d) + 1j * rng.standard_normal(d) for d in dims]
                members[-1] = ProductState(factors)
        state_set = StateSet(dims, members)
        assert check_mutual_orthogonality(state_set) == dense_offending_stacked(state_set)
        # a cutoff below every nonzero overlap compares (nearly) every value
        tiny = Tolerance(rank_rel=1e-8, orth_abs=1e-300)
        assert check_mutual_orthogonality(state_set, tiny) == dense_offending_stacked(
            state_set, tiny.orth_abs
        )

    def test_zero_pattern_counts_vanishing_parties(self):
        pattern = factor_zero_pattern(upb_qubit3())
        off_diagonal = ~np.eye(4, dtype=bool)
        # every pair of the 3-qubit UPB is orthogonal at exactly one party,
        # so each ordered pair is a conflict pair of that party alone
        assert np.all(pattern.zero_count[off_diagonal] == 1)
        assert np.all(pattern.zero_count[~off_diagonal] == 0)
        assert [pairs.tolist() for pairs in pattern.conflict_pairs] == [
            [[0, 2], [1, 3], [2, 0], [3, 1]],
            [[0, 3], [1, 2], [2, 1], [3, 0]],
            [[0, 1], [1, 0], [2, 3], [3, 2]],
        ]

    @pytest.mark.parametrize(
        "state_set",
        [
            upb_qubit3(),
            upb_tiles33(),
            upb_sep333(),
            upb_44_reducible(),
            # pairs vanishing at 0, 1 and 2 parties; two parties hold none
            heptagon_qutrit_states((1, 2, 2)),
            compose(upb_qubit3(), 0, upb_qubit3(), 0),
            upb_shifts(5),
            _random_shift_family(30, 41),
            sqrt_subset(25)[1],
            # every key ties with half the others: one batch, then more
            # parties than one _RAY_PARTIES batch holds
            _two_rays(40, 6, 7),
            _two_rays(9, 300, 8),
            # 139 parties of 139 states: two _RAY_KEYS batches
            _random_shift_family(70, 43),
        ],
        ids=lambda s: s.label,
    )
    def test_conflict_pairs_match_full_scan(self, state_set):
        pattern = factor_zero_pattern(state_set)
        zero_count, expected = conflict_pairs_scan(state_set)
        assert pattern.zero_count.dtype == zero_count.dtype
        assert pattern.zero_count.tobytes() == zero_count.tobytes()
        assert len(pattern.conflict_pairs) == len(expected) == len(state_set.dims)
        for pairs, ref in zip(pattern.conflict_pairs, expected):
            assert pairs.dtype == ref.dtype
            assert pairs.shape == ref.shape
            assert pairs.tobytes() == ref.tobytes()

    def test_zero_pattern_holds_no_party_cube(self):
        # a (parties, l, l) boolean alone would take 199**3 bytes here
        state_set = shift_family(100)
        tracemalloc.start()
        try:
            factor_zero_pattern(state_set)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 199**3

    def test_zero_pattern_rejects_dense_members(self):
        mixed = StateSet((2, 2, 2), [upb_qubit3()[0], as_dense(upb_qubit3()[1])])
        with pytest.raises(ValueError, match="all-product"):
            factor_zero_pattern(mixed)


def _assert_pattern_matches_scan(state_set, tol=Tolerance()):
    """factor_zero_pattern agrees exactly with the full-Gram oracle."""
    pattern = factor_zero_pattern(state_set, tol)
    zero_count, expected = conflict_pairs_scan(state_set, tol.orth_abs)
    assert np.array_equal(pattern.zero_count, zero_count)
    assert len(pattern.conflict_pairs) == len(expected) == len(state_set.dims)
    for pairs, ref in zip(pattern.conflict_pairs, expected):
        assert pairs.shape == ref.shape
        assert np.array_equal(pairs, ref)
    return pattern


def _pooled_set(rng, dims, size, pool=3):
    """``size`` product states whose party-r factor is drawn from ``pool``
    random orthonormal bases of C^{d_r}, the rows of random unitaries, so
    that many factor pairs vanish up to rounding."""
    choices = []
    for d in dims:
        bases = [
            np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0].T
            for _ in range(pool)
        ]
        choices.append(np.concatenate(bases))
    return StateSet(
        dims,
        [ProductState([c[rng.integers(len(c))] for c in choices]) for _ in range(size)],
        "pooled",
    )


_ORTH = [1e-4, 1e-10, 1e-12]


class TestQubitRayPass:
    @pytest.mark.parametrize("orth_abs", _ORTH)
    @pytest.mark.parametrize("seed", range(4))
    def test_random_qubit_sets_match_scan(self, orth_abs, seed):
        rng = np.random.default_rng(seed)
        parties, size = int(rng.integers(1, 40)), int(rng.integers(1, 60))
        tol = Tolerance(orth_abs=orth_abs)
        _assert_pattern_matches_scan(_pooled_set(rng, (2,) * parties, size), tol)
        generic = StateSet(
            (2,) * parties, [random_product_state(rng, (2,) * parties) for _ in range(size)]
        )
        pattern = _assert_pattern_matches_scan(generic, tol)
        assert not pattern.zero_count.any()

    @pytest.mark.parametrize("orth_abs", _ORTH)
    def test_clustered_keys_match_scan(self, orth_abs, monkeypatch):
        # |0>, |1>, |+>, |-> repeated: every key window holds O(l) factors,
        # decided over several party batches and candidate steps
        monkeypatch.setattr(states_module, "_RAY_PARTIES", 2)
        monkeypatch.setattr(states_module, "_RAY_PAIRS", 999)
        rng = np.random.default_rng(5)
        ring = [KET0, KET1, PLUS, MINUS]
        picks = rng.integers(0, 4, size=(160, 5))
        state_set = StateSet((2,) * 5, [ProductState([ring[i] for i in row]) for row in picks])
        pattern = _assert_pattern_matches_scan(state_set, Tolerance(orth_abs=orth_abs))
        assert pattern.zero_count.sum() > 160**2

    @pytest.mark.parametrize("orth_abs", [1e-4, 1e-12])
    def test_overlaps_at_the_cutoff(self, orth_abs):
        # state 0 is |0>|1> on parties 0 and 1, and state i holds
        # b = (e * phase, sqrt(1 - e^2)) there, reversed at party 1: both
        # overlaps are exactly e * phase under any summation, with e a factor
        # 1e-6 below or above orth_abs
        rng = np.random.default_rng(11)
        below, above = orth_abs * (1 - 1e-6), orth_abs * (1 + 1e-6)
        near = [(e, phase) for e in (below, above) for phase in (1, -1, 1j)]
        states = [ProductState([KET0, KET1, [0.6, 0.8j]])]
        for e, phase in near:
            edge = [e * phase, math.sqrt(1 - e * e)]
            states.append(ProductState([edge, edge[::-1], rng.standard_normal(2) + 0.5j]))
        states += [random_product_state(rng, (2, 2, 2)) for _ in range(20)]
        state_set = StateSet((2, 2, 2), states)
        pattern = _assert_pattern_matches_scan(state_set, Tolerance(orth_abs=orth_abs))
        for i, (e, _) in enumerate(near, start=1):
            assert pattern.zero_count[0, i] == pattern.zero_count[i, 0] == 2 * (e == below)

    @pytest.mark.parametrize("orth_abs", _ORTH)
    @pytest.mark.parametrize("dims", [(2, 3, 2, 4), (3, 2), (4, 4, 2)])
    def test_mixed_dims_match_scan(self, orth_abs, dims):
        rng = np.random.default_rng(sum(dims))
        pattern = _assert_pattern_matches_scan(
            _pooled_set(rng, dims, 40), Tolerance(orth_abs=orth_abs)
        )
        assert all(len(pairs) for pairs in pattern.conflict_pairs)

    def test_wide_window_decides_every_candidate(self, monkeypatch):
        # a window of nearly the whole key range makes most pairs candidates,
        # so every zero must come from the overlap itself, not from the keys
        monkeypatch.setattr(states_module, "_RAY_SLACK", 1.9)
        rng = np.random.default_rng(23)
        _assert_pattern_matches_scan(_pooled_set(rng, (2,) * 9, 50))
        _assert_pattern_matches_scan(_random_shift_family(12, 4), Tolerance(orth_abs=1e-4))

    def test_one_party_batches_match_scan(self, monkeypatch):
        monkeypatch.setattr(states_module, "_RAY_PARTIES", 1)
        monkeypatch.setattr(states_module, "_RAY_PAIRS", 7)
        _assert_pattern_matches_scan(_random_shift_family(12, 3))


class TestColumnarSets:
    def test_loader_and_list_sets_hold_the_same_stacks(self):
        rng = np.random.default_rng(17)
        built = _pooled_set(rng, (2, 3, 2), 30)
        raw = [[f * (1 + rng.random()) for f in s.factors] for s in built]
        listed = StateSet(built.dims, [ProductState(f) for f in raw])
        loaded = state_set_from_dict({
            "dims": list(built.dims),
            "states": [{"product": [np.stack([f.real, f.imag], 1).tolist() for f in r]}
                       for r in raw],
        })
        for a, b in zip(listed.factors, loaded.factors):
            assert a.tobytes() == b.tobytes()
        left, right = factor_zero_pattern(listed), factor_zero_pattern(loaded)
        assert np.array_equal(left.zero_count, right.zero_count)
        for a, b in zip(left.conflict_pairs, right.conflict_pairs):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: shift_family(6),
            lambda: sqrt_subset(19)[1],
            lambda: state_set_from_dict(state_set_to_dict(upb_tiles33())),
            lambda: shift_family(7).subset([4, 0, 9]),
            lambda: upb_shifts(4),
            upb_sep333,
        ],
    )
    def test_states_are_read_only_rows_of_the_stacks(self, build):
        state_set = build()
        assert state_set.all_product
        for party, stack in enumerate(state_set.factors):
            assert stack.shape == (len(state_set), state_set.dims[party])
            assert not stack.flags.writeable
            with pytest.raises(ValueError):
                stack[0, 0] = 1.0
            for row, state in zip(stack, state_set):
                factor = state.factors[party]
                assert factor.tobytes() == row.tobytes()
                with pytest.raises(ValueError):
                    factor[0] = 1.0

    def test_loaded_and_built_states_are_views(self):
        for state_set in (
            shift_family(5),
            sqrt_subset(19)[1],
            state_set_from_dict(state_set_to_dict(upb_tiles33())),
        ):
            for state in state_set:
                for factor, stack in zip(state.factors, state_set.factors):
                    assert np.shares_memory(factor, stack)

    def test_subset_keeps_stacks(self):
        family = _random_shift_family(9, 2)
        picked = [5, 0, -1, 3]
        sub = family.subset(picked)
        assert sub.label == f"{family.label}[5,0,-1,3]"
        assert sub.all_product
        for stack, parent in zip(sub.factors, family.factors):
            assert stack.tobytes() == parent[picked].tobytes()
        for state in sub:
            assert all(np.shares_memory(f, s) for f, s in zip(state.factors, sub.factors))
        assert np.array_equal(
            factor_zero_pattern(sub).zero_count,
            factor_zero_pattern(family).zero_count[np.ix_(picked, picked)],
        )
        with pytest.raises(IndexError):
            family.subset([0, len(family)])

    def test_rewrapped_states_share_the_stacks(self):
        family = shift_family(6)
        again = StateSet(family.dims, family.states, "again")
        assert all(a is b for a, b in zip(again.factors, family.factors))
        reordered = StateSet(family.dims, family.states[::-1])
        assert reordered.factors[0].tobytes() == family.factors[0][::-1].tobytes()

    def test_dense_member_leaves_no_stacks(self):
        mixed = StateSet((2, 2), [ProductState([KET0, KET1]), DenseState([1, 0, 0, 1], (2, 2))])
        assert mixed.factors is None and not mixed.all_product
        assert StateSet((2, 3), []).factors[1].shape == (0, 3)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: _random_shift_family(20, 8),
            lambda: sqrt_subset(19)[1],
            lambda: compose(upb_qubit3(), 1, upb_tiles33(), 2),
            upb_44_reducible,
            upb_sep333,
            lambda: StateSet((2, 2), [ProductState([KET0, PLUS]), DenseState([1, 0, 0, 1], (2, 2))]),
        ],
    )
    def test_save_load_save_matches_the_state_by_state_path(self, build, tmp_path):
        # the loader divides every saved factor by its norm again, which can
        # move a last bit, so the second file is compared with the same set
        # built state by state from the first file's numbers
        first, second, listed = tmp_path / "1.json", tmp_path / "2.json", tmp_path / "l.json"
        save_set(build(), first)
        assert first.read_text() == json.dumps(state_set_to_dict(build()), indent=2) + "\n"
        save_set(load_set(first), second)
        payload = json.loads(first.read_text())
        states = [
            ProductState([_pairs_to_vector(f) for f in entry["product"]])
            if "product" in entry
            else DenseState(_pairs_to_vector(entry["dense"]), payload["dims"])
            for entry in payload["states"]
        ]
        save_set(StateSet(payload["dims"], states, payload["label"]), listed)
        assert second.read_bytes() == listed.read_bytes()

    def test_entry_rejects_bools_and_numeric_strings(self):
        def decoded(pairs):
            return isinstance(states_module._entry({"product": [pairs]}), states_module._Entry)

        assert decoded([[1, 0.5], [0.0, 1]])
        assert not decoded([[True, 0.0], [0.0, 1.0]])
        assert not decoded([["1", 0.0], [0.0, 1.0]])
        assert not decoded([[1.0, 0.0], [0.0, b"1"]])
        # the decoded entry is a private class: a caller's tuple of the same
        # fields is an entry of the wrong kind
        entry = ("product", (2,), np.array([1.0, 0.0, 0.0, 1.0]))
        with pytest.raises(StateFormatError, match=r"^states\[0\]: expected an object"):
            state_set_from_dict({"dims": [2], "states": [entry]})

    @pytest.mark.parametrize(
        "build",
        [lambda: shift_family(50), lambda: _dense_copy(upb_shifts(6))],
    )
    def test_load_peak_stays_near_the_text(self, build, tmp_path):
        # a product file in save_set's layout is held once, as bytes, beside
        # a window of its pieces and the set's stacks (1.34x here); a dense
        # file's bytes and its text are held at once, about twice the file;
        # nested lists of the whole set would add more than a third
        path = tmp_path / "set.json"
        state_set = build()
        save_set(state_set, path)
        tracemalloc.start()
        try:
            load_set(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= (1.5 if state_set.all_product else 2.25) * path.stat().st_size


def _blocks(state, party):
    """One dense state's split at ``party``: one row per basis state of the
    other parties, each the state's vector in the party's space."""
    blocks = states_module._party_blocks(state.amplitudes[None], state.dims, party)
    assert np.array_equal(blocks, party_blocks_loop(state.amplitudes[None], state.dims, party))
    return blocks


class TestPartyBlocks:
    def test_bell_pair_last_party(self):
        bell = DenseState([1, 0, 0, 1], (2, 2))
        vecs = _blocks(bell, 1)
        assert np.allclose(vecs[0], [1 / np.sqrt(2), 0])
        assert np.allclose(vecs[1], [0, 1 / np.sqrt(2)])

    def test_product_state_gives_proportional_vectors(self):
        dense = tensor_expand(ProductState([PLUS, KET1]))
        vecs = _blocks(dense, 1)
        assert np.allclose(vecs[0], np.array([0, 1]) / np.sqrt(2))
        assert np.allclose(vecs[1], np.array([0, 1]) / np.sqrt(2))

    def test_ghz_first_party(self):
        ghz = DenseState([1, 0, 0, 0, 0, 0, 0, 1], (2, 2, 2))
        vecs = _blocks(ghz, 0)
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
            vecs = _blocks(state, party)
            rebuilt = np.moveaxis(
                vecs.reshape(tuple(d for r, d in enumerate(dims) if r != party) + (dims[party],)),
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
            for v in _blocks(dense, party):
                # v must be factor times a scalar: projection leaves nothing
                residual = v - (np.vdot(factor, v)) * factor
                assert np.linalg.norm(residual) < 1e-12

    @pytest.mark.parametrize("dims", [(2, 3), (3, 2, 4), (2, 2, 2, 2)])
    def test_stacks_match_the_index_loop(self, dims):
        # several states side by side: state k's vectors fill columns k*d_i..
        rng = np.random.default_rng(sum(dims))
        total = math.prod(dims)
        amps = rng.standard_normal((3, total)) + 1j * rng.standard_normal((3, total))
        for party in range(len(dims)):
            blocks = states_module._party_blocks(amps, dims, party)
            assert np.array_equal(blocks, party_blocks_loop(amps, dims, party))


class TestFactorize:
    @pytest.mark.parametrize("dims", [(2, 2), (2, 3, 4), (3, 3, 3), (5, 2), (2,) * 7])
    def test_random_product_states_round_trip(self, dims):
        rng = np.random.default_rng(sum(dims) * len(dims))
        for _ in range(10):
            state = random_product_state(rng, dims)
            found = factorize(tensor_expand(state))
            assert found is not None and found.dims == dims
            for got, want in zip(found.factors, state.factors):
                assert abs(abs(np.vdot(got, want)) - 1.0) < 1e-12
            assert states_close(found, state)

    def test_sparse_product_states_round_trip(self):
        # zero blocks come first at some parties: the factor is the first live row
        for factors in ([KET1, KET1], [KET0, PLUS, KET1], [[0, 0, 1], [0, 1, -1]]):
            state = ProductState(factors)
            found = factorize(tensor_expand(state))
            for got, want in zip(found.factors, state.factors):
                assert np.allclose(got, want, atol=1e-15)

    def test_entangled_states_are_never_factorized(self):
        for parties in (3, 4, 6):
            assert all(factorize(s) is None for s in entangled_triple(parties))
        assert factorize(DenseState([1, 0, 0, 1], (2, 2))) is None
        rng = np.random.default_rng(41)
        for dims in [(2, 2), (2, 3), (3, 3, 2)]:
            total = math.prod(dims)
            for _ in range(10):
                amps = rng.standard_normal(total) + 1j * rng.standard_normal(total)
                assert factorize(DenseState(amps, dims)) is None
            # a product state moved off the product states by 1e-6
            product = tensor_expand(random_product_state(rng, dims)).amplitudes
            noise = rng.standard_normal(total) + 1j * rng.standard_normal(total)
            amps = product + 1e-6 * noise
            assert factorize(DenseState(amps, dims)) is None

    def test_rebuild_check_rejects_a_wrong_factor(self, monkeypatch):
        # every split of rank 1, but the factor read off blocks tilted away
        # from it: the rebuild fails
        real = states_module._party_blocks

        def tilted(amplitudes, dims, party):
            return np.roll(real(amplitudes, dims, party), 1, axis=-1)

        state = tensor_expand(ProductState([[1, 2], [3, 1j]]))
        assert factorize(state) is not None
        monkeypatch.setattr(states_module, "_party_blocks", tilted)
        assert factorize(state) is None

    @pytest.mark.parametrize("dims", [(2, 2), (3, 2, 4), (2,) * 6])
    def test_splits_ranked_transposed(self, monkeypatch, dims):
        # each rank runs over d_i long rows, never over the D / d_i blocks
        shapes = []
        real = states_module._orthonormal_rows

        def recorded(rows, rank_rel):
            shapes.append(rows.shape)
            return real(rows, rank_rel)

        monkeypatch.setattr(states_module, "_orthonormal_rows", recorded)
        state = random_product_state(np.random.default_rng(len(dims)), dims)
        assert factorize(tensor_expand(state)) is not None
        total = math.prod(dims)
        assert shapes == [(1, d, total // d) for d in dims]


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


def _pairs_to_vector(pairs):
    return [complex(re, im) for re, im in pairs]


def _assert_loaded_bitwise(payload, path):
    """Every factor and amplitude vector loaded from ``payload``, and from
    its JSON text written to ``path``, has the bytes of the raw payload
    vector over its own ``np.linalg.norm``."""
    path.write_text(json.dumps(payload))
    _assert_set_bitwise(state_set_from_dict(payload), payload)
    _assert_set_bitwise(load_set(path), payload)


def _assert_set_bitwise(loaded, payload):
    assert len(loaded) == len(payload["states"])
    for state, entry in zip(loaded, payload["states"]):
        if "product" in entry:
            assert isinstance(state, ProductState)
            assert len(state.factors) == len(entry["product"])
            for factor, raw in zip(state.factors, entry["product"]):
                reference = unit_reference(_pairs_to_vector(raw))
                assert factor.dtype == complex and factor.shape == reference.shape
                assert factor.tobytes() == reference.tobytes()
                assert not factor.flags.writeable
        else:
            assert isinstance(state, DenseState)
            reference = unit_reference(_pairs_to_vector(entry["dense"]))
            assert state.amplitudes.tobytes() == reference.tobytes()


def _random_pairs(rng, d, ints=False):
    if ints:
        return rng.integers(-9, 10, size=(d, 2)).tolist()
    scale = 10.0 ** rng.integers(-3, 4)
    return (rng.standard_normal((d, 2)) * scale).tolist()


def _dense_copy(state_set):
    return StateSet(state_set.dims, [as_dense(s) for s in state_set], "dense")


class TestBatchLoader:
    @pytest.mark.parametrize(
        "build",
        [upb_qubit3, upb_tiles33, upb_sep333, upb_44_reducible, heptagon_qutrit_states,
         lambda: upb_shifts(4), lambda: entangled_triple(3)],
    )
    def test_named_sets_load_bitwise(self, build, tmp_path):
        _assert_loaded_bitwise(state_set_to_dict(build()), tmp_path / "set.json")

    def test_wide_shift_family_loads_bitwise(self, tmp_path):
        rng = np.random.default_rng(41)
        raw = rng.standard_normal((29, 2)) + 1j * rng.standard_normal((29, 2))
        family = shift_family(30, validate_seeds(list(raw), 30))
        _assert_loaded_bitwise(state_set_to_dict(family), tmp_path / "set.json")

    def test_loaded_states_share_the_set_signature(self):
        loaded = state_set_from_dict(state_set_to_dict(upb_sep333()))
        for state in loaded:
            assert state.dims == loaded.dims == (3, 3, 3)
            assert state.dims is loaded[0].dims

    def test_dense_set_loads_bitwise(self, tmp_path):
        _assert_loaded_bitwise(state_set_to_dict(_dense_copy(upb_shifts(5))), tmp_path / "set.json")

    def test_mixed_dims_and_kinds_load_bitwise(self, tmp_path):
        rng = np.random.default_rng(43)
        dims = (2, 3, 4)
        states = [random_product_state(rng, dims) for _ in range(5)]
        states.insert(2, as_dense(random_product_state(rng, dims)))
        payload = state_set_to_dict(StateSet(dims, states, "mixed"))
        _assert_loaded_bitwise(payload, tmp_path / "set.json")

    @pytest.mark.parametrize("seed", range(6))
    def test_random_payloads_load_bitwise(self, seed, tmp_path):
        rng = np.random.default_rng(seed)
        dims = [int(d) for d in rng.integers(2, 5, size=int(rng.integers(1, 5)))]
        total = math.prod(dims)
        entries = []
        for _ in range(int(rng.integers(1, 9))):
            ints = bool(rng.integers(2))
            if rng.random() < 0.25:
                entries.append({"dense": _random_pairs(rng, total, ints)})
            else:
                entries.append({"product": [_random_pairs(rng, d, ints) for d in dims]})
        payload = {"label": "random", "dims": dims, "states": entries}
        _assert_loaded_bitwise(payload, tmp_path / "set.json")

    def test_numpy_numbers_and_tuple_pairs_accepted(self, tmp_path):
        pairs = [(np.float64(0.6), np.float64(0.0)), [np.float64(0.0), 0.8]]
        payload = {"dims": [2, 2], "states": [{"product": [pairs, [[1, 0], [0, 0]]]}]}
        _assert_loaded_bitwise(payload, tmp_path / "set.json")

    def test_empty_state_list_loads(self):
        assert len(state_set_from_dict({"dims": [2], "states": []})) == 0


_Q = [[1, 0], [0, 1]]
_T = [[1, 0], [0, 0], [0, 1]]
_Z2 = [[0, 0], [0.0, 0]]


def _prod(*factors):
    return {"product": list(factors)}


# (payload, the message the per-entry parser gave before batching)
MALFORMED = {
    "not an object": (["x"], "top level: expected an object"),
    "entry not an object": (
        {"dims": [2], "states": [[1, 0]]},
        "states[0]: expected an object with exactly one of 'product' or 'dense'",
    ),
    "entry with two kinds": (
        {"dims": [2], "states": [{"product": [_Q], "dense": []}]},
        "states[0]: expected an object with exactly one of 'product' or 'dense'",
    ),
    "empty entry": (
        {"dims": [2], "states": [{}]},
        "states[0]: expected an object with exactly one of 'product' or 'dense'",
    ),
    "unknown kind": ({"dims": [2], "states": [{"weird": []}]}, "states[0]: unknown state kind 'weird'"),
    "product not a list": (
        {"dims": [2], "states": [{"product": "ab"}]},
        "states[0].product: expected one factor per party (1)",
    ),
    "too few factors": (
        {"dims": [2, 3], "states": [_prod(_Q)]},
        "states[0].product: expected one factor per party (2)",
    ),
    "factor is a tuple": (
        {"dims": [2, 3], "states": [_prod(_Q, tuple(_T))]},
        "states[0].product[1]: factor length must equal dims[1]=3",
    ),
    "factor too long": (
        {"dims": [2, 3], "states": [_prod(_Q, _T + [[0, 0]])]},
        "states[0].product[1]: factor length must equal dims[1]=3",
    ),
    "pair is a string": (
        {"dims": [2], "states": [_prod([[1, 0], "x"])]},
        "states[0].product[0][1]: expected a [re, im] number pair",
    ),
    "pair too short": (
        {"dims": [2], "states": [_prod([[1, 0], [1]])]},
        "states[0].product[0][1]: expected a [re, im] number pair",
    ),
    "pair too long": (
        {"dims": [2], "states": [_prod([[1, 0], [1, 0, 0]])]},
        "states[0].product[0][1]: expected a [re, im] number pair",
    ),
    "bool in a pair": (
        {"dims": [2], "states": [_prod([[True, 0], [0, 1]])]},
        "states[0].product[0][0]: expected a [re, im] number pair",
    ),
    "None in a pair": (
        {"dims": [2], "states": [_prod([[1, None], [0, 1]])]},
        "states[0].product[0][0]: expected a [re, im] number pair",
    ),
    "string number": (
        {"dims": [2], "states": [_prod([[1, 0], ["1", 0]])]},
        "states[0].product[0][1]: expected a [re, im] number pair",
    ),
    "nested list in a pair": (
        {"dims": [2], "states": [_prod([[1, [0]], [0, 1]])]},
        "states[0].product[0][0]: expected a [re, im] number pair",
    ),
    "array pair": (
        {"dims": [2], "states": [_prod([np.array([1.0, 0.0]), [0, 1]])]},
        "states[0].product[0][0]: expected a [re, im] number pair",
    ),
    "bool deep in a later state": (
        {"dims": [2, 3, 2],
         "states": [_prod(_Q, _T, _Q)] * 3 + [_prod(_Q, _T, [[0.5, 0], [0.5, False]])]},
        "states[3].product[2][1]: expected a [re, im] number pair",
    ),
    "zero factor before a format error": (
        {"dims": [2, 2], "states": [_prod(_Q, _Z2), _prod(_Q, [[1, 0], "x"])]},
        "states[0].product: cannot normalize a zero vector",
    ),
    "format error before a zero factor": (
        {"dims": [2, 2], "states": [_prod(_Q, [[1, 0], "x"]), _prod(_Z2, _Q)]},
        "states[0].product[1][1]: expected a [re, im] number pair",
    ),
    "zero factor at a later party first": (
        {"dims": [2, 2, 2], "states": [_prod(_Q, _Q, _Q), _prod(_Q, _Q, _Z2), _prod(_Z2, _Q, _Q)]},
        "states[1].product: cannot normalize a zero vector",
    ),
    "format error after a zero factor in one state": (
        {"dims": [2, 2], "states": [_prod(_Z2, [[1, 0], [0, "x"]])]},
        "states[0].product[1][1]: expected a [re, im] number pair",
    ),
    "dense not a list": (
        {"dims": [2, 2], "states": [{"dense": {"a": 1}}]},
        "states[0].dense: expected 4 amplitude pairs",
    ),
    "dense too short": (
        {"dims": [2, 2], "states": [{"dense": [[1, 0], [0, 0]]}]},
        "states[0].dense: expected 4 amplitude pairs",
    ),
    "bool in dense": (
        {"dims": [2, 2], "states": [{"dense": [[1, 0], [0, 0], [0, 0], [0, True]]}]},
        "states[0].dense[3]: expected a [re, im] number pair",
    ),
    "dense zero vector": (
        {"dims": [2, 2], "states": [_prod(_Q, _Q), {"dense": [[0, 0]] * 4}]},
        "states[1].dense: cannot normalize a zero vector",
    ),
    "dense zero before a product zero": (
        {"dims": [2, 2], "states": [{"dense": [[0, 0]] * 4}, _prod(_Z2, _Q)]},
        "states[0].dense: cannot normalize a zero vector",
    ),
    "product zero before a dense format error": (
        {"dims": [2, 2], "states": [_prod(_Q, _Z2), {"dense": [[1, 0]] * 3}]},
        "states[0].product: cannot normalize a zero vector",
    ),
    "mixed dims zero factor": (
        {"dims": [2, 3, 4],
         "states": [_prod(_Q, _T, [[1, 0]] * 4), _prod(_Q, [[0, 0]] * 3, [[1, 0]] * 4)]},
        "states[1].product: cannot normalize a zero vector",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_payload_message(case):
    payload, message = MALFORMED[case]
    with pytest.raises(StateFormatError) as excinfo:
        state_set_from_dict(payload)
    assert str(excinfo.value) == message


# JSON text whose numbers are not finite floats, and the field named
_BIG = "1" + "0" * 400
NON_FINITE = {
    "integer too large for a float": (
        '{"dims": [2, 2], "states": [{"product": [[[%s, 0], [0, 0]], [[1, 0], [0, 0]]]}]}' % _BIG,
        "states[0].product[0][0]",
    ),
    "float overflow": (
        '{"dims": [2, 2], "states": [{"product": [[[1, 0], [0, 0]], [[1, 0], [0, 1e400]]]}]}',
        "states[0].product[1][1]",
    ),
    "NaN in a later state": (
        '{"dims": [2], "states": [{"product": [[[1, 0], [0, 0]]]}, {"product": [[[0, 0], [NaN, 0]]]}]}',
        "states[1].product[0][1]",
    ),
    "Infinity in dense": (
        '{"dims": [2], "states": [{"dense": [[1, 0], [0, -Infinity]]}]}',
        "states[0].dense[1]",
    ),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE))
def test_non_finite_number_message(case):
    text, where = NON_FINITE[case]
    with pytest.raises(StateFormatError) as excinfo:
        state_set_from_dict(json.loads(text))
    assert str(excinfo.value) == f"{where}: numbers must be finite floats"


def _outcome(load):
    """The message of the :class:`StateFormatError` ``load()`` raises, else
    the label, signature and bytes of every state of the set it returns."""
    try:
        loaded = load()
    except StateFormatError as exc:
        return str(exc)
    vectors = [
        s.amplitudes.tobytes() if isinstance(s, DenseState) else [f.tobytes() for f in s.factors]
        for s in loaded
    ]
    return loaded.label, loaded.dims, vectors


def _assert_file_matches_payload(text, path):
    """``load_set`` on ``text`` written to ``path`` gives what
    ``state_set_from_dict(json.loads(text))`` gives."""
    path.write_text(text)
    want = _outcome(lambda: state_set_from_dict(json.loads(text)))
    assert _outcome(lambda: load_set(path)) == want
    return want


def _encodable(payload):
    try:
        json.dumps(payload)
    except TypeError:
        return False
    return True


@pytest.mark.parametrize("case", sorted(c for c, (p, _) in MALFORMED.items() if _encodable(p)))
def test_malformed_file_matches_the_payload(case, tmp_path):
    _assert_file_matches_payload(json.dumps(MALFORMED[case][0]), tmp_path / "set.json")


@pytest.mark.parametrize("case", sorted(NON_FINITE))
def test_non_finite_file_matches_the_payload(case, tmp_path):
    text, where = NON_FINITE[case]
    want = _assert_file_matches_payload(text, tmp_path / "set.json")
    assert want == f"{where}: numbers must be finite floats"


# JSON text only a file carries: a one-key object where no state entry
# belongs, and a repeated key; and the message each gives
FILE_ONLY = {
    "state entry as the whole file": (
        '{"product": [[[1, 0], [0, 1]]]}',
        "dims: expected a non-empty list of integers",
    ),
    "state entry as the label": (
        '{"label": {"dense": [[1, 0], [0, 1]]}, "dims": [2], "states": []}',
        "label: expected a string",
    ),
    "repeated states key": (
        '{"dims": [2], "states": [{"product": [[[1, 0], [0, 1]]]}], "states": [{"dense": [[0, 0]]}]}',
        "states[0].dense: expected 2 amplitude pairs",
    ),
}


@pytest.mark.parametrize("case", sorted(FILE_ONLY))
def test_file_only_payload_message(case, tmp_path):
    text, message = FILE_ONLY[case]
    assert _assert_file_matches_payload(text, tmp_path / "set.json") == message


def test_repeated_states_key_keeps_the_last(tmp_path):
    text = '{"dims": [2], "states": [{"dense": [[0, 0]]}], "states": [{"product": [[[3, 0], [0, 4]]]}]}'
    label, dims, vectors = _assert_file_matches_payload(text, tmp_path / "set.json")
    assert dims == (2,) and vectors == [[unit_reference([3, 4j]).tobytes()]]


@contextlib.contextmanager
def _collector(enabled):
    """Run the block with the cyclic collector on or off, then turn it
    back on."""
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        gc.enable()


@contextlib.contextmanager
def _collection_starts():
    """A list that counts, by its length, the cyclic collections started
    while the block runs."""
    starts = []

    def record(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.callbacks.append(record)
    try:
        yield starts
    finally:
        gc.callbacks.remove(record)


# a file the decoders refuse, and the message that names the bad field
_BAD_FILES = {
    "invalid JSON": ("{not json", "invalid JSON: Expecting property name"),
    "nesting too deep": ("[" * 200000, "invalid JSON: nesting too deep"),
    "bool deep in a later state": (
        json.dumps(MALFORMED["bool deep in a later state"][0]),
        MALFORMED["bool deep in a later state"][1],
    ),
}

# every named set, each small one also as its dense expansion
_NAMED_SETS = {
    "qubit3": upb_qubit3,
    "triple": entangled_triple,
    "tiles33": upb_tiles33,
    "sep333": upb_sep333,
    "reducible44": upb_44_reducible,
    "heptagon": heptagon_qutrit_states,
    "shifts5": lambda: upb_shifts(5),
    "shift_family4": lambda: shift_family(4),
    "shift_family30": lambda: shift_family(30),
    "sqrt_subset19": lambda: sqrt_subset(19)[1],
    "compose": lambda: compose(upb_qubit3(), 1, upb_tiles33(), 2),
}
_NAMED_SETS.update(
    {f"dense {name}": (lambda build=build: _dense_copy(build()))
     for name, build in _NAMED_SETS.items() if name not in ("shift_family30", "sqrt_subset19")}
)


class TestCollectorPause:
    """``load_set`` and ``save_set`` decode and write with the cyclic
    collector paused, and leave it as they found it."""

    @pytest.mark.parametrize("enabled", [True, False])
    def test_load_and_save_restore_the_collector(self, enabled, tmp_path):
        path = tmp_path / "set.json"
        with _collector(enabled):
            save_set(upb_qubit3(), path)
            assert gc.isenabled() is enabled
            load_set(path)
            assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("case", sorted(_BAD_FILES))
    def test_refused_files_restore_the_collector(self, case, enabled, tmp_path):
        text, message = _BAD_FILES[case]
        path = tmp_path / "bad.json"
        path.write_text(text)
        with _collector(enabled):
            with pytest.raises(StateFormatError) as info:
                load_set(path)
            assert gc.isenabled() is enabled
        assert str(info.value).startswith(message)

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize(
        "seam, build",
        [
            # an all-product set is written from its factor codebook, a set
            # with dense members one state at a time, each dense member
            # straight from its amplitudes
            ("_product_text", upb_qubit3),
            ("_dense_text", lambda: _dense_copy(upb_qubit3())),
        ],
        ids=["product", "dense"],
    )
    def test_failing_writer_restores_the_collector(
        self, seam, build, enabled, monkeypatch, tmp_path
    ):
        def halfway(value):
            yield "{"
            raise RuntimeError("writer failed")

        state_set = build()
        monkeypatch.setattr(states_module, seam, halfway)
        with _collector(enabled):
            with pytest.raises(RuntimeError, match="writer failed"):
                save_set(state_set, tmp_path / "set.json")
            assert gc.isenabled() is enabled

    def test_every_hook_call_runs_paused(self, monkeypatch, tmp_path):
        path = tmp_path / "set.json"
        save_set(_dense_copy(upb_shifts(3)), path)
        seen, decoding = [], []
        real_decode, real_entry = states_module._decode, states_module._entry

        def decode(text, object_hook):
            decoding.append(True)
            try:
                return real_decode(text, object_hook)
            finally:
                decoding.pop()

        def entry(value):
            # _parse_states runs the same function again after the decode
            if decoding:
                seen.append(gc.isenabled())
            return real_entry(value)

        monkeypatch.setattr(states_module, "_decode", decode)
        monkeypatch.setattr(states_module, "_entry", entry)
        with _collector(True):
            load_set(path)
        # one call per state entry and one for the top-level object
        assert seen == [False] * (len(upb_shifts(3)) + 1)

    def test_dense_save_and_load_collect_at_most_once(self, tmp_path):
        dense = _dense_copy(upb_shifts(6))
        path = tmp_path / "dense.json"
        with _collector(True):
            with _collection_starts() as saving:
                save_set(dense, path)
            with _collection_starts() as loading:
                loaded = load_set(path)
        assert len(saving) <= 1
        assert len(loading) <= 1
        assert len(loaded) == len(dense)

    @pytest.mark.parametrize("name", sorted(_NAMED_SETS))
    def test_saved_bytes_and_loaded_arrays_unchanged(self, name, tmp_path):
        state_set = _NAMED_SETS[name]()
        path = tmp_path / "set.json"
        save_set(state_set, path)
        text = path.read_text()
        assert text == json.dumps(state_set_to_dict(state_set), indent=2) + "\n"
        with _collector(True):
            want = _outcome(lambda: state_set_from_dict(json.loads(text)))
        assert isinstance(want, tuple)
        assert _outcome(lambda: load_set(path)) == want


def _generic_decodes(monkeypatch):
    """A list that grows by one for each JSON decode that ``load_set`` runs:
    the decoder route, which every file not in save_set's layout takes."""
    calls = []
    real = states_module._decode

    def decode(text, object_hook):
        calls.append(object_hook)
        return real(text, object_hook)

    monkeypatch.setattr(states_module, "_decode", decode)
    return calls


def _any_outcome(load):
    """:func:`_outcome`, with any other exception given as its type and
    message."""
    try:
        return _outcome(load)
    except Exception as exc:
        return type(exc), str(exc)


def _reference_outcome(path):
    """What ``load_set`` gives for any file: the file read in text mode
    (UTF-8, universal newlines), decoded as JSON and parsed by
    ``state_set_from_dict``."""

    def load():
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise StateFormatError(f"invalid JSON: {exc}") from None
        return state_set_from_dict(payload)

    return _any_outcome(load)


def _assert_loads_as_reference(data, path):
    """``load_set`` of the bytes ``data`` written to ``path`` gives the
    set, or the exception, of :func:`_reference_outcome`; returns it."""
    path.write_bytes(data)
    want = _reference_outcome(path)
    assert _any_outcome(lambda: load_set(path)) == want
    return want


def _random_seeds(n, seed):
    rng = np.random.default_rng(seed)
    return list(rng.standard_normal((n - 1, 2)) + 1j * rng.standard_normal((n - 1, 2)))


# save_set files in its own layout, which load_set reads by splitting
_LAYOUT_SETS = {
    name: build for name, build in _NAMED_SETS.items()
    if not name.startswith("dense") and name != "triple"
}
_LAYOUT_SETS.update({
    "random shift_family(20)": lambda: _random_shift_family(20, 8),
    "random upb_shifts(9)": lambda: upb_shifts(9, _random_seeds(9, 5)),
    "random sqrt_subset(40)": lambda: sqrt_subset(40, _random_seeds(40, 6))[1],
    "mixed dims": lambda: compose(upb_tiles33(), 0, upb_qubit3(), 3),
    # unit rows equal but for the sign of a zero, which save_set writes apart
    "negative zeros": lambda: StateSet._from_stacks((2, 2), [
        np.array([[-0.0, 1.0], [0.0, 1.0], [complex(-0.0, -0.0), 1.0]]),
        np.array([[1.0, 0.0], [1.0, -0.0], [1.0, complex(0.0, -0.0)]]),
    ], "zeros"),
    "escaped label": lambda: StateSet(
        (2,), [ProductState([KET0])], 'quote " backslash \\ newline \n tab \t bell \x07 /'
    ),
    "non-ASCII label": lambda: StateSet(
        (2,), [ProductState([KET1])], "\u00e9tats \u221e \U0001f600"
    ),
    "one state": lambda: StateSet((2, 3), [ProductState([KET0, [1.0, 1.0, 0.0]])], "one"),
    "one party": lambda: StateSet(
        (3,), [ProductState([v]) for v in ([1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 0, 0])], "single"
    ),
})


def _qubit3_bytes():
    return (json.dumps(state_set_to_dict(upb_qubit3()), indent=2) + "\n").encode()


def _qubit3_edited(edit, **dumps):
    """The file of qubit3's payload after ``edit(payload)``, written by
    ``json.dumps(..., indent=2, **dumps)``."""
    payload = state_set_to_dict(upb_qubit3())
    edit(payload)
    return (json.dumps(payload, indent=2, **dumps) + "\n").encode()


def _qubit3_replaced(old, new, n):
    """qubit3's file with the n-th occurrence (0 first, -1 last) of the
    bytes ``old`` replaced by ``new``."""
    data = _qubit3_bytes()
    starts = [i for i in range(len(data)) if data.startswith(old, i)]
    return data[:starts[n]] + new + data[starts[n] + len(old):]


def _mixed_qubit3(dense_first):
    states = list(upb_qubit3())
    dense = [as_dense(states[0])]
    return StateSet((2, 2, 2), dense + states if dense_first else states + dense, "mixed")


_PAIR, _FACTOR = b"\n" + b" " * 10 + b"[", b"\n" + b" " * 8 + b"["

# files that are not save_set's layout, or are but hold a malformed
# factor: load_set must give what it gave before it read that layout by
# splitting, a set or an error
_OTHER_FILES = {
    "CRLF": lambda: _qubit3_bytes().replace(b"\n", b"\r\n"),
    "BOM": lambda: b"\xef\xbb\xbf" + _qubit3_bytes(),
    "compact JSON": lambda: json.dumps(state_set_to_dict(upb_qubit3())).encode(),
    "no final newline": lambda: _qubit3_bytes()[:-1],
    "two final newlines": lambda: _qubit3_bytes() + b"\n",
    "trailing text": lambda: _qubit3_bytes() + b"x",
    "extra key at the end": lambda: _qubit3_edited(lambda p: p.update(note=1)),
    "extra key first": lambda: (
        json.dumps({"note": 1, **state_set_to_dict(upb_qubit3())}, indent=2) + "\n"
    ).encode(),
    "extra key in a state": lambda: _qubit3_edited(lambda p: p["states"][1].update(note=1)),
    "dense member after product members": lambda: (
        json.dumps(state_set_to_dict(_mixed_qubit3(False)), indent=2) + "\n"
    ).encode(),
    "dense member first": lambda: (
        json.dumps(state_set_to_dict(_mixed_qubit3(True)), indent=2) + "\n"
    ).encode(),
    "NaN": lambda: _qubit3_replaced(b"1.0", b"NaN", -1),
    "Infinity": lambda: _qubit3_replaced(b"0.0", b"Infinity", 3),
    "-Infinity": lambda: _qubit3_replaced(b"0.0", b"-Infinity", 0),
    "1e400": lambda: _qubit3_replaced(b"1.0", b"1e400", 2),
    "huge integer": lambda: _qubit3_replaced(b"1.0", b"1" + b"0" * 400, 1),
    "bool": lambda: _qubit3_replaced(b"0.0", b"true", -1),
    "null": lambda: _qubit3_replaced(b"0.0", b"null", 5),
    "string number": lambda: _qubit3_replaced(b"1.0", b'"1.0"', 0),
    "ints": lambda: _qubit3_bytes().replace(b" 1.0\n", b" 1\n").replace(b" 0.0,", b" 0,"),
    "invalid UTF-8 in a factor": lambda: _qubit3_replaced(b"0.0", b"0.\xff", 2),
    "zero factor": lambda: _qubit3_edited(
        lambda p: p["states"][2]["product"].__setitem__(1, [[0.0, 0.0], [0.0, -0.0]])
    ),
    "too few factors": lambda: _qubit3_edited(lambda p: p["states"][1]["product"].pop()),
    "factor too long": lambda: _qubit3_edited(
        lambda p: p["states"][3]["product"][0].append([0.0, 0.0])
    ),
    "first pair at the factor indent": lambda: _qubit3_replaced(_PAIR, _FACTOR, 0),
    "second pair at the factor indent": lambda: _qubit3_replaced(_PAIR, _FACTOR, 1),
    "last pair at the factor indent": lambda: _qubit3_replaced(_PAIR, _FACTOR, -1),
    "factor one space deeper": lambda: _qubit3_replaced(_FACTOR, b"\n" + b" " * 9 + b"[", 4),
    "label not a string": lambda: _qubit3_edited(lambda p: p.update(label=5)),
    "raw non-ASCII label": lambda: _qubit3_edited(
        lambda p: p.update(label="\u00e9t\u00e9"), ensure_ascii=False
    ),
    "dims holding a bool": lambda: _qubit3_edited(lambda p: p["dims"].__setitem__(2, True)),
    "dims as floats": lambda: _qubit3_edited(lambda p: p.update(dims=[2.0, 2.0, 2.0])),
    "dims of a one": lambda: _qubit3_edited(lambda p: p.update(dims=[2, 2, 1])),
    "dims too long": lambda: _qubit3_edited(lambda p: p.update(dims=[2, 2, 2, 2])),
    "no states": lambda: _qubit3_edited(lambda p: p.update(states=[])),
}


def _saved_bytes(state_set):
    """The bytes save_set writes for ``state_set``."""
    text = io.StringIO()
    states_module._write_set(state_set, text)
    return text.getvalue().encode()


def _last_bool(data):
    """``data`` with the first number of the last pair of its last factor
    made ``true``."""
    prefix = _PAIR + b"\n" + b" " * 12
    at = data.rindex(prefix) + len(prefix)
    return data[:at] + b"true" + data[data.index(b",", at):]


# edits to the end of a file in save_set's layout: the split reads it whole,
# then a later check refuses it
_LAST_STATE_EDITS = {
    "two final newlines": lambda data: data + b"\n",
    "trailing text": lambda data: data + b"x",
    "states' end one space deeper": lambda data: data[:-5] + b" " + data[-5:],
    "bool in the last factor": _last_bool,
}

# the windows the split is run at: a byte, windows that cut inside states,
# and the default
_WINDOWS = [1, 64, 300, 4096, None]


@pytest.fixture(params=_WINDOWS)
def window(request, monkeypatch):
    """_LOAD_BYTES, set to each of _WINDOWS (None: the default)."""
    if request.param is not None:
        monkeypatch.setattr(states_module, "_LOAD_BYTES", request.param)
    return states_module._LOAD_BYTES


class TestLayoutReader:
    """``load_set`` reads the layout save_set writes by splitting it at its
    factors as it reads the file, and hands every other file to the JSON
    decoder."""

    @pytest.mark.parametrize("name", sorted(_LAYOUT_SETS))
    def test_saved_files_load_bitwise_by_splitting(self, name, tmp_path, monkeypatch):
        path = tmp_path / "set.json"
        save_set(_LAYOUT_SETS[name](), path)
        decodes = _generic_decodes(monkeypatch)
        want = _reference_outcome(path)
        assert isinstance(want, tuple)
        assert _any_outcome(lambda: load_set(path)) == want
        assert decodes == []

    def test_negative_zeros_are_written_apart(self, tmp_path):
        path = tmp_path / "set.json"
        save_set(_LAYOUT_SETS["negative zeros"](), path)
        pairs = [pair for entry in json.loads(path.read_text())["states"]
                 for factor in entry["product"] for pair in factor]
        assert {math.copysign(1.0, x) for pair in pairs for x in pair if x == 0} == {-1.0, 1.0}

    @pytest.mark.parametrize("name", sorted(_OTHER_FILES))
    def test_other_files_load_as_before(self, name, tmp_path):
        _assert_loads_as_reference(_OTHER_FILES[name](), tmp_path / "set.json")

    @pytest.mark.parametrize(
        "name",
        ["CRLF", "BOM", "compact JSON", "no final newline", "dense member first",
         "dense member after product members", "extra key in a state", "NaN", "zero factor"],
    )
    def test_other_files_take_the_decoder(self, name, tmp_path, monkeypatch):
        path = tmp_path / "set.json"
        path.write_bytes(_OTHER_FILES[name]())
        decodes = _generic_decodes(monkeypatch)
        _any_outcome(lambda: load_set(path))
        assert decodes[:1] == [states_module._entry]

    def test_dense_file_goes_to_the_decoder_before_any_split(self, tmp_path, monkeypatch):
        path = tmp_path / "set.json"
        save_set(_dense_copy(upb_shifts(4)), path)

        def no_split(*args):
            raise AssertionError("a dense file was split")

        monkeypatch.setattr(states_module, "_split_codes", no_split)
        decodes = _generic_decodes(monkeypatch)
        assert len(load_set(path)) == 8
        assert decodes == [states_module._entry]

    def test_file_repeating_few_factors_goes_to_the_decoder(self, tmp_path, monkeypatch):
        # forty random qubit states on forty parties repeat no factor: the
        # split stops before its second window and the decoder reads the file
        rng = np.random.default_rng(7)
        states = [random_product_state(rng, (2,) * 40) for _ in range(40)]
        path = tmp_path / "set.json"
        save_set(StateSet((2,) * 40, states, "random"), path)
        assert path.stat().st_size > 2 * states_module._LOAD_BYTES
        decodes = _generic_decodes(monkeypatch)
        want = _reference_outcome(path)
        assert _any_outcome(lambda: load_set(path)) == want
        assert decodes == [states_module._entry]

    def test_any_window_gives_the_same_set(self, window, tmp_path, monkeypatch):
        # a window of 1 byte splits one factor at a time, each longer than
        # the window; 64, 300 and 4096 bytes cut inside states
        path = tmp_path / "set.json"
        save_set(compose(shift_family(5), 0, upb_sep333(), 1), path)
        want = _reference_outcome(path)
        decodes = _generic_decodes(monkeypatch)
        assert _any_outcome(lambda: load_set(path)) == want
        assert decodes == []

    @pytest.mark.parametrize("name", ["shift_family(5)", "CRLF", "bool"])
    def test_a_fifo_loads_as_its_file(self, name, tmp_path, monkeypatch):
        # a pipe cannot seek: it is read once, then split or decoded
        data = _OTHER_FILES[name]() if name in _OTHER_FILES else _saved_bytes(shift_family(5))
        path, fifo = tmp_path / "set.json", tmp_path / "set.fifo"
        path.write_bytes(data)
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(data,), daemon=True)
        writer.start()
        decodes = _generic_decodes(monkeypatch)
        assert _any_outcome(lambda: load_set(fifo)) == _reference_outcome(path)
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert (decodes == []) == (name not in _OTHER_FILES)

    @pytest.mark.parametrize("name", sorted(_LAST_STATE_EDITS))
    def test_refused_at_its_last_state_after_splitting_every_window(
        self, name, window, tmp_path, monkeypatch
    ):
        # the split reads every window of the file before the edit at its
        # end refuses it; the decoder then reads the file from its start
        data = _LAST_STATE_EDITS[name](_saved_bytes(_random_shift_family(20, 8)))
        assert len(data) > 4 * (1 << 16)
        splits = []
        real = states_module._split_codes

        def spy(fh, data, parties):
            splits.append(real(fh, data, parties))
            return splits[-1]

        monkeypatch.setattr(states_module, "_split_codes", spy)
        decodes = _generic_decodes(monkeypatch)
        want = _assert_loads_as_reference(data, tmp_path / "set.json")
        assert len(splits) == 1 and splits[0] is not None and len(splits[0][0]) == 39 * 39
        assert decodes[:1] == [states_module._entry]
        # a set, or a StateFormatError's message
        assert isinstance(want, str) or len(want) == 3

    def test_traced_peak_is_a_fraction_of_the_file(self, tmp_path):
        # one window of the file, the distinct factor texts and the code
        # table: a random-seed shift_family(100) repeats each party's few
        # factors across 199 states
        path = tmp_path / "set.json"
        save_set(_random_shift_family(100, 3), path)
        size = path.stat().st_size
        tracemalloc.start()
        try:
            loaded = load_set(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(loaded) == 199
        assert peak < size / 3, (peak, size)

    def test_every_truncation_of_a_saved_file(self, tmp_path):
        data = _qubit3_bytes()
        path = tmp_path / "set.json"
        for size in range(len(data) + 1):
            _assert_loads_as_reference(data[:size], path)

    @pytest.mark.parametrize("seed", range(4))
    def test_single_byte_mutations(self, seed, tmp_path):
        data = _qubit3_bytes()
        rng = np.random.default_rng(seed)
        alphabet = b'0123456789-+.eE,:[]{}" \n\r\tantruxyN\xff'
        path = tmp_path / "set.json"
        for _ in range(150):
            mutated = bytearray(data)
            mutated[int(rng.integers(len(data)))] = alphabet[int(rng.integers(len(alphabet)))]
            _assert_loads_as_reference(bytes(mutated), path)


def _golden_files(tmp_path):
    """The bytes of every set file the golden guard constructs."""
    files = {}
    for name, argv in golden_guard.INPUTS:
        path = tmp_path / f"{name}.json"
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli_main([*argv, "--out", str(path)]) == 0
        files[name] = path.read_bytes()
    return files


def _split_from(data, start, parties, cut=None):
    """_split_codes of ``data`` from ``start``, given the bytes up to
    ``cut`` (past the first mark by default) and left to read the rest
    from a stream."""
    cut = start + len(states_module._FACTOR_MARK) if cut is None else cut
    return states_module._split_codes(io.BytesIO(data[cut:]), data[start:cut], parties)


def _assert_split_like_bytes(data, start, parties):
    want = split_codes_bytes(data, start, parties)
    # read from the stream from the first mark on, or with up to four
    # windows held from the start
    held = min(len(data), start + len(states_module._FACTOR_MARK) + 4 * states_module._LOAD_BYTES)
    for got in (_split_from(data, start, parties), _split_from(data, start, parties, held)):
        if want is None:
            assert got is None
        else:
            assert np.array_equal(got[0], want[0]) and got[1] == want[1]
            assert list(got[1]) == list(want[1])


@pytest.fixture(scope="module")
def golden_files(tmp_path_factory):
    return _golden_files(tmp_path_factory.mktemp("golden"))


class TestMarkPattern:
    """_split_codes finds and splits at _FACTOR_MARK with one compiled
    pattern, reading the file a window at a time, and gives the pieces of
    bytes.find and bytes.split over the whole file."""

    def test_golden_files_split_as_by_bytes(self, golden_files, window):
        for name, data in golden_files.items():
            mark = states_module._FACTOR_MARK
            assert states_module._MARK_PATTERN.split(data) == data.split(mark), name
            start = data.find(mark)
            parties = len(json.loads(data)["dims"])
            _assert_split_like_bytes(data, start, parties)
            _assert_split_like_bytes(data, start, 10**9)

    def test_mark_at_every_offset_around_a_window_edge(self, window):
        mark, edge = states_module._FACTOR_MARK, window
        # the second mark starts from just before the window's edge, so
        # that the edge cuts it, to just past it; at the edge itself, it
        # ends the window; it cannot start inside the first mark
        for at in range(max(len(mark), edge - len(mark) - 1), max(len(mark), edge) + 3):
            data = mark + b"x" * (at - len(mark)) + mark + b"a" + mark + b"b"
            assert data.index(mark, 1) == at
            _assert_split_like_bytes(data, 0, 10**9)

    def test_adjacent_marks_and_a_mark_at_the_end(self, window):
        mark = states_module._FACTOR_MARK
        for data in (mark + b"a" + mark + mark + b"b", mark + b"a" + mark, mark + mark,
                     mark + b"a" + mark + b"a" + mark + mark + mark):
            assert states_module._MARK_PATTERN.split(data) == data.split(mark)
            _assert_split_like_bytes(data, 0, 10**9)
            got = _split_from(data, 0, 10**9)
            assert b"" in got[1]

    def test_first_mark_of_a_file_without_one(self):
        assert states_module._read_product_text(io.BytesIO(b'{"label": "x", "dims": [2]}')) is None


# sets whose source supplies their code table
_CODED_SETS = {
    "shift_family(4)": lambda: shift_family(4),
    "shift_family(30)": lambda: shift_family(30),
    "random shift_family(20)": lambda: _random_shift_family(20, 8),
    "upb_shifts(5)": lambda: upb_shifts(5),
    "random upb_shifts(9)": lambda: upb_shifts(9, _random_seeds(9, 5)),
    "sqrt_subset(19)": lambda: sqrt_subset(19)[1],
    "random sqrt_subset(40)": lambda: sqrt_subset(40, _random_seeds(40, 6))[1],
    "subset of upb_shifts(6)": lambda: upb_shifts(6).subset([5, 0, 11, 0]),
    "empty subset": lambda: shift_family(4).subset([]),
    "subset of a subset": lambda: sqrt_subset(19)[1].subset(range(3, 20, 2)).subset([1, 0]),
}


def _uncoded(state_set):
    """``state_set`` with fresh copies of its stacks and no code table."""
    return StateSet._from_stacks(
        state_set.dims, [f.copy() for f in state_set.factors], state_set.label
    )


def _loaded(build, tmp_path):
    path = tmp_path / "saved.json"
    save_set(build(), path)
    return load_set(path)


def _number_rows_calls(monkeypatch):
    """The row counts of every _number_rows call from now on."""
    calls = []
    real = states_module._number_rows

    def spy(rows):
        calls.append(len(rows))
        return real(rows)

    monkeypatch.setattr(states_module, "_number_rows", spy)
    return calls


def _assert_table_holds_factors(state_set):
    books, codes = state_set._code_table()
    assert set(books) == set(state_set.dims)
    assert codes.dtype == np.int32 and codes.shape == (len(state_set), len(state_set.dims))
    assert not codes.flags.writeable
    assert not any(book.flags.writeable for book in books.values())
    for party, d in enumerate(state_set.dims):
        assert books[d][codes[:, party]].tobytes() == state_set.factors[party].tobytes()


class TestCodeTable:
    """Every all-product set names each factor by a codebook row, bit for
    bit: the shift constructions, the loader's split route and subsets of
    coded sets supply the table; any other set numbers its stacks once, on
    the first read, and save_set writes the same bytes either way."""

    @pytest.mark.parametrize("name", sorted(_CODED_SETS))
    def test_supplied_tables_hold_the_factors(self, name, monkeypatch):
        calls = _number_rows_calls(monkeypatch)
        _assert_table_holds_factors(_CODED_SETS[name]())
        assert calls == []

    @pytest.mark.parametrize("name", sorted(_LAYOUT_SETS))
    def test_loaded_tables_hold_the_factors(self, name, tmp_path, monkeypatch):
        state_set = _loaded(_LAYOUT_SETS[name], tmp_path)
        calls = _number_rows_calls(monkeypatch)
        _assert_table_holds_factors(state_set)
        assert calls == []

    @pytest.mark.parametrize(
        "name", sorted(n for n in _NAMED_SETS if not n.startswith("dense") and n != "triple")
    )
    def test_numbered_tables_hold_the_factors(self, name):
        _assert_table_holds_factors(_uncoded(_NAMED_SETS[name]()))

    def test_shift_codebooks_end_in_ket0(self):
        books, codes = upb_shifts(4)._code_table()
        assert books[2].tobytes() == shift_family(4)._code_table()[0][2].tobytes()
        assert len(books[2]) == 8 and books[2][-1].tolist() == KET0
        assert (codes[0] == 7).all() and (codes[1:] < 7).all()

    @pytest.mark.parametrize("name", sorted(_CODED_SETS))
    def test_coded_sets_save_the_bytes_of_their_uncoded_copy(self, name, tmp_path, monkeypatch):
        state_set = _CODED_SETS[name]()
        calls = _number_rows_calls(monkeypatch)
        save_set(state_set, tmp_path / "coded.json")
        assert calls == []
        save_set(_uncoded(state_set), tmp_path / "uncoded.json")
        assert (tmp_path / "coded.json").read_bytes() == (tmp_path / "uncoded.json").read_bytes()

    @pytest.mark.parametrize("name", sorted(_LAYOUT_SETS))
    def test_loaded_sets_save_the_bytes_of_their_uncoded_copy(self, name, tmp_path, monkeypatch):
        state_set = _loaded(_LAYOUT_SETS[name], tmp_path)
        calls = _number_rows_calls(monkeypatch)
        save_set(state_set, tmp_path / "coded.json")
        assert calls == []
        save_set(_uncoded(state_set), tmp_path / "uncoded.json")
        assert (tmp_path / "coded.json").read_bytes() == (tmp_path / "uncoded.json").read_bytes()

    @pytest.mark.parametrize("build", [
        upb_qubit3, upb_44_reducible, lambda: compose(upb_tiles33(), 0, upb_qubit3(), 3),
        lambda: _uncoded(shift_family(6)),
    ], ids=["qubit3", "reducible44", "tiles33+qubit3", "uncoded shift_family(6)"])
    def test_uncoded_sets_number_each_dimension_once(self, build, tmp_path, monkeypatch):
        state_set = build()
        calls = _number_rows_calls(monkeypatch)
        save_set(state_set, tmp_path / "first.json")
        dims = state_set.dims
        assert calls == [len(state_set) * dims.count(d) for d in dict.fromkeys(dims)]
        save_set(state_set, tmp_path / "second.json")
        assert len(calls) == len(set(dims))
        assert (tmp_path / "first.json").read_bytes() == (tmp_path / "second.json").read_bytes()

    def test_certifying_an_uncoded_set_numbers_no_rows(self, monkeypatch):
        # the zero pattern groups only parties whose codes a source supplied:
        # certifying, checking, a campaign and an extension test leave a set
        # built from stacks without a table
        state_set = _uncoded(_random_shift_family(8, 4))
        calls = _number_rows_calls(monkeypatch)
        assert is_locally_stable(state_set).stable
        assert check_mutual_orthogonality(state_set) == []
        assert subset_campaign(state_set, len(state_set) - 1).checked == len(state_set)
        assert decide_extension(state_set).verdict == "extendible"
        assert calls == [] and state_set._table is None

    def test_subset_of_an_uncoded_set_numbers_its_own_rows(self, monkeypatch):
        subset = upb_tiles33().subset([4, 2])
        calls = _number_rows_calls(monkeypatch)
        _assert_table_holds_factors(subset)
        assert calls == [4]


def _assert_pattern_matches_per_party(state_set, tol=Tolerance()):
    """factor_zero_pattern equals the per-party reference, bit for bit."""
    pattern = factor_zero_pattern(state_set, tol)
    zero_count, expected = factor_zero_pattern_per_party(state_set, tol)
    assert np.array_equal(pattern.zero_count, zero_count)
    assert len(pattern.conflict_pairs) == len(expected) == len(state_set.dims)
    for pairs, ref in zip(pattern.conflict_pairs, expected):
        assert pairs.dtype == ref.dtype and np.array_equal(pairs, ref)


def _numbered(state_set):
    """``state_set`` with its code table read, so its parties can group."""
    state_set._code_table()
    return state_set


def _coded_set(dims, books, columns):
    """The set of ``_from_codes`` whose party r holds the codes
    ``columns[r]``."""
    codes = np.array(columns, dtype=np.int32).T.copy()
    books = {d: states_module._unit_rows(np.array(r, dtype=complex)) for d, r in books.items()}
    return StateSet._from_codes(dims, books, codes, "coded")


def _even_rows(state_set):
    return state_set.subset(range(0, len(state_set), 2))


_QUBIT_BOOK = [KET0, KET1, PLUS, MINUS, [1.0, 1j]]
_QUTRIT_BOOK = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0], [1, -1, 0]]

# sets whose coded parties share their factors, in groups or not at all
_GROUPED_SETS = {
    **{f"shift_family({n})": (lambda n=n: shift_family(n)) for n in range(3, 41)},
    **{f"random shift_family({n})": (lambda n=n: _random_shift_family(n, n)) for n in range(3, 41)},
    **{f"upb_shifts({n})": (lambda n=n: upb_shifts(n)) for n in range(3, 21)},
    **{f"sqrt_subset({n})": (lambda n=n: sqrt_subset(n)[1]) for n in (19, 50, 100)},
    **{f"even rows of sqrt_subset({n})": (lambda n=n: _even_rows(sqrt_subset(n)[1]))
       for n in (19, 50, 100)},
    **{f"four rows of sqrt_subset({n})": (lambda n=n: sqrt_subset(n)[1].subset([3, 1, 2, 0]))
       for n in (19, 50, 100)},
    "subset of random shift_family(30)": lambda: _random_shift_family(30, 2).subset(range(7, 50)),
    "qubit3+tiles33": lambda: _numbered(compose(upb_qubit3(), 0, upb_tiles33(), 1)),
    "tiles33+qubit3": lambda: _numbered(compose(upb_tiles33(), 1, upb_qubit3(), 0)),
    "tiles33": lambda: _numbered(upb_tiles33()),
    "sep333": lambda: _numbered(upb_sep333()),
    "reducible44": lambda: _numbered(upb_44_reducible()),
    # party 0 (a qubit) and party 1 (a qutrit) hold equal code columns
    "equal columns across dimensions": lambda: _coded_set(
        (2, 3, 2, 3), {2: _QUBIT_BOOK, 3: _QUTRIT_BOOK},
        [[0, 1, 2, 3, 4], [0, 1, 2, 3, 4], [4, 3, 2, 1, 0], [1, 0, 3, 4, 2]],
    ),
    # codes repeat within each party
    "repeated codes": lambda: _coded_set(
        (2, 2, 2, 3, 3), {2: _QUBIT_BOOK, 3: _QUTRIT_BOOK},
        [[0, 1, 0, 2, 3, 1], [1, 0, 1, 3, 2, 0], [0, 0, 1, 1, 2, 3],
         [3, 4, 3, 0, 0, 1], [0, 3, 0, 4, 1, 3]],
    ),
    # {0, 3, 3} and {1, 1, 4} have equal sums (6) and sums of squares (18)
    "fingerprint collision": lambda: _coded_set(
        (2, 2, 2, 2, 2), {2: _QUBIT_BOOK},
        [[0, 3, 3], [3, 0, 3], [1, 1, 4], [4, 1, 1], [3, 3, 0]],
    ),
}


class TestSharedCodeGroups:
    """factor_zero_pattern decides once per group of parties that hold the
    same multiset of codes, and gives the per-party pattern bit for bit.
    Sets of fewer than _GROUP_MIN codes are not grouped; most tests here
    group every coded set, whatever its size."""

    @pytest.fixture
    def group_all(self, monkeypatch):
        monkeypatch.setattr(states_module, "_GROUP_MIN", 0)

    @pytest.mark.parametrize("group_min", [None, 0])
    @pytest.mark.parametrize("name", list(_GROUPED_SETS))
    def test_grouped_pattern_is_the_per_party_pattern(self, name, group_min, monkeypatch):
        if group_min is not None:
            monkeypatch.setattr(states_module, "_GROUP_MIN", group_min)
        _assert_pattern_matches_per_party(_GROUPED_SETS[name]())

    @pytest.mark.usefixtures("group_all")
    @pytest.mark.parametrize("name", ["sqrt_subset(19)", "repeated codes", "fingerprint collision"])
    @pytest.mark.parametrize("orth_abs", _ORTH)
    def test_any_cutoff(self, name, orth_abs):
        _assert_pattern_matches_per_party(_GROUPED_SETS[name](), Tolerance(orth_abs=orth_abs))

    @pytest.mark.usefixtures("group_all")
    def test_small_batches_and_steps(self, monkeypatch):
        # one group stack per qubit batch, few candidates per step, and one
        # code column per grouping step
        monkeypatch.setattr(states_module, "_RAY_PARTIES", 1)
        monkeypatch.setattr(states_module, "_RAY_PAIRS", 7)
        monkeypatch.setattr(states_module, "_GROUP_CODES", 1)
        for name in ("random shift_family(12)", "repeated codes", "fingerprint collision",
                     "equal columns across dimensions", "qubit3+tiles33"):
            _assert_pattern_matches_per_party(_GROUPED_SETS[name]())

    def test_small_sets_are_not_grouped(self):
        # below _GROUP_MIN codes every party is alone; from it, the parties
        # of a shift family form one group
        for n, grouped in ((16, False), (17, True)):
            family = shift_family(n)
            alone, shared = states_module._party_groups(family)
            assert (len(family) * len(family.dims) >= states_module._GROUP_MIN) is grouped
            want = ([], 1) if grouped else (list(range(2 * n - 1)), 0)
            assert (list(alone), len(shared)) == want

    @pytest.mark.usefixtures("group_all")
    def test_shift_family_is_one_group(self):
        family = _random_shift_family(12, 5)
        alone, shared = states_module._party_groups(family)
        assert list(alone) == [] and len(shared) == 1
        parties, order = shared[0]
        assert parties.tolist() == list(range(len(family.dims)))
        codes = family._code_table()[1]
        ranked = np.sort(codes, axis=0)
        assert (ranked == ranked[:, :1]).all()
        assert np.array_equal(codes[order, 0], ranked[:, 0])

    @pytest.mark.usefixtures("group_all")
    def test_groups_split_by_dimension_and_by_codes(self):
        # parties 0 and 1 hold equal columns, but of a qubit and a qutrit
        # codebook: they group with the party of their own dimension
        state_set = _GROUPED_SETS["equal columns across dimensions"]()
        alone, shared = states_module._party_groups(state_set)
        assert list(alone) == []
        assert sorted(parties.tolist() for parties, _ in shared) == [[0, 2], [1, 3]]
        alone, shared = states_module._party_groups(_GROUPED_SETS["fingerprint collision"]())
        assert list(alone) == []
        assert sorted(parties.tolist() for parties, _ in shared) == [[0, 1, 4], [2, 3]]

    def test_random_phase_family_without_a_table(self):
        family = _random_shift_family(100, 3)
        rng = np.random.default_rng(3)
        stacks = [states_module._unit_rows(f * np.exp(2j * np.pi * rng.random((len(f), 1))))
                  for f in family.factors]
        plain = StateSet._from_stacks(family.dims, stacks, "random phases")
        _assert_pattern_matches_per_party(plain)
        alone, shared = states_module._party_groups(plain)
        assert list(alone) == list(range(len(plain.dims))) and shared == []
        assert plain._table is None
        left, right = factor_zero_pattern(plain), factor_zero_pattern(family)
        assert np.array_equal(left.zero_count, right.zero_count)

    def test_sqrt_subset_parties_are_alone(self):
        # every party of a sqrt subset holds its own rows of the codebook
        alone, shared = states_module._party_groups(sqrt_subset(100)[1])
        assert list(alone) == list(range(199)) and shared == []


class TestStatesClose:
    def test_global_phase_ignored(self):
        a = ProductState([KET0, KET1])
        b = ProductState([[1j, 0], KET1])
        assert states_close(a, b)
        assert not states_close(a, b, up_to_phase=False)

    def test_different_states(self):
        assert not states_close(ProductState([KET0]), ProductState([KET1]))
