"""Kernel tests: inner products, span ranks, orthogonal complements."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locstab import (
    DEFAULT_TOL,
    Tolerance,
    orthocomplement_basis,
    span_rank,
    vec_inner,
)
from locstab.numerics import _orthonormal_rows
from oracles import exact_rank, hs_inner, orthonormal_rows_loop

KET0 = np.array([1.0, 0.0], dtype=complex)
KET1 = np.array([0.0, 1.0], dtype=complex)
PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
MINUS = np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0)
EYE2 = np.eye(2, dtype=complex)


def outer(a, b):
    return np.outer(a, np.conj(b))


complex_entries = st.complex_numbers(
    min_magnitude=0.0, max_magnitude=10.0, allow_nan=False, allow_infinity=False
)


class TestToleranceType:
    def test_defaults(self):
        assert DEFAULT_TOL.rank_rel == 1e-8
        assert DEFAULT_TOL.orth_abs == 1e-10

    @pytest.mark.parametrize("bad", [0.0, -1e-9, 1e-2, 0.5])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            Tolerance(rank_rel=bad)
        with pytest.raises(ValueError):
            Tolerance(orth_abs=bad)


class TestVecInner:
    def test_orthogonal_basis(self):
        assert vec_inner(KET0, KET1) == 0

    def test_unit_norm(self):
        assert vec_inner(KET0, KET0) == 1

    def test_plus_minus(self):
        assert abs(vec_inner(PLUS, MINUS)) < 1e-15

    def test_conjugates_first_slot(self):
        a = np.array([1.0j, 0.0])
        b = np.array([1.0, 0.0])
        assert vec_inner(a, b) == pytest.approx(-1.0j)
        assert vec_inner(b, a) == pytest.approx(1.0j)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            vec_inner(KET0, np.ones(3))

    @settings(deadline=None, max_examples=100)
    @given(st.integers(2, 6), st.data())
    def test_conjugate_symmetry(self, dim, data):
        a = np.array(data.draw(st.lists(complex_entries, min_size=dim, max_size=dim)))
        b = np.array(data.draw(st.lists(complex_entries, min_size=dim, max_size=dim)))
        assert abs(vec_inner(a, b) - np.conj(vec_inner(b, a))) <= 1e-14 * (
            1 + abs(vec_inner(a, b))
        )


class TestHsInner:
    def test_identity_pair(self):
        assert hs_inner(EYE2, EYE2) == 2

    def test_rank_one_self(self):
        m = outer(KET0, KET1)
        assert hs_inner(m, m) == 1

    def test_traceless_off_diagonal(self):
        assert hs_inner(EYE2, outer(KET0, KET1)) == 0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            hs_inner(EYE2, np.eye(3))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            hs_inner(np.ones((2, 3)), np.ones((2, 3)))


class TestSpanRank:
    def test_empty(self):
        assert span_rank([]) == 0

    def test_dependent_third(self):
        e01 = outer(KET0, KET1)
        e10 = outer(KET1, KET0)
        assert span_rank([e01, e10, e01 + e10]) == 2

    def test_four_generators_match_exact_oracle(self):
        mats = [
            outer(KET0, KET1),
            outer(KET1, KET0),
            outer(PLUS, MINUS),
            outer(MINUS, PLUS),
        ]
        # same matrices scaled to integer entries, eliminated exactly
        rows = [
            [0, 1, 0, 0],
            [0, 0, 1, 0],
            [1, -1, 1, -1],
            [1, 1, -1, -1],
        ]
        assert exact_rank(rows) == 3
        assert span_rank(mats) == 3

    def test_random_integer_matrices_match_exact_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            d = int(rng.integers(2, 4))
            count = int(rng.integers(1, 2 * d * d))
            mats = [rng.integers(-3, 4, size=(d, d)) for _ in range(count)]
            expected = exact_rank([m.ravel().tolist() for m in mats])
            assert span_rank([m.astype(complex) for m in mats]) == expected

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_many_rows_array_and_list_match_exact_oracle(self, d):
        # m >> d**2 rows drawn from a known lower-rank integer span, so most
        # rows are dependent and the dead-pivot rule decides the rank
        rng = np.random.default_rng(d)
        for target in range(d * d + 1):
            basis = rng.integers(-3, 4, size=(target, d, d))
            coeffs = rng.integers(-2, 3, size=(12 * d * d, target))
            mats = np.einsum("mt,tij->mij", coeffs, basis)
            expected = exact_rank([m.ravel().tolist() for m in mats])
            stacked = mats.astype(complex)
            assert span_rank(stacked) == expected
            assert span_rank(list(stacked)) == expected

    def test_empty_array_has_rank_zero(self):
        assert span_rank(np.empty((0, 3, 3), dtype=complex)) == 0

    def test_array_must_be_a_square_stack(self):
        with pytest.raises(ValueError):
            span_rank(np.ones((4, 2, 3)))

    def test_zero_matrices(self):
        assert span_rank([np.zeros((3, 3))] * 4) == 0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            span_rank([EYE2, np.eye(3)])

    def test_scalar_and_permutation_invariance(self):
        rng = np.random.default_rng(11)
        mats = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
                for _ in range(5)]
        mats.append(mats[0] + 2.0 * mats[1])
        base = span_rank(mats)
        for _ in range(20):
            scaled = [
                m * ((0.1 + 9.9 * rng.random()) * np.exp(2j * np.pi * rng.random()))
                for m in mats
            ]
            rng.shuffle(scaled)
            assert span_rank(scaled) == base


class TestOrthocomplement:
    def test_empty_needs_dim(self):
        with pytest.raises(ValueError):
            orthocomplement_basis([])

    def test_empty_d2_gives_full_basis(self):
        basis = orthocomplement_basis([], dim=2)
        assert len(basis) == 4

    def test_full_traceless_leaves_identity(self):
        traceless = [
            outer(KET0, KET1),
            outer(KET1, KET0),
            outer(KET0, KET0) - outer(KET1, KET1),
        ]
        basis = orthocomplement_basis(traceless)
        assert len(basis) == 1
        scaled = basis[0] / basis[0][0, 0]
        assert np.allclose(scaled, EYE2, atol=1e-12)

    def test_dimension_identity_random(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            d = int(rng.integers(2, 5))
            count = int(rng.integers(0, d * d + 2))
            mats = [
                rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                for _ in range(count)
            ]
            assert span_rank(mats) + len(orthocomplement_basis(mats, dim=d)) == d * d

    def test_complement_orthogonal_to_generators(self):
        rng = np.random.default_rng(5)
        mats = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
                for _ in range(4)]
        for c in orthocomplement_basis(mats):
            for m in mats:
                assert abs(hs_inner(c, m / np.linalg.norm(m))) < DEFAULT_TOL.orth_abs

    def test_complement_is_orthonormal(self):
        mats = [outer(KET0, KET1)]
        basis = orthocomplement_basis(mats)
        assert len(basis) == 3
        for i, a in enumerate(basis):
            for j, b in enumerate(basis):
                expected = 1.0 if i == j else 0.0
                assert abs(hs_inner(a, b) - expected) < 1e-12


def random_stack(rng, sets, rows, width):
    """A (sets, rows, width) stack mixing every case the rank kernel meets:
    rank-deficient sets, zero rows, zero padding at the end, all-zero sets
    and sets scaled anywhere from 1e-100 to 1e100."""
    stack = rng.standard_normal((sets, rows, width)) + 1j * rng.standard_normal(
        (sets, rows, width)
    )
    for rows_b in stack:
        rank = int(rng.integers(0, width + 1))
        if rank < rows:
            rows_b[:] = rng.standard_normal((rows, rank)) @ rows_b[:rank]
        rows_b[rng.random(rows) < 0.2] = 0.0
        rows_b[int(rng.integers(0, rows + 1)):] = 0.0
        rows_b *= 10.0 ** int(rng.integers(-100, 101))
    stack[rng.random(sets) < 0.1] = 0.0
    return stack


class TestRankKernel:
    """The stacked kernel against the one-set elimination loop."""

    @pytest.mark.parametrize("width", [4, 9, 16])
    def test_stack_matches_loop_set_by_set(self, width):
        rng = np.random.default_rng(width)
        for _ in range(40):
            stack = random_stack(rng, int(rng.integers(1, 9)), int(rng.integers(0, 30)), width)
            pivots, ranks, margins = _orthonormal_rows(stack.copy(), DEFAULT_TOL.rank_rel)
            assert pivots.shape == (len(stack), ranks.max(initial=0), width)
            for rows, got, rank, margin in zip(stack, pivots, ranks, margins):
                residuals = []
                want = orthonormal_rows_loop(rows, DEFAULT_TOL.rank_rel, residuals)
                assert rank == len(want)
                assert np.array_equal(got[:rank], want)
                assert not got[rank:].any()
                # the rank margin: the smallest residual a pivot was taken at
                assert margin == min(residuals, default=np.inf)

    def test_padding_and_neighbours_do_not_move_a_rank(self):
        rng = np.random.default_rng(1)
        rows = random_stack(rng, 1, 12, 9)[0]
        rows[:3] = rng.standard_normal((3, 9))
        want = orthonormal_rows_loop(rows, DEFAULT_TOL.rank_rel)
        big = np.zeros((3, 20, 9), dtype=complex)
        big[0, 5:17] = rows
        big[1] = 1e100 * rng.standard_normal((20, 9))
        big[2, :12] = rows
        pivots, ranks, _ = _orthonormal_rows(big, DEFAULT_TOL.rank_rel)
        assert ranks.tolist() == [len(want), 9, len(want)]
        assert np.array_equal(pivots[0, :len(want)], want)
        assert np.array_equal(pivots[2, :len(want)], want)

    def test_all_zero_and_empty_sets_have_rank_zero(self):
        for shape in [(3, 5, 4), (2, 0, 9), (0, 4, 4), (1, 0, 0)]:
            pivots, ranks, margins = _orthonormal_rows(np.zeros(shape, dtype=complex), 1e-8)
            assert ranks.tolist() == [0] * shape[0]
            assert margins.tolist() == [np.inf] * shape[0]
            assert pivots.shape == (shape[0], 0, shape[2])

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_span_rank_on_lists_and_arrays_is_the_loop_rank(self, d):
        rng = np.random.default_rng(10 + d)
        for _ in range(30):
            mats = random_stack(rng, 1, int(rng.integers(0, 3 * d * d)), d * d)[0]
            mats = mats.reshape(-1, d, d)
            want = len(orthonormal_rows_loop(mats.reshape(-1, d * d), DEFAULT_TOL.rank_rel))
            before = mats.copy()
            assert span_rank(mats) == want
            assert span_rank(list(mats)) == want
            assert np.array_equal(mats, before)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_orthocomplement_pivots_are_the_loop_pivots(self, d):
        rng = np.random.default_rng(20 + d)
        tol = DEFAULT_TOL.rank_rel
        for _ in range(20):
            mats = random_stack(rng, 1, int(rng.integers(0, d * d + 3)), d * d)[0]
            mats = mats.reshape(-1, d, d)
            before = mats.copy()
            span = orthonormal_rows_loop(mats.reshape(-1, d * d), tol)
            units = np.eye(d * d, dtype=complex)
            want = orthonormal_rows_loop(np.concatenate([span, units]), tol)[len(span):]
            got = orthocomplement_basis(mats, dim=d)
            assert np.array_equal(np.array(got).reshape(-1, d * d), want)
            assert np.array_equal(mats, before)
