"""Certifier tests: conflict pairs, span generators, certificates, bounds,
counting audits, and the complement see-saw."""

import collections
import dataclasses
import functools
import gc
import itertools
import json
import math
import sys
import tracemalloc

import numpy as np
import pytest

import locstab.stability
import locstab.states
from locstab import _jsonout
from locstab import (
    DEFAULT_TOL,
    DenseState,
    SearchReport,
    as_dense,
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
    subset_campaign,
    tensor_expand,
    upb_44_reducible,
    upb_qubit3,
    upb_sep333,
    upb_shifts,
    upb_tiles33,
    validate_seeds,
    vec_inner,
)
from locstab.numerics import Tolerance, _orthonormal_rows
from locstab.stability import _hyperplanes, _see_saw
from locstab.states import _qubit_perp
from oracles import (
    PLANTED_SCALES,
    conflict_attribution_loop,
    extension_brute,
    hs_inner,
    hyperplanes_kernel,
    partition_kernel,
    party_blocks_loop,
    planted_qubit_bases,
    seesaw_sequential,
    straddling_pair,
)
from test_states import _GROUPED_SETS

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
        # the certificate's own tuples, JSON-ready and not copied
        cert = is_locally_stable(shift_family(30))
        payload = cert.to_dict()
        for entry, rec in zip(payload["parties"], cert.parties):
            assert entry["conflict_pairs"] is rec.conflict_pairs
        assert _jsonout.dumps(payload) == json.dumps(payload, indent=2, default=tuple)

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


def planted_sets():
    return [
        planted_qubit_bases(scale, v_first)
        for scale in PLANTED_SCALES
        for v_first in (False, True)
    ]


class TestOneConflictRoutine:
    """The certificate's conflict pairs and span_generators read one zero
    pattern, so they must agree pair for pair with per-pair reference loops,
    and each party's span dimension, by the qubit rule or the rank kernel,
    with the span rank of its generators."""

    @pytest.mark.parametrize(
        "state_set",
        named_product_sets() + planted_sets() + [compose(upb_tiles33(), 0, upb_qubit3(), 0)],
        ids=lambda s: s.label,
    )
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
        zero_count = locstab.states.factor_zero_pattern(state_set).zero_count
        assert np.array_equal(zero_count, zero_count.T)
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
            # local dimensions 3, 3, 2, 2, 2, 3, 3: the qutrit parties form two runs
            compose(compose(upb_tiles33(), 0, q3, 0), 0, upb_tiles33(), 0),
        ]
        want = [is_locally_stable(s) for s in sets]
        monkeypatch.setattr(locstab.stability, "_RANK_BUDGET", budget)
        assert [is_locally_stable(s) for s in sets] == want

    def test_wide_set_ranks_in_few_kernel_calls(self, monkeypatch):
        # qutrit parties, which only the rank kernel ranks
        chain = functools.reduce(
            lambda left, _: compose(left, 0, upb_tiles33(), 0), range(15), upb_tiles33()
        )
        parties = len(chain.dims)
        # a budget below the chain's rows, so that it takes several stacks
        monkeypatch.setattr(locstab.stability, "_RANK_BUDGET", 1 << 9)
        kernel = self._counting(monkeypatch, "_orthonormal_rows")
        cert = is_locally_stable(chain)
        assert cert.stable
        widest = max(len(r.conflict_pairs) for r in cert.parties)
        # no per-party rank: the module holds no span_rank to call
        assert not hasattr(locstab.stability, "span_rank")
        assert sum(len(args[0]) for args in kernel) == parties
        budget = locstab.stability._RANK_BUDGET
        assert 1 < len(kernel) <= math.ceil(parties * widest * 9 / budget) + 1


class TestQubitRule:
    """A qubit party of a product set takes its span dimension from its
    conflict bases (_qubit_dims): 2 for one basis, 3 once a second sits
    clear of the rank cutoff.  The rank kernel ranks only what the rule
    leaves to it: the band around the cutoff, parties with d >= 3, and every
    party under a loose orth_abs."""

    @staticmethod
    def _kernel_rows(monkeypatch):
        """The live row count of every row set the certifier ranks."""
        counts = []
        original = locstab.stability._orthonormal_rows

        def recorded(rows, rank_rel):
            counts.extend((np.abs(rows).sum(axis=2) > 0).sum(axis=1).tolist())
            return original(rows, rank_rel)

        monkeypatch.setattr(locstab.stability, "_orthonormal_rows", recorded)
        return counts

    def test_all_qubit_certificate_makes_no_kernel_call(self, monkeypatch):
        kernel = self._kernel_rows(monkeypatch)
        cert = is_locally_stable(shift_family(100))
        assert [r.span_dim for r in cert.parties] == [3] * 199
        assert kernel == []

    @pytest.mark.parametrize("v_first", [False, True], ids=["u-first", "v-first"])
    @pytest.mark.parametrize("scale", PLANTED_SCALES)
    def test_kernel_ranks_only_the_band(self, monkeypatch, scale, v_first):
        state_set = planted_qubit_bases(scale, v_first)
        kernel = self._kernel_rows(monkeypatch)
        cert = is_locally_stable(state_set)
        # the diagonal part is sqrt(2) * scale * rank_rel: below rank_rel / 4
        # or above 4 rank_rel the rule decides, in between party 0's four
        # generators go to the kernel
        assert kernel == ([] if scale in (0.125, 4, 8) else [4])
        assert [r.span_dim for r in cert.parties] == [2 if scale < 1 else 3] + [3] * 5

    def test_loose_orth_abs_goes_to_the_kernel(self, monkeypatch):
        # orth_abs above rank_rel / 16 lets trace parts near the cutoff in
        tol = Tolerance(orth_abs=1e-3)
        state_set = upb_shifts(5)
        want = [span_rank(g, tol) for g in span_generators(state_set, tol)]
        kernel = self._kernel_rows(monkeypatch)
        cert = is_locally_stable(state_set, tol)
        assert [r.span_dim for r in cert.parties] == want
        assert kernel == [len(r.conflict_pairs) for r in cert.parties]

    def test_mixed_dimensions_rank_only_the_qutrits(self, monkeypatch):
        state_set = compose(upb_tiles33(), 0, upb_qubit3(), 0)
        kernel = self._kernel_rows(monkeypatch)
        cert = is_locally_stable(state_set)
        assert [r.span_dim for r in cert.parties] == [8, 8, 3, 3, 3]
        assert kernel == [len(r.conflict_pairs) for r in cert.parties[:2]]

    @pytest.mark.parametrize("tol", [DEFAULT_TOL, Tolerance(orth_abs=1e-3)], ids=["rule", "kernel"])
    @pytest.mark.parametrize("tilts", [(1, -1, 1), (0, 1, 0), (1, 1j, -1)])
    @pytest.mark.parametrize("size", [1e-12, 5e-11])
    def test_rule_reads_the_traceless_span_of_tilted_pairs(self, tilts, size, tol):
        # party 0 holds the bases u, v and w, v a few rank cutoffs off u,
        # each pair's second factor tilted off the first's perp by ``size``:
        # every generator has a trace of that size, which a weak pivot of
        # v's could amplify; the rule, and under a loose orth_abs the rank
        # kernel, read the span of the traceless parts
        def ket(theta):
            return np.array([np.cos(theta), np.sin(theta)], dtype=complex)

        def perp(v):
            return np.array([-np.conj(v[1]), np.conj(v[0])])

        def tilted(v, tilt):
            w = perp(v) + size * tilt * v
            return w / np.linalg.norm(w)

        x, y = ket(0.3), ket(1.1)
        bases = [(ket(0.0), x, y), (ket(3e-8), perp(x), y), (ket(0.7), x, perp(y))]
        states = []
        for (v, a, b), tilt in zip(bases, tilts):
            states += [ProductState([v, a, b]), ProductState([tilted(v, tilt), a, b])]
        state_set = StateSet((2, 2, 2), states, "tilted")
        cert = is_locally_stable(state_set, tol)
        traceless = [
            span_rank(g - np.trace(g, axis1=1, axis2=2)[:, None, None] * np.eye(2) / 2, tol)
            for g in span_generators(state_set, tol)
        ]
        assert [r.span_dim for r in cert.parties] == traceless == [3, 2, 2]


class TestOneDecisionPerPair:
    """The factor zero pattern decides each unordered pair once: its
    factors vanish at a party when they do in both orders.  A straddling
    pair, whose two overlaps round apart around orth_abs, vanishes in
    neither order, whichever order the states come in."""

    @staticmethod
    def _sets(d, second):
        """The straddling pair at party 0 (a d-level party), with party 1
        holding |0> and ``second``, in both state orders, and the cutoff."""
        found = straddling_pair(d)
        if found is None:
            pytest.skip("this platform rounds both orders of a factor overlap alike")
        a, b, cut = found
        states = [ProductState([a, KET0]), ProductState([b, second])]
        forward = StateSet((d, 2), states, "straddle")
        return forward, StateSet((d, 2), states[::-1], "straddle"), Tolerance(orth_abs=cut)

    @pytest.mark.parametrize("d", [2, 3], ids=["qubit", "qutrit"])
    def test_zero_count_is_symmetric(self, d):
        *sets, tol = self._sets(d, KET1)
        for state_set in sets:
            pattern = locstab.states.factor_zero_pattern(state_set, tol)
            assert np.array_equal(pattern.zero_count, pattern.zero_count.T)
            # orthogonal at party 1 alone: the straddle vanishes in neither order
            assert pattern.zero_count.tolist() == [[0, 1], [1, 0]]
            for pairs in pattern.conflict_pairs:
                assert {tuple(p) for p in pairs.tolist()} == {(k, j) for j, k in pairs.tolist()}

    @pytest.mark.parametrize("d", [2, 3], ids=["qubit", "qutrit"])
    def test_reverse_order_certificate_is_relabelled(self, d):
        forward, backward, tol = self._sets(d, KET1)
        cert, reverse = is_locally_stable(forward, tol), is_locally_stable(backward, tol)
        relabelled = [
            dataclasses.replace(
                record,
                conflict_pairs=tuple(sorted((1 - j, 1 - k) for j, k in record.conflict_pairs)),
            )
            for record in cert.parties
        ]
        assert list(reverse.parties) == relabelled
        for record in cert.parties + reverse.parties:
            assert {(k, j) for j, k in record.conflict_pairs} == set(record.conflict_pairs)
        assert [r.conflict_pairs for r in cert.parties] == [(), ((0, 1), (1, 0))]
        assert [r.span_dim for r in cert.parties] == [0, 2]

    @pytest.mark.parametrize("d", [2, 3], ids=["qubit", "qutrit"])
    def test_orthogonality_error_names_both_orders(self, d):
        # party 1's factors overlap, so only the straddle could make the
        # pair orthogonal, and it does in neither order
        *sets, tol = self._sets(d, PLUS)
        for state_set in sets:
            with pytest.raises(OrthogonalityError) as excinfo:
                is_locally_stable(state_set, tol)
            assert [(j, k) for j, k, _ in excinfo.value.pairs] == [(0, 1), (1, 0)]
            offending = locstab.check_mutual_orthogonality(state_set, tol)
            assert [(j, k) for j, k, _ in offending] == [(0, 1), (1, 0)]


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
            blocks = [
                party_blocks_loop(as_dense(s).amplitudes[None], s.dims, party)
                for s in state_set
            ]
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


def random_dense_set(seed):
    """A seeded mutually orthogonal set of product and entangled members:
    product states of one random local basis per party at distinct basis
    indices, then random vectors orthonormalized against them, shuffled.
    At least one member is entangled, so the set takes the amplitude rule,
    and it holds more states than d + 2 at every party."""
    rng = np.random.default_rng(seed)
    dims = [(2, 3), (3, 3), (2, 2, 2), (2, 2, 3), (2, 3, 2), (2, 2, 2, 2)][seed % 6]
    total = math.prod(dims)
    size = int(rng.integers(max(dims) + 3, total + 1))
    count = int(rng.integers(0, size))
    bases = [
        np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
        for d in dims
    ]
    members = [
        ProductState([basis[:, i] for basis, i in zip(bases, np.unravel_index(pick, dims))])
        for pick in rng.choice(total, size=count, replace=False)
    ]
    products = np.array([as_dense(m).amplitudes for m in members]).reshape(count, total)
    raw = rng.standard_normal((total, size - count)) + 1j * rng.standard_normal((total, size - count))
    basis = np.linalg.qr(np.concatenate([products.T, raw], axis=1))[0]
    members += [DenseState(basis[:, k], dims) for k in range(count, size)]
    return StateSet(dims, [members[k] for k in rng.permutation(size)], f"random-dense-{seed}")


class TestLeadProofs:
    """A party of a set with dense members is proven full from the pairs of
    its first d + 2 states when the kernel takes d**2 - 1 pivots from them,
    each at a residual of at least 4 rank_rel: the certificate is the full
    Gram's, and the rest of that party's rows is never built."""

    @staticmethod
    def _tried(monkeypatch, entries=0):
        """Try the proof on sets of at least ``entries`` amplitudes; return
        the (party, start, stop) of every block of rows built, each block
        of the party whose split was built last."""
        monkeypatch.setattr(locstab.stability, "_LEAD_ENTRIES", entries)
        built, current = [], [None]
        split, contractions = locstab.stability._split_rows, locstab.stability._contractions

        def split_spy(source, dims, party):
            current[0] = party
            return split(source, dims, party)

        def rows_spy(rows, d, tol, start, stop):
            built.append((current[0], start, stop))
            return contractions(rows, d, tol, start, stop)

        monkeypatch.setattr(locstab.stability, "_split_rows", split_spy)
        monkeypatch.setattr(locstab.stability, "_contractions", rows_spy)
        return built

    @staticmethod
    def _on_and_off(state_set):
        """The certificate as a dict with the proof tried on every set, as
        by default, and switched off."""
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(locstab.stability, "_LEAD_ENTRIES", 0)
            tried = is_locally_stable(state_set).to_dict()
        default = is_locally_stable(state_set).to_dict()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(locstab.stability, "_lead_proofs", lambda *args: ([], {}))
            off = is_locally_stable(state_set).to_dict()
        return tried, default, off

    @pytest.mark.parametrize(
        "build",
        [
            lambda: dense_expansion(upb_qubit3()),
            lambda: dense_expansion(upb_tiles33()),
            lambda: dense_expansion(upb_sep333()),
            lambda: dense_expansion(upb_44_reducible()),
            lambda: entangled_triple(3),
            lambda: entangled_triple(10),
        ]
        + [functools.partial(lambda n: dense_expansion(upb_shifts(n)), n) for n in range(3, 8)]
        + [functools.partial(entangled_triple, n) for n in range(4, 15)],
    )
    def test_certificate_is_the_full_grams(self, build):
        tried, default, off = self._on_and_off(build())
        assert tried == off
        assert default == off

    def test_random_dense_sets(self, monkeypatch):
        proven, real = [], locstab.stability._lead_proofs

        def recorded(*args):
            found = real(*args)
            proven.append(len(found[0]))
            return found

        monkeypatch.setattr(locstab.stability, "_lead_proofs", recorded)
        for seed in range(50):
            tried, default, off = self._on_and_off(random_dense_set(seed))
            assert tried == off, seed
            assert default == off, seed
        # the proof decides many parties of these sets, but not every one
        parties = sum(len(random_dense_set(seed).dims) for seed in range(50))
        assert 0 < sum(proven) < parties

    def test_dense_shift_upb_builds_leading_rows_only(self, monkeypatch):
        built = self._tried(monkeypatch)
        cert = is_locally_stable(dense_expansion(upb_shifts(7)))
        assert [r.span_dim for r in cert.parties] == [3] * 13
        # one split per party, its rows those of its first d + 2 = 4 states
        assert built == [(party, 0, 4) for party in range(13)]

    def test_small_sets_are_not_tried_by_default(self, monkeypatch):
        # dense upb_shifts(7) holds 14 * 8192 amplitudes, above the default
        # _LEAD_ENTRIES, and the reducible set 12 * 16, below it
        built = self._tried(monkeypatch, locstab.stability._LEAD_ENTRIES)
        is_locally_stable(dense_expansion(upb_shifts(7)))
        assert built == [(party, 0, 4) for party in range(13)]
        built.clear()
        is_locally_stable(dense_expansion(upb_44_reducible()))
        assert built == [(0, 0, 12), (0, 12, 12), (1, 0, 12), (1, 12, 12)]

    def test_reducible_parties_fall_back(self, monkeypatch):
        built = self._tried(monkeypatch)
        cert = is_locally_stable(dense_expansion(upb_44_reducible()))
        assert [r.span_dim for r in cert.parties] == [14, 14]
        # both parties stall short of 15 on their first 6 states, then
        # build the rest of their rows after the ones they hold
        assert built == [(0, 0, 6), (1, 0, 6), (0, 6, 12), (1, 6, 12)]

    def test_planted_bases_proven_only_clear_of_the_cutoff(self):
        outcomes = set()
        for scale in (0.5, 1.0, 2.0, 8.0):
            for v_first in (False, True):
                state_set = dense_expansion(planted_qubit_bases(scale, v_first))
                source = [s.amplitudes for s in state_set]
                tried, _, off = self._on_and_off(state_set)
                assert tried == off
                with pytest.MonkeyPatch.context() as patch:
                    built = self._tried(patch)
                    is_locally_stable(state_set)
                fallen = {party for party, start, _ in built if start}
                spans = locstab.stability._party_spans(
                    state_set, source, DEFAULT_TOL, range(len(state_set.dims))
                )
                for party, (generators, pairs) in enumerate(spans):
                    lead = generators[pairs[:, 0] < 4]
                    rows = locstab.stability._traceless_rows(lead).reshape(1, -1, 4)
                    _, (rank,), (margin,) = _orthonormal_rows(rows, DEFAULT_TOL.rank_rel)
                    clear = rank == 3 and margin >= 4 * DEFAULT_TOL.rank_rel
                    assert (party not in fallen) == clear, (scale, v_first, party)
                    outcomes.add((rank, clear))
        # proofs taken, and refused at rank 3 for a margin below 4 rank_rel
        assert {(3, True), (3, False)} <= outcomes

    def test_no_lapack_call(self, monkeypatch):
        # the dense certificate ranks with the one elimination kernel only
        def refused(*args, **kwargs):
            raise AssertionError("np.linalg called")

        for name in ("norm", "svd", "qr", "eigh", "eig", "matrix_rank", "lstsq", "solve"):
            monkeypatch.setattr(np.linalg, name, refused)
        for state_set in (dense_expansion(upb_shifts(7)), entangled_triple(5)):
            assert is_locally_stable(state_set).stable

    @pytest.mark.parametrize(
        "build",
        [
            functools.partial(entangled_triple, 14),
            functools.partial(entangled_triple, 16),
            functools.partial(entangled_triple, 18),
            lambda: dense_expansion(upb_shifts(7)),
        ],
    )
    def test_traced_peak_holds_one_split(self, build):
        # one (l, D) split at a time beside the set, and a third of it
        # conjugated at once
        state_set = build()
        amplitudes = sum(s.amplitudes.nbytes for s in state_set)
        for run in (is_locally_stable, span_generators):
            tracemalloc.start()
            try:
                run(state_set)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 1.5 * amplitudes, run.__name__


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

    def test_certificate_of_a_larger_set_rejected(self):
        # the 9-party certificate of the 9-state shift family against its
        # first 5 states: pairs past state 4 are no pairs of that set
        family = shift_family(5)
        with pytest.raises(ValueError, match="the certificate does not match the state set's"):
            conflict_audit(family.subset(range(5)), certificate=is_locally_stable(family))

    def test_certificate_without_conflict_pairs_rejected(self):
        # a dense set's certificate of the same party count records no
        # pairs; read as empty it would pass as a stable set with no pairs
        cert = is_locally_stable(entangled_triple(3))
        assert all(r.conflict_pairs is None for r in cert.parties)
        with pytest.raises(ValueError, match="no conflict pairs"):
            conflict_audit(upb_qubit3(), certificate=cert)

    @pytest.mark.parametrize("index", [4, 9, -1])
    def test_pair_index_outside_the_set_rejected(self, index):
        cert = is_locally_stable(upb_qubit3())
        records = list(cert.parties)
        records[1] = dataclasses.replace(records[1], conflict_pairs=((0, 1), (2, index)))
        with pytest.raises(ValueError, match="the certificate does not match the state set's"):
            conflict_audit(upb_qubit3(), certificate=dataclasses.replace(cert, parties=tuple(records)))

    @pytest.mark.parametrize(
        "pair",
        [(0, 1, 2), (0.5, 1), ("0", "1"), (True, 2), (0,)],
        ids=["three-indices", "float", "strings", "bool", "one-index"],
    )
    def test_malformed_pair_rejected(self, pair):
        # a three-index pair would shift every later pair, and the others
        # would be read as ints or stop numpy short: each is refused by party
        cert = is_locally_stable(upb_qubit3())
        records = list(cert.parties)
        records[1] = dataclasses.replace(records[1], conflict_pairs=((0, 1), pair, (2, 3)))
        with pytest.raises(ValueError, match="conflict pairs at party 1 are not pairs of int indices"):
            conflict_audit(upb_qubit3(), certificate=dataclasses.replace(cert, parties=tuple(records)))

    def test_plain_tuples_audit_like_the_recorded_pairs(self):
        # the certificate's own pairs, as plain tuples of numpy or Python
        # ints, give the audit of the recorded arrays
        family = shift_family(7)
        cert = is_locally_stable(family)
        for convert in (tuple, lambda pairs: tuple(map(tuple, pairs.array))):
            plain = dataclasses.replace(cert, parties=tuple(
                dataclasses.replace(r, conflict_pairs=convert(r.conflict_pairs)) for r in cert.parties
            ))
            assert conflict_audit(family, certificate=plain) == conflict_audit(family, certificate=cert)

    @pytest.mark.parametrize("seed", range(12))
    def test_grouping_matches_attribution_loop(self, seed):
        # hand-made certificates over random sizes: pairs in both orders at
        # one party, a pair at three parties, an empty last party, and (seed
        # 0) no pairs at all
        rng = np.random.default_rng(seed)
        size, parties = int(rng.integers(3, 12)), int(rng.integers(4, 9))
        state_set = StateSet(
            (2,) * parties,
            [ProductState(rng.standard_normal((parties, 2))) for _ in range(size)],
        )
        held = [[] for _ in range(parties)]
        if seed:
            for _ in range(int(rng.integers(0, 3 * size))):
                j, k = rng.choice(size, 2, replace=False).tolist()
                held[int(rng.integers(parties - 1))].append((j, k))
            j, k = rng.choice(size, 2, replace=False).tolist()
            for r in rng.choice(parties - 1, 3, replace=False).tolist():
                held[r].append((j, k))
            held[int(rng.integers(parties - 1))] += [(k, j), (j, k), (k, j)]
        records = tuple(
            locstab.stability.PartyRecord(r, 0, 3, False, tuple(pairs))
            for r, pairs in enumerate(held)
        )
        cert = locstab.stability.StabilityCertificate("hand-made", DEFAULT_TOL, records, False)
        audit = conflict_audit(state_set, certificate=cert)
        shared, counts = conflict_attribution_loop(cert)
        assert audit.shared_pairs == shared
        assert audit.conflict_counts == counts
        assert audit.disjoint == (not shared)
        assert seed == 0 or any(len(at) >= 3 for _, at in shared)


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


def _flat_set():
    """Every first factor lies in the plane of e0 and e1 inside C^3."""
    e = np.eye(3, dtype=complex)
    return StateSet((3, 2), [ProductState([e[0], KET0]), ProductState([e[1], KET0]),
                             ProductState([e[0], KET1])], "flat")


def _pair_set():
    """Two states, fewer than a hyperplane of C^4 needs."""
    e = np.eye(4, dtype=complex)
    return StateSet((4, 4), [ProductState([e[0], e[0]]), ProductState([e[1], e[1]])], "pair")


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
        s = _flat_set()
        report = decide_extension(s)
        assert report.capacities[0] == 3
        _assert_witness_checks(s, report)
        assert abs(report.witness.factors[0][2]) == pytest.approx(1.0)

    def test_fewer_states_than_a_hyperplane_needs(self):
        s = _pair_set()
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


def _pivot_past_group(stack, group):
    """The unit vector orthogonal to the factors ``stack[group]``: the rank
    kernel's pivot past the group's rank of the group above the identity."""
    rows = stack[list(group)]
    rank = _orthonormal_rows(rows[None].copy(), DEFAULT_TOL.rank_rel)[1][0]
    stacked = np.concatenate([rows, np.eye(stack.shape[1], dtype=complex)])[None]
    return _orthonormal_rows(stacked, DEFAULT_TOL.rank_rel)[0][0, rank]


def _subsets(build, size):
    state_set = build()
    return [state_set.subset(list(c)) for c in itertools.combinations(range(len(state_set)), size)]


_WITNESS_RULE_SETS = {
    "tiles33-3": lambda: _subsets(upb_tiles33, 3),
    "sep333-5": lambda: _subsets(upb_sep333, 5),
    "reducible44-11": lambda: _subsets(upb_44_reducible, 11),
    "compose-mixed-7": lambda: _subsets(lambda: compose(upb_qubit3(), 1, upb_tiles33(), 2), 7),
    "shift_family(3)": lambda: [shift_family(3)],
    "flat": lambda: [_flat_set()],
    "pair": lambda: [_pair_set()],
}


class TestOneWitnessRule:
    """The hyperplanes decide only capacities and the search: every witness
    factor is the pivot past its group's rank, at every party."""

    @pytest.mark.parametrize("name", sorted(_WITNESS_RULE_SETS))
    def test_witness_is_the_pivot_past_each_group(self, name):
        extendible = 0
        for state_set in _WITNESS_RULE_SETS[name]():
            report = decide_extension(state_set)
            if report.verdict != "extendible":
                continue
            extendible += 1
            _assert_witness_checks(state_set, report)
            rebuilt = ProductState([_pivot_past_group(stack, group)
                                    for stack, group in zip(state_set.factors, report.groups)])
            for factor, expected in zip(report.witness.factors, rebuilt.factors):
                assert factor.tobytes() == expected.tobytes()
        assert extendible

    def test_non_spanning_party_has_an_all_hitting_column(self):
        # the first factors e0, e1, e0 span a plane of C^3
        mask = _masks_by_party(_flat_set())[0]
        assert mask.shape == (3, 3)
        assert mask.all(axis=1).any()

    def test_fewer_states_than_a_hyperplane_needs_give_one_column(self):
        ((parties, masks),) = _hyperplanes(_pair_set().factors, DEFAULT_TOL, {})
        assert parties == [0, 1]
        assert masks.tolist() == [[[True, True]]] * 2

    def test_one_all_true_hyperplane_past_the_cap(self, monkeypatch):
        tiles = upb_tiles33()
        monkeypatch.setattr(locstab.stability, "_HYPERPLANE_SUBSETS", math.comb(5, 2))
        assert [m.shape for m in _masks_by_party(tiles)] == [(10, 5)] * 2
        assert decide_extension(tiles).capacities == (2, 2)
        monkeypatch.setattr(locstab.stability, "_HYPERPLANE_SUBSETS", math.comb(5, 2) - 1)
        assert [m.tolist() for m in _masks_by_party(tiles)] == [[[True] * 5]] * 2
        assert decide_extension(tiles).capacities == (5, 5)


def _planted_qubit_stack(seed, scale, parties=3, size=12):
    """A (parties, size, 2) stack of random unit qubit factors where, at
    every party, factor 1 is factor 0 turned off its ray by
    |<a_0^perp|a_1>| = ``scale * rank_rel``, and factors 2 and 3 are factor
    4 times a phase: a near-parallel pair and an exactly parallel class."""
    rng = np.random.default_rng(seed)
    stack = rng.standard_normal((parties, size, 2)) + 1j * rng.standard_normal((parties, size, 2))
    stack /= np.linalg.norm(stack, axis=2, keepdims=True)
    phases = np.exp(2j * np.pi * rng.random((2, parties, 1)))
    turn = scale * DEFAULT_TOL.rank_rel
    turned = stack[:, 0] + turn * phases[0] * _qubit_perp(stack[:, 0])
    stack[:, 1] = turned / np.linalg.norm(turned, axis=1, keepdims=True)
    stack[:, 2:4] = stack[:, 4:5] * np.exp(2j * np.pi * rng.random((parties, 2, 1)))
    return stack


def _masks_by_party(state_set):
    """Every party's hyperplane mask from the batches of _hyperplanes, each
    batch of parties with one local dimension, each party in one batch."""
    masks = {}
    for parties, hits in _hyperplanes(state_set.factors, DEFAULT_TOL, {}):
        assert len({state_set.dims[i] for i in parties}) == 1
        assert len(hits) == len(parties) and masks.keys().isdisjoint(parties)
        masks.update(zip(parties, hits))
    return [masks[i] for i in range(len(state_set.dims))]


def _assert_masks_match_kernel(state_set):
    for stack, mask in zip(state_set.factors, _masks_by_party(state_set)):
        (expected,) = hyperplanes_kernel(stack[None])
        assert mask.tolist() == expected.tolist()
        assert mask.sum(axis=1).max() == expected.sum(axis=1).max()


def _report_key(report):
    witness = None if report.witness is None else tuple(f.tobytes() for f in report.witness.factors)
    return report.verdict, report.capacities, report.groups, report.nodes, witness


def _without(build, drop):
    state_set = build()
    return state_set.subset([j for j in range(len(state_set)) if j != drop % len(state_set)])


_PARTITION_BASES = {
    "qubit3": upb_qubit3,
    "tiles33": upb_tiles33,
    "sep333": upb_sep333,
    "reducible44": upb_44_reducible,
    "compose(qubit3, tiles33)": lambda: compose(upb_qubit3(), 0, upb_tiles33(), 0),
    **{f"upb_shifts({n})": functools.partial(upb_shifts, n) for n in range(3, 41)},
    **{f"shift_family({n})": functools.partial(shift_family, n) for n in (3, 5)},
}
_PARTITION_SETS = {
    **_PARTITION_BASES,
    **{f"{name} without {drop}": functools.partial(_without, _PARTITION_BASES[name], drop)
       for name in ("qubit3", "tiles33", "sep333", "reducible44", "compose(qubit3, tiles33)",
                    "upb_shifts(3)", "upb_shifts(4)")
       for drop in (0, -1)},
}


class TestClosedFormQubitHyperplanes:
    """A qubit hyperplane is the ray of one factor a_c, with normal a_c^perp
    in closed form; the masks, capacities and reports equal those of the
    rank kernel's normals, the pivot past rank 1 of a_c above the identity.
    A capacity sum below the set size returns after one pass of
    _hyperplanes, before any mask is held and before the search."""

    # within 1% of the cutoff on either side; at the cutoff itself the two
    # normals round apart
    @pytest.mark.parametrize("scale", [0.5, 0.99, 1.01, 2.0])
    @pytest.mark.parametrize("seed", range(4))
    def test_planted_pairs_match_kernel_normals(self, seed, scale):
        stack = _planted_qubit_stack(seed, scale)
        ((parties, masks),) = _hyperplanes(stack, DEFAULT_TOL, {})
        assert parties == [0, 1, 2]
        for mask, expected in zip(masks, hyperplanes_kernel(stack), strict=True):
            assert mask.tolist() == expected.tolist()
            # the turned pair fits one ray only below the cutoff; the class
            # of three always does
            assert mask[0, 1] == mask[1, 0] == (scale < 1)
            assert mask.sum(axis=1).max() == 3

    @pytest.mark.parametrize("n", range(3, 65))
    def test_shift_upbs_match_kernel_normals(self, n):
        _assert_masks_match_kernel(upb_shifts(n))

    @pytest.mark.parametrize("build", [
        lambda: compose(upb_qubit3(), 0, upb_tiles33(), 0),
        lambda: compose(upb_tiles33(), 2, upb_qubit3(), 1),
        lambda: compose(upb_shifts(3), 0, upb_sep333(), 0),
        lambda: compose(compose(upb_qubit3(), 0, upb_44_reducible(), 0), 3, upb_shifts(4), 0),
    ], ids=["qubit3+tiles33", "tiles33+qubit3", "shifts3+sep333", "qubit3+r44+shifts4"])
    def test_mixed_compositions_match_kernel_normals(self, build):
        state_set = build()
        assert len(set(state_set.dims)) > 1
        _assert_masks_match_kernel(state_set)

    @pytest.mark.parametrize("name", list(_PARTITION_SETS))
    def test_reports_match_kernel_partition_test(self, name):
        state_set = _PARTITION_SETS[name]()
        assert _report_key(decide_extension(state_set)) == partition_kernel(state_set)

    def test_report_sets_cover_both_verdicts(self):
        verdicts = collections.Counter(
            decide_extension(build()).verdict for build in _PARTITION_SETS.values()
        )
        assert verdicts == {"extendible": 17, "unextendible": 42}

    @pytest.mark.parametrize("build", [upb_qubit3, *(functools.partial(upb_shifts, n)
                                                     for n in range(3, 10))])
    def test_qubit_upbs_need_no_kernel_and_no_search(self, build, monkeypatch):
        calls = collections.Counter()
        _counted(monkeypatch, locstab.stability, "_orthonormal_rows", calls)
        _counted(monkeypatch, locstab.stability, "_partition_search", calls)
        report = decide_extension(build())
        assert (report.verdict, report.nodes, report.groups) == ("unextendible", 0, None)
        assert sum(report.capacities) < len(build())
        assert calls == {}

    @pytest.mark.parametrize("build", [functools.partial(shift_family, 3),
                                       functools.partial(_without, upb_qubit3, 0)])
    def test_extendible_qubit_set_ranks_only_at_the_leaf(self, build, monkeypatch):
        callers = []
        original = locstab.stability._orthonormal_rows

        def recorded(*args):
            callers.append(sys._getframe(1).f_code.co_name)
            return original(*args)

        monkeypatch.setattr(locstab.stability, "_orthonormal_rows", recorded)
        report = decide_extension(build())
        assert report.verdict == "extendible"
        assert callers and set(callers) == {"leaf"}

    @pytest.mark.parametrize("build, passes", [
        (upb_qubit3, 1), (upb_tiles33, 1), (upb_sep333, 1),
        *((functools.partial(upb_shifts, n), 1) for n in range(3, 10)),
        (upb_44_reducible, 2), (lambda: upb_tiles33().subset([0, 1, 2]), 2),
    ])
    def test_only_a_search_makes_a_second_pass(self, build, passes, monkeypatch):
        calls = collections.Counter()
        _counted(monkeypatch, locstab.stability, "_hyperplanes", calls)
        _counted(monkeypatch, locstab.stability, "_partition_search", calls)
        decide_extension(build())
        assert (calls["_hyperplanes"], calls["_partition_search"]) == (passes, passes - 1)

    @pytest.mark.parametrize("build, ranked", [
        (upb_44_reducible, 2),
        (lambda: upb_tiles33().subset([0, 1, 2]), 1),
        (lambda: compose(upb_qubit3(), 0, upb_44_reducible(), 0), 2),
    ], ids=["reducible44", "tiles33[0,1,2]", "qubit3+reducible44"])
    def test_search_pass_reuses_the_ranked_normals(self, build, ranked, monkeypatch):
        # one kernel call per batch of d >= 3 parties, made by the capacity
        # pass; the search pass rebuilds only the masks
        callers = collections.Counter()
        original = locstab.stability._orthonormal_rows

        def recorded(*args):
            callers[sys._getframe(1).f_code.co_name] += 1
            return original(*args)

        monkeypatch.setattr(locstab.stability, "_orthonormal_rows", recorded)
        report = decide_extension(build())
        assert report.nodes > 0
        assert callers["_hyperplanes"] == ranked


class TestCertificateSkipsCollection:
    def test_conflict_tuples_start_at_most_two_collections(self):
        # the certificate builds no tuple of int pairs, so no run of the
        # cyclic collector scans them
        state_set = shift_family(100)
        is_locally_stable(state_set)
        starts = []

        def record(phase, info):
            if phase == "start":
                starts.append(info["generation"])

        assert gc.isenabled()
        gc.callbacks.append(record)
        try:
            for _ in range(3):
                before = len(starts)
                cert = is_locally_stable(state_set)
                assert len(starts) - before <= 2
                assert gc.isenabled()
        finally:
            gc.callbacks.remove(record)
        assert [len(r.conflict_pairs) for r in cert.parties] == [198] * 199


def _certified(state_set):
    """The JSON text of ``state_set``'s certificate and its conflict audit."""
    cert = is_locally_stable(state_set)
    return _jsonout.dumps(cert.to_dict()), conflict_audit(state_set, certificate=cert)


# the hand-coded sets of test_states.TestSharedCodeGroups, which are not
# orthogonal and have no certificate
_NOT_ORTHOGONAL = ("equal columns across dimensions", "repeated codes", "fingerprint collision")
_BATCHED_SETS = {
    **{f"shift_family({n})": (lambda n=n: shift_family(n)) for n in (3, 30, 258)},
    **{f"sqrt_subset({n})": (lambda n=n: sqrt_subset(n)[1]) for n in (19, 50, 100)},
    "qubit3": upb_qubit3,
    "compose(tiles33, qubit3)": lambda: compose(upb_tiles33(), 0, upb_qubit3(), 0),
    **{
        f"grouped {name}": build
        for name, build in _GROUPED_SETS.items()
        if name not in _NOT_ORTHOGONAL
    },
}


class TestQubitBatches:
    """The qubit rule reads the first factors of at most _QUBIT_PAIRS
    conflict pairs at a time, a party with more on its own: certificates
    and campaign verdicts do not depend on the batch, and a certificate
    holds little more than its factor zero pattern."""

    @pytest.mark.parametrize("n, sizes", [(30, [8] * 7 + [3]), (258, [1] * 515)])
    def test_batches_split_at_parties(self, n, sizes, monkeypatch):
        # 2(n - 1) pairs a party: 58 fit eight times in 2^9, 514 not once
        monkeypatch.setattr(locstab.stability, "_QUBIT_PAIRS", 1 << 9)
        family = shift_family(n)
        source = locstab.states.factor_zero_pattern(family)
        batches = list(locstab.stability._qubit_batches(family.dims, source, DEFAULT_TOL))
        assert [len(parties) for parties, _, _ in batches] == sizes
        assert [p for parties, _, _ in batches for p in parties] == list(range(2 * n - 1))
        for parties, counts, firsts in batches:
            assert counts == [2 * n - 2] * len(parties) and firsts.shape == (sum(counts), 2)

    @pytest.mark.parametrize("pairs", [1 << 9, 8])
    @pytest.mark.parametrize("name", list(_BATCHED_SETS))
    def test_certificates_do_not_depend_on_the_batch(self, name, pairs, monkeypatch):
        state_set = _BATCHED_SETS[name]()
        want = _certified(state_set)
        monkeypatch.setattr(locstab.stability, "_QUBIT_PAIRS", pairs)
        assert _certified(state_set) == want

    @pytest.mark.parametrize("pairs", [1 << 9, 8])
    @pytest.mark.parametrize("k", [5, 8])
    def test_campaign_verdicts_do_not_depend_on_the_batch(self, k, pairs, monkeypatch):
        state_set = upb_shifts(6)
        want = subset_campaign(state_set, k)
        monkeypatch.setattr(locstab.stability, "_QUBIT_PAIRS", pairs)
        assert subset_campaign(state_set, k) == want

    def test_peak_stays_at_the_zero_pattern(self):
        # N = 599: 358,202 conflict pairs; the certificate builds no pair
        # tuple and reads at most _QUBIT_PAIRS first factors at a time
        family = shift_family(300)
        locstab.states.factor_zero_pattern(family)
        peaks = []
        for build in (locstab.states.factor_zero_pattern, is_locally_stable):
            tracemalloc.start()
            try:
                build(family)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0]


def _planted_group(scale, twin=False):
    """Five qubit states on five parties of one codebook T, party r holding
    T[(t - r) mod 5] in state t, so that each pair vanishes at one party:
    the coded set decides every party as one group (at _GROUP_MIN = 0).
    Each party's conflict pairs span two bases, {T[1], T[4]} = {|0>, |1>}
    and {T[2], T[3]} = {v, v^perp}, whose Bloch axes make the angle phi
    with sin(phi) / sqrt(2) = ``scale`` * rank_rel: that is the diagonal
    part M of every party's run, whichever basis it starts in.  ``twin``
    adds a sixth party with party 0's codes, so the pairs vanishing at
    party 0 vanish twice and neither party has a conflict pair."""
    half = math.asin(math.sqrt(2.0) * scale * DEFAULT_TOL.rank_rel) / 2.0
    cos, sin = math.cos(half), math.sin(half)
    book = np.array([[0.6, 0.8j], [1, 0], [cos, sin], [-sin, cos], [0, 1]], dtype=complex)
    codes = (np.arange(5)[:, None] - np.arange(5)[None, :]) % 5
    if twin:
        codes = np.concatenate([codes, codes[:, :1]], axis=1)
    codes = np.ascontiguousarray(codes, dtype=np.int32)
    books = {2: locstab.states._unit_rows(book)}
    return StateSet._from_codes((2,) * codes.shape[1], books, codes, f"planted group {scale:g}")


def _uncoded(state_set):
    """``state_set`` built from copies of its stacks: every party alone."""
    return StateSet._from_stacks(state_set.dims, [f.copy() for f in state_set.factors],
                                 state_set.label)


class TestSharedQubitRule:
    """A qubit code group's parties whose zeros are all conflict pairs take
    one verdict, read on the group's rows with a band of 8 around the rank
    cutoff; the others, and every party of a group inside that band, take
    their own runs.  Certificates equal those of the uncoded copy, whose
    every party is alone."""

    @pytest.fixture
    def rule_calls(self, monkeypatch):
        """What the group rule decides, as (parties, dim), and the parties
        handed to _qubit_batches, from now on."""
        calls = {"groups": [], "batched": []}
        groups, batches = locstab.stability._group_dims, locstab.stability._qubit_batches

        def group_spy(*args):
            for parties, dim in groups(*args):
                calls["groups"].append((parties.tolist(), int(dim)))
                yield parties, dim

        def batch_spy(*args):
            for batch in batches(*args):
                calls["batched"] += batch[0]
                yield batch

        monkeypatch.setattr(locstab.stability, "_group_dims", group_spy)
        monkeypatch.setattr(locstab.stability, "_qubit_batches", batch_spy)
        return calls

    @pytest.mark.parametrize("group_min", [None, 0])
    @pytest.mark.parametrize("name", [n for n in _GROUPED_SETS if n not in _NOT_ORTHOGONAL])
    def test_certificates_equal_the_uncoded_copy(self, name, group_min, monkeypatch):
        if group_min is not None:
            monkeypatch.setattr(locstab.states, "_GROUP_MIN", group_min)
        state_set = _GROUPED_SETS[name]()
        assert _certified(state_set) == _certified(_uncoded(state_set))

    @pytest.mark.parametrize(
        "scale, decided",
        [(0.1, 2), (0.125, None), (0.2, False), (1, False), (4, False), (6, False), (8, None),
         (16, 3)],
    )
    def test_planted_bases_take_their_own_verdicts(self, scale, decided, monkeypatch, rule_calls):
        # outside the band of 8 the group is decided once and no party is
        # batched; inside it every party takes its own run, as in the copy,
        # also where that run is outside the band of 4 (0.2 and 6); at the
        # edges of the band of 8 (None) either may hold
        monkeypatch.setattr(locstab.states, "_GROUP_MIN", 0)
        state_set = _planted_group(scale)
        want = _certified(_uncoded(state_set))
        rule_calls["groups"].clear()
        rule_calls["batched"].clear()
        assert _certified(state_set) == want
        if decided is False:
            assert rule_calls == {"groups": [], "batched": list(range(5))}
        elif decided is not None:
            assert rule_calls == {"groups": [(list(range(5)), decided)], "batched": []}

    @pytest.mark.parametrize("scale", [0.1, 1, 16])
    def test_a_zero_that_is_no_conflict_takes_its_own_run(self, scale, monkeypatch, rule_calls):
        # parties 0 and 5 share their zeros, so neither holds a conflict
        # pair: they are batched, and span 0, whatever the group's verdict
        monkeypatch.setattr(locstab.states, "_GROUP_MIN", 0)
        state_set = _planted_group(scale, twin=True)
        want = _certified(_uncoded(state_set))
        rule_calls["groups"].clear()
        rule_calls["batched"].clear()
        assert _certified(state_set) == want
        cert = is_locally_stable(state_set)
        assert [r.span_dim for r in cert.parties][::5] == [0, 0]
        assert rule_calls["batched"] == ([0, 5] if scale != 1 else list(range(6))) * 2
        groups = rule_calls["groups"]
        assert groups == ([] if scale == 1 else [([1, 2, 3, 4], 2 if scale < 1 else 3)] * 2)

    def test_a_shift_family_batches_no_party(self, rule_calls):
        # shift_family(17) has 33 states on 33 parties, past _GROUP_MIN codes
        family = shift_family(17)
        cert = is_locally_stable(family)
        assert rule_calls == {"groups": [(list(range(33)), 3)], "batched": []}
        assert _certified(family) == _certified(_uncoded(family))
        assert cert.stable

    def test_the_guard_leaves_every_party_to_the_kernel(self, rule_calls):
        # orth_abs above rank_rel / 16: neither the group rule nor the
        # batches decide a party
        tol = Tolerance(rank_rel=1e-8, orth_abs=1e-9)
        family = shift_family(17)
        cert = is_locally_stable(family, tol)
        assert rule_calls == {"groups": [], "batched": []}
        assert cert == is_locally_stable(_uncoded(family), tol)

    def test_records_are_views_of_one_read_only_table(self):
        cert = is_locally_stable(shift_family(30))
        arrays = [record.conflict_pairs.array for record in cert.parties]
        table = arrays[0].base
        assert table is not None and table.dtype == np.int32 and not table.flags.writeable
        assert all(array.base is table and np.shares_memory(array, table) for array in arrays)
        assert sum(map(len, arrays)) == len(table)


class TestSpanRankOnGenerators:
    def test_rank_unaffected_by_keeping_both_orders(self):
        # adjoint pairs are kept as separate generators; dropping one of each
        # order must not change the span dimension for this rank-1 family
        gens = span_generators(upb_qubit3())[0]
        half = gens[::2]
        assert span_rank(gens) == 3
        assert span_rank(half) <= 3
