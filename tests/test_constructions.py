"""Named-family tests: shift families, UPBs, compositions, subset plans."""

import functools
import itertools
import math

import numpy as np
import pytest

import locstab.constructions
import locstab.stability
import locstab.states
from locstab import (
    DEFAULT_TOL,
    OrthogonalityError,
    ProductState,
    StateSet,
    cardinality_lower_bound,
    check_mutual_orthogonality,
    compose,
    default_seeds,
    entangled_triple,
    heptagon_qutrit_states,
    is_locally_stable,
    qubit_perp,
    shift_family,
    span_generators,
    sqrt_subset,
    sqrt_subset_plan,
    subset_campaign,
    tensor_expand,
    upb_44_reducible,
    upb_qubit3,
    upb_sep333,
    upb_shifts,
    upb_tiles33,
    validate_seeds,
    vec_inner,
    verify_two_pairs,
)
from oracles import (
    PLANTED_SCALES,
    planted_qubit_bases,
    shift_family_factors,
    states_close,
    subset_campaign_loop,
    two_pairs_loop,
    unit_reference,
    validate_seeds_loop,
)


def orthogonal_parties(state_set, j, k, cutoff=1e-10):
    return [
        r
        for r in range(len(state_set.dims))
        if abs(vec_inner(state_set[j].factors[r], state_set[k].factors[r])) < cutoff
    ]


def _random_seeds(n, seed):
    """n-1 random raw seeds that validate_seeds accepts."""
    rng = np.random.default_rng(seed)
    while True:
        raw = list(rng.standard_normal((n - 1, 2)) + 1j * rng.standard_normal((n - 1, 2)))
        try:
            validate_seeds(raw, n)
            return raw
        except ValueError:
            continue


class TestSeeds:
    def test_default_seeds_are_valid(self):
        # adjacent default seeds at n >= 111,072 overlap within 1e-10 of 1,
        # but lie far outside the rank_rel cutoff of the parallel test
        for n in (2, 3, 5, 10, 25, 111_100, 120_000):
            validate_seeds(default_seeds(n), n)

    @pytest.mark.parametrize("n", [*range(2, 65), 1000])
    def test_default_seeds_valid_by_their_angles(self, n):
        # |0> and the seeds sit at angles i*pi/(2n), i = 0..n-1, so every
        # pair's overlap is cos and its perp overlap |sin| of a difference in
        # [pi/(2n), (n-1)pi/(2n)]: both at least sin(pi/(2n)), far above the
        # cutoffs validate_seeds judges by
        rows = np.concatenate([[[1.0, 0.0]], default_seeds(n)])
        perps = np.stack([rows[:, 1].conj(), -rows[:, 0].conj()], axis=1)
        off = ~np.eye(n, dtype=bool)
        bound = math.sin(math.pi / (2 * n)) - 1e-15
        assert np.abs(rows.conj() @ rows.T)[off].min() >= bound
        assert np.abs(perps.conj() @ rows.T)[off].min() >= bound
        assert bound > max(DEFAULT_TOL.orth_abs, DEFAULT_TOL.rank_rel)

    @pytest.mark.parametrize("n", [2, 3, 5, 100, 1000])
    def test_default_seeds_are_one_read_only_stack(self, n):
        seeds = default_seeds(n)
        assert isinstance(seeds, np.ndarray) and seeds.shape == (n - 1, 2)
        assert not seeds.flags.writeable
        angles = [i * math.pi / (2 * n) for i in range(1, n)]
        assert [row.tobytes() for row in seeds] == [
            unit_reference([math.cos(t), math.sin(t)]).tobytes() for t in angles
        ]

    @pytest.mark.parametrize(
        "build, n",
        [(shift_family, 5), (upb_shifts, 5), (sqrt_subset, 19)],
        ids=["shift_family", "upb_shifts", "sqrt_subset"],
    )
    def test_only_caller_seeds_are_vetted(self, monkeypatch, build, n):
        calls = []
        real = locstab.constructions.validate_seeds

        def spy(seeds, size):
            calls.append(size)
            return real(seeds, size)

        monkeypatch.setattr(locstab.constructions, "validate_seeds", spy)
        build(n)
        assert calls == []
        build(n, _random_seeds(n, 5))
        assert calls == [n]

    def test_returns_one_read_only_unit_stack(self):
        seeds = _random_seeds(9, 4)
        stack = validate_seeds(seeds, 9)
        assert isinstance(stack, np.ndarray) and stack.shape == (8, 2)
        assert not stack.flags.writeable
        assert np.allclose(np.linalg.norm(stack, axis=1), 1.0)

    def test_wrong_count(self):
        with pytest.raises(ValueError, match="expected 2 seeds"):
            validate_seeds(default_seeds(4), 3)

    def test_orthogonal_to_zero_rejected(self):
        with pytest.raises(ValueError, match="orthogonal to"):
            validate_seeds([np.array([0.0, 1.0])], 2)

    def test_parallel_to_zero_rejected(self):
        with pytest.raises(ValueError, match="parallel to"):
            validate_seeds([np.array([1.0, 0.0])], 2)

    def test_mutually_orthogonal_pair_rejected(self):
        with pytest.raises(ValueError, match="mutually orthogonal"):
            validate_seeds([np.array([1.0, 1.0]), np.array([1.0, -1.0])], 3)

    def test_parallel_pair_rejected(self):
        with pytest.raises(ValueError, match="parallel"):
            validate_seeds([np.array([1.0, 1.0]), np.array([2.0, 2.0])], 3)

    @pytest.mark.parametrize("seeds, n, passes", [
        (_random_seeds(12, 7), 12, 1),
        ([np.array([0.0, 1.0])], 2, 2),
        ([np.array([1.0, 0.0])], 2, 2),
        ([np.array([1.0, 1.0]), np.array([1.0, -1.0])], 3, 2),
        ([np.array([1.0, 1.0]), np.array([2.0, 2.0])], 3, 2),
    ], ids=["valid", "orthogonal-to-zero", "parallel-to-zero", "orthogonal", "parallel"])
    def test_accept_pass_runs_once(self, monkeypatch, seeds, n, passes):
        # a refusal adds the orthogonal pass and reads its parallel pairs
        # from the accept pass
        calls = []
        real = locstab.constructions._qubit_zeros

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(locstab.constructions, "_qubit_zeros", spy)
        if passes == 1:
            validate_seeds(seeds, n)
        else:
            with pytest.raises(ValueError):
                validate_seeds(seeds, n)
        assert len(calls) == passes

    @staticmethod
    def _outcome(vet, seeds, n):
        try:
            return [seed.tobytes() for seed in vet(seeds, n)]
        except ValueError as exc:
            return str(exc)

    @pytest.mark.parametrize("trial", range(60))
    def test_matches_pairwise_loop(self, trial):
        rng = np.random.default_rng(trial)
        n = int(rng.integers(2, 60))
        seeds = list(rng.standard_normal((n - 1, 2)) + 1j * rng.standard_normal((n - 1, 2)))
        # plant up to three defects: a perp or scaled copy of an earlier seed,
        # a pole, a zero vector or a malformed seed
        for _ in range(int(rng.integers(0, 4)) if n > 2 else 0):
            a, b = sorted(rng.choice(n - 1, size=2, replace=False).tolist())
            kind = (0, 0, 0, 1, 1, 1, 2, 3, 4, 5)[int(rng.integers(10))]
            if kind == 0:
                seeds[b] = np.array([np.conj(seeds[a][1]), -np.conj(seeds[a][0])])
            elif kind == 1:
                seeds[b] = seeds[a] * (2.0 - 1j)
            elif kind == 2:
                seeds[b] = np.array([0.0, 1.0 + 1j])
            elif kind == 3:
                seeds[b] = np.array([3.0j, 0.0])
            elif kind == 4:
                seeds[b] = np.zeros(2)
            else:
                seeds[b] = np.ones(3)
        assert self._outcome(validate_seeds, seeds, n) == self._outcome(
            validate_seeds_loop, seeds, n
        )

    def test_first_offending_pair_in_combinations_order(self):
        seeds = [np.array([1.0, 0.1 * (i + 1)]) for i in range(6)]
        seeds[4] = seeds[3] * 2.0
        seeds[5] = np.array([np.conj(seeds[1][1]), -np.conj(seeds[1][0])])
        with pytest.raises(ValueError, match="^seeds 1 and 5 are mutually orthogonal$"):
            validate_seeds(seeds, 7)

    def test_pole_reported_before_an_earlier_orthogonal_pair(self):
        seeds = [np.array([1.0, 1.0]), np.array([1.0, -1.0]), np.array([1.0, 0.0])]
        with pytest.raises(ValueError, match=r"^seed 2 is parallel to \|0>$"):
            validate_seeds(seeds, 4)

    @pytest.mark.parametrize("scale", [0.5, 1, 2])
    @pytest.mark.parametrize("cutoff", ["orth_abs", "rank_rel"])
    @pytest.mark.parametrize("where", ["pair", "pole"])
    @pytest.mark.parametrize("n", [12, 40])
    def test_planted_near_cutoffs_match_pairwise_loop(self, n, where, cutoff, scale):
        # seed 8 sits scale * cutoff off the perp of seed 3 (orth_abs) or off
        # seed 3 itself (rank_rel); at a pole, off |1> (orthogonal to |0>)
        # or off |0> (parallel to it)
        seeds = _random_seeds(n, 7)
        eps = scale * getattr(DEFAULT_TOL, cutoff)
        if where == "pair":
            u = seeds[3] / np.linalg.norm(seeds[3])
            near, toward = (qubit_perp(u), u) if cutoff == "orth_abs" else (u, qubit_perp(u))
        else:
            kets = np.eye(2, dtype=complex)
            near, toward = kets[::-1] if cutoff == "orth_abs" else kets
        seeds[8] = (math.sqrt(1.0 - eps * eps) * near + eps * toward) * (2.0 - 1j)
        outcome = self._outcome(validate_seeds, seeds, n)
        assert outcome == self._outcome(validate_seeds_loop, seeds, n)
        if scale != 1:
            assert isinstance(outcome, str) == (scale < 1)

    def test_non_finite_seed_named(self):
        seeds = [[np.nan, 1], [1, 0.5]]
        with pytest.raises(ValueError, match="^seed 0 is not finite$"):
            validate_seeds(seeds, 3)
        with pytest.raises(ValueError, match="^seed 1 is not finite$"):
            shift_family(3, [[1, 0.5], [np.inf, 1j]])

    def test_qubit_perp(self):
        v = np.array([0.6, 0.8j])
        assert abs(vec_inner(v, qubit_perp(v))) < 1e-15

    def test_qubit_perp_of_a_stack_is_rowwise(self):
        stack = np.array(_random_seeds(9, 3))
        assert [row.tobytes() for row in qubit_perp(stack)] == [
            qubit_perp(row).tobytes() for row in stack
        ]
        with pytest.raises(ValueError, match="2-entry vector"):
            qubit_perp(np.ones((2, 2, 2)))


class TestQubit3:
    def test_listing_order_and_dims(self):
        s = upb_qubit3()
        assert len(s) == 4
        assert s.dims == (2, 2, 2)
        assert np.allclose(s[0].factors[0], [1, 0])
        assert np.allclose(s[2].factors[0], [0, 1])

    def test_orthogonal(self):
        assert check_mutual_orthogonality(upb_qubit3()) == []

    def test_stable(self):
        assert is_locally_stable(upb_qubit3()).stable

    def test_size_matches_lower_bound(self):
        assert len(upb_qubit3()) == cardinality_lower_bound((2, 2, 2)).min_size


class TestShiftFamily:
    def test_size_and_orthogonality_with_custom_seeds(self):
        seeds = [np.array([1.0, 2.0]), np.array([1.0, 3.0])]
        fam = shift_family(3, seeds)
        assert len(fam) == 5
        assert fam.dims == (2,) * 5
        assert check_mutual_orthogonality(fam) == []

    def test_every_pair_orthogonal_in_exactly_one_party(self):
        fam = shift_family(3, [np.array([1.0, 2.0]), np.array([1.0, 3.0])])
        for j in range(5):
            for k in range(j + 1, 5):
                assert len(orthogonal_parties(fam, j, k)) == 1

    def test_each_party_has_n_minus_one_orthogonal_pairs(self):
        n = 4
        fam = shift_family(n)
        parties = len(fam.dims)
        counts = [0] * parties
        for j in range(len(fam)):
            for k in range(j + 1, len(fam)):
                for r in orthogonal_parties(fam, j, k):
                    counts[r] += 1
        assert counts == [n - 1] * parties
        assert sum(counts) == math.comb(2 * n - 1, 2)

    def test_first_party_walks_the_table(self):
        fam = shift_family(3)
        # state t has first factor equal to table entry t-1; entry 0 is |1>
        assert np.allclose(fam[0].factors[0], [0, 1])

    def test_deterministic(self):
        a = shift_family(4)
        b = shift_family(4)
        for sa, sb in zip(a, b):
            for fa, fb in zip(sa.factors, sb.factors):
                assert np.array_equal(fa, fb)

    def test_n_too_small(self):
        with pytest.raises(ValueError):
            shift_family(1)

    @pytest.mark.parametrize("random_seeds", [False, True])
    @pytest.mark.parametrize("n", [2, 3, 19, 25, 100])
    def test_factor_bytes_match_quadratic_reference(self, n, random_seeds):
        seeds = _random_seeds(n, n) if random_seeds else None
        family = shift_family(n, seeds)
        reference = shift_family_factors(n, seeds)
        assert len(family) == len(reference) == 2 * n - 1
        for state, factors in zip(family, reference):
            assert [f.tobytes() for f in state.factors] == [f.tobytes() for f in factors]


class TestUpbShifts:
    def test_n2_with_plus_seed_equals_qubit3(self):
        s = upb_shifts(2, [np.array([1.0, 1.0])])
        q3 = upb_qubit3()
        assert len(s) == 4
        assert all(any(states_close(a, b) for b in q3) for a in s)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_sizes_and_stability(self, n):
        s = upb_shifts(n)
        assert len(s) == 2 * n
        assert len(s.dims) == 2 * n - 1
        assert is_locally_stable(s).stable


class TestEntangledTriple:
    def test_orthogonal_and_stable(self):
        s = entangled_triple()
        assert len(s) == 3
        assert check_mutual_orthogonality(s) == []
        assert is_locally_stable(s).stable

    def test_smaller_than_any_stable_product_set(self):
        assert len(entangled_triple()) < cardinality_lower_bound((2, 2, 2)).min_size

    @pytest.mark.parametrize("parties", [4, 5, 6])
    def test_generalization_checked(self, parties):
        assert is_locally_stable(entangled_triple(parties)).stable

    def test_too_few_parties(self):
        with pytest.raises(ValueError):
            entangled_triple(2)


class TestTiles:
    def test_five_states_orthogonal(self):
        s = upb_tiles33()
        assert len(s) == 5
        assert s.dims == (3, 3)
        assert check_mutual_orthogonality(s) == []

    def test_stable(self):
        assert is_locally_stable(upb_tiles33()).stable

    def test_meets_lower_bound(self):
        assert len(upb_tiles33()) == cardinality_lower_bound((3, 3)).min_size


class TestHeptagon:
    def test_ring_constants(self):
        h = math.sqrt(-math.cos(4 * math.pi / 7))
        norm = 1 / math.sqrt(1 - math.cos(4 * math.pi / 7))
        assert h == pytest.approx(0.47172124603023163, abs=1e-12)
        assert norm == pytest.approx(0.9044235197006948, abs=1e-12)
        u0 = upb_sep333()[0].factors[0]
        assert u0[2] == pytest.approx(norm * h, abs=1e-12)

    def test_orthogonality_pattern_per_party(self):
        sep = upb_sep333()
        patterns = []
        for party in range(3):
            diffs = set()
            for j in range(7):
                for k in range(7):
                    if j != k and abs(
                        vec_inner(sep[j].factors[party], sep[k].factors[party])
                    ) < 1e-10:
                        diffs.add((j - k) % 7)
            patterns.append(diffs)
        assert patterns == [{2, 5}, {1, 6}, {3, 4}]

    def test_mutually_orthogonal(self):
        assert check_mutual_orthogonality(upb_sep333()) == []

    def test_six_subsets_stable(self):
        sep = upb_sep333()
        for drop in range(7):
            sub = sep.subset([i for i in range(7) if i != drop])
            assert is_locally_stable(sub).stable

    def test_misprint_multipliers_break_orthogonality(self):
        bad = heptagon_qutrit_states((1, 2, 6))
        assert check_mutual_orthogonality(bad)

    def test_multiplier_count_checked(self):
        with pytest.raises(ValueError):
            heptagon_qutrit_states((1, 2))


class TestReducible44:
    def test_twelve_states_orthogonal(self):
        s = upb_44_reducible()
        assert len(s) == 12
        assert s.dims == (4, 4)
        assert check_mutual_orthogonality(s) == []

    def test_not_stable_with_deficient_spans(self):
        cert = is_locally_stable(upb_44_reducible())
        assert not cert.stable
        assert [r.span_dim for r in cert.parties] == [14, 14]


class TestCompose:
    def test_size_and_stability(self):
        c = compose(upb_qubit3(), 0, upb_qubit3(), 0)
        assert len(c) == 7
        assert c.dims == (2,) * 6
        assert is_locally_stable(c).stable

    def test_anchor_included_once(self):
        q3 = upb_qubit3()
        c = compose(q3, 1, q3, 2)
        anchor = ProductState(q3[1].factors + q3[2].factors)
        matches = [s for s in c if states_close(s, anchor)]
        assert len(matches) == 1

    def test_tiles_with_sep_subset(self):
        sub6 = upb_sep333().subset(range(6))
        c = compose(upb_tiles33(), 0, sub6, 0)
        assert len(c) == 10
        assert c.dims == (3, 3, 3, 3, 3)
        assert is_locally_stable(c).stable

    def test_mixed_dense_product(self):
        c = compose(entangled_triple(), 0, upb_qubit3(), 0)
        assert len(c) == 6
        assert c.dims == (2,) * 6
        assert is_locally_stable(c).stable

    def test_index_errors(self):
        with pytest.raises(IndexError):
            compose(upb_qubit3(), 4, upb_qubit3(), 0)
        with pytest.raises(IndexError):
            compose(upb_qubit3(), 0, upb_qubit3(), -1)


class TestSqrtSubset:
    def test_plan_n25_matches_hand_construction(self):
        plan = sqrt_subset_plan(25)
        assert plan.parties == 49
        assert plan.block == 7
        assert plan.indices == tuple(range(16)) + (21, 28, 35, 42, 48)
        assert len(plan.indices) == 21

    def test_small_n_rejected(self):
        with pytest.raises(ValueError, match="> 36"):
            sqrt_subset_plan(10)
        with pytest.raises(ValueError, match="> 36"):
            sqrt_subset(10)

    def test_plan_size_for_all_checked_widths(self):
        for parties in range(37, 202, 2):
            plan = sqrt_subset_plan((parties + 1) // 2)
            assert len(plan.indices) == 3 * plan.block
            assert len(set(plan.indices)) == 3 * plan.block
            assert plan.indices[-1] == parties - 1

    def test_gap_never_exceeds_block(self):
        for n in (19, 25, 50, 101):
            plan = sqrt_subset_plan(n)
            idx = list(plan.indices)
            gaps = [b - a for a, b in zip(idx, idx[1:])]
            gaps.append(plan.parties - idx[-1] + idx[0])
            assert max(gaps) <= plan.block

    def test_states_match_plan_first_factors(self):
        plan, subset = sqrt_subset(19)
        family = shift_family(19)
        for t, state in zip(plan.indices, subset):
            assert states_close(state, family[t])

    @pytest.mark.parametrize("random_seeds", [False, True])
    @pytest.mark.parametrize("n", [19, 25, 100])
    def test_factor_bytes_match_quadratic_reference(self, n, random_seeds):
        seeds = _random_seeds(n, n + 1) if random_seeds else None
        plan, subset = sqrt_subset(n, seeds)
        reference = shift_family_factors(n, seeds)
        assert len(subset) == len(plan.indices)
        for t, state in zip(plan.indices, subset):
            assert [f.tobytes() for f in state.factors] == [
                f.tobytes() for f in reference[t]
            ]

    def test_selected_parties_keep_two_orthogonal_pairs(self):
        _, subset = sqrt_subset(19)
        counts = [0] * len(subset.dims)
        for j in range(len(subset)):
            for k in range(j + 1, len(subset)):
                for r in orthogonal_parties(subset, j, k):
                    counts[r] += 1
        assert min(counts) >= 2

    def test_subset_certified_stable_at_default_tolerance(self):
        _, subset = sqrt_subset(19)
        cert = is_locally_stable(subset)
        assert cert.stable


class TestVerifyTwoPairs:
    def test_n25_passes_with_minimum_two(self):
        report = verify_two_pairs(sqrt_subset_plan(25))
        assert report.ok
        assert report.minimum == 2
        assert len(report.counts) == 49

    def test_unshifted_counts_include_named_pairs(self):
        plan = sqrt_subset_plan(25)
        selected = set(plan.indices)
        # the four complementary pairs visible without shifting
        for x, y in [(1, 48), (7, 42), (14, 35), (21, 28)]:
            assert x in selected and y in selected and x + y == 49
        report = verify_two_pairs(plan)
        assert report.counts[0] == 4

    def test_head_only_truncation_fails(self):
        report = verify_two_pairs(range(16), parties=49)
        assert not report.ok
        assert report.counts[0] == 0

    def test_plan_with_other_parties_refused_naming_both(self):
        with pytest.raises(ValueError, match=r"^parties=3 disagrees with the plan's 37 parties$"):
            verify_two_pairs(sqrt_subset_plan(19), parties=3)

    def test_plan_with_its_own_parties_accepted(self):
        plan = sqrt_subset_plan(19)
        assert verify_two_pairs(plan, parties=37) == verify_two_pairs(plan)

    def test_raw_indices_need_parties(self):
        with pytest.raises(ValueError):
            verify_two_pairs([0, 1, 2])

    @pytest.mark.parametrize("parties", [0, -5])
    def test_cycle_below_one_refused_by_name(self, parties):
        with pytest.raises(ValueError, match="parties"):
            verify_two_pairs([0, 1, 2], parties=parties)

    @pytest.mark.parametrize("seed", range(4))
    def test_counts_match_the_shift_loop(self, seed):
        # odd and even cycles, sparse and dense index sets, repeats and
        # entries past the cycle reduced mod N
        rng = np.random.default_rng(seed)
        for _ in range(500):
            parties = int(rng.integers(2, 60))
            indices = rng.integers(0, 2 * parties, size=int(rng.integers(0, parties + 3)))
            report = verify_two_pairs(indices, parties=parties)
            want = two_pairs_loop(indices, parties)
            assert report.counts == tuple(want)
            assert (report.minimum, report.ok) == (min(want), min(want) >= 2)

    def test_widest_plan_verifies(self):
        # N = 199,999 shifts of 1,344 indices: one count over the index pairs
        plan = sqrt_subset_plan(100000)
        report = verify_two_pairs(plan)
        assert plan.parties == 199999 and len(plan.indices) == 1344
        assert report.ok and len(report.counts) == plan.parties


class TestSubsetCampaign:
    def test_shift4_six_subsets_all_stable(self):
        report = subset_campaign(shift_family(4), 6)
        assert report.total_subsets == 7
        assert report.checked == 7
        assert not report.sampled
        assert report.stable == 7
        assert report.unstable == 0

    def test_qubit3_triples_all_unstable(self):
        report = subset_campaign(upb_qubit3(), 3)
        assert report.stable == 0
        assert report.unstable == 4
        assert len(report.unstable_subsets) == 4

    def test_sampling_path_is_deterministic(self):
        fam = shift_family(3)
        a = subset_campaign(fam, 2, sample_threshold=5, sample_size=6, rng_seed=9)
        b = subset_campaign(fam, 2, sample_threshold=5, sample_size=6, rng_seed=9)
        assert a.sampled and b.sampled
        assert a.checked == b.checked <= 6
        assert a.total_subsets == 10

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            subset_campaign(upb_qubit3(), 5)

    def test_sampled_draw_is_distinct_sorted_and_chunk_free(self, monkeypatch):
        combos = locstab.constructions._sample_combos(30, 4, 2000, 5)
        assert 1800 < len(combos) <= 2000
        assert combos == sorted(set(combos))
        assert all(len(set(c)) == 4 and list(c) == sorted(c) for c in combos)
        assert {j for c in combos for j in c} == set(range(30))
        # the keys come from one stream whatever the chunk size
        monkeypatch.setattr(locstab.constructions, "_DRAW_KEYS", 7)
        assert locstab.constructions._sample_combos(30, 4, 2000, 5) == combos

    def test_sampled_draw_edges(self):
        sample = locstab.constructions._sample_combos
        # 200 draws of 10 equally likely pairs miss one with probability < 1e-8
        assert sample(5, 2, 200, 1) == list(itertools.combinations(range(5), 2))
        assert sample(5, 5, 3, 0) == [(0, 1, 2, 3, 4)]
        assert sample(5, 2, 0, 0) == []

    @pytest.mark.parametrize("size", [0, -3])
    def test_sample_without_draws_rejected(self, size):
        # a sampled report of zero checked subsets would read as a pass
        with pytest.raises(ValueError, match="sample size"):
            subset_campaign(upb_qubit3(), 2, sample_threshold=0, sample_size=size)

    def test_exhaustive_campaign_ignores_sample_size(self):
        report = subset_campaign(upb_qubit3(), 2, sample_size=0)
        assert not report.sampled
        assert report.checked == 6


# name -> (set builder, subset sizes, campaign options)
CAMPAIGNS = {
    "qubit3": (upb_qubit3, (1, 2, 3, 4), {}),
    "tiles33": (upb_tiles33, (1, 2, 3, 4, 5), {}),
    "sep333": (upb_sep333, (4, 5, 6), {}),
    "upb_44_reducible": (upb_44_reducible, (9, 10, 11), {}),
    "upb_shifts(5)": (lambda: upb_shifts(5), (6, 7), {}),
    "upb_shifts(6)": (lambda: upb_shifts(6), (8, 9), {}),
    "upb_shifts(5) random seeds": (lambda: upb_shifts(5, _random_seeds(5, 41)), (6, 7), {}),
    "upb_shifts(6) random seeds": (lambda: upb_shifts(6, _random_seeds(6, 42)), (8, 9), {}),
    "shift_family(4)": (lambda: shift_family(4), (4, 6), {}),
    "shift_family(5)": (lambda: shift_family(5), (5, 7), {}),
    "sqrt_subset(25) sampled": (
        lambda: sqrt_subset(25)[1],
        (5, 18),
        {"sample_threshold": 1000, "sample_size": 300, "rng_seed": 3},
    ),
    "shift_family(7)": (lambda: shift_family(7), (6, 8), {}),
}


@pytest.mark.parametrize(
    "name,k", [(name, k) for name, (_, sizes, _) in CAMPAIGNS.items() for k in sizes]
)
def test_campaign_matches_per_subset_certification(name, k):
    build, _, options = CAMPAIGNS[name]
    state_set = build()
    assert subset_campaign(state_set, k, **options) == subset_campaign_loop(
        state_set, k, **options
    )


def test_campaigns_cover_mixed_verdicts():
    # stable and unstable subsets side by side, within one block of subsets
    report = subset_campaign(shift_family(7), 8)
    assert (report.checked, report.stable) == (1287, 39)
    report = subset_campaign(sqrt_subset(25)[1], 18, sample_threshold=1000,
                             sample_size=300, rng_seed=3)
    assert 0 < report.stable < report.checked


def test_campaign_witnesses_capped_at_1000():
    report = subset_campaign(shift_family(7), 6)
    assert report.unstable > 1000
    assert len(report.unstable_subsets) == 1000


def _dense(state_set, members=None):
    """``state_set`` with the states at ``members`` (all by default) expanded
    to dense amplitude vectors."""
    members = set(range(len(state_set)) if members is None else members)
    return StateSet(
        state_set.dims,
        [tensor_expand(s) if pos in members else s for pos, s in enumerate(state_set)],
        f"{state_set.label}-dense",
    )


def _qubit3_shifts3():
    return compose(upb_qubit3(), 0, upb_shifts(3), 0)


def _tiles33_pair():
    """Two tiles33 copies: four qutrit parties, which only the rank kernel
    ranks."""
    return compose(upb_tiles33(), 0, upb_tiles33(), 0)


_PLANTED = [(scale, v_first) for scale in PLANTED_SCALES for v_first in (False, True)]


class TestMisprintCampaign:
    """The heptagon misprint breaks orthogonality at index distance 3."""

    @pytest.mark.parametrize("dense", [False, True], ids=["product", "dense"])
    @pytest.mark.parametrize("k", range(2, 8))
    def test_subset_with_offending_pair_raises_its_error(self, k, dense):
        misprint = heptagon_qutrit_states((1, 2, 6))
        if dense:
            misprint = _dense(misprint)
        with pytest.raises(OrthogonalityError) as want:
            subset_campaign_loop(misprint, k)
        with pytest.raises(OrthogonalityError) as got:
            subset_campaign(misprint, k)
        assert str(got.value) == str(want.value)
        assert got.value.pairs == want.value.pairs

    @pytest.mark.parametrize(
        "k,options",
        [(1, {}), (2, {"sample_threshold": 1, "sample_size": 2, "rng_seed": 0})],
    )
    def test_subsets_without_offending_pairs_report(self, k, options):
        misprint = heptagon_qutrit_states((1, 2, 6))
        report = subset_campaign(misprint, k, **options)
        assert report == subset_campaign_loop(misprint, k, **options)
        assert report.checked and report.unstable == report.checked


class TestCampaignCertifiesFromParent:
    @staticmethod
    def _counting(monkeypatch, module, name):
        calls = []
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return calls

    def test_one_zero_pattern_and_no_subset_certificates(self, monkeypatch):
        # counted where it is defined and under any name a module imports it by
        patterns = [
            self._counting(monkeypatch, module, "factor_zero_pattern")
            for module in (locstab.states, locstab.stability)
            if hasattr(module, "factor_zero_pattern")
        ]
        certificates = self._counting(monkeypatch, locstab.stability, "is_locally_stable")
        report = subset_campaign(upb_shifts(6), 8)
        assert report.checked == math.comb(12, 8)
        assert sum(map(len, patterns)) == 1
        assert certificates == []

    def test_qubit_campaign_makes_no_kernel_call(self, monkeypatch):
        # every kept mask of every qubit party is decided by its basis count
        kernel = self._counting(monkeypatch, locstab.stability, "_orthonormal_rows")
        report = subset_campaign(upb_shifts(6), 8)
        assert (report.checked, report.unstable) == (495, 0)
        assert kernel == []

    def test_generators_only_for_the_parties_reached(self, monkeypatch):
        # all 66 10-subsets of reducible44 fail at party 0, so party 1's
        # generators are never built
        spans = self._counting(monkeypatch, locstab.stability, "_party_spans")
        report = subset_campaign(upb_44_reducible(), 10)
        assert (report.checked, report.unstable) == (66, 66)
        assert [list(args[3]) for args in spans] == [[0]]

    @pytest.mark.parametrize(
        "build,k",
        [(_tiles33_pair, 6), (_tiles33_pair, 7), (upb_44_reducible, 10)],
    )
    def test_one_rank_per_distinct_kept_mask_per_block(self, monkeypatch, build, k):
        state_set = build()
        # read before the counters go in, so the certificate's own ranks are not counted
        parties = [r.conflict_pairs for r in is_locally_stable(state_set).parties]
        kernel = self._counting(monkeypatch, locstab.stability, "_orthonormal_rows")
        report = subset_campaign(state_set, k)
        ranks = [rows for args in kernel for rows in args[0]]

        combos = list(itertools.combinations(range(len(state_set)), k))
        block = locstab.stability._SUBSET_BLOCK
        distinct = 0
        for start in range(0, len(combos), block):
            members = [set(c) for c in combos[start:start + block]]
            for pairs in parties:
                distinct += len({
                    tuple(a in m and b in m for a, b in pairs) for m in members
                })
        assert report.checked == len(combos)
        assert not hasattr(locstab.stability, "span_rank")
        assert 0 < len(ranks) <= distinct
        assert len(ranks) < report.checked * len(parties)

    @pytest.mark.parametrize(
        "build,k,options",
        [
            (lambda: _dense(upb_qubit3()), 3, {}),
            (lambda: _dense(upb_shifts(5)), 6, {}),
            (lambda: _dense(upb_44_reducible()), 10, {}),
            (lambda: _dense(upb_sep333()), 6, {}),
            # 5 of the 9 subsets are stable
            (lambda: _dense(_qubit3_shifts3()), 8, {}),
            (lambda: _dense(_qubit3_shifts3(), members=range(1, 9, 2)), 8, {}),
            (lambda: _dense(upb_shifts(5)), 6,
             {"sample_threshold": 100, "sample_size": 40, "rng_seed": 2}),
        ],
        ids=["qubit3", "shifts5", "reducible44", "sep333", "qubit3-shifts3",
             "qubit3-shifts3-mixed", "shifts5-sampled"],
    )
    def test_dense_members_certify_from_parent(self, monkeypatch, build, k, options):
        state_set = build()
        want = subset_campaign_loop(state_set, k, **options)
        certificates = self._counting(monkeypatch, locstab.stability, "is_locally_stable")
        assert subset_campaign(state_set, k, **options) == want
        assert certificates == []

    def test_back_to_back_campaigns_keep_no_state(self):
        # same label and size, different verdicts
        stable = StateSet(upb_shifts(6).dims, upb_shifts(6).states, "same")
        unstable = StateSet(upb_44_reducible().dims, upb_44_reducible().states, "same")
        runs = [stable, unstable, stable, unstable]
        reports = [subset_campaign(s, 10) for s in runs]
        for state_set, report in zip(runs, reports):
            assert report == subset_campaign_loop(state_set, 10)
        assert reports[0].unstable == 0 and reports[1].stable == 0


def _unique_rows(kept):
    """The kept-row deduplication by np.unique over whole rows."""
    masks, inverse = np.unique(kept, axis=0, return_inverse=True)
    return masks, inverse.reshape(-1)


def _constant_party_qubit3():
    """upb_qubit3 behind a first party where every state has the factor |0>,
    so that party has no conflict pairs."""
    ket0 = np.array([1.0, 0.0], dtype=complex)
    q3 = upb_qubit3()
    return StateSet(
        (2,) + q3.dims, [ProductState([ket0, *s.factors]) for s in q3], "constant-party"
    )


class TestKeptMaskDedup:
    """Packed-key deduplication of kept-row masks against np.unique(axis=0)."""

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("width", [0, 1, 7, 8, 9, 13, 64])
    @pytest.mark.parametrize("count", [1, 2, 300])
    def test_same_distinct_rows_as_unique_over_rows(self, width, count, order):
        rng = np.random.default_rng(width * 1000 + count)
        kept = rng.random((count, width)) < 0.5
        kept[count // 2:] = kept[: count - count // 2]
        kept = np.asarray(kept, order=order)
        masks, inverse = locstab.stability._distinct_masks(kept)
        want, _ = _unique_rows(kept)
        assert np.array_equal(masks[inverse], kept)
        assert sorted(map(bytes, masks)) == sorted(map(bytes, want))

    @pytest.mark.parametrize(
        "build,k,options",
        [
            (_constant_party_qubit3, 3, {}),
            (lambda: upb_shifts(6), 7, {}),
            (upb_44_reducible, 9, {}),
            (lambda: upb_shifts(6), 4, {"sample_threshold": 10, "sample_size": 50}),
            (lambda: shift_family(10), 4, {"sample_threshold": 10, "sample_size": 50}),
        ] + [(functools.partial(planted_qubit_bases, *args), 5, {}) for args in _PLANTED],
        ids=["no-conflict-party", "shifts6-k7", "reducible44-k9", "shifts6-sampled",
             "family10-sampled"] + [planted_qubit_bases(*args).label for args in _PLANTED],
    )
    @pytest.mark.parametrize("block", [1, 512])
    def test_campaign_verdicts_match_unique_over_rows(self, monkeypatch, build, k, options, block):
        state_set = build()
        monkeypatch.setattr(locstab.stability, "_SUBSET_BLOCK", block)
        packed = subset_campaign(state_set, k, **options)
        monkeypatch.setattr(locstab.stability, "_distinct_masks", _unique_rows)
        assert subset_campaign(state_set, k, **options) == packed
        assert packed == subset_campaign_loop(state_set, k, **options)

    def test_party_without_conflict_pairs_ranks_zero(self):
        state_set = _constant_party_qubit3()
        assert is_locally_stable(state_set).parties[0].conflict_pairs == ()
        report = subset_campaign(state_set, len(state_set))
        assert (report.checked, report.unstable) == (1, 1)


class TestCampaignStacksKeptRows:
    """A campaign ranks each distinct kept-row mask on its kept rows alone:
    in order, then zero rows up to the most rows any mask of the stack
    keeps, never the rows a subset drops."""

    def test_every_stack_is_as_tall_as_its_fullest_mask(self, monkeypatch):
        shapes = []
        original = locstab.stability._orthonormal_rows

        def recorded(rows, rank_rel):
            live = np.abs(rows).sum(axis=2) > 0
            counts = live.sum(axis=1)
            # the live rows of every set come first
            assert (live == (np.arange(rows.shape[1]) < counts[:, None])).all()
            shapes.append((rows.shape[1], int(counts.max(initial=0))))
            return original(rows, rank_rel)

        monkeypatch.setattr(locstab.stability, "_orthonormal_rows", recorded)
        # dense members, whose pair contractions only the rank kernel ranks
        dense = _dense(shift_family(6))
        widest = max(map(len, span_generators(dense)))
        subset_campaign(dense, 9, sample_threshold=10, sample_size=100, rng_seed=1)
        assert shapes
        assert all(height == fullest for height, fullest in shapes)
        assert max(height for height, _ in shapes) < widest


class TestWideCampaignOracle:
    """On shift-family subsets stability is exactly the two-pairs condition:
    every party keeps two complementary index pairs {x, N-x}, x != 0."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("n,k", [(13, 12), (25, 20), (25, 24)])
    def test_sampled_verdicts_match_two_pairs(self, n, k, seed):
        parties = 2 * n - 1
        report = subset_campaign(
            shift_family(n), k, sample_threshold=10, sample_size=300, rng_seed=seed
        )
        combos = locstab.constructions._sample_combos(parties, k, 300, seed)
        assert report.checked == len(combos)
        assert report.unstable_subsets == tuple(
            c for c in combos if not verify_two_pairs(c, parties=parties).ok
        )

    @pytest.mark.parametrize("n", [19, 50, 200])
    def test_sqrt_subset_drops_match_two_pairs(self, n):
        plan, state_set = sqrt_subset(n)
        size = len(state_set)
        report = subset_campaign(state_set, size - 1)
        # combos run in lexicographic order, so combo i drops index size-1-i
        want = tuple(
            tuple(j for j in range(size) if j != drop)
            for drop in reversed(range(size))
            if not verify_two_pairs(
                [t for j, t in enumerate(plan.indices) if j != drop], parties=plan.parties
            ).ok
        )
        assert report.checked == size
        assert report.unstable_subsets == want
        if n == 200:
            assert (size, report.unstable) == (60, 51)
