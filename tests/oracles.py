"""Slow, independent reference computations used only by the tests."""

import itertools
import math
from fractions import Fraction

import numpy as np

from locstab.constructions import CampaignReport, _sample_combos
from locstab.numerics import DEFAULT_TOL, vec_inner
from locstab.stability import is_locally_stable
from locstab.states import ProductState, _party_blocks, as_dense


def exact_rank(rows):
    """Row rank over the rationals by exact Gaussian elimination.

    ``rows`` holds int/Fraction entries; no floating point is involved, so
    the result is an unambiguous reference for tolerance-based ranks.
    """
    matrix = [[Fraction(x) for x in row] for row in rows]
    if not matrix:
        return 0
    cols = len(matrix[0])
    rank = 0
    pivot_row = 0
    for col in range(cols):
        pivot = None
        for r in range(pivot_row, len(matrix)):
            if matrix[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        matrix[pivot_row], matrix[pivot] = matrix[pivot], matrix[pivot_row]
        lead = matrix[pivot_row][col]
        for r in range(pivot_row + 1, len(matrix)):
            if matrix[r][col] != 0:
                factor = matrix[r][col] / lead
                matrix[r] = [a - factor * b for a, b in zip(matrix[r], matrix[pivot_row])]
        pivot_row += 1
        rank += 1
        if pivot_row == len(matrix):
            break
    return rank


def kron_expand_brute(factors):
    """Row-major tensor expansion by explicit index enumeration."""
    dims = [len(f) for f in factors]
    out = []
    for idx in itertools.product(*(range(d) for d in dims)):
        amp = 1.0 + 0.0j
        for factor, i in zip(factors, idx):
            amp *= complex(factor[i])
        out.append(amp)
    return out


def inner_brute(a, b):
    """Plain-Python inner product, conjugating the first argument."""
    return sum(complex(x).conjugate() * complex(y) for x, y in zip(a, b))


def dense_offending_stacked(state_set, orth_abs=DEFAULT_TOL.orth_abs):
    """Non-orthogonal ordered pairs (j, k, <j|k>) of a set with a dense
    member, from one stacked (l, D) array of every state's amplitudes and
    one (l, D) product per row."""
    stack = np.stack([as_dense(s).amplitudes for s in state_set.states])
    overlaps = np.stack([(row.conj() * stack).sum(axis=1) for row in stack])
    bad = np.abs(overlaps) >= orth_abs
    np.fill_diagonal(bad, False)
    return [(j, k, complex(overlaps[j, k])) for j, k in np.argwhere(bad).tolist()]


def factor_overlap_loop(a, b):
    """<a|b> of two factors, summing conj(a[c]) * b[c] in coordinate order.
    Each product and sum is a ufunc call on length-1 arrays: numpy's array
    complex multiply may fuse multiply-adds where its scalar and Python's do
    not, and a length-1 array runs the array loop, so the bits are those
    whole-array code gets."""
    a = np.conj(np.asarray(a, dtype=complex))
    b = np.asarray(b, dtype=complex)
    total = a[0:1] * b[0:1]
    for c in range(1, len(a)):
        total = total + a[c : c + 1] * b[c : c + 1]
    return total


def product_offending_loop(state_set, orth_abs=DEFAULT_TOL.orth_abs):
    """Non-orthogonal ordered pairs (j, k, <j|k>) of an all-product set, one
    pair at a time, j outer and k inner: a pair is orthogonal when some
    factor overlap (:func:`factor_overlap_loop`) is below ``orth_abs``, and
    a non-orthogonal pair's value multiplies its factor overlaps from 1 in
    party order."""
    pairs = []
    for j, left in enumerate(state_set.states):
        for k, right in enumerate(state_set.states):
            if j == k:
                continue
            value = np.ones(1, dtype=complex)
            for a, b in zip(left.factors, right.factors):
                overlap = factor_overlap_loop(a, b)
                if abs(overlap[0]) < orth_abs:
                    break
                value = value * overlap
            else:
                pairs.append((j, k, complex(value[0])))
    return pairs


def hs_inner(m, n) -> complex:
    """Hilbert-Schmidt pairing Tr(M_adj N) of two equal-size square matrices."""
    m = np.asarray(m, dtype=complex)
    n = np.asarray(n, dtype=complex)
    for mat in (m, n):
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    if m.shape != n.shape:
        raise ValueError(f"shape mismatch: {m.shape} vs {n.shape}")
    return complex((m.conj() * n).sum())


def state_inner(a, b) -> complex:
    """Full-system inner product <a|b>; product pairs multiply factor inners
    without ever expanding the tensor."""
    if a.dims != b.dims:
        raise ValueError(f"signature mismatch: {a.dims} vs {b.dims}")
    if isinstance(a, ProductState) and isinstance(b, ProductState):
        out = 1.0 + 0.0j
        for fa, fb in zip(a.factors, b.factors):
            out *= vec_inner(fa, fb)
        return complex(out)
    return vec_inner(as_dense(a).amplitudes, as_dense(b).amplitudes)


def states_close(a, b, atol=1e-12, up_to_phase=True) -> bool:
    """Amplitude-wise closeness of two states, by default up to one global phase."""
    if a.dims != b.dims:
        return False
    if up_to_phase:
        # unit vectors are parallel iff their overlap has magnitude one;
        # product pairs stay unexpanded this way
        return abs(abs(state_inner(a, b)) - 1.0) <= atol
    va = as_dense(a).amplitudes
    vb = as_dense(b).amplitudes
    return bool(np.allclose(va, vb, rtol=0.0, atol=atol))


def _kron_except(factors, skip=None):
    out = np.ones(1, dtype=complex)
    for r, factor in enumerate(factors):
        if r != skip:
            out = np.kron(out, factor)
    return out


def seesaw_sequential(state_set, restarts=50, iters=200, rng_seed=0):
    """The see-saw complement search run one restart at a time.

    The loop is the per-restart form that ``stability._see_saw``
    batches; input checks are left to the caller.  Returns the best
    (overlap, factors) across restarts, first maximum on ties, and every
    restart's (overlap, factors, sweeps) in stream order.
    """
    dims = state_set.dims
    dense = np.stack([as_dense(s).amplitudes for s in state_set.states])
    parties = len(dims)
    # blocks[i][k] has shape (d_rest, d_i): state k split at party i.
    blocks = [
        _party_blocks(dense, dims, i).reshape(-1, len(dense), d).swapaxes(0, 1)
        for i, d in enumerate(dims)
    ]

    runs = []
    best_overlap = -math.inf
    best_factors = None
    for stream in np.random.SeedSequence(rng_seed).spawn(restarts):
        rng = np.random.default_rng(stream)
        factors = []
        for d in dims:
            vec = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            factors.append(vec / np.linalg.norm(vec))
        previous = -math.inf
        for sweep in range(iters):
            for i in range(parties):
                rest = _kron_except(factors, i)
                contracted = np.einsum("kja,j->ka", blocks[i], rest.conj())
                local_op = contracted.T @ contracted.conj()
                eigenvalues, eigenvectors = np.linalg.eigh(local_op)
                factors[i] = eigenvectors[:, 0]
                value = 1.0 - float(eigenvalues[0])
            if value - previous < 1e-13:
                break
            previous = value
        phi = _kron_except(factors)
        overlap = 1.0 - float(np.sum(np.abs(dense.conj() @ phi) ** 2))
        runs.append((overlap, [f.copy() for f in factors], sweep + 1))
        if overlap > best_overlap:
            best_overlap = overlap
            best_factors = [f.copy() for f in factors]
    return best_overlap, best_factors, runs


def extension_brute(state_set, rtol=1e-8):
    """(extendible, capacities) of an all-product set of at most 8 states,
    by trying every one of the P**l assignments of states to parties.

    A group of states does not span party i when ``np.linalg.matrix_rank``
    of their party-i factors, at relative cutoff ``rtol``, is below d_i.
    The set is extendible when some assignment leaves every party's group
    non-spanning, and ``capacities[i]`` is the size of party i's largest
    non-spanning subset.
    """
    size, parties = len(state_set), len(state_set.dims)
    if size > 8:
        raise ValueError("extension_brute enumerates at most 8 states")
    weights = 1 << np.arange(size)
    members = (np.arange(1 << size)[:, None] & weights) > 0
    fits = []  # fits[i][mask]: the states of the bit mask do not span party i
    for i, d in enumerate(state_set.dims):
        factors = np.array([s.factors[i] for s in state_set.states])
        fits.append(np.array([
            not row.any() or np.linalg.matrix_rank(factors[row], rtol=rtol) < d
            for row in members
        ]))
    capacities = tuple(int(members[fit].sum(axis=1).max()) for fit in fits)
    total = parties ** size
    places = parties ** np.arange(size)
    for start in range(0, total, 1 << 15):
        codes = np.arange(start, min(start + (1 << 15), total))
        digits = codes[:, None] // places % parties
        ok = np.ones(len(codes), dtype=bool)
        for i, fit in enumerate(fits):
            ok &= fit[((digits == i) * weights).sum(axis=1)]
        if ok.any():
            return True, capacities
    return False, capacities


def conflict_pairs_scan(state_set, orth_abs=DEFAULT_TOL.orth_abs):
    """(zero_count, conflict_pairs) of an all-product set from a full
    (parties, l, l) boolean: ``zeros[r]`` marks the pairs whose party-r
    factor Gram entry is below ``orth_abs``, and party r's conflict pairs
    are ``argwhere(zeros[r] & (zero_count == 1))``, j outer and k inner."""
    grams = []
    for r in range(len(state_set.dims)):
        stack = np.array([s.factors[r] for s in state_set.states])
        grams.append(stack.conj() @ stack.T)
    zeros = np.abs(np.array(grams)) < orth_abs
    zero_count = zeros.sum(axis=0)
    once = zero_count == 1
    return zero_count, tuple(np.argwhere(party & once) for party in zeros)


def unit_reference(vec):
    """``vec`` over its ``np.linalg.norm``, the per-vector normalization rule."""
    arr = np.array(vec, dtype=complex)
    return arr / np.linalg.norm(arr)


def shift_family_factors(n, seeds=None):
    """Every factor of the N = 2n-1 shift-family states, built the O(N^2)
    way: state t (t = 1..N) carries table entry (t - r) mod N at party r
    (r = 1..N), each factor normalized on its own.  Returns a list of N
    lists of N factors."""
    parties = 2 * n - 1
    if seeds is None:
        seeds = [
            np.array([math.cos(i * math.pi / (2 * n)), math.sin(i * math.pi / (2 * n))])
            for i in range(1, n)
        ]
    seeds = [unit_reference(seed) for seed in seeds]
    table = [np.array([0.0, 1.0], dtype=complex)]
    table += [np.array([np.conj(s[1]), -np.conj(s[0])]) for s in seeds]
    table += [seeds[n - 2 - i] for i in range(n - 1)]
    return [
        [unit_reference(table[(t - r) % parties]) for r in range(1, parties + 1)]
        for t in range(1, parties + 1)
    ]


def validate_seeds_loop(seeds, n, orth_abs=1e-10):
    """Shift-family seed vetting one seed and one seed pair at a time, in
    ``itertools.combinations`` order, with the library's messages."""
    if len(seeds) != n - 1:
        raise ValueError(f"expected {n - 1} seeds for n={n}, got {len(seeds)}")
    normalized = []
    for pos, seed in enumerate(seeds):
        arr = np.asarray(seed, dtype=complex)
        if arr.shape != (2,):
            raise ValueError(f"seed {pos} is not a single-qubit vector")
        norm = np.linalg.norm(arr)
        if norm == 0.0:
            raise ValueError(f"seed {pos} is the zero vector")
        normalized.append(arr / norm)
    lo, hi = orth_abs, 1.0 - orth_abs
    for pos, seed in enumerate(normalized):
        overlap = abs(seed[0])
        if overlap <= lo:
            raise ValueError(f"seed {pos} is orthogonal to |0>")
        if overlap >= hi:
            raise ValueError(f"seed {pos} is parallel to |0>")
    for a, b in itertools.combinations(range(len(normalized)), 2):
        overlap = abs(vec_inner(normalized[a], normalized[b]))
        if overlap <= lo:
            raise ValueError(f"seeds {a} and {b} are mutually orthogonal")
        if overlap >= hi:
            raise ValueError(f"seeds {a} and {b} are parallel")
    return normalized


def conflict_attribution_loop(certificate):
    """(shared_pairs, conflict_counts) of a certificate by a dict over every
    conflict pair: each unordered pair maps to the parties it conflicts at,
    in record order; pairs at more than one party are shared."""
    attribution = {}
    counts = []
    for record in certificate.parties:
        pairs = record.conflict_pairs or ()
        counts.append(len(pairs))
        for j, k in pairs:
            unordered = (j, k) if j < k else (k, j)
            parties = attribution.setdefault(unordered, [])
            if record.party not in parties:
                parties.append(record.party)
    shared = tuple(
        (pair, tuple(parties))
        for pair, parties in sorted(attribution.items())
        if len(parties) > 1
    )
    return shared, tuple(counts)


def subset_campaign_loop(
    state_set, k, tol=DEFAULT_TOL, sample_threshold=10**6, sample_size=10**4, rng_seed=0
):
    """The subset campaign as one ``is_locally_stable`` call per subset, on
    a subset set of its own, with the library's subset choice and report."""
    size = len(state_set)
    total = math.comb(size, k)
    if total > sample_threshold:
        combos = _sample_combos(size, k, sample_size, rng_seed)
    else:
        combos = list(itertools.combinations(range(size), k))
    verdicts = [is_locally_stable(state_set.subset(c), tol).stable for c in combos]
    unstable = [c for c, stable in zip(combos, verdicts) if not stable]
    return CampaignReport(
        set_label=state_set.label,
        subset_size=k,
        total_subsets=total,
        checked=len(combos),
        sampled=total > sample_threshold,
        stable=len(combos) - len(unstable),
        unstable=len(unstable),
        unstable_subsets=tuple(unstable[:1000]),
    )


def orthonormal_rows_loop(rows, rank_rel):
    """Modified Gram-Schmidt over the rows of one 2-D array, in row order:
    the rank kernel as a loop over a single row set.

    The first row whose residual norm reaches ``rank_rel`` times the largest
    initial row norm becomes the next unit pivot, projected out of every
    later row twice; dependent rows are dropped.  Returns the (rank, n)
    pivots.
    """

    def norms_of(rows):
        flat = rows.view(np.float64)
        return np.sqrt((flat * flat).sum(axis=1))

    rows = np.ascontiguousarray(rows, dtype=complex)
    width = rows.shape[1]
    norms = norms_of(rows)
    threshold = rank_rel * norms.max(initial=0.0)
    basis = []
    while threshold > 0.0 and len(basis) < width:
        alive = (norms >= threshold).nonzero()[0]
        if not alive.size:
            break
        pivot = rows[alive[0]] / norms[alive[0]]
        basis.append(pivot)
        rows = rows[alive[1:]]
        for _ in range(2):
            rows -= (rows * pivot.conj()).sum(axis=1)[:, None] * pivot
        norms = norms_of(rows)
    return np.array(basis, dtype=complex).reshape(len(basis), width)
