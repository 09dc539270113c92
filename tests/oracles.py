"""Slow, independent reference computations used only by the tests."""

import itertools
import math
from fractions import Fraction

import numpy as np

from locstab.constructions import CampaignReport, _sample_combos, compose, upb_qubit3
import locstab.stability
import locstab.states
from locstab.numerics import DEFAULT_TOL, _orthonormal_rows, vec_inner
from locstab.stability import _partition_search, is_locally_stable
from locstab.states import (
    DenseState,
    ProductState,
    StateSet,
    _complex_pairs,
    _coordinate_sums,
    _party_blocks,
    _qubit_zeros,
    as_dense,
)


def state_set_to_dict(state_set):
    """The JSON payload of a state set as nested lists, the byte reference
    of the set writer: ``json.dumps(state_set_to_dict(s), indent=2) + "\n"``
    is the text ``save_set`` writes."""

    def payload(state):
        if isinstance(state, DenseState):
            return {"dense": _complex_pairs(state.amplitudes)}
        return {"product": [_complex_pairs(f) for f in state.factors]}

    return {
        "label": state_set.label,
        "dims": list(state_set.dims),
        "states": list(map(payload, state_set.states)),
    }


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


def factor_zero_pattern_per_party(state_set, tol=DEFAULT_TOL):
    """(zero_count, conflict_pairs) of an all-product set, decided party by
    party on each party's own stack in state order: the qubit parties by
    the windowed pass, the others by their full coordinate-order Gram, with
    no grouping of parties that share their factors."""
    factors = state_set.factors
    size = len(state_set)
    zero_count = np.zeros((size, size), dtype=np.int64)
    last_zero = np.zeros((size, size), dtype=np.int64)
    qubits = [r for r, d in enumerate(state_set.dims) if d == 2]
    for parties, j, k in _qubit_zeros(factors, qubits, tol):
        np.add.at(zero_count, (j, k), 1)
        last_zero[j, k] = parties
    zero_count += zero_count.T
    last_zero += last_zero.T
    for r, stack in enumerate(factors):
        if stack.shape[1] == 2:
            continue
        zeros = np.abs(_coordinate_sums(stack.conj()[:, None], stack[None])) < tol.orth_abs
        zeros &= zeros.T
        zero_count += zeros
        np.copyto(last_zero, r, where=zeros)
    pairs = np.argwhere(zero_count == 1)
    parties = last_zero[pairs[:, 0], pairs[:, 1]]
    order = np.argsort(parties, kind="stable")
    bounds = np.searchsorted(parties[order], np.arange(len(factors) + 1)).tolist()
    pairs = pairs[order]
    return zero_count, tuple(pairs[a:b] for a, b in zip(bounds, bounds[1:]))


def split_codes_bytes(data, start, parties):
    """``states._split_codes`` by ``bytes.find`` and ``bytes.split`` at
    ``_FACTOR_MARK``: the same windows of ``_LOAD_BYTES``, the same early
    stop and the same numbering of the pieces by their exact bytes."""
    mark, window = locstab.states._FACTOR_MARK, locstab.states._LOAD_BYTES
    numbers, codes, count = {}, [], 0
    while start < len(data):
        if 2 * len(numbers) > count >= 3 * parties:
            return None
        stop = data.find(mark, start + window)
        stop = len(data) if stop < 0 else stop
        pieces = data[start + len(mark):stop].split(mark)
        codes += [numbers.setdefault(piece, len(numbers)) for piece in pieces]
        count += len(pieces)
        start = stop
    return np.array(codes, dtype=np.intp), numbers


def party_blocks_loop(amplitudes, dims, party):
    """The (D/d_i, l*d_i) split of an (l, D) amplitude stack at ``party``,
    one entry at a time: entry [r, k*d_i + a] is state k's amplitude on the
    basis state with index a at ``party`` and the r-th index tuple of
    ``itertools.product`` over the other parties, in their original order."""
    d = dims[party]
    strides = [math.prod(dims[r + 1:]) for r in range(len(dims))]
    others = itertools.product(*(range(n) for r, n in enumerate(dims) if r != party))
    out = np.empty((math.prod(dims) // d, len(amplitudes) * d), dtype=complex)
    for row, rest in enumerate(others):
        for a in range(d):
            index = rest[:party] + (a,) + rest[party:]
            flat = sum(i * stride for i, stride in zip(index, strides))
            for k, vector in enumerate(amplitudes):
                out[row, k * d + a] = vector[flat]
    return out


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


def validate_seeds_loop(seeds, n, tol=DEFAULT_TOL):
    """Shift-family seed vetting one seed and one pair at a time, with the
    library's rule and messages.  Each seed in turn must be a finite,
    nonzero 2-vector.  Then |0> and the normalized seeds are taken pair by
    pair in ``itertools.combinations`` order: a pair is orthogonal when its
    overlap (:func:`factor_overlap_loop`) falls below ``tol.orth_abs`` in
    both orders, and parallel when one of the two is so orthogonal to the
    other's perp at the cutoff ``tol.rank_rel``."""
    if len(seeds) != n - 1:
        raise ValueError(f"expected {n - 1} seeds for n={n}, got {len(seeds)}")
    rows = [np.array([1.0, 0.0], dtype=complex)]
    for pos, seed in enumerate(seeds):
        arr = np.asarray(seed, dtype=complex)
        if arr.shape != (2,):
            raise ValueError(f"seed {pos} is not a single-qubit vector")
        if not np.isfinite(arr).all():
            raise ValueError(f"seed {pos} is not finite")
        if not arr.any():
            raise ValueError(f"seed {pos} is the zero vector")
        rows.append(arr / np.linalg.norm(arr))

    def vanishes(a, b, cutoff):
        return all(np.abs(factor_overlap_loop(x, y))[0] < cutoff for x, y in ((a, b), (b, a)))

    def perp(v):
        return np.array([np.conj(v[1]), -np.conj(v[0])])

    for a, b in itertools.combinations(range(len(rows)), 2):
        x, y = rows[a], rows[b]
        if vanishes(x, y, tol.orth_abs):
            kind = "orthogonal"
        elif vanishes(x, perp(y), tol.rank_rel) or vanishes(y, perp(x), tol.rank_rel):
            kind = "parallel"
        else:
            continue
        if a == 0:
            raise ValueError(f"seed {b - 1} is {kind} to |0>")
        kind = "mutually orthogonal" if kind == "orthogonal" else kind
        raise ValueError(f"seeds {a - 1} and {b - 1} are {kind}")
    return rows[1:]


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


def orthonormal_rows_loop(rows, rank_rel, residuals=None):
    """Modified Gram-Schmidt over the rows of one 2-D array, in row order:
    the rank kernel as a loop over a single row set.

    The first row whose residual norm reaches ``rank_rel`` times the largest
    initial row norm becomes the next unit pivot, projected out of every
    later row twice; dependent rows are dropped.  Returns the (rank, n)
    pivots, and appends each pivot's residual norm to the list
    ``residuals`` when one is given.
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
        if residuals is not None:
            residuals.append(norms[alive[0]])
        rows = rows[alive[1:]]
        for _ in range(2):
            rows -= (rows * pivot.conj()).sum(axis=1)[:, None] * pivot
        norms = norms_of(rows)
    return np.array(basis, dtype=complex).reshape(len(basis), width)


# |<u^perp|v>| / rank_rel of the planted second bases the tests use: the
# qubit rule decides 0.125, 4 and 8, and leaves the band between to the
# rank kernel
PLANTED_SCALES = (0.125, 0.25, 0.5, 1, 2, 4, 8)


def planted_qubit_bases(scale, v_first=False, rank_rel=DEFAULT_TOL.rank_rel):
    """compose(qubit3, 0, qubit3, 0) with party 0's {|+>, |->} basis turned
    into {v, v^perp}, v = cos t |0> + sin t |1> with |<1|v>| = sin t =
    ``scale * rank_rel``.  Party 0 then holds two conflict pairs, each in
    both orders: one in the basis {|0>, |1>}, one in v's, whose generators
    have a diagonal part of norm sqrt(2) cos t sin t in the first.  The
    factors are exactly orthogonal up to rounding, and every other party is
    stable, so the set is stable exactly when party 0 spans 3.  ``v_first``
    reverses the states, which puts v's pair first at party 0."""
    base = compose(upb_qubit3(), 0, upb_qubit3(), 0)
    sin = scale * rank_rel
    cos = math.sqrt(1.0 - sin * sin)
    plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
    turned = {1.0: np.array([cos, sin], dtype=complex), 0.0: np.array([-sin, cos], dtype=complex)}
    states = []
    for state in base:
        factors = list(state.factors)
        overlap = round(abs(np.vdot(plus, factors[0])), 6)
        factors[0] = turned.get(overlap, factors[0])
        states.append(ProductState(factors))
    if v_first:
        states.reverse()
    order = "v" if v_first else "u"
    return StateSet(base.dims, states, f"planted-{scale:g}-{order}-first")


def _stored_unit(vec, rounds=8):
    """``vec`` normalized until normalizing it again moves no bit, so a
    state built from it stores it unchanged; None if that takes more than
    ``rounds`` divisions."""
    for _ in range(rounds):
        unit = vec / np.linalg.norm(vec)
        if np.array_equal(unit, vec):
            return unit
        vec = unit
    return None


def straddling_pair(d, seed=0, tries=1000):
    """A seeded search for unit factors a, b in C^d, b = a^perp + 1e-5 phase
    a normalized, whose overlaps |<a|b>| and |<b|a>| differ in their
    rounding (:func:`factor_overlap_loop`), and returns (a, b, cut) with cut
    the larger: under ``orth_abs = cut``, deciding each order on its own
    would let the pair vanish in one order only.  Both factors are stored by a state as they are.  Returns None when no
    draw differs, as on a platform whose complex multiply rounds both orders
    alike."""
    rng = np.random.default_rng(seed)
    for _ in range(tries):
        a, p = rng.normal(size=(2, d, 2)) @ np.array([1.0, 1.0j])
        phase = np.exp(2j * np.pi * rng.random())
        a = _stored_unit(a)
        if a is None:
            continue
        p -= np.vdot(a, p) * a
        b = _stored_unit(p / np.linalg.norm(p) + 1e-5 * phase * a)
        if b is None:
            continue
        overlaps = np.concatenate([factor_overlap_loop(a, b), factor_overlap_loop(b, a)])
        # np.abs of an array, whose bits can differ from the scalar abs's
        forward, backward = np.abs(overlaps)
        if forward != backward:
            return a, b, max(forward, backward)
    return None


def two_pairs_loop(indices, parties):
    """Per-shift counts of complementary index pairs {x, N-x}, x != 0, of
    the index set shifted by each s, one shift and one entry at a time."""
    indices = {int(t) % parties for t in indices}
    counts = []
    for shift in range(parties):
        shifted = {(t - shift) % parties for t in indices}
        counts.append(
            sum(1 for x in shifted if x != 0 and x < parties - x and (parties - x) in shifted)
        )
    return counts


def hyperplanes_kernel(stack, tol=DEFAULT_TOL):
    """One (C, l) hyperplane mask per party of a (P, l, d) factor stack, from
    the rank kernel's normals at every local dimension: the normal of a
    min(l, d-1)-subset is the pivot past rank d-1 of the subset stacked
    above the identity, and ``mask[c, j]`` says whether |<n_c|a_j>| falls
    below ``tol.rank_rel``.  The partition test took qubit normals this way
    before they had a closed form."""
    _, size, d = stack.shape
    width = min(size, d - 1)
    subsets = np.array(list(itertools.combinations(range(size), width)), dtype=np.intp)
    identity = np.broadcast_to(np.eye(d, dtype=complex), (len(subsets), d, d))
    masks = []
    for factors in stack:
        rows = np.concatenate([factors[subsets], identity], axis=1)
        normals = _orthonormal_rows(rows, tol.rank_rel)[0][:, d - 1]
        masks.append(np.abs(normals.conj() @ factors.T) < tol.rank_rel)
    return masks


def partition_kernel(state_set, tol=DEFAULT_TOL):
    """(verdict, capacities, groups, nodes, witness factor bytes) of the
    partition test on an all-product set, with every party's masks from
    :func:`hyperplanes_kernel` (or one all-hitting column past the subset
    cap), held together, and the search run from its root even when the
    capacity sum settles the set.  The witness is built, checked and stored
    as a ProductState as :func:`~locstab.stability.decide_extension` does."""
    factors, size = state_set.factors, len(state_set)
    columns = []
    for stack in factors:
        d = stack.shape[1]
        if math.comb(size, min(size, d - 1)) > locstab.stability._HYPERPLANE_SUBSETS:
            columns.append(np.ones((size, 1), dtype=bool))
        else:
            columns.append(hyperplanes_kernel(stack[None], tol)[0].T)
    starts = np.cumsum([0] + [c.shape[1] for c in columns[:-1]])
    hits = np.concatenate(columns, axis=1)
    capacities = tuple(np.maximum.reduceat(hits.sum(axis=0), starts).tolist())

    def leaf(parties):
        witness = []
        for party, stack in enumerate(factors):
            group = stack[[j for j, p in enumerate(parties) if p == party]]
            d = stack.shape[1]
            rank = _orthonormal_rows(group[None].copy(), tol.rank_rel)[1][0]
            if rank == d:
                return None
            rows = np.concatenate([group, np.eye(d, dtype=complex)])[None]
            witness.append(_orthonormal_rows(rows, tol.rank_rel)[0][0, rank])
        return witness

    found, nodes, capped = _partition_search(hits, starts, leaf)
    verdict = "undecided" if capped else "unextendible"
    witness = groups = None
    if found is not None:
        parties, vectors = found
        groups = tuple(
            tuple(j for j, p in enumerate(parties) if p == party) for party in range(len(factors))
        )
        overlaps = [np.abs(_coordinate_sums(v.conj(), f)) for f, v in zip(factors, vectors)]
        if (np.min(overlaps, axis=0) < tol.orth_abs).all():
            witness = tuple(f.tobytes() for f in ProductState(vectors).factors)
            verdict = "extendible"
        else:
            verdict = "undecided"
    return verdict, capacities, groups, nodes, witness
