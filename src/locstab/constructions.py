"""Generators for the named orthogonal state families.

Covers the four-state 3-qubit UPB, the cyclic shift families on 2n-1 qubits
and the UPBs they extend to, the GHZ/W entangled triple, the Tiles UPB in
3x3 and the seven-state heptagon UPB in 3x3x3, a locally reducible UPB in
4x4, pairwise compositions sharing one anchor state, and square-root-sized
shift-family subsets that keep two orthogonal factor pairs at every party.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .numerics import DEFAULT_TOL, Tolerance
from .stability import _subset_verdicts
from .states import DenseState, ProductState, StateSet, as_dense
from .states import _qubit_perp, _qubit_zeros, _unit_rows

__all__ = [
    "default_seeds",
    "validate_seeds",
    "qubit_perp",
    "upb_qubit3",
    "shift_family",
    "upb_shifts",
    "entangled_triple",
    "upb_tiles33",
    "heptagon_qutrit_states",
    "upb_sep333",
    "upb_44_reducible",
    "compose",
    "SqrtSubsetPlan",
    "sqrt_subset_plan",
    "sqrt_subset",
    "TwoPairReport",
    "verify_two_pairs",
    "CampaignReport",
    "subset_campaign",
]

# Uniform keys a sampled campaign draws per chunk: 4 MB of float64.
_DRAW_KEYS = 1 << 19

_KET0 = np.array([1.0, 0.0], dtype=complex)
_KET1 = np.array([0.0, 1.0], dtype=complex)
_PLUS = np.array([1.0, 1.0], dtype=complex)
_MINUS = np.array([1.0, -1.0], dtype=complex)


def qubit_perp(vec) -> np.ndarray:
    """The orthogonal direction of a qubit state, (a, b) -> (conj b, -conj a),
    or of every row of an (m, 2) stack."""
    arr = np.asarray(vec, dtype=complex)
    if arr.shape[-1:] != (2,) or arr.ndim > 2:
        raise ValueError("qubit_perp expects a 2-entry vector or an (m, 2) stack")
    return _qubit_perp(arr)


def default_seeds(n: int) -> np.ndarray:
    """n-1 planar qubit states at angles i*pi/(2n), i = 1..n-1, as one
    read-only (n-1, 2) stack of unit rows, bit for bit those
    :func:`validate_seeds` returns for them.

    Pairwise angles stay strictly inside (0, pi/2), so no two seeds are
    orthogonal or parallel and every seed is tilted away from both poles:
    the constructions take them without a check.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    angles = [i * math.pi / (2 * n) for i in range(1, n)]
    cos_sin = np.column_stack([[*map(math.cos, angles)], [*map(math.sin, angles)]])
    return _unit_rows(cos_sin.astype(complex))


def validate_seeds(seeds, n: int) -> np.ndarray:
    """Normalize and vet n-1 caller-given shift-family seeds; return them as
    one read-only (n-1, 2) stack of unit rows.

    No two of |0> and the finite, nonzero seeds may be orthogonal, with
    |<a|b>| and |<b|a>| below ``DEFAULT_TOL.orth_abs``, or parallel, with a
    and b's perp so orthogonal below ``DEFAULT_TOL.rank_rel`` (the partition
    test's |<a^perp|b>| < rank_rel).  Each decision is the zero pattern's qubit
    pass, :func:`~locstab.states._qubit_zeros`.  Refusals name the first
    seed that is malformed, not finite or zero, else the first offending
    pair, with |0> or of seeds, in ``itertools.combinations`` order.
    """
    if len(seeds) != n - 1:
        raise ValueError(f"expected {n - 1} seeds for n={n}, got {len(seeds)}")
    rows = [np.asarray(seed, dtype=complex) for seed in seeds]
    malformed = next((pos for pos, row in enumerate(rows) if row.shape != (2,)), n - 1)
    # |0> is row 0, so its pairs come first in combinations order
    stack = np.array([_KET0, *rows[:malformed]])
    try:
        stack = _unit_rows(stack)
    except ValueError:
        finite = np.isfinite(stack).all(axis=1)
        pos = int(np.flatnonzero(~finite | ~stack.any(axis=1))[0])
        problem = "the zero vector" if finite[pos] else "not finite"
        raise ValueError(f"seed {pos - 1} is {problem}") from None
    if malformed < n - 1:
        raise ValueError(f"seed {malformed} is not a single-qubit vector")
    # a is parallel to b exactly when a is orthogonal to b's perp: the pairs
    # (j, n + k) of [stack; perps] with k != j
    both = np.concatenate([stack, _qubit_perp(stack)])
    # at the parallel cutoff, the looser of the two, valid seeds leave each
    # row with only its own perp: one pass accepts them
    parallel = replace(DEFAULT_TOL, orth_abs=DEFAULT_TOL.rank_rel)
    each = np.arange(len(both))[:, None]
    accepted = [(j, k) for _, j, k in _qubit_zeros(both, each, [0], parallel)]
    if all((k - j == n).all() for j, k in accepted):
        return stack[1:]
    hits = []
    for _, j, k in _qubit_zeros(stack, each[:len(stack)], [0], DEFAULT_TOL):
        hits += [(a, b, "orthogonal") for a, b in zip(j.tolist(), k.tolist())]
    for j, k in accepted:
        cross = (j < n) & (k >= n) & (k - n != j)
        pairs = zip(j[cross].tolist(), (k[cross] - n).tolist())
        hits += [(min(a, b), max(a, b), "parallel") for a, b in pairs]
    if not hits:
        return stack[1:]
    # the first pair in combinations order; orthogonal sorts before parallel
    j, k, kind = min(hits)
    if j == 0:
        raise ValueError(f"seed {k - 1} is {kind} to |0>")
    if kind == "orthogonal":
        kind = "mutually orthogonal"
    raise ValueError(f"seeds {j - 1} and {k - 1} are {kind}")


def upb_qubit3() -> StateSet:
    """The four-state UPB |000>, |+-1>, |1+->, |-1+> on three qubits."""
    states = [
        ProductState([_KET0, _KET0, _KET0]),
        ProductState([_PLUS, _MINUS, _KET1]),
        ProductState([_KET1, _PLUS, _MINUS]),
        ProductState([_MINUS, _KET1, _PLUS]),
    ]
    return StateSet((2, 2, 2), states, "qubit3-upb")


def shift_family(n: int, seeds=None) -> StateSet:
    """The N = 2n-1 cyclic right shifts of |1>|s_1>..|s_{n-1}>|s_{n-1}^perp>..|s_1^perp>
    on N qubits.

    State t (t = 1..N) carries table entry (t - r) mod N at party r, so its
    first factor determines the whole state.  Every unordered state pair is
    orthogonal in exactly one party and every party sees exactly n-1
    orthogonal factor pairs.
    """
    book, codes = _shift_codes(n, seeds, range(2 * n - 1))
    return StateSet._from_codes((2,) * (2 * n - 1), {2: book}, codes, f"shift-family-n{n}")


def _shift_codes(n, seeds, firsts):
    """The code table of the shift-family states whose first factor is
    table entry t, for each t in ``firsts``: the (2n, 2) codebook and the
    (len(firsts), N) int32 codes, state t carrying entry (t - r) mod N at
    party r.  The cyclic table maps 0 to |1>, 1..n-1 to the seed perps and
    N-i to seed i, so two entries are orthogonal exactly when their nonzero
    indices sum to 0 mod N; |0>, entry N, follows it.  The 2n entries are
    normalized once.  Seeds a caller passes go through
    :func:`validate_seeds`; the default seeds are valid by their angles and
    skip it."""
    if n < 2:
        raise ValueError("shift families need n >= 2")
    seeds = default_seeds(n) if seeds is None else validate_seeds(list(seeds), n)
    parties = 2 * n - 1
    book = _unit_rows(np.concatenate([_KET1[None], qubit_perp(seeds), seeds[::-1], _KET0[None]]))
    codes = np.array(firsts, dtype=np.int32)[:, None] - np.arange(parties, dtype=np.int32)
    codes %= parties
    return book, codes


def upb_shifts(n: int, seeds=None) -> StateSet:
    """|0...0> prepended to the shift family: a UPB with 2n states on 2n-1 qubits."""
    book, codes = _shift_codes(n, seeds, range(2 * n - 1))
    zero = np.full((1, codes.shape[1]), len(book) - 1, dtype=np.int32)
    return StateSet._from_codes(
        (2,) * (2 * n - 1), {2: book}, np.concatenate([zero, codes]), f"shift-upb-n{n}"
    )


def entangled_triple(parties: int = 3) -> StateSet:
    """GHZ+, GHZ-, and W on the given number of qubit parties.

    The three-qubit instance is the reference set; larger counts follow the
    same pattern and should be vetted with the stability checker rather than
    assumed stable.
    """
    if parties < 3:
        raise ValueError("the entangled triple needs at least 3 parties")
    dims = (2,) * parties
    total = 2**parties
    ghz_plus = np.zeros(total, dtype=complex)
    ghz_plus[0] = 1.0
    ghz_plus[-1] = 1.0
    ghz_minus = np.zeros(total, dtype=complex)
    ghz_minus[0] = 1.0
    ghz_minus[-1] = -1.0
    w_state = np.zeros(total, dtype=complex)
    for j in range(parties):
        w_state[1 << j] = 1.0
    states = [DenseState(v, dims) for v in (ghz_plus, ghz_minus, w_state)]
    return StateSet(dims, states, f"ghz-w-triple-{parties}q")


def upb_tiles33() -> StateSet:
    """The five-state Tiles UPB in 3x3, rational entries throughout."""
    e0 = np.array([1.0, 0.0, 0.0], dtype=complex)
    e2 = np.array([0.0, 0.0, 1.0], dtype=complex)
    d01 = np.array([1.0, -1.0, 0.0], dtype=complex)
    d12 = np.array([0.0, 1.0, -1.0], dtype=complex)
    flat = np.array([1.0, 1.0, 1.0], dtype=complex)
    states = [
        ProductState([e0, d01]),
        ProductState([e2, d12]),
        ProductState([d01, e2]),
        ProductState([d12, e0]),
        ProductState([flat, flat]),
    ]
    return StateSet((3, 3), states, "tiles-3x3")


def heptagon_qutrit_states(multipliers=(1, 2, 3)) -> StateSet:
    """Seven qutrit product states built from the heptagon vectors
    u_i = (cos(2*pi*i/7), sin(2*pi*i/7), h) with h = sqrt(-cos(4*pi/7)).

    Party p of state i carries u_{multipliers[p] * i mod 7}.  Two heptagon
    vectors are orthogonal exactly when their indices differ by +-2 mod 7,
    so multipliers (1, 2, 3) give each index difference to exactly one party
    and the family is mutually orthogonal; other multiplier choices can
    break orthogonality and exist for negative testing.
    """
    if len(multipliers) != 3:
        raise ValueError("expected three party multipliers")
    h = math.sqrt(-math.cos(4.0 * math.pi / 7.0))
    ring = [
        np.array(
            [math.cos(2.0 * math.pi * i / 7.0), math.sin(2.0 * math.pi * i / 7.0), h],
            dtype=complex,
        )
        for i in range(7)
    ]
    states = [
        ProductState([ring[(m * i) % 7] for m in multipliers]) for i in range(7)
    ]
    tag = "".join(str(m) for m in multipliers)
    return StateSet((3, 3, 3), states, f"heptagon-3x3x3-m{tag}")


def upb_sep333() -> StateSet:
    """The seven-state heptagon UPB in 3x3x3 (party multipliers 1, 2, 3)."""
    base = heptagon_qutrit_states((1, 2, 3))
    return StateSet(base.dims, base.states, "sep-3x3x3")


def upb_44_reducible() -> StateSet:
    """Tiles embedded into 4x4 plus the seven computational states touching
    index 3: a twelve-state UPB that is locally reducible, hence unstable."""
    def embed(factor):
        return np.concatenate([factor, [0.0]])

    states = [
        ProductState([embed(s.factors[0]), embed(s.factors[1])])
        for s in upb_tiles33()
    ]
    basis4 = np.eye(4, dtype=complex)
    for i in range(4):
        states.append(ProductState([basis4[i], basis4[3]]))
    for j in range(3):
        states.append(ProductState([basis4[3], basis4[j]]))
    return StateSet((4, 4), states, "tiles-4x4-reducible")


def _tensor_states(a, b):
    if isinstance(a, ProductState) and isinstance(b, ProductState):
        return ProductState(a.factors + b.factors)
    left = as_dense(a)
    right = as_dense(b)
    return DenseState(np.kron(left.amplitudes, right.amplitudes), a.dims + b.dims)


def compose(set1: StateSet, index1: int, set2: StateSet, index2: int) -> StateSet:
    """Join two sets on a shared anchor: anchor1 (x) every state of set2 plus
    every other state of set1 (x) anchor2, giving |S1| + |S2| - 1 states over
    the concatenated signature."""
    if not 0 <= index1 < len(set1):
        raise IndexError(f"index1={index1} out of range for size {len(set1)}")
    if not 0 <= index2 < len(set2):
        raise IndexError(f"index2={index2} out of range for size {len(set2)}")
    anchor1 = set1[index1]
    anchor2 = set2[index2]
    states = [_tensor_states(anchor1, s) for s in set2]
    states.extend(
        _tensor_states(s, anchor2) for pos, s in enumerate(set1) if pos != index1
    )
    return StateSet(
        set1.dims + set2.dims, states, f"compose({set1.label},{set2.label})"
    )


@dataclass(frozen=True)
class SqrtSubsetPlan:
    """Index plan for a 3*ceil(sqrt(N))-element shift-family subset.

    ``head`` is the initial run {0..2b+1}, ``chain`` walks toward N-1 at
    stride b (clipped so it stays strictly below N-1), and ``indices`` is
    the sorted union including N-1 itself.  Consecutive selected indices are
    never more than b apart around the cycle.
    """

    n: int
    parties: int
    block: int
    head: tuple[int, ...]
    chain: tuple[int, ...]
    indices: tuple[int, ...]


def sqrt_subset_plan(n: int) -> SqrtSubsetPlan:
    """The index plan alone, without building any states.

    The interior chain walks multiples of the block size but is clipped to
    ``parties - 1 - (block - k)`` so it never reaches N-1; that keeps the
    3*ceil(sqrt(N)) indices distinct for every N > 36 while agreeing with
    the plain multiples whenever those already fit.
    """
    parties = 2 * n - 1
    if parties <= 36:
        raise ValueError(
            f"needs N = 2n-1 > 36 parties (n >= 19); got n={n} with N={parties}"
        )
    block = math.isqrt(parties)
    block += block * block < parties
    head = tuple(range(2 * block + 2))
    chain = tuple(
        min(k * block, parties - 1 - (block - k)) for k in range(3, block)
    )
    indices = tuple(sorted(head + chain + (parties - 1,)))
    if len(indices) != 3 * block:
        raise AssertionError("selected indices collided; the plan is malformed")
    return SqrtSubsetPlan(n, parties, block, head, chain, indices)


def sqrt_subset(n: int, seeds=None):
    """Pick 3*ceil(sqrt(N)) states of shift_family(n), N = 2n-1 > 36, whose
    every party keeps at least two orthogonal factor pairs.

    Returns (plan, state_set); the plan indexes states by their first-party
    table entry, i.e. plan index t selects the state whose first factor is
    table entry t.
    """
    plan = sqrt_subset_plan(n)
    book, codes = _shift_codes(n, seeds, plan.indices)
    return plan, StateSet._from_codes((2,) * plan.parties, {2: book}, codes, f"sqrt-subset-n{n}")


@dataclass(frozen=True)
class TwoPairReport:
    """Per-shift counts of complementary index pairs {x, N-x}, x != 0."""

    parties: int
    counts: tuple[int, ...]
    minimum: int
    ok: bool


def verify_two_pairs(plan, parties=None) -> TwoPairReport:
    """Check that every cyclic shift of the selected index set keeps at least
    two unordered complementary pairs {x, N-x} with x != 0.

    Accepts a :class:`SqrtSubsetPlan`, whose ``parties`` a given
    ``parties`` must equal, or a raw index iterable plus ``parties``, the
    cycle length N >= 1; shifted entries being orthogonal
    is exactly the complementary-pair condition on the shift-family table.
    Shift s keeps {t - s, t' - s} exactly when t + t' = 2s mod N, so the
    count of shift s is the number of unordered index pairs {t, t'},
    t != t', with that sum.
    """
    if isinstance(plan, SqrtSubsetPlan):
        if parties is not None and parties != plan.parties:
            raise ValueError(f"parties={parties} disagrees with the plan's {plan.parties} parties")
        indices, cycle = set(plan.indices), plan.parties
    else:
        if parties is None:
            raise ValueError("parties is required for a raw index set")
        cycle = int(parties)
        if cycle < 1:
            raise ValueError(f"parties must be at least 1, got {parties}")
        indices = {int(t) % cycle for t in plan}
    chosen = np.array(sorted(indices), dtype=np.int64)
    j, k = np.triu_indices(len(chosen), 1)
    sums = np.bincount((chosen[j] + chosen[k]) % cycle, minlength=cycle)
    counts = sums[2 * np.arange(cycle) % cycle].tolist()
    minimum = min(counts)
    return TwoPairReport(cycle, tuple(counts), minimum, minimum >= 2)


@dataclass(frozen=True)
class CampaignReport:
    """Outcome of a stability sweep over the k-subsets of one set."""

    set_label: str
    subset_size: int
    total_subsets: int
    checked: int
    sampled: bool
    stable: int
    unstable: int
    unstable_subsets: tuple[tuple[int, ...], ...]

    def to_dict(self) -> dict:
        return {
            "set_label": self.set_label,
            "subset_size": self.subset_size,
            "total_subsets": self.total_subsets,
            "checked": self.checked,
            "sampled": self.sampled,
            "stable": self.stable,
            "unstable": self.unstable,
            "unstable_subsets": [list(c) for c in self.unstable_subsets],
        }


def _sample_combos(size: int, k: int, draws: int, rng_seed: int) -> list:
    """The distinct k-subsets of range(size) among ``draws`` seeded uniform
    draws, as ascending index tuples in sorted order.

    Each draw keeps the k smallest of ``size`` uniform keys, so every
    k-subset is equally likely.  Keys are drawn in chunks of at most
    _DRAW_KEYS; the generator yields the same keys for any chunking.
    """
    rng = np.random.default_rng(rng_seed)
    per = max(1, _DRAW_KEYS // size)
    picked = [np.empty((0, k), dtype=np.intp)] + [
        np.argpartition(rng.random((min(per, draws - start), size)), k - 1, axis=1)[:, :k]
        for start in range(0, draws, per)
    ]
    rows = np.sort(np.concatenate(picked), axis=1)
    return list(map(tuple, np.unique(rows, axis=0).tolist()))


def subset_campaign(
    state_set: StateSet,
    k: int,
    tol: Tolerance = DEFAULT_TOL,
    sample_threshold: int = 10**6,
    sample_size: int = 10**4,
    rng_seed: int = 0,
) -> CampaignReport:
    """Certify every k-subset of ``state_set``; each verdict is that of
    :func:`~locstab.stability.is_locally_stable` on the subset.

    The set is checked and spanned once, by the certificate's own pass (the
    factor zero pattern of an all-product set, the amplitude vectors
    otherwise): a subset's generators are the parent's on the pairs with
    both states in the subset, and each party's span ranks are shared by
    subsets that keep the same pairs.  A subset holding a non-orthogonal
    pair raises :class:`~locstab.stability.OrthogonalityError` with that
    subset's indices, at the first such subset in order; a non-orthogonal
    set with no such subset (k = 1, or a sample that draws none) still gets
    its report.  A set with dense members judges its all-product subsets by
    the amplitude rule too.

    When the subset count exceeds ``sample_threshold`` the distinct subsets
    among ``sample_size`` seeded uniform draws are checked instead, in
    sorted order, and the report is marked as sampled; a sample of no draws
    raises ValueError.  Unstable subsets are returned as sorted index tuples
    (capped at 1000 witnesses).
    """
    size = len(state_set)
    if not 1 <= k <= size:
        raise ValueError(f"k={k} out of range for a set of {size} states")
    total = math.comb(size, k)
    if total > sample_threshold:
        if sample_size < 1:
            raise ValueError(f"sample size {sample_size} draws no subset; it must be >= 1")
        combos = _sample_combos(size, k, sample_size, rng_seed)
        sampled = True
    else:
        combos = itertools.combinations(range(size), k)
        sampled = False

    stable = 0
    unstable = 0
    witnesses = []
    for combo, verdict in _subset_verdicts(state_set, combos, tol):
        if verdict:
            stable += 1
        else:
            unstable += 1
            if len(witnesses) < 1000:
                witnesses.append(tuple(combo))
    return CampaignReport(
        set_label=state_set.label,
        subset_size=k,
        total_subsets=total,
        checked=stable + unstable,
        sampled=sampled,
        stable=stable,
        unstable=unstable,
        unstable_subsets=tuple(witnesses),
    )
