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
from dataclasses import dataclass

import numpy as np

from .numerics import DEFAULT_TOL, Tolerance, vec_inner
from .stability import is_locally_stable
from .states import DenseState, ProductState, StateSet, as_dense

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

_KET0 = np.array([1.0, 0.0], dtype=complex)
_KET1 = np.array([0.0, 1.0], dtype=complex)
_PLUS = np.array([1.0, 1.0], dtype=complex)
_MINUS = np.array([1.0, -1.0], dtype=complex)


def qubit_perp(vec) -> np.ndarray:
    """The orthogonal direction of a qubit state: (a, b) -> (conj b, -conj a)."""
    arr = np.asarray(vec, dtype=complex)
    if arr.shape != (2,):
        raise ValueError("qubit_perp expects a 2-entry vector")
    return np.array([np.conj(arr[1]), -np.conj(arr[0])])


def default_seeds(n: int):
    """n-1 planar qubit states at angles i*pi/(2n), i = 1..n-1.

    Pairwise angles stay strictly inside (0, pi/2), so no two seeds are
    orthogonal or parallel and every seed is tilted away from both poles.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    return [
        np.array([math.cos(theta), math.sin(theta)], dtype=complex)
        for theta in (i * math.pi / (2 * n) for i in range(1, n))
    ]


def validate_seeds(seeds, n: int, tol: Tolerance = DEFAULT_TOL):
    """Normalize and vet the n-1 shift-family seeds.

    Every seed must be neither orthogonal nor parallel to |0>, and no two
    seeds may be mutually orthogonal or parallel; violations name the seed.
    """
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
    lo, hi = tol.orth_abs, 1.0 - tol.orth_abs
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


def _local_state_table(n: int, seeds):
    """The length-(2n-1) cyclic table m -> local state.

    Index 0 maps to |1>, indices 1..n-1 to the seed perps, and N-i to seed i,
    so two table entries are orthogonal exactly when their nonzero indices
    sum to 0 mod N.
    """
    table = [_KET1]
    table.extend(qubit_perp(seed) for seed in seeds)
    table.extend(seeds[n - 2 - i] for i in range(n - 1))
    return table


def upb_qubit3() -> StateSet:
    """The four-state UPB |000>, |+-1>, |1+->, |-1+> on three qubits."""
    states = [
        ProductState([_KET0, _KET0, _KET0]),
        ProductState([_PLUS, _MINUS, _KET1]),
        ProductState([_KET1, _PLUS, _MINUS]),
        ProductState([_MINUS, _KET1, _PLUS]),
    ]
    return StateSet((2, 2, 2), states, "qubit3-upb")


def shift_family(n: int, seeds=None, tol: Tolerance = DEFAULT_TOL) -> StateSet:
    """The N = 2n-1 cyclic right shifts of |1>|s_1>..|s_{n-1}>|s_{n-1}^perp>..|s_1^perp>
    on N qubits.

    State t (t = 1..N) carries table entry (t - r) mod N at party r, so its
    first factor determines the whole state.  Every unordered state pair is
    orthogonal in exactly one party and every party sees exactly n-1
    orthogonal factor pairs.
    """
    if n < 2:
        raise ValueError("shift families need n >= 2")
    seeds = default_seeds(n) if seeds is None else list(seeds)
    seeds = validate_seeds(seeds, n, tol)
    parties = 2 * n - 1
    table = _local_state_table(n, seeds)
    states = [
        ProductState([table[(t - r) % parties] for r in range(1, parties + 1)])
        for t in range(1, parties + 1)
    ]
    return StateSet((2,) * parties, states, f"shift-family-n{n}")


def upb_shifts(n: int, seeds=None, tol: Tolerance = DEFAULT_TOL) -> StateSet:
    """|0...0> prepended to the shift family: a UPB with 2n states on 2n-1 qubits."""
    family = shift_family(n, seeds, tol)
    zero = ProductState([_KET0] * len(family.dims))
    return StateSet(family.dims, (zero,) + family.states, f"shift-upb-n{n}")


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


def sqrt_subset(n: int, seeds=None, tol: Tolerance = DEFAULT_TOL):
    """Pick 3*ceil(sqrt(N)) states of shift_family(n), N = 2n-1 > 36, whose
    every party keeps at least two orthogonal factor pairs.

    Returns (plan, state_set); the plan indexes states by their first-party
    table entry, i.e. plan index t selects the state whose first factor is
    table entry t.
    """
    plan = sqrt_subset_plan(n)
    family = shift_family(n, seeds, tol)
    states = [family[t] for t in plan.indices]
    return plan, StateSet(family.dims, states, f"sqrt-subset-n{n}")


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

    Accepts a :class:`SqrtSubsetPlan` or a raw index iterable plus
    ``parties``; shifted entries being orthogonal is exactly the
    complementary-pair condition on the shift-family table.
    """
    if isinstance(plan, SqrtSubsetPlan):
        indices, cycle = set(plan.indices), plan.parties
    else:
        if parties is None:
            raise ValueError("parties is required for a raw index set")
        indices, cycle = {int(t) % int(parties) for t in plan}, int(parties)
    counts = []
    for shift in range(cycle):
        shifted = {(t - shift) % cycle for t in indices}
        count = sum(
            1 for x in shifted if x != 0 and x < cycle - x and (cycle - x) in shifted
        )
        counts.append(count)
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


def subset_campaign(
    state_set: StateSet,
    k: int,
    tol: Tolerance = DEFAULT_TOL,
    sample_threshold: int = 10**6,
    sample_size: int = 10**4,
    rng_seed: int = 0,
) -> CampaignReport:
    """Certify every k-subset of ``state_set`` (orthogonal subsets inherit
    orthogonality, so no subset can error out).

    When the subset count exceeds ``sample_threshold`` a seeded random sample
    of about ``sample_size`` distinct subsets is checked instead and the
    report is marked as sampled.  Unstable subsets are returned as sorted
    index tuples (capped at 1000 witnesses).
    """
    size = len(state_set)
    if not 1 <= k <= size:
        raise ValueError(f"k={k} out of range for a set of {size} states")
    total = math.comb(size, k)
    if total > sample_threshold:
        rng = np.random.default_rng(rng_seed)
        picked = {
            tuple(sorted(rng.choice(size, size=k, replace=False).tolist()))
            for _ in range(sample_size)
        }
        combos = sorted(picked)
        sampled = True
    else:
        combos = itertools.combinations(range(size), k)
        sampled = False

    stable = 0
    unstable = 0
    witnesses = []
    checked = 0
    for combo in combos:
        checked += 1
        certificate = is_locally_stable(state_set.subset(combo), tol)
        if certificate.stable:
            stable += 1
        else:
            unstable += 1
            if len(witnesses) < 1000:
                witnesses.append(tuple(combo))
    return CampaignReport(
        set_label=state_set.label,
        subset_size=k,
        total_subsets=total,
        checked=checked,
        sampled=sampled,
        stable=stable,
        unstable=unstable,
        unstable_subsets=tuple(witnesses),
    )
