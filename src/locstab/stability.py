"""Local-stability certification.

For each party the states induce a span of operators on that party's space:
for all-product sets one rank-1 outer product per conflict pair (a pair of
states whose factors on every *other* party still overlap), and for general
sets the blockwise pair contractions of the dense amplitudes.  A party is
stable when that span fills the full traceless operator space, i.e. reaches
dimension d**2 - 1; the set is locally stable when every party is.

The module also carries the counting facts that bound the size of a stable
set, closed-form upper bounds for qubit and qutrit systems, and a see-saw
search for product states in a set's orthogonal complement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import DEFAULT_TOL, Tolerance, span_rank
from .states import (
    FactorZeroPattern,
    ProductState,
    StateSet,
    _offending_pairs,
    _party_blocks,
    _span_source,
    as_dense,
    check_mutual_orthogonality,
    check_signature,
)

__all__ = [
    "OrthogonalityError",
    "ConflictSet",
    "PartyRecord",
    "StabilityCertificate",
    "ConflictAudit",
    "BoundReport",
    "conflict_set",
    "span_generators",
    "party_stable",
    "is_locally_stable",
    "conflict_audit",
    "cardinality_lower_bound",
    "cardinality_upper_bounds",
    "complement_product_search",
]

# See-saw memory scales like parties * states * total dimension.
_SEARCH_DENSE_LIMIT = 1 << 20


class OrthogonalityError(ValueError):
    """The input set is not mutually orthogonal; carries the offending pairs."""

    def __init__(self, pairs):
        self.pairs = tuple(pairs)
        shown = ", ".join(f"({j},{k})" for j, k, _ in self.pairs[:6])
        suffix = ", ..." if len(self.pairs) > 6 else ""
        super().__init__(
            f"state set is not mutually orthogonal; offending pairs: {shown}{suffix}"
        )


@dataclass(frozen=True)
class ConflictSet:
    """Ordered state pairs (j, k) whose factors vanish at ``party`` and at no
    other party, so they overlap everywhere else.

    ``smallest_magnitude`` records the smallest admitted rest inner product,
    so borderline admissions stay visible.
    """

    party: int
    pairs: tuple[tuple[int, int], ...]
    smallest_magnitude: float | None


@dataclass(frozen=True)
class PartyRecord:
    party: int
    span_dim: int
    required: int
    stable: bool
    conflict_pairs: tuple[tuple[int, int], ...] | None = None
    smallest_conflict_magnitude: float | None = None


@dataclass(frozen=True)
class StabilityCertificate:
    """Per-party span verdicts plus the overall conjunction."""

    label: str
    tolerance: Tolerance
    parties: tuple[PartyRecord, ...]
    stable: bool

    def to_dict(self) -> dict:
        parties = []
        for rec in self.parties:
            entry = {
                "party": rec.party,
                "span_dim": rec.span_dim,
                "required": rec.required,
                "stable": rec.stable,
            }
            if rec.conflict_pairs is not None:
                entry["conflict_pairs"] = [list(p) for p in rec.conflict_pairs]
                entry["smallest_conflict_magnitude"] = rec.smallest_conflict_magnitude
            parties.append(entry)
        return {
            "label": self.label,
            "tolerance": {
                "rank_rel": self.tolerance.rank_rel,
                "orth_abs": self.tolerance.orth_abs,
            },
            "parties": parties,
            "stable": self.stable,
        }


def _require_all_product(state_set, operation):
    if not state_set.all_product:
        raise ValueError(
            f"{operation} needs an all-product set; dense members go through "
            "the general span path (span_generators / is_locally_stable)"
        )


def _require_party(state_set, party):
    parties = len(state_set.dims)
    if not 0 <= party < parties:
        raise IndexError(f"party {party} out of range for {parties} parties")


def _party_conflicts(pattern, party):
    """Conflict pairs of one party and the smallest admitted magnitude.

    Pair (j, k) conflicts at ``party`` when its factors vanish there and
    nowhere else.  The pairs come as an (m, 2) array, j outer and k inner;
    the magnitude is |<a_k|a_j>| over the other parties.
    """
    pairs = np.argwhere(pattern.zeros[party] & (pattern.zero_count == 1))
    if not len(pairs):
        return pairs, None
    rest = pattern.nonzero_product[pairs[:, 1], pairs[:, 0]]
    return pairs, float(np.abs(rest).min())


def _product_generators(factors, pairs):
    """|a_j><a_k| for every pair (j, k), as one (m, d, d) array."""
    return factors[pairs[:, 0], :, None] * factors[pairs[:, 1], None, :].conj()


def _pair_tuples(pairs):
    return tuple(map(tuple, pairs.tolist()))


def _party_span(state_set, party, tol, source=None):
    """One party's span generators as an (m, d, d) array, with its conflict
    pairs and their smallest rest magnitude.

    ``source`` is the set's :func:`~locstab.states._span_source` when the
    caller already holds it.  A factor zero pattern contributes |a_j><a_k|
    for each conflict pair; a dense stack contributes the block contraction
    of every ordered pair (j outer, k inner) whose norm reaches
    ``tol.orth_abs``, and has no conflict pairs (None) and no magnitude (None).
    """
    if source is None:
        source = _span_source(state_set, tol)
    if isinstance(source, FactorZeroPattern):
        pairs, smallest = _party_conflicts(source, party)
        generators = _product_generators(source.factors[party], pairs)
        return generators, _pair_tuples(pairs), smallest
    blocks = _party_blocks(source, state_set.dims, party)
    # contractions[j, k] = blocks[j].T @ blocks[k].conj()
    contractions = np.swapaxes(blocks, 1, 2)[:, None] @ blocks.conj()[None, :]
    keep = np.linalg.norm(contractions, axis=(2, 3)) >= tol.orth_abs
    np.fill_diagonal(keep, False)
    return contractions[keep], None, None


def conflict_set(state_set: StateSet, party: int, tol: Tolerance = DEFAULT_TOL) -> ConflictSet:
    """The conflict set of an all-product set at one party: the ordered pairs
    whose factors vanish at ``party`` and at no other party."""
    _require_all_product(state_set, "conflict_set")
    _require_party(state_set, party)
    _, pairs, smallest = _party_span(state_set, party, tol)
    return ConflictSet(party, pairs, smallest)


def span_generators(state_set: StateSet, party: int, tol: Tolerance = DEFAULT_TOL):
    """Generator matrices of one party's operator span, as a list.

    All-product sets contribute the factor outer product of each conflict
    pair; otherwise every ordered state pair contributes the contraction of
    its one-party blocks, dropping matrices of negligible norm.
    """
    _require_party(state_set, party)
    generators, _, _ = _party_span(state_set, party, tol)
    return list(generators)


def party_stable(state_set: StateSet, party: int, tol: Tolerance = DEFAULT_TOL):
    """(stable, span_dim) for one party: stable iff span_dim == d**2 - 1."""
    _require_party(state_set, party)
    generators, _, _ = _party_span(state_set, party, tol)
    dim = span_rank(generators, tol)
    return dim == state_set.dims[party] ** 2 - 1, dim


def is_locally_stable(state_set: StateSet, tol: Tolerance = DEFAULT_TOL) -> StabilityCertificate:
    """Certify the span criterion at every party of a mutually orthogonal set.

    Raises :class:`OrthogonalityError` when the input is not orthogonal.
    Product sets are checked and certified from one factor zero pattern and
    additionally record their conflict pairs per party.
    """
    if not len(state_set):
        raise ValueError("cannot check an empty state set")
    source = _span_source(state_set, tol)
    offending = _offending_pairs(source, tol)
    if offending:
        raise OrthogonalityError(offending)

    records = []
    for party, d in enumerate(state_set.dims):
        generators, pairs, smallest = _party_span(state_set, party, tol, source)
        dim = span_rank(generators, tol)
        required = d * d - 1
        records.append(PartyRecord(party, dim, required, dim == required, pairs, smallest))
    return StabilityCertificate(
        state_set.label, tol, tuple(records), all(r.stable for r in records)
    )


@dataclass(frozen=True)
class ConflictAudit:
    """Counting facts behind the size lower bound for product sets.

    Conflict sets across parties must be disjoint as unordered pairs, each
    must cover its party's span dimension, and a stable set of size l must
    satisfy l(l-1) >= sum_i (d_i**2 - 1).
    """

    disjoint: bool
    shared_pairs: tuple[tuple[tuple[int, int], tuple[int, ...]], ...]
    conflict_counts: tuple[int, ...]
    span_dims: tuple[int, ...]
    counts_cover_span: bool
    set_size: int
    pair_budget: int
    required_span_total: int
    stable: bool
    size_bound_ok: bool | None

    def to_dict(self) -> dict:
        return {
            "disjoint": self.disjoint,
            "shared_pairs": [
                {"pair": list(pair), "parties": list(parties)}
                for pair, parties in self.shared_pairs
            ],
            "conflict_counts": list(self.conflict_counts),
            "span_dims": list(self.span_dims),
            "counts_cover_span": self.counts_cover_span,
            "set_size": self.set_size,
            "pair_budget": self.pair_budget,
            "required_span_total": self.required_span_total,
            "stable": self.stable,
            "size_bound_ok": self.size_bound_ok,
        }


def conflict_audit(
    state_set: StateSet,
    tol: Tolerance = DEFAULT_TOL,
    certificate: StabilityCertificate | None = None,
) -> ConflictAudit:
    """Audit the conflict-set counting facts of an all-product orthogonal set.

    ``certificate`` is the set's certificate from :func:`is_locally_stable`
    at ``tol`` when the caller already holds it; otherwise the set is
    certified here.
    """
    _require_all_product(state_set, "conflict_audit")
    if certificate is None:
        certificate = is_locally_stable(state_set, tol)
    elif len(certificate.parties) != len(state_set.dims):
        raise ValueError("the certificate does not match the state set's parties")

    attribution: dict[tuple[int, int], list[int]] = {}
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
    span_dims = tuple(r.span_dim for r in certificate.parties)
    size = len(state_set)
    required_total = sum(r.required for r in certificate.parties)
    return ConflictAudit(
        disjoint=not shared,
        shared_pairs=shared,
        conflict_counts=tuple(counts),
        span_dims=span_dims,
        counts_cover_span=all(c >= s for c, s in zip(counts, span_dims)),
        set_size=size,
        pair_budget=size * (size - 1),
        required_span_total=required_total,
        stable=certificate.stable,
        size_bound_ok=(size * (size - 1) >= required_total)
        if certificate.stable
        else None,
    )


@dataclass(frozen=True)
class BoundReport:
    """Size bounds for locally stable product sets over one signature."""

    dims: tuple[int, ...]
    required_span_total: int
    min_size: int
    closed_form: float
    trivial_upb_bound: int


def cardinality_lower_bound(dims) -> BoundReport:
    """The least l with l(l-1) >= sum_i (d_i**2 - 1), the printed closed form
    (-1 + sqrt(1 + 4D))/2, and the trivial UPB size floor 1 + sum_i (d_i - 1)."""
    dims = check_signature(dims)
    total = sum(d * d - 1 for d in dims)
    size = max(1, math.isqrt(total))
    while size * (size - 1) < total:
        size += 1
    while size > 1 and (size - 1) * (size - 2) >= total:
        size -= 1
    return BoundReport(
        dims=dims,
        required_span_total=total,
        min_size=size,
        closed_form=(-1.0 + math.sqrt(1.0 + 4.0 * total)) / 2.0,
        trivial_upb_bound=1 + sum(d - 1 for d in dims),
    )


def qutrit_composition_parts(n: int) -> tuple[int, int]:
    """Split n qutrit parties as n = 2x + 3y maximizing y; returns (x, y)."""
    if n < 2:
        raise ValueError("qutrit compositions need n >= 2 parties")
    for y in range(n // 3, -1, -1):
        if (n - 3 * y) % 2 == 0:
            return (n - 3 * y) // 2, y
    raise ValueError(f"no composition split for n={n}")


def cardinality_upper_bounds(n: int, kind: str) -> int:
    """Closed-form upper bounds on the minimum stable-set size.

    kinds:
      ``qubit_upb``          n + 1 over n >= 5 qubit parties.
      ``qubit_subset``       (n+1)/2 + 2 for odd n >= 5, n/2 + 4 for even n >= 10.
      ``qubit_sqrt``         3 * ceil(sqrt(n)) for an odd qubit count n > 36.
      ``qutrit_composition`` the attained composition size 2n - y + 1 with
                             n = 2x + 3y and y maximal, for n >= 2 qutrits.
    """
    n = int(n)
    if kind == "qubit_upb":
        if n < 5:
            raise ValueError("qubit_upb needs n >= 5 qubit parties")
        return n + 1
    if kind == "qubit_subset":
        if n >= 5 and n % 2 == 1:
            return (n + 1) // 2 + 2
        if n >= 10 and n % 2 == 0:
            return n // 2 + 4
        raise ValueError("qubit_subset needs odd n >= 5 or even n >= 10")
    if kind == "qubit_sqrt":
        if n <= 36 or n % 2 == 0:
            raise ValueError("qubit_sqrt needs an odd qubit count above 36")
        root = math.isqrt(n)
        root += root * root < n
        return 3 * root
    if kind == "qutrit_composition":
        x, y = qutrit_composition_parts(n)
        return 5 * x + 6 * y - (x + y - 1)
    raise ValueError(f"unknown bound kind {kind!r}")


def _kron_except(factors, skip=None):
    out = np.ones(1, dtype=complex)
    for r, factor in enumerate(factors):
        if r != skip:
            out = np.kron(out, factor)
    return out


def complement_product_search(
    state_set: StateSet,
    restarts: int = 50,
    iters: int = 200,
    rng_seed: int = 0,
    tol: Tolerance = DEFAULT_TOL,
):
    """See-saw maximization of a product state's overlap with the orthogonal
    complement of span(state_set).

    Each restart draws uniformly random unit factors, then sweeps the
    parties: with all other factors fixed, the factor of one party is set to
    the top eigenvector of its induced local operator, which can only raise
    the overlap.  Restarts use independent substreams spawned from
    ``rng_seed``, so results are reproducible.  Returns the best
    (overlap, ProductState) across restarts; an overlap of 1 means a product
    state was found inside the complement.
    """
    offending = check_mutual_orthogonality(state_set, tol)
    if offending:
        raise OrthogonalityError(offending)
    dims = state_set.dims
    total = state_set.total_dimension
    if total > _SEARCH_DENSE_LIMIT:
        raise ValueError(
            f"total dimension {total} exceeds the search limit {_SEARCH_DENSE_LIMIT}"
        )
    size = len(state_set)
    if size >= total:
        raise ValueError("the set already spans the full space; complement is empty")
    if restarts < 1 or iters < 1:
        raise ValueError("restarts and iters must be positive")

    dense = np.stack([as_dense(s).amplitudes for s in state_set.states])
    parties = len(dims)
    # blocks[i][k] has shape (d_rest, d_i): state k split at party i.
    blocks = [_party_blocks(dense, dims, i) for i in range(parties)]

    best_overlap = -math.inf
    best_factors = None
    for stream in np.random.SeedSequence(rng_seed).spawn(restarts):
        rng = np.random.default_rng(stream)
        factors = []
        for d in dims:
            vec = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            factors.append(vec / np.linalg.norm(vec))
        previous = -math.inf
        for _ in range(iters):
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
        if overlap > best_overlap:
            best_overlap = overlap
            best_factors = [f.copy() for f in factors]
    return best_overlap, ProductState(best_factors)
