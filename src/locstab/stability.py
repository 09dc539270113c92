"""Local-stability certification.

For each party the states induce a span of operators on that party's space:
for all-product sets one rank-1 outer product per conflict pair (a pair of
states whose factors on every *other* party still overlap), and for general
sets the blockwise pair contractions of the dense amplitudes.  A party is
stable when that span fills the full traceless operator space, i.e. reaches
dimension d**2 - 1; the set is locally stable when every party is.

The module also carries the counting facts that bound the size of a stable
set, closed-form upper bounds for qubit and qutrit systems, and the exact
decision whether a set's orthogonal complement holds a product state: the
partition test for product sets, the dimension count for small sets, and a
see-saw search whose witnesses are checked before they count.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .numerics import DEFAULT_TOL, Tolerance, _orthonormal_rows
from .states import (
    FactorZeroPattern,
    ProductState,
    StateSet,
    _offending_pairs,
    _party_blocks,
    _rowwise_kron,
    _span_source,
    as_dense,
    check_signature,
    factorize,
)

__all__ = [
    "OrthogonalityError",
    "PartyRecord",
    "StabilityCertificate",
    "ConflictAudit",
    "BoundReport",
    "span_generators",
    "is_locally_stable",
    "conflict_audit",
    "cardinality_lower_bound",
    "cardinality_upper_bounds",
    "ExtensionReport",
    "SearchReport",
    "decide_extension",
]

# See-saw memory scales like (parties * states + restarts) * total dimension:
# one (D/d_i, l*d_i) contraction matrix per party, plus the restarts' rest
# vectors and final product states.
_SEARCH_DENSE_LIMIT = 1 << 20

# Subsets a campaign certifies together: bounds the (block, l) membership
# and (block, m) kept-row masks, and the distinct masks ranked per block.
_SUBSET_BLOCK = 512

# Complex entries in one zero-padded (sets, rows, d*d) stack handed to the
# rank kernel; a row set larger than this is ranked on its own.
_RANK_BUDGET = 1 << 13

# (d - 1)-subsets of one party's factors whose hyperplanes the partition test
# enumerates; a party with more is searched as if any group fitted in one
# hyperplane, and its groups are ranked at the leaves.
_HYPERPLANE_SUBSETS = 1 << 14

# States placed by the partition test's search before it reports "undecided".
_EXTENSION_NODES = 1 << 16


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
class PartyRecord:
    """One party's span dimension against d**2 - 1 and, for all-product sets,
    its conflict pairs (j, k): the pairs whose factor overlap falls below
    ``orth_abs`` here and at no other party, each factor decided on its own."""
    party: int
    span_dim: int
    required: int
    stable: bool
    conflict_pairs: tuple[tuple[int, int], ...] | None = None


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


def _party_spans(state_set, source, tol):
    """Yield each party's span generators as an (m, d, d) array, with the
    (m, 2) array of the ordered pairs (j, k) they come from, j outer and k
    inner, in party order.

    ``source`` is the set's :func:`~locstab.states._span_source`.  A factor
    zero pattern contributes |a_j><a_k| for each conflict pair; amplitude
    vectors contribute the block contraction of every ordered pair whose
    norm reaches ``tol.orth_abs``.  Each generator depends on its own pair
    alone, so a subset's generators are its parent's on the pairs inside it.
    """
    if isinstance(source, FactorZeroPattern):
        for factors, pairs in zip(source.factors, source.conflict_pairs):
            yield factors[pairs[:, 0], :, None] * factors[pairs[:, 1], None, :].conj(), pairs
        return
    amplitudes = np.stack(source)
    size = len(amplitudes)
    for party, d in enumerate(state_set.dims):
        split = _party_blocks(amplitudes, state_set.dims, party)
        # contractions[j, k] is the (d, d) block (j, k) of the split's Gram
        contractions = (split.T @ split.conj()).reshape(size, d, size, d).swapaxes(1, 2)
        keep = np.linalg.norm(contractions, axis=(2, 3)) >= tol.orth_abs
        np.fill_diagonal(keep, False)
        yield contractions[keep], np.argwhere(keep)


def span_generators(state_set: StateSet, tol: Tolerance = DEFAULT_TOL):
    """Generator matrices of every party's operator span: a tuple with one
    (m_i, d_i, d_i) array per party, from one pass over the set.

    All-product sets contribute the factor outer product of each conflict
    pair; otherwise every ordered state pair contributes the contraction of
    its one-party blocks, dropping matrices of negligible norm.
    """
    source = _span_source(state_set, tol)
    return tuple(generators for generators, _ in _party_spans(state_set, source, tol))


def _checked_source(state_set: StateSet, tol: Tolerance, complement: bool = False):
    """The :func:`~locstab.states._span_source` of ``state_set`` once it is
    checked: ValueError for an empty set, :class:`OrthogonalityError` for a
    non-orthogonal one (the factor zero pattern decides for an all-product
    set, the full inner products otherwise), and, with ``complement``,
    ValueError for a set whose orthogonal complement is empty."""
    if not len(state_set):
        raise ValueError("cannot check an empty state set")
    source = _span_source(state_set, tol)
    offending = _offending_pairs(source, tol)
    if offending:
        raise OrthogonalityError(offending)
    if complement and len(state_set) >= state_set.total_dimension:
        raise ValueError("the set already spans the full space; complement is empty")
    return source


def is_locally_stable(state_set: StateSet, tol: Tolerance = DEFAULT_TOL) -> StabilityCertificate:
    """Certify the span criterion at every party of a mutually orthogonal set.

    Raises :class:`OrthogonalityError` when the input is not orthogonal.
    Product sets are checked and certified from one factor zero pattern and
    additionally record their conflict pairs per party.  The generators of
    parties with one local dimension are ranked together, in stacks of at
    most _RANK_BUDGET entries.
    """
    source = _checked_source(state_set, tol)
    spans = zip(state_set.dims, _party_spans(state_set, source, tol))
    ranks = _stacked_ranks((g.reshape(len(g), d * d) for d, (g, _) in spans), tol)
    conflicts = [None] * len(state_set.dims)
    if isinstance(source, FactorZeroPattern):
        conflicts = [tuple(map(tuple, pairs.tolist())) for pairs in source.conflict_pairs]
    records = [
        PartyRecord(party, dim, d * d - 1, dim == d * d - 1, pairs)
        for party, (d, dim, pairs) in enumerate(zip(state_set.dims, ranks, conflicts))
    ]
    return StabilityCertificate(
        state_set.label, tol, tuple(records), all(r.stable for r in records)
    )


def _stacked_ranks(row_sets, tol):
    """Span ranks of an iterable of (m, n) row sets, in order.

    Sets of one width n wait in a group that is ranked as one zero-padded
    (sets, tallest m, n) stack, with one kernel call, once the next set
    would push it past _RANK_BUDGET entries, and at the end; so at most one
    group per width is held at a time.
    """
    ranks = []
    pending = {}  # width -> [positions, row sets, tallest]

    def flush(width):
        positions, sets, tallest = pending.pop(width)
        stack = np.zeros((len(sets), tallest, width), dtype=complex)
        for slot, rows in zip(stack, sets):
            slot[:len(rows)] = rows
        for position, rank in zip(positions, _orthonormal_rows(stack, tol.rank_rel)[1].tolist()):
            ranks[position] = rank

    for position, rows in enumerate(row_sets):
        ranks.append(None)
        width = rows.shape[1]
        group = pending.get(width)
        if group and (len(group[1]) + 1) * max(group[2], len(rows)) * width > _RANK_BUDGET:
            flush(width)
        group = pending.setdefault(width, [[], [], 0])
        group[0].append(position)
        group[1].append(rows)
        group[2] = max(group[2], len(rows))
    for width in list(pending):
        flush(width)
    return ranks


def _distinct_masks(kept):
    """The distinct rows of a 2-D boolean array and the index of each row's
    distinct row, as ``np.unique(kept, axis=0, return_inverse=True)`` gives
    them up to order, keyed by one packed byte string per row."""
    if not kept.shape[1]:
        return kept[:1], np.zeros(len(kept), dtype=np.intp)
    packed = np.ascontiguousarray(np.packbits(kept, axis=1))
    keys = packed.view(np.dtype((np.void, packed.shape[1])))[:, 0]
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return kept[first], inverse


def _masked_ranks(rows, masks, tol):
    """Span rank of ``rows[mask]`` for every row of a (U, m) boolean array,
    from zero-masked copies of the (m, n) rows, ranked in stacks of at most
    _RANK_BUDGET entries."""
    per = max(1, _RANK_BUDGET // max(rows.size, 1))
    return np.concatenate([
        _orthonormal_rows(np.where(masks[start:start + per, :, None], rows, 0), tol.rank_rel)[1]
        for start in range(0, len(masks), per)
    ])


def _subset_verdicts(state_set: StateSet, combos, tol: Tolerance):
    """Yield (combo, stable) for every ascending index tuple of ``combos``,
    each verdict that of ``is_locally_stable(state_set.subset(combo), tol)``.

    Overlaps and span generators each depend on one pair alone, so a
    subset's non-orthogonal pairs, generator pairs and generator rows are
    its parent's restricted to pairs with both states in the subset, in the
    parent's order, and the rank kernel sees the rows it would see on the
    subset, between zero rows that never pivot.  The parent is checked and
    spanned once, by its own rule, so a set with dense members applies the
    amplitude rule also to its subsets of product members, where the factor
    rule would differ only on pairs the tolerances decide.  Per block of
    combos and per party, the distinct kept-row masks are ranked together,
    each once; a subset skips the block's later parties after its first
    party short of d**2 - 1.
    """
    combos = iter(combos)
    source = _span_source(state_set, tol)
    offending = _offending_pairs(source, tol)
    bad = np.array([pair[:2] for pair in offending], dtype=np.int64).reshape(-1, 2)
    parties = [
        (pairs, generators.reshape(len(pairs), d * d), d * d - 1)
        for d, (generators, pairs) in zip(state_set.dims, _party_spans(state_set, source, tol))
    ]

    while block := list(itertools.islice(combos, _SUBSET_BLOCK)):
        member = np.zeros((len(block), len(state_set)), dtype=bool)
        np.put_along_axis(member, np.array(block), True, axis=1)
        hits = (member[:, bad[:, 0]] & member[:, bad[:, 1]]).any(axis=1)
        if hits.any():
            combo = block[int(hits.argmax())]
            position = {j: pos for pos, j in enumerate(combo)}
            raise OrthogonalityError(
                (position[j], position[k], value)
                for j, k, value in offending
                if j in position and k in position
            )
        stable = np.ones(len(block), dtype=bool)
        for pairs, rows, required in parties:
            live = stable.nonzero()[0]
            if not live.size:
                break
            alive = member[live]
            kept = alive[:, pairs[:, 0]] & alive[:, pairs[:, 1]]
            masks, inverse = _distinct_masks(kept)
            stable[live] = _masked_ranks(rows, masks, tol)[inverse] == required
        yield from zip(block, stable.tolist())


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
    if not state_set.all_product:
        raise ValueError("conflict_audit needs an all-product set")
    if certificate is None:
        certificate = is_locally_stable(state_set, tol)
    elif len(certificate.parties) != len(state_set.dims):
        raise ValueError("the certificate does not match the state set's parties")

    size = len(state_set)
    records = certificate.parties
    counts = [len(r.conflict_pairs or ()) for r in records]
    pairs = np.array(
        [pair for r in records for pair in r.conflict_pairs or ()], dtype=np.int64
    ).reshape(-1, 2)
    parties = np.repeat([r.party for r in records], counts)
    # one key per (unordered pair, party): pair code min*l + max, then party
    codes = pairs.min(axis=1) * size + pairs.max(axis=1)
    keys = np.unique(codes * len(records) + parties)
    codes, parties = np.divmod(keys, len(records))
    codes, first, repeats = np.unique(codes, return_index=True, return_counts=True)
    shared = tuple(
        (divmod(code, size), tuple(parties[start:start + repeat].tolist()))
        for code, start, repeat in zip(codes.tolist(), first.tolist(), repeats.tolist())
        if repeat > 1
    )
    span_dims = tuple(r.span_dim for r in certificate.parties)
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


@dataclass(frozen=True)
class ExtensionReport:
    """Whether the orthogonal complement of a set holds a product state.

    ``verdict`` is "unextendible" (it holds none), "extendible" (it holds
    one) or "undecided".  ``method`` names the rule of
    :func:`decide_extension` that decided it: "partition",
    "dimension-count" or "see-saw".  ``witness`` is a product state in the
    complement that passed the direct check against every state, and is
    None unless the verdict is "extendible" and the method constructs one.

    The partition test also reports ``capacities[i]``, the largest number
    of party-i factors inside one hyperplane, or the set size where the
    hyperplanes were not enumerated; ``groups[i]``, the states the found
    split gives party i, None when no split was found; and ``nodes``, the
    states its search placed.  Other methods leave these None.  ``search``
    is the :class:`SearchReport` of :func:`_see_saw` for that method, else
    None.
    """

    label: str
    verdict: str
    witness: ProductState | None = None
    groups: tuple[tuple[int, ...], ...] | None = None
    capacities: tuple[int, ...] | None = None
    nodes: int | None = None
    method: str = "partition"
    search: SearchReport | None = None


def _hyperplanes(stack, tol):
    """The hyperplanes spanned by (d-1)-subsets of the unit factors of
    parties sharing one local dimension, given as a (P, l, d) stack: per
    party (normals, hits), where ``normals`` is (C, d) and ``hits[c, j]``
    says whether |<n_c|a_j>| < ``tol.rank_rel``, or None when the party's
    factors do not span C^d (always when l < d) or there are more than
    _HYPERPLANE_SUBSETS subsets.

    Each normal is the pivot past rank d-1 of its subset stacked above the
    identity, so it is orthogonal to the subset even when the subset is
    rank deficient.  Factors lie in one hyperplane exactly when some normal
    hits all of them: while a party's factors span, any group of rank
    below d grows, by more factors, to a rank d-1 subset whose hyperplane
    holds it.  Subsets are ranked, and their hits counted, in stacks of at
    most _RANK_BUDGET entries, one party at least.
    """
    parties, size, d = stack.shape
    if size < d or math.comb(size, d - 1) > _HYPERPLANE_SUBSETS:
        return [None] * parties
    spans = _orthonormal_rows(stack.copy(), tol.rank_rel)[1] == d
    subsets = np.array(list(itertools.combinations(range(size), d - 1)), dtype=np.intp)
    subsets = subsets.reshape(len(subsets), d - 1)
    per = max(1, _RANK_BUDGET // (len(subsets) * (2 * d - 1) * d))
    identity = np.eye(d, dtype=complex)
    normals, hits = [], []
    for first in range(0, parties, per):
        factors = stack[first:first + per]
        chunk = factors[:, subsets]
        rows = np.concatenate(
            [chunk, np.broadcast_to(identity, chunk.shape[:2] + (d, d))], axis=2
        )
        pivots = _orthonormal_rows(rows.reshape(-1, 2 * d - 1, d), tol.rank_rel)[0]
        found = pivots[:, d - 1].reshape(len(factors), len(subsets), d)
        normals.extend(found)
        hits.extend(np.abs(found.conj() @ factors.transpose(0, 2, 1)) < tol.rank_rel)
    return [(n, h) if ok else None for n, h, ok in zip(normals, hits, spans.tolist())]


def _partition_search(hits, starts, leaf):
    """Depth-first search for a split of the states into one group per
    party, each inside one of its party's hyperplanes.

    ``hits`` is (l, H), one column per hyperplane, party i's columns
    starting at ``starts[i]``; ``hits[j, h]`` says whether state j's factor
    lies in hyperplane h.  States are placed in order, each at every party
    in turn that has a hyperplane holding its group and the state.  A
    branch is cut when, summed over the parties, the most unplaced states
    that one hyperplane holding a party's group takes is below the number
    of states left; at the root that sum is the capacity sum.
    ``leaf(parties, alive)`` gets each complete split, as the party of
    every state and the mask of hyperplanes holding each group, and the
    first split it returns a result for ends the search.

    Returns ((parties, result) or None, nodes, capped); None means that no
    split exists, or, when ``capped``, that _EXTENSION_NODES placements
    did not settle it.
    """
    size, width = hits.shape
    ends = np.append(starts[1:], width)
    alive = np.ones(width, dtype=bool)
    free = hits.sum(axis=0)
    placed = []  # (party, its alive columns before the state joined)
    pending = []  # per state being placed: the parties left to try, last first
    nodes = 0

    def options(j):
        room = np.maximum.reduceat(np.where(alive, free, 0), starts)
        if room.sum() < size - j:
            return []
        return np.logical_or.reduceat(alive & hits[j], starts).nonzero()[0].tolist()[::-1]

    pending.append(options(0))
    while pending:
        j = len(pending) - 1
        if len(placed) > j:
            party, before = placed.pop()
            alive[starts[party]:ends[party]] = before
            free += hits[j]
        if not pending[-1]:
            pending.pop()
            continue
        if nodes == _EXTENSION_NODES:
            return None, nodes, True
        nodes += 1
        party = pending[-1].pop()
        columns = slice(starts[party], ends[party])
        placed.append((party, alive[columns].copy()))
        alive[columns] &= hits[j, columns]
        free -= hits[j]
        if j + 1 < size:
            pending.append(options(j + 1))
            continue
        parties = [p for p, _ in placed]
        result = leaf(parties, alive)
        if result is not None:
            return (parties, result), nodes, False
    return None, nodes, False


def _partition_test(label, factors, tol):
    """The partition rule of :func:`decide_extension` on ``factors``, the
    per-party (l, d_r) factor stacks of a checked product set whose
    complement is not empty.

    Party i's capacity is the largest number of its factors in one
    hyperplane (:func:`_hyperplanes`); a capacity sum below the set
    size proves unextendibility with no search, and otherwise
    :func:`_partition_search` looks for a split.  The witness takes, per
    party, the normal of a hyperplane holding the group, or the rank
    kernel's pivot past the group's rank where hyperplanes were not
    enumerated or the group is empty (e_0).  Every state must have a
    factor overlap |<v_i|a_i>| below ``tol.orth_abs`` with it, else the
    verdict is "undecided", as it is when the search hits its node cap.
    """
    size = len(factors[0])
    dims = [f.shape[1] for f in factors]
    planes = [None] * len(dims)
    for d in set(dims):
        parties = [i for i, di in enumerate(dims) if di == d]
        stack = np.stack([factors[i] for i in parties])
        for party, plane in zip(parties, _hyperplanes(stack, tol)):
            planes[party] = plane
    # a party without enumerated hyperplanes gets one column holding every state
    columns = [np.ones((size, 1), dtype=bool) if p is None else p[1].T for p in planes]
    starts = np.cumsum([0] + [c.shape[1] for c in columns[:-1]])
    hits = np.concatenate(columns, axis=1)
    capacities = tuple(np.maximum.reduceat(hits.sum(axis=0), starts).tolist())

    def leaf(parties, alive):
        witness = []
        for party, (plane, stack, start) in enumerate(zip(planes, factors, starts)):
            group = stack[[j for j, p in enumerate(parties) if p == party]]
            if plane is not None and len(group):
                normals = plane[0]
                witness.append(normals[alive[start:start + len(normals)].argmax()])
                continue
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
            tuple(j for j, p in enumerate(parties) if p == party) for party in range(len(planes))
        )
        overlaps = [np.abs((f * v.conj()).sum(axis=1)) for f, v in zip(factors, vectors)]
        if (np.min(overlaps, axis=0) < tol.orth_abs).all():
            verdict, witness = "extendible", ProductState(vectors)
        else:
            verdict = "undecided"
    return ExtensionReport(label, verdict, witness, groups, capacities, nodes)


@dataclass(frozen=True)
class SearchReport:
    """What a see-saw search found and how hard it looked.

    ``overlap`` is the best <phi|P|phi> across restarts, P the projector
    onto the complement, and ``witness`` the product state reaching it.
    ``sweeps`` counts the sweeps over the parties run by all restarts
    together, and ``capped`` says whether some restart ran all ``iters``
    sweeps without stopping earlier.
    """

    overlap: float
    witness: ProductState
    sweeps: int
    capped: bool


def _see_saw(vectors, dims, restarts, iters, rng_seed):
    """See-saw maximization of a product state's overlap with the orthogonal
    complement of the span of ``vectors``, the amplitude vectors of a
    checked set whose complement is not empty.  It only proposes a
    witness: :func:`decide_extension` checks it before any verdict.

    Each restart draws uniformly random unit factors from its own substream
    spawned from ``rng_seed``, so results are reproducible.  The restarts
    then advance together, one party at a time: with all other factors
    fixed, the factor of one party is set to the top eigenvector of its
    induced local operator, which can only raise the overlap.  A restart
    stops changing after the first sweep over the parties that gains less
    than 1e-13, or after ``iters`` sweeps.  The report holds the best
    overlap across restarts and, as the witness, the final ProductState of
    the lowest-numbered restart within 1e-12 of it; an overlap of 1 means a
    product state was found inside the complement, up to rounding.
    """
    total = math.prod(dims)
    if total > _SEARCH_DENSE_LIMIT:
        raise ValueError(
            f"total dimension {total} exceeds the search limit {_SEARCH_DENSE_LIMIT}"
        )
    size = len(vectors)
    dense = np.stack(vectors)
    rest_maps = [_party_blocks(dense, dims, i) for i in range(len(dims))]

    # one substream per restart, drawn party by party; factors[i] is (R, d_i)
    draws = []
    for stream in np.random.SeedSequence(rng_seed).spawn(restarts):
        rng = np.random.default_rng(stream)
        vecs = [rng.standard_normal(d) + 1j * rng.standard_normal(d) for d in dims]
        draws.append([vec / np.linalg.norm(vec) for vec in vecs])
    factors = [np.array(column) for column in zip(*draws)]

    # the restarts still moving, their factors, and their last sweep's value
    active = np.arange(restarts)
    moving = list(factors)
    previous = np.full(restarts, -math.inf)
    sweeps = 0
    for sweep in range(iters):
        for i, d in enumerate(dims):
            rest = _rowwise_kron(len(active), moving[:i] + moving[i + 1:])
            contracted = (rest.conj() @ rest_maps[i]).reshape(len(active), size, d)
            local_ops = np.swapaxes(contracted, 1, 2) @ contracted.conj()
            eigenvalues, eigenvectors = np.linalg.eigh(local_ops)
            moving[i] = eigenvectors[:, :, 0]
        value = 1.0 - eigenvalues[:, 0]
        for full, part in zip(factors, moving):
            full[active] = part
        sweeps += len(active)
        keep = ~(value - previous < 1e-13)
        previous = value[keep]
        active = active[keep]
        moving = [part[keep] for part in moving]
        if not len(active):
            break

    amplitudes = _rowwise_kron(restarts, factors) @ dense.conj().T
    overlaps = 1.0 - np.sum(np.abs(amplitudes) ** 2, axis=1)
    # restarts can end at distinct optima within rounding of each other;
    # picking by index keeps the witness independent of summation order
    top = overlaps.max()
    best = int(np.flatnonzero(overlaps >= top - 1e-12)[0])
    witness = ProductState([f[best] for f in factors])
    return SearchReport(float(top), witness, sweeps, sweep + 1 == iters)


def decide_extension(
    state_set: StateSet,
    tol: Tolerance = DEFAULT_TOL,
    restarts: int = 50,
    iters: int = 200,
    rng_seed: int = 0,
) -> ExtensionReport:
    """Decide whether the orthogonal complement of a set holds a product
    state, by the first of three rules that applies.

    The set is checked once, by its own rule: the factor zero pattern of an
    all-product set, the full inner products otherwise.

    1. "partition": an all-product set, or one whose every dense member
       factorizes (:func:`~locstab.states.factorize`), is decided exactly.
       By the partition test (Bennett et al., PRL 82, 5385 (1999);
       DiVincenzo et al., CMP 238, 379 (2003)) its complement holds a
       product state if and only if the states split into one group per
       party such that no group's factors span its party's space: unit
       vectors v_i orthogonal to group i give such a product state
       v_1 x ... x v_P, and such a product state is orthogonal to each
       state at some party, which groups them (:func:`_partition_test`).
    2. "dimension-count": l <= sum_i (d_i - 1) states are always
       extendible.  The product states form the Segre variety, of
       projective dimension sum_i (d_i - 1); the complement of l
       independent states is a projective subspace of codimension l; and
       the two meet (the count behind the UPB size floor of Bennett et
       al., PRL 82, 5385 (1999), and Alon & Lovasz, JCTA 95, 169 (2001)).
       No search runs, so no total dimension is too large.
    3. "see-saw": the search of :func:`_see_saw` proposes a witness, with
       ``restarts``, ``iters`` and ``rng_seed``.  The verdict is
       "extendible" only when the witness's inner product with every state
       is below ``tol.orth_abs``, else "undecided"; a search never proves a
       set unextendible.

    Raises :class:`OrthogonalityError` for a non-orthogonal set and
    ValueError for an empty or a complete one.
    """
    source = _checked_source(state_set, tol, complement=True)
    if isinstance(source, FactorZeroPattern):
        return _partition_test(state_set.label, source.factors, tol)
    members = (s if isinstance(s, ProductState) else factorize(s, tol) for s in state_set.states)
    members = list(itertools.takewhile(lambda member: member is not None, members))
    if len(members) == len(state_set):
        factors = StateSet(state_set.dims, members).factors
        return _partition_test(state_set.label, factors, tol)
    if len(state_set) <= sum(d - 1 for d in state_set.dims):
        return ExtensionReport(state_set.label, "extendible", method="dimension-count")
    if restarts < 1 or iters < 1:
        raise ValueError("restarts and iters must be positive")
    search = _see_saw(source, state_set.dims, restarts, iters, rng_seed)
    witness = as_dense(search.witness).amplitudes.conj()
    found = all(abs((witness * vector).sum()) < tol.orth_abs for vector in source)
    return ExtensionReport(
        state_set.label,
        "extendible" if found else "undecided",
        search.witness if found else None,
        method="see-saw",
        search=search,
    )
