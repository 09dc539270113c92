"""Local-stability certification.

For each party the states induce a span of operators on that party's space:
for all-product sets one rank-1 outer product per conflict pair (a pair of
states whose factors on every *other* party still overlap), and for general
sets the blockwise pair contractions of the dense amplitudes.  A party is
stable when that span fills the full traceless operator space, i.e. reaches
dimension d**2 - 1; the set is locally stable when every party is.

Qubit parties of product sets mostly need no rank: their span dimension
follows from their bases (:func:`_qubit_dims`).  Each conflict pair lies in
one orthonormal basis and comes with its reverse, which the factor zero
pattern decides with it, so one basis spans 2 dimensions and two span 3.
The rule decides a qubit party, or the pairs a subset keeps there, when the
second basis sits well clear of the rank cutoff, outside a band of a factor
of 4 on either side.  Its one guard is that ``orth_abs`` is at most
``rank_rel`` / 16.  The rank kernel ranks the traceless parts of the
generators of everything else: parties with d >= 3, sets with dense
members, and qubit pairs inside the band or past the guard.

The module also carries the counting facts that bound the size of a stable
set, closed-form upper bounds for qubit and qutrit systems, and the exact
decision whether a set's orthogonal complement holds a product state: the
partition test for product sets, the dimension count for small sets, and a
see-saw search whose witnesses are checked before they count.  At a qubit
party the partition test's hyperplanes are the factors' own rays, whose
normals a^perp it takes in closed form, so it calls the rank kernel only
for parties with d >= 3 and for a found split's witness.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ._jsonout import IndexPairs
from .numerics import DEFAULT_TOL, Tolerance, _orthonormal_rows
from .states import (
    FactorZeroPattern,
    ProductState,
    StateSet,
    _coordinate_sums,
    _offending_pairs,
    _party_blocks,
    _qubit_perp,
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

# What _qubit_dims returns for a run it leaves to the rank kernel.
_KERNEL = -1

# Conflict pairs whose first factors _qubit_batches hands to _qubit_dims at
# most at once, unless one qubit party has more.
_QUBIT_PAIRS = 1 << 16

# _contractions conjugates a third of a split's rows at once, or as many
# states as hold this many complex entries when that is more, so that small
# vectors take few products.
_CONJUGATED_BLOCK = 1 << 12

# Amplitude entries a set with dense members must hold for _lead_proofs to
# try proving its parties from their leading states.
_LEAD_ENTRIES = 1 << 14

# Complex entries in one zero-padded (sets, rows, d*d) stack handed to the
# rank kernel; a row set larger than this is ranked on its own.
_RANK_BUDGET = 1 << 13

# min(l, d - 1)-subsets of one party's factors whose hyperplanes the partition
# test enumerates; a party with more gets one hyperplane holding every state.
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
    its conflict pairs (j, k): the pairs whose factor overlaps fall below
    ``orth_abs`` in both orders here and at no other party, so the reverse
    of each is one too.

    :func:`is_locally_stable` records the pairs as an
    :class:`~locstab._jsonout.IndexPairs`: the sequence of (j, k) int
    tuples held as the factor zero pattern's pairs in a read-only (m, 2)
    ``array``, the one form the audit and the JSON writer read, which
    builds its tuples only when its pairs are visited.  Any tuple of int
    pairs may stand in its place."""
    party: int
    span_dim: int
    required: int
    stable: bool
    conflict_pairs: IndexPairs | tuple[tuple[int, int], ...] | None = None


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
                entry["conflict_pairs"] = rec.conflict_pairs
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


def _party_spans(state_set, source, tol, parties, heads=None):
    """Yield the span generators of each party in ``parties`` as an
    (m, d, d) array, with the (m, 2) array of the ordered pairs (j, k) they
    come from, j outer and k inner.

    ``source`` is the set's :func:`~locstab.states._span_source`.  A factor
    zero pattern contributes |a_j><a_k| for each conflict pair, its factors
    gathered from the code table; amplitude vectors contribute the block
    contraction of every ordered pair whose norm reaches ``tol.orth_abs``.
    Each generator depends on its own pair alone, so a subset's generators
    are its parent's on the pairs inside it.  Amplitude vectors are split
    at one party at a time (:func:`_split_rows`), and the pairs of the
    party's :func:`_lead_states` leading states come first, by one
    :func:`_contractions` call, then the rest by another;
    ``heads`` maps a party to the first call's result when it is held
    already, so only the rest is built.
    """
    if isinstance(source, FactorZeroPattern):
        books, codes = source.table
        for party in parties:
            book, pairs = books[source.dims[party]], source.conflict_pairs[party]
            left = np.take(book, codes[pairs[:, 0], party], axis=0)
            right = np.take(book, codes[pairs[:, 1], party], axis=0)
            yield left[:, :, None] * right[:, None, :].conj(), pairs
        return
    heads = heads or {}
    for party in parties:
        d = state_set.dims[party]
        lead = _lead_states(source, d)
        split = _split_rows(source, state_set.dims, party)
        head = heads.get(party) or _contractions(split, d, tol, 0, lead)
        rest = _contractions(split, d, tol, lead, len(source))
        del split
        yield np.concatenate([head[0], rest[0]]), np.concatenate([head[1], rest[1]])


def _split_rows(source, dims, party):
    """The amplitude vectors ``source`` split at ``party`` as one new
    (l*d, D/d) array, d = dims[party]: row k*d + a holds entry a of state
    k's vector in the party's space, one column per basis state of the
    other parties, in their order.  So its Gram holds every pair's block
    contraction.  It is :func:`~locstab.states._party_blocks` of the
    stacked vectors, transposed, copied straight from the member arrays."""
    d, left = dims[party], math.prod(dims[:party])
    split = np.empty((len(source), d, left, len(source[0]) // (left * d)), dtype=complex)
    for slot, vector in zip(split, source):
        slot[...] = vector.reshape(left, d, -1).transpose(1, 0, 2)
    return split.reshape(len(source) * d, -1)


def _contractions(split, d, tol, start, stop):
    """The generators and pairs, as :func:`_party_spans` yields them, of the
    ordered pairs (j, k) with ``start`` <= j < ``stop`` of a
    :func:`_split_rows` split with local dimension ``d``.

    Block (j, k) of the split's Gram is the contraction of pair (j, k).  Its
    rows are built a block of states at a time, as the conjugate transpose
    of the split times the block's conjugate, so only that block is
    conjugated: a third of the states, or as many as _CONJUGATED_BLOCK
    entries hold.  Each row has the bits of its pair's own product, however
    the blocks fall.
    """
    size, total = len(split) // d, split.shape[1] * d
    step = max(1, size // 3, _CONJUGATED_BLOCK // total)
    generators, pairs = [np.empty((0, d, d), dtype=complex)], [np.empty((0, 2), dtype=np.intp)]
    for first in range(start, stop, step):
        last = min(first + step, stop)
        gram = (split @ split[first * d:last * d].conj().T).conj().T
        blocks = gram.reshape(last - first, d, size, d).swapaxes(1, 2)
        keep = np.sqrt((blocks.conj() * blocks).real.sum(axis=(2, 3))) >= tol.orth_abs
        keep[np.arange(last - first), np.arange(first, last)] = False
        generators.append(blocks[keep])
        pairs.append(np.argwhere(keep) + [first, 0])
    return np.concatenate(generators), np.concatenate(pairs)


def _lead_states(source, d):
    """The number s of leading states of the amplitude vectors ``source``
    whose pairs may prove a party of local dimension ``d`` full
    (:func:`_lead_proofs`): s = d + 2, whose s (l - 1) pairs exceed
    d**2 - 1 whenever s < l; on the named sets 3 suffice at d = 2 and 4 at
    d = 3.  It is l, and the attempt skipped, when s >= l or when the
    vectors hold fewer than _LEAD_ENTRIES entries, where a failed attempt's
    extra rank costs more than the rows a proof saves."""
    size = len(source)
    if d + 2 >= size or size * len(source[0]) < _LEAD_ENTRIES:
        return size
    return d + 2


def _lead_proofs(dims, source, tol, parties):
    """Which of ``parties`` of a set with dense members are proven full,
    spanning d**2 - 1, from their leading states' pairs alone, and the
    :func:`_contractions` of those pairs of the others, as a list and a
    dict keyed by party.  A factor zero pattern gives neither.

    Each party with s = :func:`_lead_states` < l has the pairs (j, k) with
    j < s built from its split, which is freed at once; the traceless parts
    of every such party's generators are ranked together
    (:func:`_stacked_ranks`).  A party is proven when the kernel takes
    d**2 - 1 pivots from them, each at a residual of at least 4
    ``rank_rel``.  That is exact, not a heuristic:

    - every generator contracts two unit states, so its norm, and that of
      its traceless part, is at most 1, and the kernel's cutoff on the
      party's full row list is at most ``rank_rel``;
    - the leading rows are the first rows of that list, bit for bit:
      :func:`_party_spans` reuses these and builds only the rest after them;
    - so on the full list the kernel takes the same pivots.  Each was taken
      at a residual of at least 4 ``rank_rel``, above that cutoff, and a row
      that died on the leading rows dies under the full list's cutoff,
      which is no lower than theirs.  It reads d**2 - 1, the most a
      traceless span holds.
    """
    if isinstance(source, FactorZeroPattern):
        return [], {}
    leads = {party: _lead_states(source, dims[party]) for party in parties}
    tried = [party for party in parties if leads[party] < len(source)]
    heads = {
        party: _contractions(_split_rows(source, dims, party), dims[party], tol, 0, leads[party])
        for party in tried
    }
    ranks, margins = _stacked_ranks((_traceless_rows(g.copy()) for g, _ in heads.values()), tol)
    proven = [
        party
        for party, rank, margin in zip(tried, ranks, margins)
        if rank == dims[party] ** 2 - 1 and margin >= 4.0 * tol.rank_rel
    ]
    for party in proven:
        del heads[party]
    return proven, heads


def span_generators(state_set: StateSet, tol: Tolerance = DEFAULT_TOL):
    """Generator matrices of every party's operator span: a tuple with one
    (m_i, d_i, d_i) array per party, from one pass over the set.

    All-product sets contribute the factor outer product of each conflict
    pair; otherwise every ordered state pair contributes the contraction of
    its one-party blocks, dropping matrices of negligible norm.
    """
    source = _span_source(state_set, tol)
    spans = _party_spans(state_set, source, tol, range(len(state_set.dims)))
    return tuple(generators for generators, _ in spans)


def _checked_source(state_set: StateSet, tol: Tolerance):
    """The :func:`~locstab.states._span_source` of ``state_set`` once it is
    checked: ValueError for an empty set, :class:`OrthogonalityError` for a
    non-orthogonal one (the factor zero pattern decides for an all-product
    set, the full inner products otherwise)."""
    if not len(state_set):
        raise ValueError("cannot check an empty state set")
    source = _span_source(state_set, tol)
    offending = _offending_pairs(source, tol)
    if offending:
        raise OrthogonalityError(offending)
    return source


def is_locally_stable(state_set: StateSet, tol: Tolerance = DEFAULT_TOL) -> StabilityCertificate:
    """Certify the span criterion at every party of a mutually orthogonal set.

    Raises :class:`OrthogonalityError` when the input is not orthogonal.
    Product sets are checked and certified from one factor zero pattern and
    additionally record their conflict pairs per party.  Their qubit
    parties take the dimension their bases give (:func:`_qubit_dims`) when
    the second basis sits outside the band around the rank cutoff and
    ``tol.orth_abs`` is at most ``tol.rank_rel`` / 16: first once per code
    group for the members whose zeros are all conflict pairs
    (:func:`_group_dims`), then one run per remaining party, a call per
    batch of :func:`_qubit_batches`.  Only the parties the rule leaves to
    the rank kernel get generators, and the traceless parts of those of
    consecutive such parties with one local dimension are ranked together,
    each party's rows followed by zero rows.  At a set with dense members a
    party is first tried on its leading states' pairs, and one proven full
    there (:func:`_lead_proofs`) builds no other rows.  The zero pattern's pairs are
    copied once into one read-only int32 table of every party's pairs, and
    each party's conflict pairs are an
    :class:`~locstab._jsonout.IndexPairs` holding its slice of it, which the
    audit and the JSON writer read; no pair tuple is built until a caller
    visits the pairs.
    """
    source = _checked_source(state_set, tol)
    dims = np.full(len(state_set.dims), _KERNEL)
    for parties, dim in _group_dims(source, tol):
        dims[parties] = dim
    decided = set((dims != _KERNEL).nonzero()[0].tolist())
    for parties, counts, firsts in _qubit_batches(state_set.dims, source, tol, decided):
        dims[parties] = _qubit_dims(firsts, counts, tol)
    kernel = (dims == _KERNEL).nonzero()[0].tolist()
    proven, heads = _lead_proofs(state_set.dims, source, tol, kernel)
    dims[proven] = [state_set.dims[party] ** 2 - 1 for party in proven]
    kernel = [party for party in kernel if party not in proven]
    spans = _party_spans(state_set, source, tol, kernel, heads)
    dims[kernel] = _stacked_ranks((_traceless_rows(g) for g, _ in spans), tol)[0]
    conflicts = [None] * len(state_set.dims)
    if isinstance(source, FactorZeroPattern):
        table = np.concatenate(source.conflict_pairs, dtype=np.int32)
        table.flags.writeable = False
        ends = np.cumsum([len(pairs) for pairs in source.conflict_pairs]).tolist()
        conflicts = [IndexPairs._held(table[a:b]) for a, b in zip([0] + ends, ends)]
    records = [
        PartyRecord(party, dim, d * d - 1, dim == d * d - 1, pairs)
        for party, (d, dim, pairs) in enumerate(zip(state_set.dims, dims.tolist(), conflicts))
    ]
    return StabilityCertificate(
        state_set.label, tol, tuple(records), all(r.stable for r in records)
    )


def _qubit_rule_applies(source, tol):
    """Whether the qubit rule may decide the qubit parties of ``source``:
    it must be a factor zero pattern, and ``tol.orth_abs`` at most
    ``tol.rank_rel / 16``."""
    return isinstance(source, FactorZeroPattern) and 16.0 * tol.orth_abs <= tol.rank_rel


def _group_dims(source, tol):
    """Yield ``(parties, dim)``: the span dimension of the members of a
    qubit code group of ``source`` (``FactorZeroPattern.qubit_groups``)
    that one verdict decides for the group, when :func:`_qubit_rule_applies`.

    A member whose conflict pairs are all its zeros, 2 len(p) of them, has
    the group's rows at the zeros' positions as the first factors of its
    run.  The largest diagonal part of such a run, M(u), is sin(phi) /
    sqrt(2) for the largest angle phi between the Bloch axis of its first
    factor u and those of its other factors, each axis taken up to sign.
    By the triangle inequality on those axes, M(u) and M(u') of any two of
    these rows differ by at most a factor of 2.  So one run of the rows,
    started at the first of them and read with a band of 8
    (:func:`_qubit_dims`), gives every such member the verdict its own run
    gives with a band of 4.  A group inside the wider band, and every
    other member, is left to the members' own runs.
    """
    if not _qubit_rule_applies(source, tol):
        return
    for parties, column, p, q in source.qubit_groups:
        counts = np.array([len(source.conflict_pairs[r]) for r in parties.tolist()])
        covered = parties[counts == 2 * len(p)]
        if not len(covered):
            continue
        held = np.zeros(len(column), dtype=bool)
        held[p] = True
        held[q] = True
        rows = np.take(source.table[0][2], column[held], axis=0)
        (dim,) = _qubit_dims(rows, [int(held.sum())], tol, band=8.0)
        if dim != _KERNEL:
            yield covered, dim


def _qubit_batches(dims, source, tol, decided=frozenset()):
    """Yield what :func:`_qubit_dims` reads of the parties it decides, a
    batch at a time: the qubit parties of a factor zero pattern, but none
    when ``tol.orth_abs`` exceeds ``tol.rank_rel / 16``, none of a set
    with dense members, and none in the set ``decided``.

    A batch is a list of consecutive such parties, the number of conflict
    pairs (j, k) of each, and the (E, 2) first factors a_j of their pairs,
    party after party and each in the party's order, gathered from the
    code table at once.  Each batch has as many parties as the widest party
    fits in _QUBIT_PAIRS pairs, or one.
    """
    if not _qubit_rule_applies(source, tol):
        return
    pairs, (books, codes) = source.conflict_pairs, source.table
    parties = [party for party, d in enumerate(dims) if d == 2 and party not in decided]
    per = max(1, _QUBIT_PAIRS // max([1] + [len(pairs[party]) for party in parties]))
    for start in range(0, len(parties), per):
        batch = parties[start:start + per]
        rows = np.concatenate([codes[pairs[party][:, 0], party] for party in batch])
        firsts = np.take(books[2], rows, axis=0)
        yield batch, [len(pairs[party]) for party in batch], firsts


def _qubit_dims(firsts, counts, tol, band=4.0):
    """The span dimension of each run of a qubit party's conflict-pair
    generators, or _KERNEL where the rank kernel must decide it.

    Run g holds the next ``counts[g]`` pairs, each given by its first factor
    (:func:`_qubit_batches`), in the party's pair order; a run is the pairs a
    party, or a subset of the set, keeps.  A conflict pair (j, k) lies in
    one orthonormal basis {a_j, a_j^perp}: it gives |a_j><a_j^perp| up to a
    phase and a part below ``orth_abs``, and its reverse gives
    |a_j^perp><a_j|.  Take u, the first factor of the run's first pair.  In
    the basis {u, u^perp} a pair's generator is off-diagonal but for a
    traceless diagonal part of norm M_p = sqrt(2) |<u|a_p>| |<u^perp|a_p>|,
    so with M the largest M_p of the run, the span is 2 when M vanishes and
    3 otherwise.

    Outside the band, a factor of ``band`` = 4 on either side of
    ``rank_rel``, the kernel agrees.  Every generator has unit norm, so
    its cutoff is ``rank_rel``.  Had it stopped at rank 2, every generator
    would lie within ``rank_rel`` of the plane of its two pivots; the first
    generator and its reverse are orthonormal, so that plane is close to
    theirs, and a generator with diagonal part M_p lies that close only when
    M_p < (1 + sqrt 2) ``rank_rel``.  So M > 4 ``rank_rel`` reads at least
    3.  When M < ``rank_rel`` / 4, every generator lies within 2 M plus a
    few ``orth_abs`` of the plane of |u><u^perp| and |u^perp><u|, and so do
    the kernel's first two pivots, so it reads 2.  Both need the reverse
    pair in the run, which the factor zero pattern decides with each pair,
    and the parts off the ideal generators far below ``rank_rel``, which
    :func:`_qubit_batches` provides; a run inside the band gets _KERNEL.  The
    kernel ranks traceless parts, as the rule reads them, so neither counts
    the trace direction.  An empty run spans 0.  :func:`_group_dims` reads
    one run for a code group with ``band`` = 8.
    """
    counts = np.asarray(counts, dtype=np.intp)
    dims = np.zeros(len(counts), dtype=np.intp)
    held = counts > 0
    if not held.any():
        return dims
    starts = (np.cumsum(counts) - counts)[held]
    u = np.repeat(firsts[starts], counts[held], axis=0)
    along = u[:, 0].conj() * firsts[:, 0] + u[:, 1].conj() * firsts[:, 1]
    across = u[:, 0] * firsts[:, 1] - u[:, 1] * firsts[:, 0]
    diagonal = math.sqrt(2.0) * np.maximum.reduceat(np.abs(along) * np.abs(across), starts)
    verdicts = np.where(
        diagonal > band * tol.rank_rel, 3, np.where(diagonal < tol.rank_rel / band, 2, _KERNEL)
    )
    dims[held] = verdicts
    return dims


def _traceless_rows(generators):
    """The (m, d*d) rows of the traceless parts of (m, d, d) generators,
    which are overwritten."""
    m, d, _ = generators.shape
    rows = generators.reshape(m, d * d)
    rows[:, ::d + 1] -= np.trace(generators, axis1=1, axis2=2)[:, None] / d
    return rows


def _stacked_ranks(row_sets, tol):
    """Span ranks and rank margins (the smallest pivot residual of
    :func:`~locstab.numerics._orthonormal_rows`) of an iterable of (m, n)
    row sets, as two lists in order: the certificate's kernel parties or
    their leading rows, or the kept rows of a campaign's masks.

    Each run of consecutive sets of one width n is ranked as one
    (sets, tallest m, n) stack, each set's rows followed by zero rows, with
    one kernel call; a run ends where the width changes, where the next set
    would push its stack past _RANK_BUDGET entries, and at the end.
    """
    ranks, margins, run, tallest = [], [], [], 0

    def flush():
        stack = np.zeros((len(run), tallest, run[0].shape[1]), dtype=complex)
        for slot, rows in zip(stack, run):
            slot[:len(rows)] = rows
        _, got, low = _orthonormal_rows(stack, tol.rank_rel)
        ranks.extend(got.tolist())
        margins.extend(low.tolist())

    for rows in row_sets:
        width, taller = rows.shape[1], max(tallest, len(rows))
        if run and (width != run[0].shape[1] or (len(run) + 1) * taller * width > _RANK_BUDGET):
            flush()
            run, taller = [], len(rows)
        run.append(rows)
        tallest = taller
    if run:
        flush()
    return ranks, margins


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


def _subset_verdicts(state_set: StateSet, combos, tol: Tolerance):
    """Yield (combo, stable) for every ascending index tuple of ``combos``,
    each verdict that of ``is_locally_stable(state_set.subset(combo), tol)``.

    Overlaps and span generators each depend on one pair alone, so a
    subset's non-orthogonal pairs, generator pairs and generator rows are
    its parent's restricted to pairs with both states in the subset, in the
    parent's order.  The parent is checked and spanned once, by its own
    rule, so a set with dense members applies the amplitude rule also to
    its subsets of product members, where the factor rule would differ only
    on pairs the tolerances decide.  Per block of combos and per party, the
    distinct kept-row masks are decided together, each once.  At a qubit
    party of a product set each mask is a run of :func:`_qubit_dims`: its
    first kept pair is the subset's first pair there, so the rule gives the
    subset's own certificate.  The masks the rule leaves to the kernel, and
    every mask of the other parties, are ranked by :func:`_stacked_ranks`
    in the subset's own layout: the traceless parts of its kept generators
    in order, then zero rows.  A product set's pairs are its conflict pairs,
    a dense set's those of its generators, and a party's generators are
    built only once a mask of it reaches the kernel.  A subset skips the
    block's later parties after its first party short of d**2 - 1.
    """
    combos = iter(combos)
    source = _span_source(state_set, tol)
    offending = _offending_pairs(source, tol)
    bad = np.array([pair[:2] for pair in offending], dtype=np.int64).reshape(-1, 2)
    rules = {}
    for parties, counts, firsts in _qubit_batches(state_set.dims, source, tol):
        rules.update(zip(parties, np.split(firsts, np.cumsum(counts)[:-1])))
    product = isinstance(source, FactorZeroPattern)
    spans = {}

    def span(party):
        if party not in spans:
            generators, pairs = next(_party_spans(state_set, source, tol, [party]))
            spans[party] = _traceless_rows(generators), pairs
        return spans[party]

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
        for party, d in enumerate(state_set.dims):
            live = stable.nonzero()[0]
            if not live.size:
                break
            alive = member[live]
            own = source.conflict_pairs[party] if product else span(party)[1]
            kept = alive[:, own[:, 0]] & alive[:, own[:, 1]]
            masks, inverse = _distinct_masks(kept)
            dims = np.full(len(masks), _KERNEL)
            if party in rules:
                dims = _qubit_dims(rules[party][masks.nonzero()[1]], masks.sum(axis=1), tol)
            band = dims == _KERNEL
            if band.any():
                rows = span(party)[0]
                dims[band] = _stacked_ranks((rows[mask] for mask in masks[band]), tol)[0]
            stable[live] = dims[inverse] == d * d - 1
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
    certified here.  A certificate with another party count, without
    conflict pairs (that of a set with dense members), with a pair that is
    not two int indices, or with an index outside ``range(len(state_set))``,
    is refused.

    Each party's pairs are read as one (m, 2) array: the ``array`` of an
    :class:`~locstab._jsonout.IndexPairs`, with no pair visited in Python,
    or the ``np.asarray`` of any other record's pairs.  They are grouped by
    one sort of a key per (unordered pair, party), so the parties sharing a
    pair are a run of equal pair codes, in ascending order.
    """
    if not state_set.all_product:
        raise ValueError("conflict_audit needs an all-product set")
    if certificate is None:
        certificate = is_locally_stable(state_set, tol)
    elif len(certificate.parties) != len(state_set.dims):
        raise ValueError("the certificate does not match the state set's parties")
    elif any(r.conflict_pairs is None for r in certificate.parties):
        raise ValueError("the certificate records no conflict pairs, as a dense set's does")

    size = len(state_set)
    records = certificate.parties
    arrays = [_pair_array(r) for r in records]
    counts = [len(a) for a in arrays]
    pairs = np.concatenate(arrays, dtype=np.int64)
    if len(pairs) and (pairs.min() < 0 or pairs.max() >= size):
        raise ValueError("the certificate does not match the state set's states")
    parties = np.repeat([r.party for r in records], counts)
    # one sorted key per (unordered pair, party): pair code min*l + max,
    # then party; a pair held in both orders at one party is kept once
    first, second = pairs[:, 0], pairs[:, 1]
    codes = np.minimum(first, second) * size + np.maximum(first, second)
    keys = np.sort(codes * len(records) + parties)
    keep = np.ones(len(keys), dtype=bool)
    keep[1:] = keys[1:] != keys[:-1]
    codes, parties = np.divmod(keys[keep], len(records))
    # only the runs of one pair code longer than one party are shared
    starts = np.flatnonzero(np.diff(codes, prepend=-1))
    repeats = np.diff(starts, append=len(codes))
    held = repeats > 1
    shared = tuple(
        (divmod(code, size), tuple(parties[start:start + repeat].tolist()))
        for code, start, repeat in zip(
            codes[starts[held]].tolist(), starts[held].tolist(), repeats[held].tolist()
        )
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


def _pair_array(record: PartyRecord) -> np.ndarray:
    """The (m, 2) int array of ``record``'s conflict pairs: the ``array`` of
    an :class:`~locstab._jsonout.IndexPairs`, else the pairs read by one
    ``np.asarray``; ValueError naming the party unless each pair is two
    ints (no bool)."""
    pairs = record.conflict_pairs
    if type(pairs) is IndexPairs:
        return pairs.array
    array = np.asarray(pairs, dtype=object) if len(pairs) else np.empty((0, 2), dtype=object)
    if (
        array.ndim != 2
        or array.shape[1] != 2
        or not all(t is int or issubclass(t, np.integer) for t in set(map(type, array.flat)))
    ):
        raise ValueError(
            f"the certificate's conflict pairs at party {record.party} are not pairs of int indices"
        )
    return array.astype(np.int64)


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
    of party-i factors inside one hyperplane (all of them when they do not
    span C^d; at a qubit party, the most factors on one ray), or the set
    size where the hyperplanes were not enumerated;
    ``groups[i]``, the states the found split gives party i, None when no
    split was found; and ``nodes``, the states its search placed.  Other
    methods leave these None.  Its witness factor at party i is the rank
    kernel's pivot past the rank of group i's factors, a unit vector
    orthogonal to them.  ``search``
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


def _hyperplanes(dims, table, tol, normals):
    """Yield, batch by batch, the hyperplanes holding min(l, d-1)-subsets of
    the unit factors of every party of the signature ``dims``, read from
    the code table ``table`` (:meth:`~locstab.states.StateSet._code_table`):
    (parties, hits), where the B ``parties`` share one local dimension d
    and ``hits`` is their (B, C, l) mask over C subsets, ``hits[b, c, j]``
    saying whether |<n_c|a_j>| < ``tol.rank_rel`` for the normal n_c of
    the c-th subset at party ``parties[b]``.  A party with more than
    _HYPERPLANE_SUBSETS subsets gets one hyperplane that holds every
    state, an all-true (1, l) mask.

    A qubit's subsets are its single factors a_c, each hyperplane the ray
    of a_c, so n_c is a_c^perp in closed form
    (:func:`~locstab.states._qubit_perp`).  For d >= 3 each normal is the
    pivot past rank d-1 of its subset stacked above the identity, so it is
    orthogonal to the subset even when the subset is rank deficient; for a
    qubit that pivot is a_c^perp up to a phase.  Factors lie in one
    hyperplane exactly when some normal hits all of them.  When the party's
    factors span C^d, a group of rank below d grows, by more factors, to
    d-1 independent ones, whose normal hits the group.  When they do not
    (always when l < d), some subset spans all of them, so its normal hits
    every state and the party's capacity is l.  Masks are made in batches
    of at most _RANK_BUDGET entries of rows or hits, one party at least,
    each batch's factors gathered from the table into one array, so a mask
    the caller drops is freed with its batch.  The normals of each batch of
    d >= 3 parties are ranked once per dict ``normals``, kept there under
    the batch's first party: a second pass with the same dict rebuilds only
    their masks.
    Qubit normals are not kept.
    """
    books, codes = table
    size = len(codes)
    for d in sorted(set(dims)):
        group = [i for i, di in enumerate(dims) if di == d]
        width = min(size, d - 1)
        if math.comb(size, width) > _HYPERPLANE_SUBSETS:
            yield group, np.broadcast_to(True, (len(group), 1, size))
            continue
        if d == 2:
            per = max(1, _RANK_BUDGET // (size * size))
            for first in range(0, len(group), per):
                parties = group[first:first + per]
                stack = np.take(books[d], codes[:, parties].T, axis=0)
                overlaps = _qubit_perp(stack).conj() @ stack.transpose(0, 2, 1)
                yield parties, np.abs(overlaps) < tol.rank_rel
            continue
        subsets = np.array(list(itertools.combinations(range(size), width)), dtype=np.intp)
        per = max(1, _RANK_BUDGET // (len(subsets) * (width + d) * d))
        identity = np.eye(d, dtype=complex)
        for first in range(0, len(group), per):
            parties = group[first:first + per]
            stack = np.take(books[d], codes[:, parties].T, axis=0)
            if parties[0] not in normals:
                chunk = stack[:, subsets]
                rows = np.concatenate(
                    [chunk, np.broadcast_to(identity, chunk.shape[:2] + (d, d))], axis=2
                )
                pivots = _orthonormal_rows(rows.reshape(-1, width + d, d), tol.rank_rel)[0]
                normals[parties[0]] = pivots[:, d - 1].reshape(len(parties), len(subsets), d)
            hits = np.abs(normals[parties[0]].conj() @ stack.transpose(0, 2, 1))
            yield parties, hits < tol.rank_rel


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
    ``leaf(parties)`` gets each complete split, as the party of every
    state, and the first split it returns a result for ends the search.

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
        result = leaf(parties)
        if result is not None:
            return (parties, result), nodes, False
    return None, nodes, False


def _partition_test(label, dims, table, tol):
    """The partition rule of :func:`decide_extension` on the code table
    ``table`` of a checked product set over ``dims`` whose complement is
    not empty.

    Party i's capacity is the largest number of its factors in one
    hyperplane, read off each batch of :func:`_hyperplanes` as it is made;
    a party past the subset cap has one hyperplane, holding every state.
    A capacity sum below the set size proves unextendibility with no
    search: the report is what the search would return from its root, and
    no mask is kept past its batch.  Otherwise a second pass of
    :func:`_hyperplanes` makes every party's masks again, from the d >= 3
    normals the first pass ranked and the qubit normals in closed form, and
    :func:`_partition_search` looks for a split.  The hyperplanes only
    decide capacities and the search: at a split, a group whose factors
    span C^d is refused, and otherwise the witness factor is the rank
    kernel's pivot past the group's rank of the group stacked above the
    identity, a unit vector orthogonal to the group (e_0 for an empty
    group).  Every state must have a factor overlap |<v_i|a_i>| below
    ``tol.orth_abs`` with it, else the verdict is "undecided", as it is
    when the search hits its node cap.
    """
    books, codes = table
    size = len(codes)
    capacities = np.zeros(len(dims), dtype=int)
    normals = {}
    for batch, masks in _hyperplanes(dims, table, tol, normals):
        capacities[batch] = masks.sum(axis=2).max(axis=1)
    capacities = tuple(capacities.tolist())
    if sum(capacities) < size:
        return ExtensionReport(label, "unextendible", None, None, capacities, 0)
    columns = {}
    for batch, masks in _hyperplanes(dims, table, tol, normals):
        columns.update(zip(batch, masks.transpose(0, 2, 1)))
    columns = [columns[party] for party in range(len(dims))]
    starts = np.cumsum([0] + [c.shape[1] for c in columns[:-1]])
    hits = np.concatenate(columns, axis=1)

    def leaf(parties):
        witness = []
        for party, d in enumerate(dims):
            group = books[d][codes[[j for j, p in enumerate(parties) if p == party], party]]
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
            tuple(j for j, p in enumerate(parties) if p == party) for party in range(len(dims))
        )
        overlaps = [
            np.abs(_coordinate_sums(v.conj(), np.take(books[d], codes[:, party], axis=0)))
            for party, (d, v) in enumerate(zip(dims, vectors))
        ]
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
    source = _checked_source(state_set, tol)
    if len(state_set) >= state_set.total_dimension:
        raise ValueError("the set already spans the full space; complement is empty")
    if isinstance(source, FactorZeroPattern):
        return _partition_test(state_set.label, source.dims, source.table, tol)
    members = (s if isinstance(s, ProductState) else factorize(s, tol) for s in state_set.states)
    members = list(itertools.takewhile(lambda member: member is not None, members))
    if len(members) == len(state_set):
        table = StateSet(state_set.dims, members)._code_table()
        return _partition_test(state_set.label, state_set.dims, table, tol)
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
