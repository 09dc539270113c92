"""Multipartite pure-state data model.

States live over a fixed party-dimension signature and come in two shapes:
fully product (one unit factor per party) or dense (one amplitude vector
over the tensor-product space).  Indexing is row-major with the leftmost
party most significant, here and in the JSON file format.
"""

from __future__ import annotations

import cmath
import contextlib
import gc
import io
import itertools
import json
import math
import re
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

import numpy as np

from ._jsonout import number_template
from .numerics import DEFAULT_TOL, Tolerance, _orthonormal_rows, _row_norms, vec_inner

__all__ = [
    "MAX_DENSE_DIMENSION",
    "StateFormatError",
    "check_signature",
    "ProductState",
    "DenseState",
    "StateSet",
    "tensor_expand",
    "as_dense",
    "FactorZeroPattern",
    "factor_zero_pattern",
    "check_mutual_orthogonality",
    "factorize",
    "state_set_from_dict",
    "save_set",
    "load_set",
]

# Dense amplitude vectors beyond this length are refused; product states
# carry no such limit since they never materialize the full tensor.
MAX_DENSE_DIMENSION = 1 << 26

# The qubit pass of factor_zero_pattern (_qubit_zeros): the axis Bloch
# vectors are projected on, away from every coordinate plane and diagonal so
# that few pairs that are not near antipodal share a key window; the slack
# added to that window, far above the rounding of the keys (about 1e-15) and
# of the party shifts (below 2**-43 for fewer than _RAY_PARTIES parties);
# and the parties, keys and candidate pairs handled per step.
_RAY_AXIS = np.array([1.0, math.sqrt(2.0), math.sqrt(5.0)]) / math.sqrt(8.0)
_RAY_SLACK = 1e-11
_RAY_PARTIES = 256
_RAY_KEYS = 1 << 14
_RAY_PAIRS = 1 << 16

# factor_zero_pattern groups the parties of a coded set by their codes
# (_party_groups) when the set holds at least _GROUP_MIN codes: below that,
# forming the groups costs more than the one qubit batch it would shorten.
# Grouping reads at most _GROUP_CODES codes per step (2 MB as uint64).
_GROUP_MIN = 1 << 10
_GROUP_CODES = 1 << 18

# Sorted factor rows compared per step when _number_rows numbers the
# distinct factor rows of a set.
_SAVE_ROWS = 1 << 12

# Codes gathered per block when the factor stacks of a code table are
# built: 128 KB of intp indices.
_GATHER_CODES = 1 << 14

# The text of a saved all-product set around its factor texts, as
# json.dumps(..., indent=2) lays out its payload: each state opens at depth
# 2 and each of its factors at depth 4, after _FACTOR_INDENT.
_FACTOR_LEVEL = 4
_FACTOR_INDENT = "\n" + "  " * _FACTOR_LEVEL
_HEAD_LABEL, _HEAD_DIMS, _HEAD_STATES = '{\n  "label": ', ',\n  "dims": ', ',\n  "states": '
_STATES_OPEN, _STATE_SEP, _STATES_CLOSE = "[\n    ", ",\n    ", "\n  ]\n}"
_STATE_OPEN = '{\n      "product": [' + _FACTOR_INDENT
_FACTOR_SEP = "," + _FACTOR_INDENT
_STATE_CLOSE = "\n      ]\n    }"
# A dense member opens at depth 2 too, each of its [re, im] pairs at depth 4
# and each number at depth 5.  _dense_text writes _DENSE_PAIRS pairs per
# piece, between the separators _DENSE_SEPARATORS holds: a piece's 4,096
# number texts take about 0.3 MB, whatever the vector's length.
_NUMBER_INDENT = _FACTOR_INDENT + "  "
_DENSE_OPEN = '{\n      "dense": [' + _FACTOR_INDENT + "[" + _NUMBER_INDENT
_PAIR_SEP = _FACTOR_INDENT + "]," + _FACTOR_INDENT + "[" + _NUMBER_INDENT
_DENSE_CLOSE = _FACTOR_INDENT + "]" + _STATE_CLOSE
_DENSE_PAIRS = 1 << 11
_DENSE_SEPARATORS = [_PAIR_SEP, None, "," + _NUMBER_INDENT, None] * _DENSE_PAIRS

# How load_set reads that text back (_read_product_text).  _FIRST_STATE ends
# the head.  _FACTOR_MARK, a factor's indentation and opening bracket, opens
# every factor and nothing else in the layout, so past the head the text
# splits at it into one piece per factor: the factor's text past its
# bracket, then the tail that follows the factor at its place, within a
# state (0), at a state's end (1) or at the file's end (2).  The three
# tails end in different bytes, _TAIL_PLACES' keys.  The text is split
# _LOAD_BYTES at a time, by _MARK_PATTERN: the regular expression engine's
# literal search steps over the runs of indentation spaces that slow
# bytes.split and bytes.find, and it gives the same pieces.  _scan is the
# JSON scanner.
_FACTOR_MARK = (_FACTOR_INDENT + "[").encode()
_MARK_PATTERN = re.compile(re.escape(_FACTOR_MARK))
_FACTOR_TAILS = tuple(
    tail.encode()
    for tail in (
        _FACTOR_SEP[:-len(_FACTOR_INDENT)],
        _STATE_CLOSE + _STATE_SEP + _STATE_OPEN[:-len(_FACTOR_INDENT)],
        _STATE_CLOSE + _STATES_CLOSE + "\n",
    )
)
_FIRST_STATE = (_STATES_OPEN + _STATE_OPEN[:-len(_FACTOR_INDENT)]).encode()
_TAIL_PLACES = {tail[-1:]: place for place, tail in enumerate(_FACTOR_TAILS)}
_LOAD_BYTES = 1 << 16
_scan = json.JSONDecoder().scan_once


class StateFormatError(ValueError):
    """A state-set payload violates the JSON schema; the message names the field."""


def check_signature(dims) -> tuple[int, ...]:
    """Validate a party-dimension signature and return it as a tuple."""
    dims = tuple(int(d) for d in dims)
    if not dims:
        raise ValueError("a signature needs at least one party")
    if any(d < 2 for d in dims):
        raise ValueError(f"every local dimension must be >= 2, got {dims}")
    return dims


def _qubit_perp(stack) -> np.ndarray:
    """The orthogonal direction (a, b) -> (conj b, -conj a) of every qubit
    vector along the last axis of ``stack``, whatever its leading shape."""
    return np.stack([stack[..., 1].conj(), -stack[..., 0].conj()], axis=-1)


def _unit_rows(stack) -> np.ndarray:
    """Scale every row of a fresh (m, d) complex stack to unit norm, in
    place, and return the stack marked read-only.

    Each squared norm is ``vecdot(re, re) + vecdot(im, im)``, the same dot
    kernel :func:`numpy.linalg.norm` runs on one complex vector, so a row
    comes out bit-identical to ``row / np.linalg.norm(row)``; a different
    summation order would move last bits, and with them the residues that
    vanishing factor overlaps leave (up to about 6e-17 where numpy's complex
    multiply fuses multiply-adds), which ``orth_abs`` then judges.
    Squares overflow above about 1e154 and lose precision below about
    1e-154, so a row whose squared norm is not a normal float is first
    divided by its largest real or imaginary part; a row where that part is
    zero, or not finite, is refused.
    """
    re, im = stack.real, stack.imag
    with np.errstate(over="ignore"):
        squares = np.vecdot(re, re) + np.vecdot(im, im)
    extreme = np.flatnonzero(~np.isfinite(squares) | (squares < np.finfo(float).tiny))
    if extreme.size:
        scale = np.maximum(np.abs(re[extreme]), np.abs(im[extreme])).max(axis=1)
        if not np.isfinite(scale).all():
            raise ValueError("cannot normalize a vector that is not finite")
        if not scale.all():
            raise ValueError("cannot normalize a zero vector")
        re[extreme] /= scale[:, None]
        im[extreme] /= scale[:, None]
        squares[extreme] = np.vecdot(re[extreme], re[extreme]) + np.vecdot(
            im[extreme], im[extreme]
        )
    stack /= np.sqrt(squares)[:, None]
    stack.flags.writeable = False
    return stack


def _unit(vec) -> np.ndarray:
    arr = np.array(vec, dtype=complex)
    if arr.ndim != 1:
        raise ValueError("amplitude vectors must be 1-D")
    return _unit_rows(arr[None])[0]


class ProductState:
    """A fully product multipartite pure state; factors are stored unit-norm.

    The factors are one row of per-party (m, d_r) read-only unit stacks:
    the states of an all-product :class:`StateSet` are rows of the set's
    stacks, and a state built on its own holds one-row stacks.  ``factors``
    is the tuple of that row's views, made on first use.
    """

    __slots__ = ("_stacks", "_row", "_factors", "dims")

    def __init__(self, factors):
        self._stacks = tuple(_unit(f)[None] for f in factors)
        self._row = 0
        self._factors = None
        self.dims = check_signature(stack.shape[1] for stack in self._stacks)

    @classmethod
    def _rows(cls, stacks, dims) -> list:
        """One state per row of ``stacks``: read-only (m, d_r) stacks of unit
        rows normalized by :func:`_unit_rows`, one per party of the checked
        signature ``dims``."""
        states = []
        for row in range(len(stacks[0])):
            state = cls.__new__(cls)
            state._stacks, state._row, state._factors, state.dims = stacks, row, None, dims
            states.append(state)
        return states

    @property
    def factors(self) -> tuple:
        if self._factors is None:
            self._factors = tuple(stack[self._row] for stack in self._stacks)
        return self._factors

    def __repr__(self):
        return f"ProductState(dims={self.dims})"


class DenseState:
    """A multipartite pure state held as one normalized amplitude vector."""

    __slots__ = ("amplitudes", "dims")

    def __init__(self, amplitudes, dims):
        self.dims = check_signature(dims)
        total = math.prod(self.dims)
        if total > MAX_DENSE_DIMENSION:
            raise ValueError(
                f"total dimension {total} exceeds the dense limit {MAX_DENSE_DIMENSION}"
            )
        arr = _unit(amplitudes)
        if arr.shape[0] != total:
            raise ValueError(
                f"amplitude length {arr.shape[0]} does not match total dimension {total}"
            )
        self.amplitudes = arr

    def __repr__(self):
        return f"DenseState(dims={self.dims})"


class StateSet:
    """An ordered collection of states over one signature; the unit of checking.

    An all-product set holds its factors by party: ``factors[r]`` is party
    r's (l, d_r) read-only stack of unit factors, row j that of state j.
    ``factors`` is None when some state is dense.

    An all-product set also has a code table (:meth:`_code_table`), which
    names each factor by its row in a codebook of its local dimension.  The
    shift constructions, the loader's split route and :meth:`subset` of a
    coded set supply it; any other set numbers its stacks the first time
    the table is read.
    """

    __slots__ = ("dims", "states", "label", "factors", "_table")

    def __init__(self, dims, states, label=""):
        self.dims = check_signature(dims)
        states = tuple(states)
        for pos, state in enumerate(states):
            if not isinstance(state, (ProductState, DenseState)):
                raise TypeError(f"state {pos} is not a ProductState or DenseState")
            if state.dims != self.dims:
                raise ValueError(
                    f"state {pos} has dims {state.dims}, the set expects {self.dims}"
                )
        self.states = states
        self.label = str(label)
        self.factors = self._table = None
        if all(isinstance(s, ProductState) for s in states):
            self.factors = _factor_stacks(states, self.dims)

    @classmethod
    def _from_stacks(cls, dims, stacks, label="") -> "StateSet":
        """The all-product set whose party-r factors are the rows of
        ``stacks[r]``, unit rows normalized by :func:`_unit_rows`, over the
        checked signature ``dims``; the stacks are marked read-only and
        become the set's own."""
        for stack in stacks:
            stack.flags.writeable = False
        return cls(dims, ProductState._rows(tuple(stacks), dims), label)

    @classmethod
    def _from_codes(cls, dims, books, codes, label="") -> "StateSet":
        """The all-product set whose code table is ``books`` and ``codes``,
        as :meth:`_code_table` describes them, over the checked signature
        ``dims``; its factor stacks are gathered from the table
        (:func:`_coded_stacks`), and the table becomes the set's own."""
        for array in (*books.values(), codes):
            array.flags.writeable = False
        state_set = cls._from_stacks(dims, _coded_stacks(dims, books, codes), label)
        state_set._table = books, codes
        return state_set

    def _code_table(self):
        """The code table of an all-product set: ``(books, codes)``, where
        ``books[d]`` is a read-only (m_d, d) stack of unit rows for each
        local dimension d and ``codes`` the read-only (l, P) int32 array with
        ``factors[r][t]`` equal to ``books[dims[r]][codes[t, r]]`` bit for
        bit.  A codebook may hold rows that no factor uses, or one row
        twice.

        The table a source supplied, else one made here and kept: the
        factor rows of each local dimension are numbered once by their
        exact bytes (:func:`_number_rows`), at a cost of 4 bytes per factor
        and a copy of the distinct rows.
        """
        if self._table is None:
            size = len(self)
            books, codes = {}, np.empty((size, len(self.dims)), dtype=np.int32)
            for d in dict.fromkeys(self.dims):
                parties = [r for r, e in enumerate(self.dims) if e == d]
                books[d], numbers = _number_rows(np.concatenate([self.factors[r] for r in parties]))
                codes[:, parties] = numbers.reshape(len(parties), size).T
            codes.flags.writeable = False
            self._table = books, codes
        return self._table

    def __len__(self):
        return len(self.states)

    def __iter__(self):
        return iter(self.states)

    def __getitem__(self, index):
        return self.states[index]

    @property
    def all_product(self) -> bool:
        return self.factors is not None

    @property
    def total_dimension(self) -> int:
        return math.prod(self.dims)

    def subset(self, indices) -> "StateSet":
        """A new set holding the states at ``indices``, in the given order,
        labelled by the parent's label and those indices; an all-product
        set's subset takes its stacks' rows, and the rows of its codes over
        the same codebooks when the parent holds a code table."""
        rows = [range(len(self))[i] for i in indices]
        label = f"{self.label}[{','.join(str(i) for i in indices)}]"
        if self.factors is None:
            return StateSet(self.dims, [self.states[i] for i in rows], label)
        rows = np.array(rows, dtype=np.intp)
        subset = StateSet._from_stacks(self.dims, [stack[rows] for stack in self.factors], label)
        if self._table is not None:
            books, codes = self._table
            codes = codes[rows]
            codes.flags.writeable = False
            subset._table = books, codes
        return subset

    def __repr__(self):
        return f"StateSet(label={self.label!r}, dims={self.dims}, size={len(self)})"


def _factor_stacks(states, dims) -> tuple:
    """The per-party (l, d_r) read-only factor stacks of product ``states``:
    their own stacks when they are all those stacks' rows in order, else one
    copy per party, joined from the runs of consecutive rows of one source
    stack."""
    runs = []  # [source stacks, first row, end row]
    for state in states:
        if runs and runs[-1][0] is state._stacks and runs[-1][2] == state._row:
            runs[-1][2] += 1
        else:
            runs.append([state._stacks, state._row, state._row + 1])
    if len(runs) == 1 and runs[0][1] == 0 and runs[0][2] == len(runs[0][0][0]):
        return runs[0][0]
    gathered = []
    for party, d in enumerate(dims):
        pieces = [source[party][first:end] for source, first, end in runs]
        stack = np.concatenate(pieces) if pieces else np.empty((0, d), dtype=complex)
        stack.flags.writeable = False
        gathered.append(stack)
    return tuple(gathered)


def _coded_stacks(dims, books, codes) -> list:
    """The per-party (l, d_r) factor stacks ``books[d_r][codes[:, r]]`` of
    a code table: the parties of each local dimension are rows of one
    (parties, l, d) array, filled in place in blocks of at most
    _GATHER_CODES codes.  Every code is a row of its codebook, so the
    gather needs no bounds check, which would copy each block once more."""
    size = len(codes)
    stacks = [None] * len(dims)
    per = max(1, _GATHER_CODES // max(size, 1))
    for d, book in books.items():
        parties = [r for r, e in enumerate(dims) if e == d]
        group = np.empty((len(parties), size, d), dtype=complex)
        for start in range(0, len(parties), per):
            block = codes[:, parties[start:start + per]].T
            np.take(book, block, axis=0, out=group[start:start + per], mode="clip")
        for party, stack in zip(parties, group):
            stacks[party] = stack
    return stacks


def tensor_expand(state: ProductState) -> DenseState:
    """Kronecker-expand a product state into its dense amplitude vector."""
    total = math.prod(state.dims)
    if total > MAX_DENSE_DIMENSION:
        raise ValueError(
            f"total dimension {total} exceeds the dense limit {MAX_DENSE_DIMENSION}"
        )
    return DenseState(_rowwise_kron(1, [f[None] for f in state.factors])[0], state.dims)


def _rowwise_kron(rows, factors):
    """Row-wise Kronecker product of (rows, d_r) arrays: a (rows, prod d_r)
    array whose row t is the Kronecker product of the factors' rows t."""
    out = np.ones((rows, 1), dtype=complex)
    for factor in factors:
        out = (out[:, :, None] * factor[:, None, :]).reshape(rows, -1)
    return out


def as_dense(state) -> DenseState:
    return state if isinstance(state, DenseState) else tensor_expand(state)


@dataclass(frozen=True)
class FactorZeroPattern:
    """Which factor overlaps of an all-product set vanish, from one pass.

    ``factors[r]`` stacks the unit factors of party r as an (l, d_r) array.
    The factors of pair (j, k) vanish at party r when both |<a_j|a_k>_r| and
    |<a_k|a_j>_r| fall below ``orth_abs``, so each unordered pair is decided
    once; factors are unit vectors, so that cutoff does not depend on the
    party count.  ``zero_count[j, k]`` counts the parties where the pair
    vanishes: zero means the pair is not orthogonal, one means it is a
    conflict pair of that single party.  ``zero_count`` is symmetric, and
    every conflict pair's reverse is a conflict pair of the same party.
    ``conflict_pairs[r]`` holds party r's conflict pairs as an (m_r, 2)
    array, j outer and k inner.  Both are the same, bit for bit, whether
    :func:`factor_zero_pattern` decides party r on its own stack or once
    for a group of parties that hold the same factors.

    ``qubit_groups`` holds ``(parties, rows, p, q)`` for each group of
    qubit parties decided at once: the int array of its parties, the (l, 2)
    rows of its first party in code order, which are every member's rows in
    its own code order, bit for bit, and the int arrays of the positions
    p < q of the pairs of those rows that vanish.  So each member's zeros
    are these pairs, read through its order, and a member with 2 len(p)
    conflict pairs has them all as conflict pairs.
    """

    factors: tuple
    zero_count: np.ndarray
    conflict_pairs: tuple
    qubit_groups: tuple


def _coordinate_sums(left, right) -> np.ndarray:
    """``sum_c left[..., c] * right[..., c]``: materialized products added in
    coordinate order, with no dot or matmul kernel, so a pair's factor
    overlap has the same bits wherever it is taken."""
    sums = left[..., 0] * right[..., 0]
    for c in range(1, left.shape[-1]):
        sums += left[..., c] * right[..., c]
    return sums


def _qubit_zeros(factors, parties, tol: Tolerance):
    """Yield (party, j, k) index arrays of the pairs j < k whose factor
    overlaps <a_j|a_k> and <a_k|a_j> in the (l, 2) stack ``factors[party]``
    of a party in ``parties`` both fall below ``tol.orth_abs``, each
    decided by :func:`_coordinate_sums`, the arithmetic of the party's
    Gram.  A stack may stand for a group of parties that hold the same
    factors (:func:`factor_zero_pattern`) or for a list of seeds.

    Unit qubit factors have |<a|b>| = |n_a + n_b| / 2 for their Bloch
    vectors n, so the keys x = n.u on the unit axis u = _RAY_AXIS of a
    vanishing pair satisfy |x_a + x_b| <= 2 |<a|b>|.  Per batch of at most
    _RAY_PARTIES parties, the keys are sorted once, each party's shifted by
    4 times its place in the batch, and every factor's candidates are the
    keys within 2 * orth_abs + _RAY_SLACK of minus its own: a superset of
    its vanishing partners, of which factor j keeps those k > j.  The
    window ends are searched in ascending order, each party's sorted keys
    reversed, where numpy's binary search starts from its last bound, and
    scattered back to factor order.  At most _RAY_PAIRS candidates are
    decided at a time, so sets whose keys cluster take more steps, not more
    memory.  The chunks come in the order of ``parties``, and each lists
    its pairs party by party in that order.  Its callers are
    :func:`factor_zero_pattern` and
    :func:`~locstab.constructions.validate_seeds`, which vets shift-family
    seeds with it.
    """
    if not len(parties):
        return
    size = len(factors[0])
    per = max(1, min(_RAY_PARTIES, _RAY_KEYS // max(size, 1)))
    window = 2.0 * tol.orth_abs + _RAY_SLACK
    for first in range(0, len(parties), per):
        batch = np.array(parties[first:first + per], dtype=np.intp)
        stacks = np.array([factors[r] for r in batch])
        up, down = stacks[..., 0], stacks[..., 1]
        cross = up.conj() * down
        keys = 2.0 * (_RAY_AXIS[0] * cross.real + _RAY_AXIS[1] * cross.imag) + _RAY_AXIS[2] * (
            up.real**2 + up.imag**2 - down.real**2 - down.imag**2
        )
        shift = 4.0 * np.arange(len(batch))[:, None]
        order, ranked = np.argsort(keys, axis=1), np.sort(keys, axis=1)
        targets = (shift - ranked[:, ::-1]).ravel()
        ranked = (ranked + shift).ravel()
        back = (order[:, ::-1] + size * np.arange(len(batch))[:, None]).ravel()
        low, counts = np.empty((2, len(back)), dtype=np.intp)
        low[back] = np.searchsorted(ranked, targets - window, "left")
        counts[back] = np.searchsorted(ranked, targets + window, "right")
        counts -= low
        ends = np.cumsum(counts)
        order = order.ravel()
        start = 0
        while start < len(counts):
            done = int(ends[start - 1]) if start else 0
            stop = max(start + 1, int(np.searchsorted(ends, done + _RAY_PAIRS, "right")))
            query = np.repeat(np.arange(start, stop), counts[start:stop])
            slots = low[query] + np.arange(len(query)) - (ends[query] - counts[query] - done)
            place, j = np.divmod(query, size)
            k = order[slots]
            upper = j < k
            place, j, k = place[upper], j[upper], k[upper]
            left, right = stacks[place, j], stacks[place, k]
            zero = (np.abs(_coordinate_sums(left.conj(), right)) < tol.orth_abs) & (
                np.abs(_coordinate_sums(right.conj(), left)) < tol.orth_abs
            )
            yield batch[place[zero]], j[zero], k[zero]
            start = stop


def _sort_keys(keys, bound):
    """The int array ``keys``, all in ``range(bound)``, as uint16 when
    ``bound`` is at most 2**16: their stable argsort is the same, as a
    stable sort's order is unique, and numpy radix-sorts 16-bit keys."""
    return keys.astype(np.uint16) if bound <= 1 << 16 else keys


def _party_groups(state_set: StateSet):
    """The parties of an all-product set, grouped by local dimension and
    by the multiset of their factor codes: ``(alone, shared)``, the parties
    alone in their group, in order, and a list of ``(parties, order)`` for
    the larger groups, an int array of the group's parties and ``order``,
    the stable argsort of its first party's codes (:func:`_sort_keys`).

    Parties whose codes sort alike hold the same factor rows in those
    orders, bit for bit.  Candidates share a fingerprint, the sum and the
    sum of squares of their codes (modulo 2**64); only their columns are
    sorted, to confirm a group.  Both steps read at most _GROUP_CODES codes
    at a time.  A set without a code table is not numbered for this, and a
    set of fewer than _GROUP_MIN codes is not grouped: each of their
    parties is alone.
    """
    dims = state_set.dims
    if state_set._table is None or len(state_set) * len(dims) < _GROUP_MIN:
        return range(len(dims)), []
    books, codes = state_set._table
    sums = np.zeros((2, len(dims)), dtype=np.uint64)
    rows = max(1, _GROUP_CODES // len(dims))
    for start in range(0, len(codes), rows):
        block = codes[start:start + rows].astype(np.uint64)
        sums[0] += block.sum(axis=0)
        block *= block
        sums[1] += block.sum(axis=0)
    candidates = {}
    for party, key in enumerate(zip(dims, *sums.tolist())):
        candidates.setdefault(key, []).append(party)
    alone, shared = [], []
    columns = max(1, _GROUP_CODES // max(len(codes), 1))
    for parties in candidates.values():
        parties = np.array(parties)
        while len(parties) > 1:
            first = np.sort(codes[:, parties[0]])[:, None]
            same = np.concatenate([
                (np.sort(codes[:, parties[start:start + columns]], axis=0) == first).all(axis=0)
                for start in range(0, len(parties), columns)
            ])
            if same[1:].any():
                keys = _sort_keys(codes[:, parties[0]], len(books[dims[parties[0]]]))
                shared.append((parties[same], np.argsort(keys, kind="stable")))
            else:
                alone.append(int(parties[0]))
            parties = parties[~same]
        alone += parties.tolist()
    return sorted(alone), shared


def _gram_zeros(stack, tol: Tolerance):
    """The (l, l) boolean of the pairs whose overlaps in both orders, from
    the factor Gram of ``stack`` (:func:`_coordinate_sums`), fall below
    ``tol.orth_abs``."""
    zeros = np.abs(_coordinate_sums(stack.conj()[:, None], stack[None])) < tol.orth_abs
    zeros &= zeros.T
    return zeros


def _count_zeros(zero_count, last_zero, parties, j, k):
    """Count the vanishing pairs j < k at ``parties``."""
    np.add.at(zero_count, (j, k), 1)
    last_zero[j, k] = parties


def _count_shared(zero_count, last_zero, codes, bound, parties, p, q):
    """Count the vanishing pairs p < q of a group's rows in code order at
    each of its ``parties``, read through the party's own order, the
    stable argsort of its column of ``codes``, each code below ``bound``
    (:func:`_sort_keys`), for at most _GROUP_CODES codes or pairs of
    parties at a time."""
    step = max(1, _GROUP_CODES // max(len(codes), len(p), 1))
    for start in range(0, len(parties), step):
        some = parties[start:start + step]
        orders = np.argsort(_sort_keys(codes[:, some], bound), axis=0, kind="stable")
        j, k = orders[p], orders[q]
        _count_zeros(zero_count, last_zero, some, np.minimum(j, k), np.maximum(j, k))


def factor_zero_pattern(state_set: StateSet, tol: Tolerance = DEFAULT_TOL) -> FactorZeroPattern:
    """Build the :class:`FactorZeroPattern` of an all-product set from its
    factor stacks.

    Parties that hold the same factors in another order, such as every
    party of a shift family, are decided once per group
    (:func:`_party_groups`): on the first party's rows in code order, and
    each vanishing pair is read through every party's own order.  A party
    alone in its group is decided on its stack in state order.  Qubit
    stacks are decided by :func:`_qubit_zeros`, which takes only the pairs
    near antipodal on the Bloch sphere and fills the upper triangle, then
    mirrored; every other stack's Gram (:func:`_coordinate_sums`) keeps the
    zeros it holds in both orders and is dropped once they are counted.
    Either way each zero is decided on the same two rows by the same
    arithmetic, and besides the factors only (l, l) integer arrays are
    held.  A party where each pair vanishes is kept alongside the count,
    and the pairs vanishing once are grouped by it in one sort.  Each qubit
    group's rows and vanishing pairs are kept in ``qubit_groups``.
    """
    factors = state_set.factors
    if factors is None:
        raise ValueError("factor_zero_pattern needs an all-product set")
    size, dims = len(state_set), state_set.dims
    zero_count = np.zeros((size, size), dtype=np.int64)
    # the party where each pair vanishes: 16-bit when the party count
    # allows, so that the final stable sort is a radix sort (_sort_keys)
    last_zero = np.zeros((size, size), dtype=np.uint16 if len(dims) <= 1 << 16 else np.int64)
    alone, shared = _party_groups(state_set)
    for parties, j, k in _qubit_zeros(factors, [r for r in alone if dims[r] == 2], tol):
        _count_zeros(zero_count, last_zero, parties, j, k)
    books, codes = state_set._table if shared else (None, None)
    groups, stacks = [], []
    for parties, order in shared:
        stack = factors[parties[0]][order]
        if stack.shape[1] == 2:
            groups.append(parties)
            stacks.append(stack)
            continue
        p, q = np.nonzero(np.triu(_gram_zeros(stack, tol), 1))
        _count_shared(zero_count, last_zero, codes, len(books[stack.shape[1]]), parties, p, q)
    held = [np.stack(chunk) for chunk in _qubit_zeros(stacks, range(len(stacks)), tol)]
    held = np.concatenate(held, axis=1) if held else np.empty((3, 0), dtype=np.intp)
    bounds = np.searchsorted(held[0], np.arange(len(groups) + 1)).tolist()
    qubit_groups = tuple(
        (parties, stack, held[1, a:b], held[2, a:b])
        for parties, stack, a, b in zip(groups, stacks, bounds, bounds[1:])
    )
    for parties, _, p, q in qubit_groups:
        _count_shared(zero_count, last_zero, codes, len(books[2]), parties, p, q)
    zero_count += zero_count.T
    last_zero += last_zero.T
    for r in alone:
        if dims[r] == 2:
            continue
        zeros = _gram_zeros(factors[r], tol)
        zero_count += zeros
        np.copyto(last_zero, r, where=zeros)
    pairs = np.argwhere(zero_count == 1)
    parties = last_zero[pairs[:, 0], pairs[:, 1]]
    order = np.argsort(parties, kind="stable")
    bounds = np.searchsorted(parties[order], np.arange(len(factors) + 1)).tolist()
    pairs = pairs[order]
    conflict_pairs = tuple(pairs[a:b] for a, b in zip(bounds, bounds[1:]))
    return FactorZeroPattern(factors, zero_count, conflict_pairs, qubit_groups)


def _span_source(state_set: StateSet, tol: Tolerance):
    """What orthogonality and span checks read: the factor zero pattern of an
    all-product set, else the list of every state's dense amplitude vector,
    a dense member's own array."""
    if state_set.all_product:
        return factor_zero_pattern(state_set, tol)
    return [as_dense(s).amplitudes for s in state_set.states]


def _offending_pairs(source, tol: Tolerance):
    """Non-orthogonal ordered pairs (j, k, <j|k>) of a :func:`_span_source`,
    j outer and k inner.  A factor zero pattern's are the pairs with no
    vanishing factor overlap, valued by multiplying their factor overlaps
    party by party in order.  Amplitude vectors are multiplied one pair at a
    time, with no (l, D) stack."""
    if isinstance(source, FactorZeroPattern):
        bad = source.zero_count == 0
        np.fill_diagonal(bad, False)
        rows, cols = bad.nonzero()
        if not len(rows):
            return []
        values = np.ones(len(rows), dtype=complex)
        for stack in source.factors:
            values *= _coordinate_sums(stack[rows].conj(), stack[cols])
        return list(zip(rows.tolist(), cols.tolist(), values.tolist()))
    overlaps = np.array([[(c * vec).sum() for vec in source] for c in map(np.conj, source)])
    bad = np.abs(overlaps) >= tol.orth_abs
    np.fill_diagonal(bad, False)
    return [(j, k, complex(overlaps[j, k])) for j, k in np.argwhere(bad).tolist()]


def check_mutual_orthogonality(state_set: StateSet, tol: Tolerance = DEFAULT_TOL):
    """List every ordered pair (j, k, <j|k>) that is not orthogonal; an empty
    list means the set is orthogonal.

    A product pair is orthogonal when at some party its factor overlap falls
    below ``tol.orth_abs`` in both orders; a pair with a dense member when
    its full inner product does.
    """
    if not len(state_set):
        raise ValueError("cannot check an empty state set")
    return _offending_pairs(_span_source(state_set, tol), tol)


def _party_blocks(amplitudes, dims, party):
    """Split an (l, D) amplitude stack at ``party`` into one (D/d_i, l*d_i)
    matrix: entry [r, k*d_i + a] is entry a of state k's vector in party
    i's space for the r-th computational basis state of the other parties,
    row-major in their original order.  So (R, D/d_i) conjugate rest
    vectors contract to (R, l*d_i), and the matrix's Gram holds every pair's
    block contraction.  May share memory with ``amplitudes``."""
    moved = np.moveaxis(amplitudes.reshape((len(amplitudes),) + dims), (0, 1 + party), (-2, -1))
    return np.ascontiguousarray(moved.reshape(-1, len(amplitudes) * dims[party]))


def factorize(state: DenseState, tol: Tolerance = DEFAULT_TOL) -> ProductState | None:
    """The product state equal to ``state`` up to a global phase, or None
    when it is not one.

    Split at any party (the :func:`_party_blocks` layout of the one-state
    stack, one block per basis state of the other parties), a product
    state's blocks are all multiples of that party's factor, so each split
    must have rank 1.  The rank kernel ranks the transposed split, d_i long
    rows, in at most d_i steps.  The factor is the first block whose norm
    reaches ``tol.rank_rel`` times the largest, divided by that norm: the
    kernel's first pivot of the untransposed split, bit for bit.  Parties
    are split one at a time, stopping at the first of higher rank.  The
    rebuilt product is accepted only when 1 - |<rebuild|state>| <
    ``tol.orth_abs``.
    """
    factors = []
    amplitudes = state.amplitudes.reshape(state.dims)
    for party, d in enumerate(state.dims):
        # the transposed split as a new array: the rank kernel overwrites it
        rows = np.moveaxis(amplitudes, party, 0).reshape(1, d, -1).copy()
        if _orthonormal_rows(rows, tol.rank_rel)[1][0] != 1:
            return None
        split = _party_blocks(state.amplitudes[None], state.dims, party)
        norms = _row_norms(split)
        first = int((norms >= tol.rank_rel * norms.max()).argmax())
        factors.append(split[first] / norms[first])
    product = ProductState(factors)
    overlap = vec_inner(tensor_expand(product).amplitudes, state.amplitudes)
    return product if 1.0 - abs(overlap) < tol.orth_abs else None


def _complex_pairs(arr):
    """``arr`` as nested lists with each complex number an [re, im] pair."""
    arr = np.ascontiguousarray(arr, dtype=complex)
    return arr.view(float).reshape(arr.shape + (2,)).tolist()


def _parse_pair(value, where):
    ok = (
        isinstance(value, (list, tuple))
        and len(value) == 2
        and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in value)
    )
    if not ok:
        raise StateFormatError(f"{where}: expected a [re, im] number pair")
    try:
        number = complex(value[0], value[1])
    except OverflowError:
        number = None
    if number is None or not cmath.isfinite(number):
        raise StateFormatError(f"{where}: numbers must be finite floats")
    return number


def _only(values, types) -> bool:
    """Whether every item of ``values`` is an instance of the tuple ``types``
    and none is a bool; checked once per distinct type."""
    kinds = set(map(type, values))
    return kinds.issubset(types) or all(issubclass(t, types) and t is not bool for t in kinds)


class _Entry:
    """A state entry decoded into numbers: its kind, its factor lengths
    (None for dense) and all its [re, im] numbers, in order, as one flat
    float array."""

    __slots__ = ("kind", "lengths", "numbers")

    def __init__(self, kind, lengths, numbers):
        self.kind, self.lengths, self.numbers = kind, lengths, numbers


def _entry(entry):
    """``entry`` as an :class:`_Entry` when it is a one-key ``product`` or
    ``dense`` object whose pairs and numbers pass the per-field rules of
    :func:`_parse_pair`, else ``entry`` itself; an :class:`_Entry` passes
    through.  Finiteness is left to the caller.

    This is also the object hook of :func:`load_set`, so each state entry
    is turned into numbers the moment it is decoded.
    """
    if not isinstance(entry, dict) or len(entry) != 1:
        return entry
    ((kind, value),) = entry.items()
    if not isinstance(value, list):
        return entry
    if kind == "product":
        if not _only(value, (list,)):
            return entry
        lengths = tuple(map(len, value))
        pairs = list(itertools.chain.from_iterable(value))
    elif kind == "dense":
        lengths, pairs = None, value
    else:
        return entry
    if not (_only(pairs, (list, tuple)) and set(map(len, pairs)) <= {2}):
        return entry
    numbers = list(itertools.chain.from_iterable(pairs))
    if not _only(numbers, (int, float)):
        return entry
    try:
        return _Entry(kind, lengths, np.array(numbers, dtype=float))
    except OverflowError:
        return entry


def _party_stacks(entries, dims):
    """The per-party (l, d_r) read-only unit factor stacks of product
    ``entries``, or None when a number is not finite or a factor is zero.

    The entries' numbers are joined into one (l, sum d_r) complex table.
    The columns of the parties of each local dimension are stacked
    party-major, normalized by one :func:`_unit_rows` call and split into
    contiguous per-party stacks.
    """
    size = len(entries)
    table = np.concatenate([entry.numbers for entry in entries]).view(complex).reshape(size, -1)
    starts = list(itertools.accumulate(dims, initial=0))
    stacks = [None] * len(dims)
    for d in set(dims):
        parties = [r for r, e in enumerate(dims) if e == d]
        try:
            group = _unit_rows(np.concatenate([table[:, starts[r]:starts[r] + d] for r in parties]))
        except ValueError:
            return None
        for place, party in enumerate(parties):
            stacks[party] = group[place * size:(place + 1) * size]
    return tuple(stacks)


def _parse_states(states_raw, dims):
    """The states of a well-formed payload, or None when any entry is not.

    Every entry goes through :func:`_entry`, which :func:`load_set` has
    already run on each as it was decoded.  Each dense entry becomes one
    amplitude vector.  The product states are the rows of the stacks of
    :func:`_party_stacks`, which an all-product set keeps as its own.
    """
    states = [None] * len(states_raw)
    products, total = [], math.prod(dims)
    for pos, entry in enumerate(map(_entry, states_raw)):
        if not isinstance(entry, _Entry):
            return None
        if entry.lengths == dims:
            products.append((pos, entry))
            continue
        if entry.kind != "dense" or len(entry.numbers) != 2 * total:
            return None
        try:
            states[pos] = DenseState(entry.numbers.view(complex), dims)
        except ValueError:
            return None
    if products:
        stacks = _party_stacks([entry for _, entry in products], dims)
        if stacks is None:
            return None
        for (pos, _), state in zip(products, ProductState._rows(stacks, dims)):
            states[pos] = state
    return states


def _raise_first_error(states_raw, dims):
    """Raise the :class:`StateFormatError` of the earliest malformed state,
    checking each entry field by field."""
    total = math.prod(dims)
    for pos, entry in enumerate(states_raw):
        where = f"states[{pos}]"
        if not isinstance(entry, dict) or len(entry) != 1:
            raise StateFormatError(
                f"{where}: expected an object with exactly one of 'product' or 'dense'"
            )
        kind = next(iter(entry))
        if kind == "product":
            factors_raw = entry["product"]
            if not isinstance(factors_raw, list) or len(factors_raw) != len(dims):
                raise StateFormatError(
                    f"{where}.product: expected one factor per party ({len(dims)})"
                )
            factors = []
            for party, factor_raw in enumerate(factors_raw):
                fwhere = f"{where}.product[{party}]"
                if not isinstance(factor_raw, list) or len(factor_raw) != dims[party]:
                    raise StateFormatError(
                        f"{fwhere}: factor length must equal dims[{party}]={dims[party]}"
                    )
                factors.append(
                    [
                        _parse_pair(v, f"{fwhere}[{idx}]")
                        for idx, v in enumerate(factor_raw)
                    ]
                )
            try:
                ProductState(factors)
            except ValueError as exc:
                raise StateFormatError(f"{where}.product: {exc}") from None
        elif kind == "dense":
            amps_raw = entry["dense"]
            if not isinstance(amps_raw, list) or len(amps_raw) != total:
                raise StateFormatError(
                    f"{where}.dense: expected {total} amplitude pairs"
                )
            amps = [
                _parse_pair(v, f"{where}.dense[{idx}]")
                for idx, v in enumerate(amps_raw)
            ]
            try:
                DenseState(amps, dims)
            except ValueError as exc:
                raise StateFormatError(f"{where}.dense: {exc}") from None
        else:
            raise StateFormatError(f"{where}: unknown state kind {kind!r}")
    raise AssertionError("the batch parse rejected a payload with no malformed state")


def state_set_from_dict(payload) -> StateSet:
    """Parse a state-set payload, naming the offending field on failure.

    Well-formed payloads are parsed in batches.  When a payload is not, its
    entries are checked one by one, so the earliest failing state is the one
    named.
    """
    if not isinstance(payload, dict):
        raise StateFormatError("top level: expected an object")
    label = payload.get("label", "")
    if not isinstance(label, str):
        raise StateFormatError("label: expected a string")
    dims_raw = payload.get("dims")
    if (
        not isinstance(dims_raw, list)
        or not dims_raw
        or not all(isinstance(d, int) and not isinstance(d, bool) for d in dims_raw)
    ):
        raise StateFormatError("dims: expected a non-empty list of integers")
    try:
        dims = check_signature(dims_raw)
    except ValueError as exc:
        raise StateFormatError(f"dims: {exc}") from None
    states_raw = payload.get("states")
    if not isinstance(states_raw, list):
        raise StateFormatError("states: expected a list")
    states = _parse_states(states_raw, dims)
    if states is None:
        _raise_first_error(states_raw, dims)
    return StateSet(dims, states, label)


@contextlib.contextmanager
def _acyclic():
    """Pause the cyclic garbage collector for the block, then restore it.

    Only the reading and writing of set files run inside: they build
    nothing but lists, dicts, tuples, strings, bytes, numbers, arrays,
    states and :class:`_Entry` objects, none of which can form a reference
    cycle, so reference counting frees them exactly as before while the
    collector stops re-scanning the pair lists of a dense entry.
    The pause holds for the whole process, so another thread may see the
    collector off while the block runs.  A collector the caller had
    disabled stays disabled.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _factor_texts(rows) -> list:
    """The text of each row of an (m, d) complex array as a factor in a set
    file: its [re, im] pairs, the factor's bracket at depth _FACTOR_LEVEL.

    The rows are filled into one template, their factor templates joined by
    a "|", which neither a template nor the ``repr`` of a float holds.
    """
    template = number_template((rows.shape[1], 2), _FACTOR_LEVEL)
    return ("|".join([template] * len(rows)) % tuple(rows.view(float).ravel().tolist())).split("|")


def _number_rows(rows):
    """Number the distinct rows of the contiguous (n, d) complex stack
    ``rows`` by their exact bytes: return the read-only stack of distinct
    rows, ordered by their bytes, and each row's number there as an (n,)
    int32 array.

    Rows are equal only when their bytes are, so -0.0 and 0.0 stay apart,
    as ``repr`` keeps them apart.  Beside the sort order and one flag per
    row, each step gathers at most _SAVE_ROWS rows.
    """
    n = len(rows)
    # a sort by bytes puts equal rows next to each other
    key = np.dtype((np.void, rows.shape[1] * rows.itemsize))
    order = np.argsort(rows.view(key).ravel())
    words = rows.view(np.uint64)
    new = np.ones(n, dtype=bool)
    for start in range(1, n, _SAVE_ROWS):
        pair = words[order[start - 1:start + _SAVE_ROWS]]
        new[start:start + _SAVE_ROWS] = (pair[1:] != pair[:-1]).any(axis=1)
    numbers = np.empty(n, dtype=np.int32)
    numbers[order] = np.cumsum(new) - 1
    book = rows[order[new]]
    book.flags.writeable = False
    return book, numbers


def _head_text(label, dims) -> str:
    """The text of a set file up to its list of states."""
    return (
        _HEAD_LABEL + encode_basestring_ascii(label)
        + _HEAD_DIMS + number_template((len(dims),), 1) % tuple(dims)
        + _HEAD_STATES
    )


def _product_text(state_set: StateSet):
    """Yield the file text of an all-product set in pieces, one state at a
    time, each the join of its factors' texts.

    The factors are read through the set's code table
    (:meth:`StateSet._code_table`), each local dimension's codes numbered
    past those of the codebooks before it: each codebook row that a state
    uses is rendered once by :func:`_factor_texts`, as the first state that
    uses it is written, and its text is dropped after the last.  Beside the
    texts, this holds that copy of the codes and two states per codebook
    row.
    """
    dims, size = state_set.dims, len(state_set)
    yield _head_text(state_set.label, dims)
    if not size:
        yield "[]\n}"
        return
    books, codes = state_set._code_table()
    bases = dict(zip(books, itertools.accumulate(map(len, books.values()), initial=0)))
    codes = codes + np.array([bases[d] for d in dims], dtype=np.int32)
    # the first and last state that use each code, size and -1 for a code
    # that no state uses, which is neither born nor dies below
    states = np.repeat(np.arange(size, dtype=np.int32), len(dims))
    first = np.full(sum(map(len, books.values())), size, dtype=np.int32)
    last = np.full(len(first), -1, dtype=np.int32)
    np.minimum.at(first, codes.ravel(), states)
    np.maximum.at(last, codes.ravel(), states)
    del states
    dying = np.argsort(last)
    ends = np.searchsorted(last[dying], np.arange(size + 1)).tolist()
    groups = []
    for d, book in books.items():
        # state t is the first to use the rows ids[born[t]:born[t + 1]]
        firsts = first[bases[d]:bases[d] + len(book)]
        ids = np.argsort(firsts)
        born = np.searchsorted(firsts[ids], np.arange(size + 1)).tolist()
        groups.append((book, ids, born, bases[d]))
    texts = {}
    separator = _STATES_OPEN
    for t in range(size):
        for book, ids, born, base in groups:
            if born[t] < born[t + 1]:
                new = ids[born[t]:born[t + 1]]
                texts.update(zip((new + base).tolist(), _factor_texts(book[new])))
        yield (
            separator + _STATE_OPEN
            + _FACTOR_SEP.join(map(texts.__getitem__, codes[t].tolist()))
            + _STATE_CLOSE
        )
        separator = _STATE_SEP
        for code in dying[ends[t]:ends[t + 1]].tolist():
            del texts[code]
    yield _STATES_CLOSE


def _dense_text(amplitudes):
    """Yield the text of a dense member with the contiguous complex vector
    ``amplitudes`` in a set file, from its opening brace to its closing one,
    in pieces of at most _DENSE_PAIRS [re, im] pairs.

    Each number is written by ``float.__repr__``, as :mod:`json` writes a
    finite float, and a piece is one join of those texts and the fixed
    separators of the (D, 2) block around them, so no nested list or
    template is built and at most one piece's texts are held at a time.
    """
    numbers = amplitudes.view(float)
    for start in range(0, len(numbers), 2 * _DENSE_PAIRS):
        chunk = numbers[start:start + 2 * _DENSE_PAIRS].tolist()
        pieces = _DENSE_SEPARATORS[:2 * len(chunk)]
        pieces[1::2] = map(float.__repr__, chunk)
        if not start:
            pieces[0] = _DENSE_OPEN
        yield "".join(pieces)
    yield _DENSE_CLOSE


def _dense_set_text(state_set: StateSet):
    """Yield the file text of a set with dense members in pieces, one state
    at a time: a dense member by :func:`_dense_text`, a product member as
    the join of its factors' texts (:func:`_factor_texts`)."""
    yield _head_text(state_set.label, state_set.dims)
    separator = _STATES_OPEN
    for state in state_set.states:
        if isinstance(state, DenseState):
            yield separator
            yield from _dense_text(state.amplitudes)
        else:
            texts = [_factor_texts(factor[None])[0] for factor in state.factors]
            yield separator + _STATE_OPEN + _FACTOR_SEP.join(texts) + _STATE_CLOSE
        separator = _STATE_SEP
    yield _STATES_CLOSE


def _write_set(state_set: StateSet, fh) -> None:
    """Write the text of :func:`save_set` to the text stream ``fh``: an
    all-product set's by :func:`_product_text`, any other set's by
    :func:`_dense_set_text`."""
    text = _dense_set_text if state_set.factors is None else _product_text
    with _acyclic():
        fh.writelines(text(state_set))
    fh.write("\n")


def save_set(state_set: StateSet, path) -> None:
    """Write ``state_set`` as the text ``json.dumps(payload, indent=2)``
    gives, plus a newline, one state at a time.  The payload is the object
    :func:`state_set_from_dict` reads: the label, the dims, and each state
    as ``{"product": [factor, ...]}`` or ``{"dense": amplitudes}``, every
    complex number an [re, im] pair.

    An all-product set is written from its code table
    (:func:`_product_text`), and each codebook row a state uses is rendered
    once, so a set that repeats its factors, such as a shift family,
    formats few numbers.  The shift constructions, the loader and subsets
    of their sets supply their codes; a set built from states numbers its
    factor rows by their exact bytes on its first save and keeps the
    codes.  The bytes are the same; the cost is a copy of the codes, and a
    row's text is held only from the first state that uses it to the last.
    A set with dense members is written straight from its arrays
    (:func:`_dense_set_text`): each dense vector in pieces of at most
    _DENSE_PAIRS amplitudes, so the texts of a 2^20-amplitude vector are
    never held at once, and each product member from its factors.

    The cyclic garbage collector is paused for the whole process while the
    text is written, and only then (:func:`_acyclic`): the writer makes
    only strings, lists, arrays and numbers, which reference counting
    frees, so nothing it leaves behind needs the collector.  It is restored
    however the write ends, stays off if the caller had turned it off, and
    may be seen paused by another thread meanwhile.
    """
    with open(path, "w", encoding="utf-8") as fh:
        _write_set(state_set, fh)


def _read_to_mark(fh, data, at):
    """``data``, read on from the binary file ``fh`` until a _FACTOR_MARK
    starts at or after ``at``, and that mark's start (the length when the
    file ends first).  Each read asks for what is held, at least _LOAD_BYTES."""
    while (found := _MARK_PATTERN.search(data, at)) is None:
        more = fh.read(max(len(data), _LOAD_BYTES))
        if not more:
            return data, len(data)
        data, at = data + more, max(at, len(data) - len(_FACTOR_MARK) + 1)
    return data, found.start()


def _split_codes(fh, data, parties):
    """Split the text that begins with ``data``, bytes from a _FACTOR_MARK
    on, and goes on with the rest of the binary file ``fh``, at every
    _FACTOR_MARK (found by _MARK_PATTERN, with the pieces of
    ``bytes.split``), as it is read (:func:`_read_to_mark`) _LOAD_BYTES and
    then up to the next mark at a time, and number the pieces by their
    exact bytes in order of first appearance.

    Returns the number of each piece, in order, and a dict from each
    distinct piece to its number.  Returns None instead when, with text
    left to split, the pieces of at least three states of ``parties``
    factors have been split and more than half of them are distinct: such
    a file repeats too few factors for the split to pay, and holding every
    distinct piece would cost about the file's size.
    """
    numbers, codes, count = {}, [], 0
    while data:
        if 2 * len(numbers) > count >= 3 * parties:
            return None
        data, stop = _read_to_mark(fh, data, _LOAD_BYTES)
        pieces = _MARK_PATTERN.split(data[len(_FACTOR_MARK):stop])
        codes.append(np.array([numbers.setdefault(p, len(numbers)) for p in pieces], dtype=np.intp))
        count += len(pieces)
        data = data[stop:]
    return np.concatenate(codes), numbers


def _scan_factors(texts):
    """The lengths and the numbers, as one flat float array, of the factors
    whose texts past their opening bracket are ``texts``, or None when one
    is not exactly one JSON value or a value breaks a rule of :func:`_entry`.

    Each text is scanned by itself, and the values are turned into numbers
    every _LOAD_BYTES of text, so that no more of them are held at once.
    """
    entries, values, size = [], [], 0
    for text in texts:
        try:
            text = "[" + text.decode("ascii")
            value, end = _scan(text, 0)
        except (StopIteration, ValueError, RecursionError):
            return None
        if end != len(text):
            return None
        values.append(value)
        size += end
        if size >= _LOAD_BYTES:
            entries.append(_entry({"product": values}))
            values, size = [], 0
    entries.append(_entry({"product": values}))
    if not all(isinstance(entry, _Entry) for entry in entries):
        return None
    lengths = np.array([n for entry in entries for n in entry.lengths], dtype=np.intp)
    return lengths, np.concatenate([entry.numbers for entry in entries])


def _read_product_text(fh):
    """The all-product set whose file :func:`save_set` wrote, read from the
    binary file ``fh``, when the file is exactly that layout and every
    factor is well formed; else None, and nothing is decided about the
    file.

    The head, up to the first factor, must be the writer's for the label
    and dims the JSON scanner reads from it.  Split at _FACTOR_MARK
    (:func:`_split_codes`), each distinct piece must end in one of
    _FACTOR_TAILS; the rest, a factor's text past its bracket, is numbered
    once more by its exact bytes.  The tails must run as the writer writes
    them: in each state a separator after every factor but the last, then
    a state's end, and the file's end after the last state.  Each distinct
    factor text is scanned by itself (:func:`_scan_factors`) and must be
    one JSON value that ends where the text ends, so the pieces align with
    factors; the values must pass the per-field rules of :func:`_entry` and
    have the length of every party they stand at.  The distinct factors of
    each local dimension are normalized by one :func:`_unit_rows` call into
    its codebook, so every row has the bits :func:`_party_stacks` gives it,
    and the set keeps the codebooks and the factors' codes as its code
    table (:meth:`StateSet._from_codes`).
    """
    data, start = _read_to_mark(fh, b"", 0)
    if start == len(data) or not data.endswith(_FIRST_STATE, 0, start):
        return None
    try:
        head = data[:start].decode("ascii")
        label, at = _scan(head, len(_HEAD_LABEL))
        dims, _ = _scan(head, at + len(_HEAD_DIMS))
        if type(label) is not str or type(dims) is not list or not dims:
            return None
        if not all(type(d) is int for d in dims):
            return None
        dims = check_signature(dims)
    except (StopIteration, ValueError, RecursionError):
        return None
    if _head_text(label, dims).encode() + _FIRST_STATE != data[:start]:
        return None
    split = _split_codes(fh, data[start:], len(dims))
    if split is None:
        return None
    codes, numbers = split
    if len(codes) % len(dims):
        return None
    # each distinct piece's place, and the number of its factor text
    places, factors, texts = [None] * len(numbers), [None] * len(numbers), {}
    while numbers:
        piece, code = numbers.popitem()
        place = _TAIL_PLACES.get(piece[-1:])
        if place is None or not piece.endswith(_FACTOR_TAILS[place]):
            return None
        places[code] = place
        text = piece[:len(piece) - len(_FACTOR_TAILS[place])]
        factors[code] = texts.setdefault(text, len(texts))
    codes = codes.reshape(-1, len(dims))
    tails = np.array(places, dtype=np.int8)[codes]
    if not ((tails[:, :-1] == 0).all() and (tails[:-1, -1] == 1).all() and tails[-1, -1] == 2):
        return None
    del tails
    codes = np.array(factors)[codes]
    scanned = _scan_factors(texts)
    if scanned is None:
        return None
    lengths, numbers = scanned
    if not (lengths[codes] == dims).all():
        return None
    # the distinct factors of each local dimension, and each one's row there
    table, firsts = numbers.view(complex), np.cumsum(lengths) - lengths
    books, rows = {}, np.empty(len(lengths), dtype=np.int32)
    for d in set(dims):
        ids = np.flatnonzero(lengths == d)
        try:
            books[d] = _unit_rows(table[firsts[ids][:, None] + np.arange(d)])
        except ValueError:
            return None
        rows[ids] = np.arange(len(ids))
    codes = rows[codes]
    return StateSet._from_codes(dims, books, codes, label)


def _decode(text, object_hook):
    try:
        with _acyclic():
            return json.loads(text, object_hook=object_hook)
    except json.JSONDecodeError as exc:
        raise StateFormatError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise StateFormatError("invalid JSON: nesting too deep") from None


def load_set(path) -> StateSet:
    """Read the state set saved at ``path``.

    One of two routes reads the file; both give the same set, bit for bit,
    or the same error.

    A file in the exact layout :func:`save_set` writes for an all-product
    set is split at its factors as it is read (:func:`_read_product_text`),
    a window of _LOAD_BYTES at a time, and each distinct factor text is
    parsed once, so a set that repeats its factors, such as a shift family,
    scans few numbers.  The load holds one window, the distinct texts and
    the set: a quarter of a random-seed ``shift_family(100)`` file.  Input
    that cannot seek, such as a pipe, is read whole first.  A file that
    route does not accept, in any byte, has nothing decided by it.

    Every other file is read from its start as text (UTF-8, universal
    newlines) and decoded as JSON.  Each state entry is turned into numbers
    as soon as it is decoded (:func:`_entry`), so the set's nested lists
    are never held, and the load peaks at about twice the file, its bytes
    and its text.
    The hook cannot tell a state entry from a one-key object elsewhere, so
    a refused payload is decoded once more as plain JSON, whose offending
    field the error then names.

    The cyclic garbage collector is paused for the whole process while the
    file is split or its JSON decoded, and only then (:func:`_acyclic`):
    both build only containers that cannot form a cycle and that reference
    counting frees as before, while a dense entry's thousands of pair lists
    would otherwise set off many collections that find nothing.  The
    collector is restored however the read ends, stays off if the caller
    had turned it off, and may be seen paused by another thread meanwhile.
    """
    with open(path, "rb") as fh:
        if not fh.seekable():
            fh = io.BytesIO(fh.read())
        with _acyclic():
            state_set = _read_product_text(fh)
        if state_set is not None:
            return state_set
        fh.seek(0)
        data = fh.read()
    # the text open(path, encoding="utf-8").read() gives: universal newlines
    text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()
    del data
    payload = _decode(text, _entry)
    try:
        return state_set_from_dict(payload)
    except StateFormatError:
        return state_set_from_dict(_decode(text, None))

