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

# The text of a saved all-product set around its factor texts, as
# json.dumps(..., indent=2) lays out its payload: each state opens at depth
# 2 and each of its factors at depth 4, after _FACTOR_INDENT.
_FACTOR_LEVEL = 4
_FACTOR_INDENT = "\n" + "  " * _FACTOR_LEVEL
_HEAD_LABEL, _HEAD_DIMS, _HEAD_STATES = '{\n  "label": ', ',\n  "dims": ', ',\n  "states": '
_STATES_OPEN, _STATE_SEP, _STATES_CLOSE = "[\n    ", ",\n    ", "\n  ]\n}"
_PRODUCT_OPEN = '{\n      "product": ['
_STATE_OPEN = _PRODUCT_OPEN + _FACTOR_INDENT
_FACTOR_SEP = "," + _FACTOR_INDENT
_STATE_CLOSE = "\n      ]\n    }"
# A dense member opens at depth 2 too, each of its [re, im] pairs at depth 4
# and each number at depth 5.  _dense_text writes _DENSE_PAIRS pairs per
# piece, between the separators _DENSE_SEPARATORS holds: a piece's 4,096
# number texts take about 0.3 MB, whatever the vector's length.
_NUMBER_INDENT = _FACTOR_INDENT + "  "
_DENSE_KEY = '{\n      "dense": ['
_DENSE_OPEN = _DENSE_KEY + _FACTOR_INDENT + "[" + _NUMBER_INDENT
_PAIR_SEP = _FACTOR_INDENT + "]," + _FACTOR_INDENT + "[" + _NUMBER_INDENT
_DENSE_CLOSE = _FACTOR_INDENT + "]" + _STATE_CLOSE
_DENSE_PAIRS = 1 << 11
_DENSE_SEPARATORS = [_PAIR_SEP, None, "," + _NUMBER_INDENT, None] * _DENSE_PAIRS

# How load_set reads that text back (_read_layout): it reads the head up to
# _HEAD_END, the first state's brace, and checks it byte for byte against
# the writer's head for the label and dims it holds.  A "{" opens every
# state and nothing else in the layout, so a state's text runs to the next
# "{", found by the one-byte search bytes.find runs as memchr, less the
# _STATE_SEP before it, or to the file's end, less _LAST_STATE.  A product
# state opens with _PRODUCT_START, its first factor's bracket, and a
# _FACTOR_MARK, a comma, a factor's indentation and its bracket, comes
# before every other factor and nowhere else, so the state's text splits at
# it into its factors' texts past their brackets.  _MARK_PATTERN splits
# there: the regular expression engine's literal search steps over the runs
# of indentation spaces a little faster than bytes.split, and gives the same
# pieces.  A dense member, which opens with _DENSE_START, is cut into
# windows of pairs instead: each past _LOAD_BYTES of text at the next
# _PAIR_END, after its closing bracket.  _scan is the JSON scanner.
_FACTOR_MARK = (_FACTOR_SEP + "[").encode()
_MARK_PATTERN = re.compile(re.escape(_FACTOR_MARK))
_HEAD_END = (_STATES_OPEN + "{").encode()
_NEXT_STATE, _LAST_STATE = _STATE_SEP.encode(), (_STATES_CLOSE + "\n").encode()
_PRODUCT_START, _DENSE_START = (_STATE_OPEN + "[").encode(), _DENSE_KEY.encode()
_STATE_END = _STATE_CLOSE.encode()
_PAIR_END = (_FACTOR_INDENT + "],").encode()
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

    A state is one row of a code table (:meth:`StateSet._code_table`): the
    states of an all-product :class:`StateSet` are rows of the set's table,
    and a state built on its own holds a one-state table of its factors.
    ``factors`` is the tuple of that row's codebook rows, read-only views
    made on each access.
    """

    __slots__ = ("_table", "_row", "dims")

    def __init__(self, factors):
        units = [_unit(f)[None] for f in factors]
        self.dims = check_signature(unit.shape[1] for unit in units)
        self._table, self._row = _read_only(*_identity_table(self.dims, units)), 0

    @classmethod
    def _rows(cls, table, dims) -> list:
        """One state per row of the read-only code table ``table`` over
        the checked signature ``dims``, its codebooks' rows normalized by
        :func:`_unit_rows`."""
        states = []
        for row in range(len(table[1])):
            state = cls.__new__(cls)
            state._table, state._row, state.dims = table, row, dims
            states.append(state)
        return states

    @property
    def factors(self) -> tuple:
        books, codes = self._table
        return tuple(books[d][code] for d, code in zip(self.dims, codes[self._row].tolist()))

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

    @classmethod
    def _normalized(cls, amplitudes, dims) -> "DenseState":
        """The state over the checked signature ``dims`` whose amplitudes
        are the fresh complex vector ``amplitudes`` of their total length,
        normalized in place by :func:`_unit_rows` rather than copied."""
        state = cls.__new__(cls)
        state.dims, state.amplitudes = dims, _unit_rows(amplitudes[None])[0]
        return state

    def __repr__(self):
        return f"DenseState(dims={self.dims})"


class StateSet:
    """An ordered collection of states over one signature; the unit of checking.

    An all-product set is stored as its code table alone
    (:meth:`_code_table`), which names each factor by its row in a
    codebook of its local dimension; its states are the table's rows.  A
    set built from states joins the tables its states are rows of
    (:func:`_joined_table`), so a set rebuilt from a set's own states keeps
    that set's table.  ``factors`` gathers party r's (l, d_r) read-only
    stack, row j that of state j, from the table on each access, and is
    None when some state is dense: a view for callers, which nothing in the
    package reads.
    """

    __slots__ = ("dims", "states", "label", "_table")

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
        self._table = None
        if all(isinstance(s, ProductState) for s in states):
            self._table = _joined_table(states, self.dims)

    @classmethod
    def _from_stacks(cls, dims, stacks, label="") -> "StateSet":
        """The all-product set whose party-r factors are the rows of
        ``stacks[r]``, unit rows normalized by :func:`_unit_rows`, over the
        checked signature ``dims``: every row of the stacks becomes a row
        of its local dimension's codebook (:func:`_identity_table`), with
        no numbering."""
        return cls._from_codes(dims, *_identity_table(dims, stacks), label)

    @classmethod
    def _from_codes(cls, dims, books, codes, label="") -> "StateSet":
        """The all-product set whose code table is ``books`` and ``codes``,
        as :meth:`_code_table` describes them, over the checked signature
        ``dims``; the arrays are marked read-only and the table becomes the
        set's own."""
        return cls(dims, ProductState._rows(_read_only(books, codes), dims), label)

    def _code_table(self):
        """The code table of an all-product set, the one stored form of its
        factors: ``(books, codes)``, where ``books[d]`` is a read-only
        (m_d, d) stack of unit rows for each local dimension d and
        ``codes`` the read-only (l, P) int32 array naming state t's factor
        at party r as ``books[dims[r]][codes[t, r]]``.  A codebook may hold
        rows that no factor uses, or one row twice.  None for a set with a
        dense member."""
        return self._table

    def __len__(self):
        return len(self.states)

    def __iter__(self):
        return iter(self.states)

    def __getitem__(self, index):
        return self.states[index]

    @property
    def all_product(self) -> bool:
        return self._table is not None

    @property
    def factors(self):
        if self._table is None:
            return None
        books, codes = self._table
        stacks = tuple(np.take(books[d], codes[:, r], axis=0) for r, d in enumerate(self.dims))
        for stack in stacks:
            stack.flags.writeable = False
        return stacks

    @property
    def total_dimension(self) -> int:
        return math.prod(self.dims)

    def subset(self, indices) -> "StateSet":
        """A new set holding the states at ``indices``, in the given order,
        labelled by the parent's label and those indices; its table joins
        those states' (:func:`_joined_table`), so a subset of a set whose
        states are rows of its own table holds its parent's codebooks and
        the rows of its codes."""
        states = [self.states[range(len(self))[i]] for i in indices]
        return StateSet(self.dims, states, f"{self.label}[{','.join(str(i) for i in indices)}]")

    def __repr__(self):
        return f"StateSet(label={self.label!r}, dims={self.dims}, size={len(self)})"


def _identity_table(dims, stacks):
    """The code table in which every row of the (l, d_r) ``stacks`` is its
    own codebook row: the codebook of each local dimension is a new array
    joining its parties' stacks in party order, and party r's codes number
    its l rows there in order.  Neither array is marked read-only."""
    size = len(stacks[0])
    books, codes = {}, np.empty((size, len(dims)), dtype=np.int32)
    for d in dict.fromkeys(dims):
        parties = [r for r, e in enumerate(dims) if e == d]
        books[d] = np.concatenate([stacks[r] for r in parties])
        codes[:, parties] = np.arange(len(books[d]), dtype=np.int32).reshape(len(parties), size).T
    return books, codes


def _joined_table(states, dims):
    """The code table of product ``states`` over ``dims``: the table they
    are rows of when they are all its rows in order; the rows of its codes
    over the same codebooks when they all come from one table; else each
    local dimension's codebooks of the distinct source tables joined once,
    in order of first use, and every state's codes offset past the rows of
    the sources before its own."""
    sources = list({id(state._table): state._table for state in states}.values())
    if not sources:
        return _read_only(*_identity_table(dims, [np.empty((0, d), dtype=complex) for d in dims]))
    rows = np.fromiter((state._row for state in states), dtype=np.intp, count=len(states))
    if len(sources) == 1:
        books, codes = sources[0]
        if len(rows) == len(codes) and (rows == np.arange(len(rows))).all():
            return sources[0]
        return _read_only(books, codes[rows])
    place = {id(table): i for i, table in enumerate(sources)}
    which = np.fromiter((place[id(state._table)] for state in states), dtype=np.intp,
                        count=len(states))
    books, bases = {}, np.zeros((len(sources), len(dims)), dtype=np.int32)
    for d in dict.fromkeys(dims):
        parties = [r for r, e in enumerate(dims) if e == d]
        sizes = [len(table[0][d]) for table in sources[:-1]]
        bases[:, parties] = np.cumsum([0] + sizes, dtype=np.int32)[:, None]
        books[d] = np.concatenate([table[0][d] for table in sources])
    starts = np.cumsum([0] + [len(table[1]) for table in sources[:-1]])
    codes = np.concatenate([table[1] for table in sources])
    return _read_only(books, codes[rows + starts[which]] + bases[which])


def _read_only(books, codes):
    """The code table ``(books, codes)``, its arrays marked read-only."""
    for array in (*books.values(), codes):
        array.flags.writeable = False
    return books, codes


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

    ``dims`` is the set's signature and ``table`` its code table
    (:meth:`StateSet._code_table`), which readers gather factor rows from.
    The factors of pair (j, k) vanish at party r when both |<a_j|a_k>_r| and
    |<a_k|a_j>_r| fall below ``orth_abs``, so each unordered pair is decided
    once; factors are unit vectors, so that cutoff does not depend on the
    party count.  ``zero_count[j, k]`` counts the parties where the pair
    vanishes: zero means the pair is not orthogonal, one means it is a
    conflict pair of that single party.  ``zero_count`` is symmetric, and
    every conflict pair's reverse is a conflict pair of the same party.
    ``conflict_pairs[r]`` holds party r's conflict pairs as an (m_r, 2)
    array, j outer and k inner.  Both are the same, bit for bit, whether
    :func:`factor_zero_pattern` decides party r on its own factors or once
    for a group of parties that hold the same factors.

    ``qubit_groups`` holds ``(parties, column, p, q)`` for each group of
    qubit parties decided at once: the int array of its parties, the (l,)
    codes of its first party in code order, which name every member's rows
    in its own code order, and the int arrays of the positions p < q of the
    pairs of those rows that vanish.  So each member's zeros
    are these pairs, read through its order, and a member with 2 len(p)
    conflict pairs has them all as conflict pairs.
    """

    dims: tuple
    table: tuple
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


def _qubit_zeros(book, codes, columns, tol: Tolerance):
    """Yield (column, j, k) index arrays of the pairs j < k whose factor
    overlaps <a_j|a_k> and <a_k|a_j> both fall below ``tol.orth_abs``, in
    the (l, 2) factors ``book[codes[:, column]]`` of a column in
    ``columns`` of the (l, C) int array ``codes``, each decided by
    :func:`_coordinate_sums`, the arithmetic of the party's Gram.  A column
    may hold a party's codes, a group representative's for a group of
    parties that hold the same factors (:func:`factor_zero_pattern`), or
    the rows of a list of seeds.

    Unit qubit factors have |<a|b>| = |n_a + n_b| / 2 for their Bloch
    vectors n, so the keys x = n.u on the unit axis u = _RAY_AXIS of a
    vanishing pair satisfy |x_a + x_b| <= 2 |<a|b>|.  Per batch of at most
    _RAY_PARTIES columns, gathered from ``book`` at once, the keys are
    sorted once, each column's shifted by 4 times its place in the batch,
    and every factor's candidates are the keys within 2 * orth_abs +
    _RAY_SLACK of minus its own: a superset of its vanishing partners, of
    which factor j keeps those k > j.  The window ends are searched in
    ascending order, each column's sorted keys reversed, where numpy's
    binary search starts from its last bound, and scattered back to factor
    order.  At most _RAY_PAIRS candidates are decided at a time, so sets
    whose keys cluster take more steps, not more memory.  The chunks come
    in the order of ``columns``, and each lists its pairs column by column
    in that order.  Its callers are :func:`factor_zero_pattern` and
    :func:`~locstab.constructions.validate_seeds`, which vets shift-family
    seeds with it.
    """
    if not len(columns):
        return
    size = len(codes)
    per = max(1, min(_RAY_PARTIES, _RAY_KEYS // max(size, 1)))
    window = 2.0 * tol.orth_abs + _RAY_SLACK
    for first in range(0, len(columns), per):
        batch = np.array(columns[first:first + per], dtype=np.intp)
        stacks = np.take(book, codes[:, batch].T, axis=0)
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
    at a time.  A set of fewer than _GROUP_MIN codes is not grouped: each
    of its parties is alone.
    """
    dims = state_set.dims
    if len(state_set) * len(dims) < _GROUP_MIN:
        return range(len(dims)), []
    books, codes = state_set._code_table()
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
    code table.

    Parties that hold the same factors in another order, such as every
    party of a shift family, are decided once per group
    (:func:`_party_groups`): on the first party's rows in code order, and
    each vanishing pair is read through every party's own order.  A party
    alone in its group is decided on its factors in state order.  Qubit
    factors are decided by :func:`_qubit_zeros`, which gathers them a batch
    of parties at a time, takes only the pairs near antipodal on the Bloch
    sphere and fills the upper triangle, then mirrored; every other party's
    factors are gathered on their own, and their Gram
    (:func:`_coordinate_sums`) keeps the zeros it holds in both orders and
    is dropped once they are counted.  Either way each zero is decided on
    the same two rows by the same arithmetic, and besides the table and one
    batch of gathered factors only (l, l) integer arrays are held.  A party
    where each pair vanishes is kept alongside the count, and the pairs
    vanishing once are grouped by it in one sort.  Each qubit group's codes
    and vanishing pairs are kept in ``qubit_groups``.
    """
    if not state_set.all_product:
        raise ValueError("factor_zero_pattern needs an all-product set")
    books, codes = table = state_set._code_table()
    size, dims = len(state_set), state_set.dims
    zero_count = np.zeros((size, size), dtype=np.int64)
    # the party where each pair vanishes: 16-bit when the party count
    # allows, so that the final stable sort is a radix sort (_sort_keys)
    last_zero = np.zeros((size, size), dtype=np.uint16 if len(dims) <= 1 << 16 else np.int64)
    alone, shared = _party_groups(state_set)
    qubits = [r for r in alone if dims[r] == 2]
    for parties, j, k in _qubit_zeros(books.get(2), codes, qubits, tol):
        _count_zeros(zero_count, last_zero, parties, j, k)
    groups, columns = [], []
    for parties, order in shared:
        column = codes[order, parties[0]]
        if dims[parties[0]] == 2:
            groups.append(parties)
            columns.append(column)
            continue
        book = books[dims[parties[0]]]
        p, q = np.nonzero(np.triu(_gram_zeros(np.take(book, column, axis=0), tol), 1))
        _count_shared(zero_count, last_zero, codes, len(book), parties, p, q)
    columns = np.array(columns, dtype=np.int32).reshape(len(groups), size).T
    held = _qubit_zeros(books.get(2), columns, range(len(groups)), tol)
    held = [np.stack(chunk) for chunk in held]
    held = np.concatenate(held, axis=1) if held else np.empty((3, 0), dtype=np.intp)
    bounds = np.searchsorted(held[0], np.arange(len(groups) + 1)).tolist()
    qubit_groups = tuple(
        (parties, column, held[1, a:b], held[2, a:b])
        for parties, column, a, b in zip(groups, columns.T, bounds, bounds[1:])
    )
    for parties, _, p, q in qubit_groups:
        _count_shared(zero_count, last_zero, codes, len(books[2]), parties, p, q)
    zero_count += zero_count.T
    last_zero += last_zero.T
    for r in alone:
        if dims[r] == 2:
            continue
        zeros = _gram_zeros(np.take(books[dims[r]], codes[:, r], axis=0), tol)
        zero_count += zeros
        np.copyto(last_zero, r, where=zeros)
    pairs = np.argwhere(zero_count == 1)
    parties = last_zero[pairs[:, 0], pairs[:, 1]]
    order = np.argsort(parties, kind="stable")
    bounds = np.searchsorted(parties[order], np.arange(len(dims) + 1)).tolist()
    pairs = pairs[order]
    conflict_pairs = tuple(pairs[a:b] for a, b in zip(bounds, bounds[1:]))
    return FactorZeroPattern(dims, table, zero_count, conflict_pairs, qubit_groups)


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
        books, codes = source.table
        values = np.ones(len(rows), dtype=complex)
        for party, d in enumerate(source.dims):
            left = np.take(books[d], codes[rows, party], axis=0)
            values *= _coordinate_sums(left.conj(), np.take(books[d], codes[cols, party], axis=0))
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


def _entry_table(entries, dims):
    """The code table of product ``entries`` in which every factor is its
    own codebook row (:func:`_identity_table`), or None when a number is
    not finite or a factor is zero.

    The entries' numbers are joined into one (l, sum d_r) complex table,
    and each local dimension's codebook, its parties' columns stacked
    party-major, is normalized by one :func:`_unit_rows` call.
    """
    size = len(entries)
    table = np.concatenate([entry.numbers for entry in entries]).view(complex).reshape(size, -1)
    starts = itertools.accumulate(dims, initial=0)
    books, codes = _identity_table(dims, [table[:, a:a + d] for a, d in zip(starts, dims)])
    try:
        for book in books.values():
            _unit_rows(book)
    except ValueError:
        return None
    return _read_only(books, codes)


def _parse_states(states_raw, dims):
    """The states of a well-formed payload, or None when any entry is not.

    Every entry goes through :func:`_entry`, which :func:`load_set` has
    already run on each as it was decoded.  Each dense entry becomes one
    amplitude vector.  The product states are the rows of the code table
    of :func:`_entry_table`, which an all-product set keeps as its own.
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
        table = _entry_table([entry for _, entry in products], dims)
        if table is None:
            return None
        for (pos, _), state in zip(products, ProductState._rows(table, dims)):
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
    text = _product_text if state_set.all_product else _dense_set_text
    with _acyclic():
        fh.writelines(text(state_set))
    fh.write("\n")


def save_set(state_set: StateSet, path) -> None:
    """Write ``state_set`` as the text ``json.dumps(payload, indent=2)``
    gives, plus a newline, one state at a time.  The payload is the object
    :func:`state_set_from_dict` reads: the label, the dims, and each state
    as ``{"product": [factor, ...]}`` or ``{"dense": amplitudes}``, every
    complex number an [re, im] pair.

    An all-product set is written from its code table, the one form it
    is stored in (:func:`_product_text`), and each codebook row a state
    uses is rendered once, so a set whose table repeats its factors, such
    as a shift family's or a file's that the loader split, formats few
    numbers.  A table in which every factor is its own row, such as that
    of a set of states built one by one, renders each factor.  The bytes
    are the same either way: a row's text depends on its bits alone.  The
    cost is a copy of the codes, and a row's text is held only from the
    first state that uses it to the last.
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


def _read_head(fh):
    """The label and dims of a file that opens with the head
    :func:`save_set` writes, read from the start of the binary file ``fh``,
    with the bytes read and the index in them of the first state's "{";
    None when the file does not open so.

    The file is read until it holds _HEAD_END, whatever the label, unless
    the bytes read stop being the start of _HEAD_LABEL, as a file in any
    other layout does within its first window; the JSON scanner reads the
    label and dims from the text before _HEAD_END, and that text must be
    the writer's head for them, byte for byte.
    """
    data, opening = b"", _HEAD_LABEL.encode()
    while (found := data.find(_HEAD_END)) < 0:
        if not opening.startswith(data[:len(opening)]):
            return None
        more = fh.read(max(len(data), _LOAD_BYTES))
        if not more:
            return None
        data += more
    try:
        head = data[:found].decode("ascii")
        label, at = _scan(head, len(_HEAD_LABEL))
        dims, _ = _scan(head, at + len(_HEAD_DIMS))
        if type(label) is not str or type(dims) is not list or not dims:
            return None
        if not all(type(d) is int for d in dims):
            return None
        dims = check_signature(dims)
    except (StopIteration, ValueError, RecursionError):
        return None
    if _head_text(label, dims).encode() != data[:found]:
        return None
    return label, dims, data, found + len(_STATES_OPEN)


def _state_end(data, start, brace):
    """Where the text of the state that ``data`` holds from its "{" at
    ``start`` ends: before the _NEXT_STATE that ends at ``brace``, the next
    state's "{", or with ``brace`` -1, before the _LAST_STATE that ends
    ``data``; None when those bytes are not there."""
    if brace < 0:
        return len(data) - len(_LAST_STATE) if data.endswith(_LAST_STATE, start) else None
    return brace - len(_NEXT_STATE) if data.endswith(_NEXT_STATE, start, brace) else None


def _factor_codes(data, start, end, numbers):
    """The numbers of the factors of the product state whose text ``data``
    holds from ``start`` to ``end``, or None when that text does not open
    with _PRODUCT_START and end with _STATE_END.

    The text between them splits at each _FACTOR_MARK (by _MARK_PATTERN)
    into one piece per factor, its text past its bracket, and each piece
    is numbered by its exact bytes in the dict ``numbers``, a new piece
    past every number the dict holds.
    """
    if not (data.startswith(_PRODUCT_START, start) and data.endswith(_STATE_END, start, end)):
        return None
    pieces = _MARK_PATTERN.split(data[start + len(_PRODUCT_START):end - len(_STATE_END)])
    return [numbers.setdefault(piece, len(numbers)) for piece in pieces]


def _read_dense_member(fh, data, total):
    """The amplitudes, a fresh complex vector, of the dense member of
    ``total`` amplitudes whose text ``data`` holds from its _DENSE_START
    on, read on from the binary file ``fh``, and the bytes held past it;
    None when the member is not in the layout or a window breaks a rule of
    :func:`_entry`.

    Each window of pairs, in brackets, must scan as one non-empty JSON list
    that ends where they end, so the windows' values, joined in order, are
    those of the whole list of pairs.  They pass :func:`_entry` one window
    at a time and fill one array of 2 ``total`` numbers.
    """
    numbers, filled, start = np.empty(2 * total), 0, len(_DENSE_START)
    while True:
        # the window ends at a pair's end past start + _LOAD_BYTES, or at
        # the member's end, before the next "{" or the file's end
        brace = data.find(b"{", start)
        cut = data.find(_PAIR_END, start + _LOAD_BYTES, brace if brace >= 0 else len(data))
        if cut < 0 and brace < 0 and (more := fh.read(_LOAD_BYTES)):
            data += more
            continue
        if cut >= 0:
            stop = cut + len(_PAIR_END) - 1
        else:
            end = _state_end(data, 0, brace)
            if end is None or not data.endswith(_STATE_END, start, end):
                return None
            stop = end - len(_STATE_END)
        try:
            text = "[" + data[start:stop].decode("ascii") + "]"
            values, at = _scan(text, 0)
        except (StopIteration, ValueError, RecursionError):
            return None
        entry = _entry({"dense": values})
        if at != len(text) or not values or not isinstance(entry, _Entry):
            return None
        if filled + len(entry.numbers) > len(numbers):
            return None
        numbers[filled:filled + len(entry.numbers)] = entry.numbers
        filled += len(entry.numbers)
        if cut < 0:
            break
        data, start = data[stop + 1:], 0
    if filled != len(numbers):
        return None
    return numbers.view(complex), data[brace:] if brace >= 0 else b""


def _factor_table(factors, codes, dims):
    """The read-only code table of the product states of a file, or None
    when a factor's length is not its party's, or a factor is zero or not
    finite.

    ``factors`` holds the lengths and the numbers of the numbered factors,
    in order, as pairs of arrays: first those of the distinct factor texts,
    whose numbers ``codes`` lists, P to a state, for the states read while
    texts were numbered; then one pair for each later state.  The factors
    of each local dimension are normalized by one :func:`_unit_rows` call
    into its codebook, so every row has the bits the decoder route
    (:func:`_entry_table`) gives that factor.
    """
    lengths = np.concatenate([pair[0] for pair in factors])
    codes = np.concatenate([
        np.array(codes, dtype=np.int32), np.arange(len(factors[0][0]), len(lengths), dtype=np.int32)
    ]).reshape(-1, len(dims))
    if not (lengths[codes] == dims).all():
        return None
    table = np.concatenate([pair[1] for pair in factors]).view(complex)
    if len(set(dims)) == 1:
        # one local dimension: the table as it is holds its codebook
        books = {dims[0]: table.reshape(-1, dims[0])}
    else:
        firsts = np.cumsum(lengths) - lengths
        books, rows = {}, np.empty(len(lengths), dtype=np.int32)
        for d in set(dims):
            ids = np.flatnonzero(lengths == d)
            books[d] = table[firsts[ids][:, None] + np.arange(d)]
            rows[ids] = np.arange(len(ids))
        codes = rows[codes]
    try:
        for book in books.values():
            _unit_rows(book)
    except ValueError:
        return None
    return _read_only(books, codes)


def _read_layout(fh):
    """The set whose file :func:`save_set` wrote, read from the binary file
    ``fh`` one state at a time, when the file is exactly that layout and
    every state is well formed; else None, and nothing is decided about
    the file.

    The head must be the writer's (:func:`_read_head`), and each state's
    text is read only up to the next state's "{" (:func:`_state_end`).  A
    dense member is read one window of pairs at a time
    (:func:`_read_dense_member`) and becomes its state at once.  The
    factors of the product states are numbered by their exact texts in one
    dict across the file (:func:`_factor_codes`), and each distinct text
    is scanned once (:func:`_scan_factors`), so a set that repeats its
    factors, such as a shift family, scans few numbers.  Once the pieces of
    at least three states of P factors are numbered and more than half of
    them are distinct, the file repeats too few factors for that to pay,
    and holding its distinct texts would cost about its size: the texts
    numbered so far are scanned, and every later product state is scanned
    whole, its factors numbered in order, by the JSON scanner, whose object
    hook, :func:`_entry`, turns it into an :class:`_Entry`.  The numbered
    factors become one code table (:func:`_factor_table`).
    """
    head = _read_head(fh)
    if head is None:
        return None
    label, dims, data, pos = head
    parties, total, size = len(dims), math.prod(dims), fh.seek(0, io.SEEK_END)
    fh.seek(len(data))
    scan, signature = json.JSONDecoder(object_hook=_entry).scan_once, np.array(dims)
    # numbers: each distinct factor text's number, until the texts are
    # scanned; codes: the numbers of the factors of each state read until
    # then, in turn; factors: as _factor_table takes them; states: each
    # dense member, and None for a product state
    numbers, codes, factors, states = {}, [], [], []
    while True:
        if numbers and (pos == len(data) or 2 * len(numbers) > len(codes) >= 3 * parties):
            factors.append(_scan_factors(numbers))
            if factors[-1] is None:
                return None
            numbers = None
        if pos == len(data):
            break
        # data holds the text from a state's "{", at pos, on
        while len(data) - pos < len(_DENSE_START) and (more := fh.read(_LOAD_BYTES)):
            data, pos = data[pos:] + more, 0
        if data.startswith(_DENSE_START, pos):
            # a file that holds a member of total pairs is longer than its
            # separators: refuse a shorter one, or a member past the dense
            # limit, before allocating the numbers
            if total > MAX_DENSE_DIMENSION or total * len(_PAIR_SEP) > size:
                return None
            member = _read_dense_member(fh, data[pos:], total)
            if member is None:
                return None
            amplitudes, data = member
            try:
                states.append(DenseState._normalized(amplitudes, dims))
            except ValueError:
                return None
            pos = 0
            continue
        # each read asks for what is held, at least _LOAD_BYTES
        while (brace := data.find(b"{", pos + 1)) < 0 and (
            more := fh.read(max(len(data) - pos, _LOAD_BYTES))
        ):
            data, pos = data[pos:] + more, 0
        end = _state_end(data, pos, brace)
        if end is None:
            return None
        if numbers is not None:
            row = _factor_codes(data, pos, end, numbers)
            if row is None or len(row) != parties:
                return None
            codes += row
        else:
            try:
                text = data[pos:end].decode("ascii")
                entry, stop = scan(text, 0)
            except (StopIteration, ValueError, RecursionError):
                return None
            if stop != len(text) or not isinstance(entry, _Entry) or entry.lengths != dims:
                return None
            factors.append((signature, entry.numbers))
        states.append(None)
        pos = brace if brace >= 0 else len(data)
    if factors:
        table = _factor_table(factors, codes, dims)
        if table is None:
            return None
        rows = iter(ProductState._rows(table, dims))
        states = [next(rows) if state is None else state for state in states]
    return StateSet(dims, states, label)


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
    or the same error.  Input that cannot seek, such as a pipe, is read
    whole first.

    A file in the exact layout :func:`save_set` writes is read one state
    at a time (:func:`_read_layout`), so the load holds one state's text,
    or one window of _LOAD_BYTES of a dense member's pairs, beside the
    set's numbers.  Each distinct factor text is parsed once and each
    local dimension's distinct factors are normalized into one codebook,
    so a set that repeats its factors, such as a shift family, scans few
    numbers: the load of a random-seed ``shift_family(100)`` holds a
    seventh of its file.  A file that the reader does not accept, in any
    byte, has nothing decided by it; a file whose first bytes are not the
    writer's head is refused within its first window.

    Every other file, in a layout of its own or malformed, is read from its
    start as text (UTF-8, universal newlines) and decoded as JSON.  Each
    state entry is turned into numbers as soon as it is decoded
    (:func:`_entry`), so the set's nested lists are never held, and the
    load peaks at about twice the file, its bytes and its text.  The
    product members become the rows of one code table in which every
    factor is its own codebook row (:func:`_entry_table`).  The hook cannot
    tell a state entry from a one-key object elsewhere, so a refused
    payload is decoded once more as plain JSON, whose offending field the
    error then names.

    The cyclic garbage collector is paused for the whole process while the
    layout reader reads the file or the JSON is decoded, and only then
    (:func:`_acyclic`): they build only containers that cannot form a cycle
    and that reference counting frees as before, while a dense entry's
    thousands of pair lists would otherwise set off many collections that
    find nothing.  The collector is restored however the read ends, stays
    off if the caller had turned it off, and may be seen paused by another
    thread meanwhile.
    """
    with open(path, "rb") as fh:
        if not fh.seekable():
            fh = io.BytesIO(fh.read())
        with _acyclic():
            state_set = _read_layout(fh)
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
