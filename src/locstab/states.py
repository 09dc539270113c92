"""Multipartite pure-state data model.

States live over a fixed party-dimension signature and come in two shapes:
fully product (one unit factor per party) or dense (one amplitude vector
over the tensor-product space).  Indexing is row-major with the leftmost
party most significant, here and in the JSON file format.
"""

from __future__ import annotations

import cmath
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from ._jsonout import LazyList, iter_json
from .numerics import DEFAULT_TOL, Tolerance, _orthonormal_rows, vec_inner

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
    "bpart_decompose",
    "factorize",
    "state_set_to_dict",
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

# Complex factor entries turned into one block of JSON payloads by save_set.
_SAVE_BLOCK = 1 << 16


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
    divided by its largest real or imaginary part.
    """
    re, im = stack.real, stack.imag
    with np.errstate(over="ignore"):
        squares = np.vecdot(re, re) + np.vecdot(im, im)
    extreme = np.flatnonzero(~np.isfinite(squares) | (squares < np.finfo(float).tiny))
    if extreme.size:
        scale = np.maximum(np.abs(re[extreme]), np.abs(im[extreme])).max(axis=1)
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
    """

    __slots__ = ("dims", "states", "label", "factors")

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
        self.factors = None
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

    def subset(self, indices, label=None) -> "StateSet":
        """A new set holding the states at ``indices``, in the given order;
        an all-product set's subset takes its stacks' rows."""
        rows = [range(len(self))[i] for i in indices]
        if label is None:
            label = f"{self.label}[{','.join(str(i) for i in indices)}]"
        if self.factors is None:
            return StateSet(self.dims, [self.states[i] for i in rows], label)
        rows = np.array(rows, dtype=np.intp)
        return StateSet._from_stacks(self.dims, [stack[rows] for stack in self.factors], label)

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
    The factors of pair (j, k) vanish at party r when |<a_j|a_k>_r| <
    ``orth_abs``; factors are unit vectors, so that cutoff does not depend
    on the party count.  ``zero_count[j, k]`` counts the parties where the
    pair vanishes: zero means the pair is not orthogonal, one means it is a
    conflict pair of that single party.  ``conflict_pairs[r]`` holds party
    r's conflict pairs as an (m_r, 2) array, j outer and k inner.
    """

    factors: tuple
    zero_count: np.ndarray
    conflict_pairs: tuple


def _coordinate_sums(left, right) -> np.ndarray:
    """``sum_c left[..., c] * right[..., c]``: materialized products added in
    coordinate order, with no dot or matmul kernel, so a pair's factor
    overlap has the same bits wherever it is taken."""
    sums = left[..., 0] * right[..., 0]
    for c in range(1, left.shape[-1]):
        sums += left[..., c] * right[..., c]
    return sums


def _qubit_zeros(factors, parties, tol: Tolerance):
    """Yield (party, j, k) index arrays of the ordered pairs whose factor
    overlap <a_j|a_k> at a qubit party in ``parties`` falls below
    ``tol.orth_abs``, each decided by :func:`_coordinate_sums`, the
    arithmetic of the party's Gram.

    Unit qubit factors have |<a|b>| = |n_a + n_b| / 2 for their Bloch
    vectors n, so the keys x = n.u on the unit axis u = _RAY_AXIS of a
    vanishing pair satisfy |x_a + x_b| <= 2 |<a|b>|.  Per batch of at most
    _RAY_PARTIES parties, the keys are sorted once, each party's shifted by
    4 times its place in the batch, and every factor's candidates are the
    keys within 2 * orth_abs + _RAY_SLACK of minus its own: a superset of
    its vanishing partners.  At most _RAY_PAIRS candidates are decided at a
    time, so sets whose keys cluster take more steps, not more memory.
    """
    size = len(factors[0])
    per = max(1, min(_RAY_PARTIES, _RAY_KEYS // max(size, 1)))
    window = 2.0 * tol.orth_abs + _RAY_SLACK
    for first in range(0, len(parties), per):
        batch = np.array(parties[first:first + per], dtype=np.intp)
        stacks = np.stack([factors[r] for r in batch])
        up, down = stacks[..., 0], stacks[..., 1]
        cross = up.conj() * down
        keys = 2.0 * (_RAY_AXIS[0] * cross.real + _RAY_AXIS[1] * cross.imag) + _RAY_AXIS[2] * (
            up.real**2 + up.imag**2 - down.real**2 - down.imag**2
        )
        shift = 4.0 * np.arange(len(batch))[:, None]
        order = np.argsort(keys, axis=1)
        ranked = (np.take_along_axis(keys, order, axis=1) + shift).ravel()
        targets = (shift - keys).ravel()
        low = np.searchsorted(ranked, targets - window, "left")
        counts = np.searchsorted(ranked, targets + window, "right") - low
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
            zero = np.abs(_coordinate_sums(stacks[place, j].conj(), stacks[place, k])) < tol.orth_abs
            yield batch[place[zero]], j[zero], k[zero]
            start = stop


def factor_zero_pattern(state_set: StateSet, tol: Tolerance = DEFAULT_TOL) -> FactorZeroPattern:
    """Build the :class:`FactorZeroPattern` of an all-product set from its
    factor stacks.

    Qubit parties are decided by :func:`_qubit_zeros`, which takes only the
    pairs near antipodal on the Bloch sphere; every other party's Gram
    (:func:`_coordinate_sums`) is dropped once its zeros are counted.
    Either way each zero is decided by the same arithmetic, and besides the
    factors only (l, l) integer arrays are held.  The last party where each
    pair vanishes is kept alongside the count, and the pairs vanishing once
    are grouped by it in one sort.
    """
    factors = state_set.factors
    if factors is None:
        raise ValueError("factor_zero_pattern needs an all-product set")
    size = len(state_set)
    zero_count = np.zeros((size, size), dtype=np.int64)
    last_zero = np.zeros((size, size), dtype=np.int64)
    qubits = [r for r, d in enumerate(state_set.dims) if d == 2]
    for parties, j, k in _qubit_zeros(factors, qubits, tol):
        np.add.at(zero_count, (j, k), 1)
        last_zero[j, k] = parties
    for r, stack in enumerate(factors):
        if stack.shape[1] == 2:
            continue
        zeros = np.abs(_coordinate_sums(stack.conj()[:, None], stack[None])) < tol.orth_abs
        zero_count += zeros
        np.copyto(last_zero, r, where=zeros)
    pairs = np.argwhere(zero_count == 1)
    parties = last_zero[pairs[:, 0], pairs[:, 1]]
    order = np.argsort(parties, kind="stable")
    bounds = np.searchsorted(parties[order], np.arange(len(factors) + 1)).tolist()
    pairs = pairs[order]
    conflict_pairs = tuple(pairs[a:b] for a, b in zip(bounds, bounds[1:]))
    return FactorZeroPattern(factors, zero_count, conflict_pairs)


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

    A product pair is orthogonal when at least one of its factor overlaps
    falls below ``tol.orth_abs``; a pair with a dense member when its full
    inner product does.
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


def bpart_decompose(state: DenseState, i: int):
    """Split a dense state across party ``i``.

    Returns one (possibly zero, unnormalized) vector in party i's space per
    computational basis state of the remaining parties, indexed row-major
    over the remaining parties in their original order; summing
    |j>_rest (x) v_j at party i's slot reassembles the state.  Each vector
    is an independent, writable copy.
    """
    dims = state.dims
    if not 0 <= i < len(dims):
        raise IndexError(f"party {i} out of range for {len(dims)} parties")
    return [row.copy() for row in _party_blocks(state.amplitudes[None], dims, i)]


def factorize(state: DenseState, tol: Tolerance = DEFAULT_TOL) -> ProductState | None:
    """The product state equal to ``state`` up to a global phase, or None
    when it is not one.

    Split at any party (the :func:`bpart_decompose` layout), a product
    state's blocks are all multiples of that party's factor, so each split
    must have rank 1 under the rank kernel, and its unit pivot is the
    factor.  Parties are split one at a time, stopping at the first of
    higher rank.  The rebuilt product is accepted only when
    1 - |<rebuild|state>| < ``tol.orth_abs``.
    """
    factors = []
    for party in range(len(state.dims)):
        # the split can be a view of the read-only amplitudes, and the rank
        # kernel overwrites its input
        split = np.array(_party_blocks(state.amplitudes[None], state.dims, party)[None])
        pivots, ranks = _orthonormal_rows(split, tol.rank_rel)
        if ranks[0] != 1:
            return None
        factors.append(pivots[0, 0])
    product = ProductState(factors)
    overlap = vec_inner(tensor_expand(product).amplitudes, state.amplitudes)
    return product if 1.0 - abs(overlap) < tol.orth_abs else None


def _complex_pairs(arr):
    """``arr`` as nested lists with each complex number an [re, im] pair."""
    arr = np.ascontiguousarray(arr, dtype=complex)
    return arr.view(float).reshape(arr.shape + (2,)).tolist()


def _state_payload(state) -> dict:
    if isinstance(state, DenseState):
        return {"dense": _complex_pairs(state.amplitudes)}
    if len(set(state.dims)) == 1:
        # one (parties, d) array instead of one small array per factor
        return {"product": _complex_pairs(state.factors)}
    return {"product": [_complex_pairs(f) for f in state.factors]}


def _state_payloads(state_set: StateSet):
    """Yield each state's payload in order.  When every party has one local
    dimension, an all-product set's come from its factor stacks, in blocks
    of states holding at most _SAVE_BLOCK factor entries; other sets are
    written state by state."""
    stacks = state_set.factors
    if stacks is None or len(set(state_set.dims)) > 1:
        yield from map(_state_payload, state_set.states)
        return
    per = max(1, _SAVE_BLOCK // sum(state_set.dims))
    for start in range(0, len(state_set), per):
        # one (states, parties, d) array: each state's (parties, d) factors
        for factors in np.stack([stack[start:start + per] for stack in stacks], axis=1):
            yield {"product": _complex_pairs(factors)}


def _set_payload(state_set: StateSet, states_payload) -> dict:
    return {
        "label": state_set.label,
        "dims": list(state_set.dims),
        "states": states_payload,
    }


def state_set_to_dict(state_set: StateSet) -> dict:
    """The JSON-ready payload for a state set."""
    return _set_payload(state_set, list(_state_payloads(state_set)))


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
    """Whether every item of ``values`` is an instance of ``types`` and none
    is a bool; checked once per distinct type."""
    return all(issubclass(t, types) and t is not bool for t in set(map(type, values)))


def _pair_rows(rows, width):
    """``rows``, lists of ``width`` [re, im] pairs, as one complex
    (len(rows), width) array; None when a row, pair or number breaks the
    per-field rules of :func:`_parse_pair`."""
    chain = itertools.chain.from_iterable
    if not (
        _only(rows, list)
        and _only(chain(rows), (list, tuple))
        and _only(chain(chain(rows)), (int, float))
    ):
        return None
    try:
        numbers = np.array(rows, dtype=float)
    except (TypeError, ValueError, OverflowError):
        return None
    if numbers.shape != (len(rows), width, 2) or not np.isfinite(numbers).all():
        return None
    return numbers.view(complex)[..., 0]


def _parse_states(states_raw, dims):
    """The states of a well-formed payload, or None when any entry is not.

    One structural pass sorts the entries by kind.  Each party's product
    factors are then parsed into one (l, d_r) stack and normalized by
    :func:`_unit_rows`, and the product states are the rows of those
    stacks, which an all-product set keeps as its own; each dense amplitude
    vector is parsed as one array.
    """
    products, dense = [], []
    total = math.prod(dims)
    for pos, entry in enumerate(states_raw):
        if not isinstance(entry, dict) or len(entry) != 1:
            return None
        kind, value = next(iter(entry.items()))
        if kind == "product" and isinstance(value, list) and len(value) == len(dims):
            products.append((pos, value))
        elif kind == "dense" and isinstance(value, list) and len(value) == total:
            dense.append((pos, value))
        else:
            return None

    states = [None] * len(states_raw)
    if products:
        stacks = []
        for party, d in enumerate(dims):
            stack = _pair_rows([factors[party] for _, factors in products], d)
            if stack is None:
                return None
            try:
                stacks.append(_unit_rows(stack))
            except ValueError:
                return None
        for (pos, _), state in zip(products, ProductState._rows(tuple(stacks), dims)):
            states[pos] = state
    for pos, amps_raw in dense:
        amps = _pair_rows([amps_raw], total)
        if amps is None:
            return None
        try:
            states[pos] = DenseState(amps[0], dims)
        except ValueError:
            return None
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


def save_set(state_set: StateSet, path) -> None:
    """Write ``state_set`` as the text of ``json.dumps(state_set_to_dict(...),
    indent=2)`` plus a newline, building one state's payload at a time."""
    payload = _set_payload(state_set, LazyList(_state_payloads(state_set), len(state_set)))
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(iter_json(payload))
        fh.write("\n")


def load_set(path) -> StateSet:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise StateFormatError(f"invalid JSON: {exc}") from None
        except RecursionError:
            raise StateFormatError("invalid JSON: nesting too deep") from None
    return state_set_from_dict(payload)
