"""Multipartite pure-state data model.

States live over a fixed party-dimension signature and come in two shapes:
fully product (one unit factor per party) or dense (one amplitude vector
over the tensor-product space).  Indexing is row-major with the leftmost
party most significant, here and in the JSON file format.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .numerics import DEFAULT_TOL, Tolerance, vec_inner

__all__ = [
    "MAX_DENSE_DIMENSION",
    "StateFormatError",
    "check_signature",
    "ProductState",
    "DenseState",
    "StateSet",
    "tensor_expand",
    "as_dense",
    "state_inner",
    "FactorZeroPattern",
    "factor_zero_pattern",
    "check_mutual_orthogonality",
    "rest_inner",
    "bpart_decompose",
    "states_close",
    "state_set_to_dict",
    "state_set_from_dict",
    "save_set",
    "load_set",
]

# Dense amplitude vectors beyond this length are refused; product states
# carry no such limit since they never materialize the full tensor.
MAX_DENSE_DIMENSION = 1 << 26


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


def _unit(vec) -> np.ndarray:
    arr = np.array(vec, dtype=complex)
    if arr.ndim != 1:
        raise ValueError("amplitude vectors must be 1-D")
    norm = np.linalg.norm(arr)
    if norm == 0.0:
        raise ValueError("cannot normalize a zero vector")
    arr /= norm
    arr.flags.writeable = False
    return arr


class ProductState:
    """A fully product multipartite pure state; factors are stored unit-norm."""

    __slots__ = ("factors",)

    def __init__(self, factors):
        self.factors = tuple(_unit(f) for f in factors)
        check_signature(self.dims)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(f.shape[0] for f in self.factors)

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
    """An ordered collection of states over one signature; the unit of checking."""

    __slots__ = ("dims", "states", "label")

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

    def __len__(self):
        return len(self.states)

    def __iter__(self):
        return iter(self.states)

    def __getitem__(self, index):
        return self.states[index]

    @property
    def all_product(self) -> bool:
        return all(isinstance(s, ProductState) for s in self.states)

    @property
    def total_dimension(self) -> int:
        return math.prod(self.dims)

    def subset(self, indices, label=None) -> "StateSet":
        """A new set holding the states at ``indices``, in the given order."""
        picked = [self.states[i] for i in indices]
        if label is None:
            label = f"{self.label}[{','.join(str(i) for i in indices)}]"
        return StateSet(self.dims, picked, label)

    def __repr__(self):
        return f"StateSet(label={self.label!r}, dims={self.dims}, size={len(self)})"


def tensor_expand(state: ProductState) -> DenseState:
    """Kronecker-expand a product state into its dense amplitude vector."""
    total = math.prod(state.dims)
    if total > MAX_DENSE_DIMENSION:
        raise ValueError(
            f"total dimension {total} exceeds the dense limit {MAX_DENSE_DIMENSION}"
        )
    amps = state.factors[0]
    for factor in state.factors[1:]:
        amps = np.kron(amps, factor)
    return DenseState(amps, state.dims)


def as_dense(state) -> DenseState:
    return state if isinstance(state, DenseState) else tensor_expand(state)


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


@dataclass(frozen=True)
class FactorZeroPattern:
    """Which factor overlaps of an all-product set vanish, from one pass.

    ``factors[r]`` stacks the unit factors of party r as an (l, d_r) array.
    ``zeros[r, j, k]`` is true when |<a_j|a_k>_r| < ``orth_abs``; factors are
    unit vectors, so that cutoff does not depend on the party count.
    ``zero_count[j, k]`` counts the parties where the pair vanishes, and
    ``nonzero_product[j, k]`` multiplies the overlaps <a_j|a_k>_r that do not
    vanish, party by party in order.
    """

    factors: tuple
    zeros: np.ndarray
    zero_count: np.ndarray
    nonzero_product: np.ndarray

    def offending_pairs(self):
        """Ordered pairs (j, k, <j|k>) with no vanishing factor overlap, i.e.
        the non-orthogonal pairs; the value is their full product overlap."""
        bad = self.zero_count == 0
        np.fill_diagonal(bad, False)
        return [
            (j, k, complex(self.nonzero_product[j, k]))
            for j, k in np.argwhere(bad).tolist()
        ]


def factor_zero_pattern(state_set: StateSet, tol: Tolerance = DEFAULT_TOL) -> FactorZeroPattern:
    """Build the :class:`FactorZeroPattern` of an all-product set.

    Each party's factor Gram sums its materialized products in coordinate
    order, without fused multiply-adds, so exactly cancelling factor pairs
    (a state and its orthogonal partner) come out as exact zeros.  It is
    dropped once folded in: no complex (parties, l, l) tensor is held.
    """
    if not state_set.all_product:
        raise ValueError("factor_zero_pattern needs an all-product set")
    size = len(state_set)
    factors = []
    zeros = np.empty((len(state_set.dims), size, size), dtype=bool)
    zero_count = np.zeros((size, size), dtype=np.int64)
    product = np.ones((size, size), dtype=complex)
    for r, d in enumerate(state_set.dims):
        stacked = np.array([s.factors[r] for s in state_set.states]).reshape(size, d)
        conj = stacked.conj()
        gram = conj[:, None, 0] * stacked[None, :, 0]
        for c in range(1, d):
            gram += conj[:, None, c] * stacked[None, :, c]
        np.less(np.abs(gram), tol.orth_abs, out=zeros[r])
        zero_count += zeros[r]
        gram[zeros[r]] = 1.0
        product *= gram
        factors.append(stacked)
    return FactorZeroPattern(tuple(factors), zeros, zero_count, product)


def _span_source(state_set: StateSet, tol: Tolerance):
    """What orthogonality and span checks read: the factor zero pattern of an
    all-product set, else the (l, D) stack of dense amplitudes."""
    if state_set.all_product:
        return factor_zero_pattern(state_set, tol)
    return np.stack([as_dense(s).amplitudes for s in state_set.states])


def _offending_pairs(source, tol: Tolerance):
    """Non-orthogonal ordered pairs (j, k, <j|k>) of a :func:`_span_source`,
    j outer and k inner."""
    if isinstance(source, FactorZeroPattern):
        return source.offending_pairs()
    overlaps = np.stack([(row.conj() * source).sum(axis=1) for row in source])
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


def rest_inner(state_set: StateSet, j: int, k: int, i: int) -> complex:
    """Inner product of states k and j over every party except ``i``
    (conjugate-linear in state k's factors)."""
    if not state_set.all_product:
        raise ValueError(
            "rest_inner needs an all-product set; decompose dense states with "
            "bpart_decompose and use the general span path instead"
        )
    size = len(state_set)
    if not (0 <= j < size and 0 <= k < size):
        raise IndexError(f"state indices ({j}, {k}) out of range for size {size}")
    if j == k:
        raise ValueError("rest_inner needs two distinct states (j != k)")
    if not 0 <= i < len(state_set.dims):
        raise IndexError(f"party {i} out of range for {len(state_set.dims)} parties")
    out = 1.0 + 0.0j
    for r in range(len(state_set.dims)):
        if r != i:
            out *= vec_inner(state_set[k].factors[r], state_set[j].factors[r])
    return complex(out)


def _party_blocks(amplitudes, dims, party):
    """Split an (l, D) amplitude stack at ``party`` into (l, D/d_i, d_i)
    blocks: row r of block k is state k's vector in party i's space for the
    r-th computational basis state of the other parties, row-major in their
    original order.  May share memory with ``amplitudes``."""
    moved = np.moveaxis(amplitudes.reshape((len(amplitudes),) + dims), 1 + party, -1)
    return np.ascontiguousarray(moved.reshape(len(amplitudes), -1, dims[party]))


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
    return [row.copy() for row in _party_blocks(state.amplitudes[None], dims, i)[0]]


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


def _complex_pairs(vec):
    return [[float(z.real), float(z.imag)] for z in np.asarray(vec, dtype=complex)]


def state_set_to_dict(state_set: StateSet) -> dict:
    """The JSON-ready payload for a state set."""
    states_payload = []
    for state in state_set:
        if isinstance(state, ProductState):
            states_payload.append(
                {"product": [_complex_pairs(f) for f in state.factors]}
            )
        else:
            states_payload.append({"dense": _complex_pairs(state.amplitudes)})
    return {
        "label": state_set.label,
        "dims": list(state_set.dims),
        "states": states_payload,
    }


def _parse_pair(value, where):
    ok = (
        isinstance(value, (list, tuple))
        and len(value) == 2
        and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in value)
    )
    if not ok:
        raise StateFormatError(f"{where}: expected a [re, im] number pair")
    return complex(value[0], value[1])


def state_set_from_dict(payload) -> StateSet:
    """Parse a state-set payload, naming the offending field on failure."""
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

    states = []
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
                states.append(ProductState(factors))
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
                states.append(DenseState(amps, dims))
            except ValueError as exc:
                raise StateFormatError(f"{where}.dense: {exc}") from None
        else:
            raise StateFormatError(f"{where}: unknown state kind {kind!r}")
    return StateSet(dims, states, label)


def save_set(state_set: StateSet, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(state_set_to_dict(state_set), fh, indent=2)
        fh.write("\n")


def load_set(path) -> StateSet:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise StateFormatError(f"invalid JSON: {exc}") from None
    return state_set_from_dict(payload)
