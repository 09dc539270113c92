"""Complex linear-algebra kernel: inner products, tolerance-controlled span
ranks, and Hilbert-Schmidt orthogonal complements.

Vectors are 1-D complex arrays and operators are square 2-D complex arrays;
every function is pure and leaves its inputs untouched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Tolerance",
    "DEFAULT_TOL",
    "vec_inner",
    "hs_inner",
    "span_rank",
    "orthocomplement_basis",
]


@dataclass(frozen=True)
class Tolerance:
    """Numerical cutoffs shared across the package.

    ``rank_rel`` scales the dead-pivot threshold of rank computations
    relative to the largest input row norm.  ``orth_abs`` is the absolute
    magnitude below which an inner product counts as zero.  For product sets
    it applies per factor overlap, never to a product of overlaps; factors
    are unit vectors, so the cutoff does not depend on the party count.
    """

    rank_rel: float = 1e-8
    orth_abs: float = 1e-10

    def __post_init__(self):
        for name in ("rank_rel", "orth_abs"):
            value = getattr(self, name)
            if not 0.0 < value < 1e-2:
                raise ValueError(f"{name} must lie in (0, 1e-2), got {value!r}")


DEFAULT_TOL = Tolerance()


def vec_inner(a, b) -> complex:
    """Inner product of two amplitude vectors, conjugating the first slot.

    Products are materialized before summing (no fused multiply-add), so
    structurally cancelling entries give an exact zero; stability checks on
    many parties rely on that.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim != 1 or b.ndim != 1:
        raise ValueError("vec_inner expects 1-D amplitude vectors")
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")
    return complex((a.conj() * b).sum())


def hs_inner(m, n) -> complex:
    """Hilbert-Schmidt pairing Tr(M_adj N) of two equal-size square matrices."""
    m = np.asarray(m, dtype=complex)
    n = np.asarray(n, dtype=complex)
    _require_square(m)
    _require_square(n)
    if m.shape != n.shape:
        raise ValueError(f"shape mismatch: {m.shape} vs {n.shape}")
    return complex((m.conj() * n).sum())


def span_rank(mats, tol: Tolerance = DEFAULT_TOL) -> int:
    """Complex dimension of the linear span of square matrices, given as a
    list or as one (m, d, d) array.

    Each matrix is flattened to a row and the rows are eliminated in input
    order; a pivot counts as dead once its magnitude drops below
    ``tol.rank_rel`` times the largest initial row norm.  The empty list has
    rank 0.
    """
    rows, _ = _flattened_rows(mats)
    return len(_orthonormal_rows(rows, tol.rank_rel))


def orthocomplement_basis(mats, tol: Tolerance = DEFAULT_TOL, dim: int | None = None):
    """Orthonormal Hilbert-Schmidt basis of the orthogonal complement of
    span(mats) inside the full d x d matrix space.

    ``dim`` fixes d when ``mats`` is empty and must otherwise agree with the
    shared matrix size.  Together with ``span_rank`` the dimensions always
    add up to d**2.
    """
    rows, d = _flattened_rows(mats)
    if d is None:
        if dim is None:
            raise ValueError("dim is required when no matrices are given")
        d = int(dim)
    elif dim is not None and int(dim) != d:
        raise ValueError(f"dim={dim} disagrees with matrix size {d}")
    if d < 1:
        raise ValueError("dim must be positive")

    span_basis = _orthonormal_rows(rows.reshape(-1, d * d), tol.rank_rel)
    # Every row below has unit norm, so the span basis is accepted again as
    # it stands and each unit vector is eliminated against it and against the
    # complement vectors found before it, at the absolute cutoff rank_rel.
    units = np.eye(d * d, dtype=complex)
    basis = _orthonormal_rows(np.concatenate([span_basis, units]), tol.rank_rel)
    return list(basis[len(span_basis):].reshape(-1, d, d))


def _require_square(m):
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")


def _flattened_rows(mats):
    """Validate equally sized square matrices, given as a list or as one
    (m, d, d) array; return them as an (m, d*d) row stack and d, which is
    None for an empty list."""
    if not isinstance(mats, np.ndarray):
        arrays = [np.asarray(m, dtype=complex) for m in mats]
        for a in arrays:
            _require_square(a)
        sizes = {a.shape[0] for a in arrays}
        if len(sizes) > 1:
            raise ValueError(f"matrices differ in size: {sorted(sizes)}")
        if not arrays:
            return np.empty((0, 0), dtype=complex), None
        mats = np.stack(arrays)
    if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
        raise ValueError(
            f"expected an (m, d, d) stack of square matrices, got shape {mats.shape}"
        )
    d = mats.shape[1]
    return mats.reshape(len(mats), d * d), d


def _row_norms(rows):
    """Euclidean norms of the rows of a C-contiguous complex array."""
    flat = rows.view(np.float64)
    return np.sqrt((flat * flat).sum(axis=1))


def _orthonormal_rows(rows, rank_rel):
    """Modified Gram-Schmidt over the rows of a 2-D array, in row order.

    The first row whose residual norm reaches ``rank_rel`` times the largest
    initial row norm becomes the next unit pivot, and that pivot is projected
    out of every later row at once, twice for numerical stability.  A row
    whose residual falls below the cutoff is dependent and never revisited,
    since projections only shrink it.  Stops once no row is left or the
    basis fills the row space, so there are at most ``rows.shape[1]`` steps.
    Returns the pivots as a (rank, n) array.
    """
    rows = np.ascontiguousarray(rows, dtype=complex)
    width = rows.shape[1]
    norms = _row_norms(rows)
    threshold = rank_rel * norms.max(initial=0.0)
    basis = []
    while threshold > 0.0 and len(basis) < width:
        alive = (norms >= threshold).nonzero()[0]
        if not alive.size:
            break
        pivot = rows[alive[0]] / norms[alive[0]]
        basis.append(pivot)
        rows = rows[alive[1:]]
        # elementwise products rather than a BLAS call, so the result does
        # not depend on the BLAS build
        for _ in range(2):
            rows -= (rows * pivot.conj()).sum(axis=1)[:, None] * pivot
        norms = _row_norms(rows)
    return np.array(basis, dtype=complex).reshape(len(basis), width)
