"""Complex linear-algebra kernel: inner products, tolerance-controlled span
ranks, and Hilbert-Schmidt orthogonal complements.

Vectors are 1-D complex arrays and operators are square 2-D complex arrays;
every public function is pure and leaves its inputs untouched.  All ranks
and complements come from one elimination kernel, ``_orthonormal_rows``,
which runs Gram-Schmidt over a (B, m, n) stack of row sets at once with a
dead-pivot cutoff set per row set, so zero rows and the other sets in the
stack never move a set's rank; it also reports each set's rank margin, the
smallest residual a pivot was taken at.  ``span_rank`` and
``orthocomplement_basis`` are its one-set case, and the certifier hands it
whole stacks.  Those stacks
hold the traceless parts of what the qubit basis count of ``stability``
leaves to the kernel: parties with d >= 3, sets with dense members, and
qubit row sets inside the band around the cutoff or past its guard (an
``orth_abs`` above ``rank_rel / 16``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Tolerance",
    "DEFAULT_TOL",
    "vec_inner",
    "span_rank",
    "orthocomplement_basis",
]


@dataclass(frozen=True)
class Tolerance:
    """Numerical cutoffs shared across the package.

    ``rank_rel`` scales the dead-pivot threshold of rank computations
    relative to the largest input row norm of each row set.  ``orth_abs`` is the absolute
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

    Products are materialized before summing, in coordinate order.  numpy's
    complex multiply may itself fuse multiply-adds (it does on AVX2 and
    AVX-512), so structurally cancelling entries can leave a residue of up
    to about 6e-17 instead of an exact zero; verdicts compare magnitudes
    with ``Tolerance.orth_abs``, never with zero.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim != 1 or b.ndim != 1:
        raise ValueError("vec_inner expects 1-D amplitude vectors")
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")
    return complex((a.conj() * b).sum())


def span_rank(mats, tol: Tolerance = DEFAULT_TOL) -> int:
    """Complex dimension of the linear span of square matrices, given as a
    list or as one (m, d, d) array.

    Each matrix is flattened to a row and the rows are eliminated in input
    order, as a one-set stack of the shared rank kernel; a pivot counts as
    dead once its magnitude drops below ``tol.rank_rel`` times the largest
    initial row norm of this set.  The empty list and all-zero matrices have
    rank 0.
    """
    rows, _ = _flattened_rows(mats)
    return int(_orthonormal_rows(rows[None], tol.rank_rel)[1][0])


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

    span_basis = _orthonormal_rows(rows.reshape(1, -1, d * d), tol.rank_rel)[0][0]
    # Every row below has unit norm, so the span basis is accepted again as
    # it stands and each unit vector is eliminated against it and against the
    # complement vectors found before it, at the absolute cutoff rank_rel.
    units = np.eye(d * d, dtype=complex)
    basis = _orthonormal_rows(np.concatenate([span_basis, units])[None], tol.rank_rel)[0][0]
    return list(basis[len(span_basis):].reshape(-1, d, d))


def _require_square(m):
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")


def _flattened_rows(mats):
    """Validate equally sized square matrices, given as a list or as one
    (m, d, d) array; return them as a new (m, d*d) row stack and d, which
    is None for an empty list."""
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
    return np.array(mats, dtype=complex).reshape(len(mats), d * d), d


def _row_norms(rows):
    """Euclidean norms along the last axis of a complex array whose last
    axis is contiguous."""
    flat = rows.view(np.float64)
    return np.sqrt((flat * flat).sum(axis=-1))


def _orthonormal_rows(rows, rank_rel):
    """Modified Gram-Schmidt over a (B, m, n) stack of row sets at once,
    each set in row order.

    Every step takes the first live row of each set as that set's next unit
    pivot and projects it out of the set's later rows, twice for numerical
    stability, with elementwise products and last-axis sums, so each set
    gets the pivots it would get on its own.  A row is dead once its
    residual falls below ``rank_rel`` times the largest initial row norm of
    its own set; zero rows therefore never pivot, and a dead row is never
    revisited, since projections only shrink it.  A set leaves the batch
    once it has no live row or its basis fills the row space, so there are
    at most n steps.  ``rows`` must be a C-contiguous complex array, and is
    overwritten.  Returns the pivots as a (B, r, n) array, zero past each
    set's rank, the ranks as a (B,) array, and each set's rank margin as a
    (B,) array: the smallest residual norm at which it took a pivot,
    infinite for a set of rank 0.
    """
    sets, _, width = rows.shape
    norms = _row_norms(rows)
    threshold = rank_rel * norms.max(axis=1, initial=0.0)
    alive = (norms >= threshold[:, None]) & (threshold[:, None] > 0.0)
    pivots = np.zeros((sets, min(rows.shape[1], width), width), dtype=complex)
    ranks = np.zeros(sets, dtype=np.intp)
    residuals = np.full(pivots.shape[:2], np.inf)
    active = np.arange(sets)
    while True:
        going = alive.any(axis=1) & (ranks[active] < width)
        if not going.all():
            active, rows, norms, alive = active[going], rows[going], norms[going], alive[going]
            threshold = threshold[going]
        if not active.size:
            break
        first = alive.argmax(axis=1)
        step = np.arange(len(active))
        residual = norms[step, first]
        pivot = rows[step, first] / residual[:, None]
        slot = ranks[active]
        pivots[active, slot] = pivot
        residuals[active, slot] = residual
        ranks[active] = slot + 1
        # every row up to the earliest pivot is dead or a pivot already
        cut = first.min() + 1
        alive[step, first] = False
        rows, alive = rows[:, cut:], alive[:, cut:]
        # elementwise products rather than a BLAS call, so the result does
        # not depend on the BLAS build
        pivot = pivot[:, None, :]
        conj = pivot.conj()
        for _ in range(2):
            rows -= (rows * conj).sum(axis=2)[:, :, None] * pivot
        norms = _row_norms(rows)
        alive &= norms >= threshold[:, None]
    return pivots[:, :ranks.max(initial=0)], ranks, residuals.min(axis=1, initial=np.inf)
