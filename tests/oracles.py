"""Slow, independent reference computations used only by the tests."""

import itertools
import math
from fractions import Fraction

import numpy as np

from locstab.states import _party_blocks, as_dense


def exact_rank(rows):
    """Row rank over the rationals by exact Gaussian elimination.

    ``rows`` holds int/Fraction entries; no floating point is involved, so
    the result is an unambiguous reference for tolerance-based ranks.
    """
    matrix = [[Fraction(x) for x in row] for row in rows]
    if not matrix:
        return 0
    cols = len(matrix[0])
    rank = 0
    pivot_row = 0
    for col in range(cols):
        pivot = None
        for r in range(pivot_row, len(matrix)):
            if matrix[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        matrix[pivot_row], matrix[pivot] = matrix[pivot], matrix[pivot_row]
        lead = matrix[pivot_row][col]
        for r in range(pivot_row + 1, len(matrix)):
            if matrix[r][col] != 0:
                factor = matrix[r][col] / lead
                matrix[r] = [a - factor * b for a, b in zip(matrix[r], matrix[pivot_row])]
        pivot_row += 1
        rank += 1
        if pivot_row == len(matrix):
            break
    return rank


def kron_expand_brute(factors):
    """Row-major tensor expansion by explicit index enumeration."""
    dims = [len(f) for f in factors]
    out = []
    for idx in itertools.product(*(range(d) for d in dims)):
        amp = 1.0 + 0.0j
        for factor, i in zip(factors, idx):
            amp *= complex(factor[i])
        out.append(amp)
    return out


def inner_brute(a, b):
    """Plain-Python inner product, conjugating the first argument."""
    return sum(complex(x).conjugate() * complex(y) for x, y in zip(a, b))


def _kron_except(factors, skip=None):
    out = np.ones(1, dtype=complex)
    for r, factor in enumerate(factors):
        if r != skip:
            out = np.kron(out, factor)
    return out


def seesaw_sequential(state_set, restarts=50, iters=200, rng_seed=0):
    """The see-saw complement search run one restart at a time.

    The loop is the per-restart form that ``complement_product_search``
    batched; input checks are left to the caller.  Returns the best
    (overlap, factors) across restarts, first maximum on ties, and every
    restart's (overlap, factors, sweeps) in stream order.
    """
    dims = state_set.dims
    dense = np.stack([as_dense(s).amplitudes for s in state_set.states])
    parties = len(dims)
    # blocks[i][k] has shape (d_rest, d_i): state k split at party i.
    blocks = [_party_blocks(dense, dims, i) for i in range(parties)]

    runs = []
    best_overlap = -math.inf
    best_factors = None
    for stream in np.random.SeedSequence(rng_seed).spawn(restarts):
        rng = np.random.default_rng(stream)
        factors = []
        for d in dims:
            vec = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            factors.append(vec / np.linalg.norm(vec))
        previous = -math.inf
        for sweep in range(iters):
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
        runs.append((overlap, [f.copy() for f in factors], sweep + 1))
        if overlap > best_overlap:
            best_overlap = overlap
            best_factors = [f.copy() for f in factors]
    return best_overlap, best_factors, runs
