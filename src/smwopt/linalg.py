"""Minimal dense linear algebra: a Cholesky factor and its solves.

All routines operate on float64 numpy arrays. cholesky is LAPACK's
through np.linalg, which reads only the lower triangle: symmetry is the
caller's construction. A symmetric positive definite system a x = rhs is
solved with the factor L = cholesky(a) as solve_upper(L.T,
solve_lower(L, rhs)). numpy exposes no triangular solve, so both solves
recurse on 2 x 2 block partitions (Golub & Van Loan, sec. 3.1) and call
np.linalg.solve only on diagonal blocks of at most LEAF_ROWS rows. Every
step is deterministic, so repeated calls on identical inputs give
bit-identical results.
"""

from __future__ import annotations

import numpy as np

from .exceptions import NumericError

LEAF_ROWS = 48


def cholesky(a: np.ndarray) -> np.ndarray:
    """Lower-triangular Cholesky factor of a symmetric positive definite matrix.

    A matrix with non-finite entries, on which LAPACK would return NaN
    factors without complaint, or one that is not positive definite
    raises NumericError.
    """
    if not np.all(np.isfinite(a)):
        raise NumericError("matrix contains non-finite entries")
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError as err:
        raise NumericError(f"cholesky failed: {err}") from err


def solve_lower(lower: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """x with lower @ x = rhs for a nonsingular lower-triangular matrix.

    rhs is 1- or 2-dimensional. The leading half is solved first, and the
    trailing half after one matrix product removes the leading unknowns.
    """
    n = len(lower)
    if n <= LEAF_ROWS:
        return np.linalg.solve(lower, rhs)
    k = n // 2
    head = solve_lower(lower[:k, :k], rhs[:k])
    tail = solve_lower(lower[k:, k:], rhs[k:] - lower[k:, :k] @ head)
    return np.concatenate((head, tail))


def solve_upper(upper: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """x with upper @ x = rhs for a nonsingular upper-triangular matrix.

    The mirror of solve_lower: the trailing half is solved first.
    """
    n = len(upper)
    if n <= LEAF_ROWS:
        return np.linalg.solve(upper, rhs)
    k = n // 2
    tail = solve_upper(upper[k:, k:], rhs[k:])
    head = solve_upper(upper[:k, :k], rhs[:k] - upper[:k, k:] @ tail)
    return np.concatenate((head, tail))
