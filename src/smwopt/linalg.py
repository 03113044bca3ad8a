"""Minimal dense linear algebra: a validated Cholesky factor and its solves.

All routines operate on float64 numpy arrays. cholesky validates its
operand (non-finite entries raise NumericError, asymmetry ShapeError)
and is LAPACK's through np.linalg; a failure still reports the offending
pivot, located only on the failure path by bisecting over leading blocks.
A symmetric positive definite system a x = rhs is solved with the factor
L = cholesky(a) as solve_upper(L.T, solve_lower(L, rhs)). numpy exposes
no triangular solve, so both solves recurse on 2 x 2 block partitions
(Golub & Van Loan, sec. 3.1) and call np.linalg.solve only on diagonal
blocks of at most LEAF_ROWS rows. Every step is deterministic, so
repeated calls on identical inputs give bit-identical results.
"""

from __future__ import annotations

import numpy as np

from .exceptions import NotSpdError, NumericError, ShapeError

SYMMETRY_TOL = 1e-10
LEAF_ROWS = 48


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ShapeError(f"{name} must be 2-dimensional, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise NumericError(f"{name} contains non-finite entries")
    return a


def _as_square(a) -> np.ndarray:
    a = as_matrix(a, "a")
    if a.shape[0] != a.shape[1]:
        raise ShapeError(f"matrix must be square, got {a.shape}")
    return a


def _is_spd(a: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return False
    return True


def _first_bad_pivot(a: np.ndarray) -> NotSpdError:
    """Locate the first non-positive Cholesky pivot of a non-SPD matrix.

    The leading j x j block is positive definite exactly when pivots
    0..j-1 are positive, so bisection finds the failing index j; its pivot
    is the Schur complement of the leading block in the (j+1)-block.
    """
    good, bad = 0, a.shape[0]
    while bad - good > 1:
        mid = (good + bad) // 2
        if _is_spd(a[:mid, :mid]):
            good = mid
        else:
            bad = mid
    j = good
    pivot = a[j, j]
    if j:
        row = solve_lower(np.linalg.cholesky(a[:j, :j]), a[j, :j])
        pivot -= row @ row
    return NotSpdError(j, float(pivot))


def cholesky(a) -> np.ndarray:
    """Lower-triangular Cholesky factor of a symmetric positive definite matrix.

    Symmetry is checked to SYMMETRY_TOL (scaled by the largest entry); a
    matrix that is not positive definite raises NotSpdError with the index
    and value of its first non-positive pivot.
    """
    a = _as_square(a)
    if a.size:
        scale = max(1.0, float(np.max(np.abs(a))))
        if float(np.max(np.abs(a - a.T))) > SYMMETRY_TOL * scale:
            raise ShapeError("matrix is not symmetric to tolerance 1e-10")
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        raise _first_bad_pivot(a) from None


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
