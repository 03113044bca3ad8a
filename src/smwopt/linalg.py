"""Minimal dense linear algebra: validated symmetric positive definite solves.

All routines operate on float64 numpy arrays; non-finite operands raise
NumericError. Factorizations and solves are LAPACK calls through
np.linalg, so repeated calls on identical inputs give bit-identical
results. A Cholesky failure still reports the offending pivot: it is
located only on the failure path, by bisecting over leading blocks.
"""

from __future__ import annotations

import numpy as np

from .exceptions import NotSpdError, NumericError, ShapeError

SYMMETRY_TOL = 1e-10


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


def _check_system(a, rhs) -> tuple[np.ndarray, np.ndarray]:
    """Validate a square matrix and a 1- or 2-dimensional right-hand side."""
    a = _as_square(a)
    rhs = np.asarray(rhs, dtype=np.float64)
    if rhs.ndim not in (1, 2):
        raise ShapeError(f"rhs must be 1- or 2-dimensional, got ndim={rhs.ndim}")
    if rhs.shape[0] != a.shape[0]:
        raise ShapeError(f"rhs has {rhs.shape[0]} rows, expected {a.shape[0]}")
    if not np.all(np.isfinite(rhs)):
        raise NumericError("rhs contains non-finite entries")
    return a, rhs


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
        row = np.linalg.solve(np.linalg.cholesky(a[:j, :j]), a[j, :j])
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


def solve_spd(a, rhs) -> np.ndarray:
    """Solve a @ x = rhs for symmetric positive definite a.

    cholesky validates symmetry and definiteness; the solve itself is
    LAPACK's LU, since numpy exposes no triangular solve.
    """
    a, rhs = _check_system(a, rhs)
    cholesky(a)
    return np.linalg.solve(a, rhs)

