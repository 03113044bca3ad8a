import numpy as np
import pytest

from smwopt import linalg
from smwopt.exceptions import NumericError
from tests.conftest import explicit_inverse


def solve_spd(a, rhs):
    """The training path's SPD solve: one Cholesky factor, two triangular solves."""
    lower = linalg.cholesky(a)
    return linalg.solve_upper(lower.T, linalg.solve_lower(lower, rhs))


class TestSolveSpd:
    def test_identity(self, rng):
        r = rng.normal(size=(4, 2))
        assert np.allclose(solve_spd(np.eye(4), r), r, atol=1e-15)

    def test_scaled_identity(self):
        out = solve_spd(2.0 * np.eye(4), np.ones(4))
        assert np.allclose(out, 0.5 * np.ones(4), atol=1e-15)

    def test_against_dense_inverse(self, rng):
        a = rng.normal(size=(8, 8))
        spd = a.T @ a + np.eye(8)
        rhs = rng.normal(size=8)
        expected = np.linalg.inv(spd) @ rhs
        assert np.max(np.abs(solve_spd(spd, rhs) - expected)) < 1e-10

    @pytest.mark.parametrize("bad", ["indefinite", "schur", "nan", "inf"])
    def test_failure_is_numeric_error(self, bad):
        """A matrix that is not SPD, or not finite, raises NumericError.

        The Schur case has an SPD leading 2x2 block and a pivot of -1 at
        index 2. np.linalg.cholesky itself returns NaN factors for a NaN
        matrix without raising.
        """
        a = {
            "indefinite": np.diag([1.0, -2.0, 3.0]),
            "schur": np.array([[4.0, 2.0, 2.0], [2.0, 5.0, 3.0], [2.0, 3.0, 1.0]]),
            "nan": np.full((3, 3), np.nan),
            "inf": np.diag([1.0, np.inf, 1.0]),
        }[bad]
        with pytest.raises(NumericError):
            linalg.cholesky(a)


def test_solve_residual_bounds_many_instances(rng):
    """The SPD solve reproduces the rhs on random well-conditioned systems."""
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        rhs = rng.normal(size=n)
        bound = 1e-9 * (1.0 + np.max(np.abs(rhs)))
        a = rng.normal(size=(n, n))
        spd = a.T @ a + np.eye(n)
        x = solve_spd(spd, rhs)
        assert np.max(np.abs(spd @ x - rhs)) <= bound


def test_explicit_inverse_matches_numpy(rng):
    a = rng.normal(size=(6, 6)) + 6.0 * np.eye(6)
    assert np.max(np.abs(explicit_inverse(a) - np.linalg.inv(a))) < 1e-10


@pytest.mark.parametrize("n", [1, 47, 48, 49, 97, 300])
@pytest.mark.parametrize("ncols", [None, 3])
def test_triangular_solves_match_numpy(n, ncols, rng):
    """Blocked triangular solves agree with LAPACK's dense solve.

    The sizes straddle the leaf size, so 49 and up take the recursive
    split, 97 splits unevenly and 300 recurses three levels.
    """
    a = rng.normal(size=(n, n))
    lower = np.linalg.cholesky(a @ a.T / n + np.eye(n))
    rhs = rng.normal(size=n if ncols is None else (n, ncols))
    for tri, solve in ((lower, linalg.solve_lower), (lower.T, linalg.solve_upper)):
        x = solve(tri, rhs)
        expected = np.linalg.solve(tri, rhs)
        assert x.shape == rhs.shape
        assert np.max(np.abs(x - expected)) <= 1e-12 * np.max(np.abs(expected))
        assert np.max(np.abs(tri @ x - rhs)) <= 1e-12 * (1.0 + np.max(np.abs(rhs)))
