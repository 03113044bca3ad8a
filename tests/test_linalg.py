"""The Woodbury core's linear algebra: GramSystem.solve_core, one LAPACK
solve of the damped core, and the non-finite lambda that GramSystem.of
refuses before any solve."""

import numpy as np
import pytest

from smwopt import curvature
from smwopt.exceptions import NumericError
from tests.conftest import explicit_inverse, system_of_gram


def spd_system(rng, n):
    """A GramSystem over a random well-conditioned n-wide SPD core."""
    a = rng.normal(size=(n, n))
    return curvature.GramSystem(a @ a.T / n + np.eye(n), 1.0, None)


class TestSolveSpd:
    def test_identity(self, rng):
        r = rng.normal(size=(4, 2))
        system = curvature.GramSystem(np.eye(4), 1.0, None)
        assert np.allclose(system.solve_core(r), r, atol=1e-15)

    def test_scaled_identity(self):
        system = curvature.GramSystem(2.0 * np.eye(4), 2.0, None)
        assert np.allclose(system.solve_core(np.ones(4)), 0.5 * np.ones(4), atol=1e-15)

    def test_against_dense_inverse(self, rng):
        """The solve agrees with a Gauss-Jordan inverse, which shares no
        code with LAPACK."""
        system = spd_system(rng, 8)
        rhs = rng.normal(size=8)
        expected = explicit_inverse(system.core) @ rhs
        assert np.max(np.abs(system.solve_core(rhs) - expected)) < 1e-10

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_failure_is_numeric_error(self, bad, monkeypatch):
        """A non-finite lambda puts a non-finite diagonal on the core, which
        GramSystem.of refuses. NaN passes the floor test, since NaN <= floor
        is false, so only the finiteness check stops it."""
        with pytest.raises(NumericError, match="not finite"):
            system_of_gram(monkeypatch, np.eye(3), bad)


def test_solve_residual_bounds_many_instances(rng):
    """The solve reproduces the rhs on random well-conditioned cores."""
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        rhs = rng.normal(size=n)
        system = spd_system(rng, n)
        x = system.solve_core(rhs)
        bound = 1e-9 * (1.0 + np.max(np.abs(rhs)))
        assert np.max(np.abs(system.core @ x - rhs)) <= bound


def test_explicit_inverse_matches_numpy(rng):
    a = rng.normal(size=(6, 6)) + 6.0 * np.eye(6)
    assert np.max(np.abs(explicit_inverse(a) - np.linalg.inv(a))) < 1e-10


@pytest.mark.parametrize("n", [1, 47, 48, 49, 97, 300])
@pytest.mark.parametrize("ncols", [None, 3])
def test_triangular_solves_match_numpy(n, ncols, rng):
    """The one-call solve of a core L L^T agrees with forward and back
    substitution through its Cholesky triangles, with one or three
    right-hand sides, from a scalar core up to the 300-wide desk-scale
    Gauss-Newton core."""
    a = rng.normal(size=(n, n))
    lower = np.linalg.cholesky(a @ a.T / n + np.eye(n))
    system = curvature.GramSystem(lower @ lower.T, 1.0, None)
    rhs = rng.normal(size=n if ncols is None else (n, ncols))
    x = system.solve_core(rhs)
    expected = np.linalg.solve(lower.T, np.linalg.solve(lower, rhs))
    assert x.shape == rhs.shape
    assert np.max(np.abs(x - expected)) <= 1e-12 * np.max(np.abs(expected))
    assert np.max(np.abs(system.core @ x - rhs)) <= 1e-12 * (1.0 + np.max(np.abs(rhs)))
