"""Woodbury-based second-order training for feed-forward networks.

Modules:
    linalg     Cholesky factor, blocked triangular solves
    network    shapes, parameter layout, forward pass
    loss       matching losses, output-Hessian products and factors
    diff       gradients, jvp/vjp w.r.t. h_L, factored dot products
    counters   per-sample operation counts
    curvature  Gram matrices and the small core systems
    solver     Woodbury direction and the Hessian-free CG baseline
    damping    reduction ratio and the adaptive damping rule
    optim      training loops and batch sampling
    data       CSV / IDX loading and standardization
    oracles    brute-force references and the --verify self-checks
    cli        experiment harness
"""

# cli loads oracles; no training module imports it.
from . import (  # noqa: F401
    cli,
    counters,
    curvature,
    damping,
    data,
    diff,
    linalg,
    loss,
    network,
    optim,
    solver,
)

__all__ = [
    "cli",
    "counters",
    "curvature",
    "damping",
    "data",
    "diff",
    "linalg",
    "loss",
    "network",
    "optim",
    "oracles",
    "solver",
]

__version__ = "0.1.0"
