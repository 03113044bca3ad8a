"""Woodbury-based second-order training for feed-forward networks.

Subpackages:
    linalg     dense matrix products and direct solves
    network    shapes, parameter packing, forward pass
    loss       matching losses and their output-Hessian closed forms
    diff       gradients, jvp/vjp, factored dot products
    curvature  Gram matrices and the small core systems
    solver     Woodbury direction, CG baseline
    damping    reduction ratio and the adaptive damping rule
    optim      training loops and batch sampling
    data       CSV / IDX loading and standardization
    oracles    brute-force references for the tests and --verify
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
