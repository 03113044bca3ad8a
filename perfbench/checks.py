"""Output checks on one training run's metrics CSV.

Each check returns a list of failure messages; an empty list passes.
"""

from __future__ import annotations

import math

# The metrics CSV contract, written out here so that a change to the
# program's own column list is caught rather than followed.
METRICS_COLUMNS = [
    "iter",
    "epoch_frac",
    "batch_loss",
    "full_loss",
    "test_error",
    "lambda",
    "rho",
    "grad_norm",
    "step_norm",
    "wall_time_s",
    "forward_passes",
    "backward_passes",
    "jvp_products",
    "vjp_products",
]
WALL = METRICS_COLUMNS.index("wall_time_s")
# Below this damping the Woodbury solve adds refinement sweeps, so the
# fixed per-iteration vjp budget only holds at or above it.
REFINE_LAMBDA = 1e-6


def counter_deltas(rows: list[list[str]], column: str) -> list[int]:
    """Per-row increments of a cumulative counter column."""
    j = METRICS_COLUMNS.index(column)
    values = [int(r[j]) for r in rows]
    return [b - a for a, b in zip([0] + values[:-1], values)]


def evaluations(rows: list[list[str]]) -> dict[int, float]:
    """Row index -> full_loss for every full-evaluation row."""
    j = METRICS_COLUMNS.index("full_loss")
    return {i: float(r[j]) for i, r in enumerate(rows) if r[j] != ""}


def check_run(
    header: list[str],
    rows: list[list[str]],
    expected_rows: int,
    method: str,
    n2: int,
    m_out: int,
    initial_loss: float,
) -> list[str]:
    if header != METRICS_COLUMNS:
        return [f"CSV header {header} differs from the fixed 14 columns"]
    failures = []
    if len(rows) != expected_rows:
        failures.append(f"{len(rows)} rows, expected {expected_rows}")
    evals = evaluations(rows)
    if not evals:
        failures.append("no full evaluation row")
    else:
        final = evals[max(evals)]
        if not (math.isfinite(final) and final < initial_loss):
            failures.append(
                f"final full_loss {final!r} is not below the loss at theta0 "
                f"{initial_loss!r}"
            )
    jvp = counter_deltas(rows, "jvp_products")
    vjp = counter_deltas(rows, "vjp_products")
    lam = [float(r[METRICS_COLUMNS.index("lambda")]) for r in rows]
    if method == "smw-gn":
        budget = n2 * m_out + n2
        bad = [
            i for i, (v, l) in enumerate(zip(vjp, lam))
            if l >= REFINE_LAMBDA and v != budget
        ]
        if bad:
            failures.append(
                f"smw-gn vjp products {vjp[bad[0]]} != N2*m_L + N2 = {budget} "
                f"at iteration {bad[0]} ({len(bad)} iterations)"
            )
    elif method == "hf":
        bad = [i for i, (a, b) in enumerate(zip(jvp, vjp)) if a != b]
        if bad:
            failures.append(
                f"hf jvp {jvp[bad[0]]} != vjp {vjp[bad[0]]} at iteration {bad[0]}"
            )
    elif method == "smw-ng":
        if any(jvp) or any(vjp):
            failures.append(
                f"smw-ng made {sum(jvp)} jvp and {sum(vjp)} vjp products"
            )
    return failures


def check_repeat(rows: list[list[str]], reference: list[list[str]]) -> list[str]:
    """A repeat with the same seed must match the first apart from wall time."""
    def strip(table):
        return [r[:WALL] + r[WALL + 1:] for r in table]

    if strip(rows) != strip(reference):
        mismatch = next(
            (i for i, (a, b) in enumerate(zip(strip(rows), strip(reference)))
             if a != b),
            min(len(rows), len(reference)),
        )
        return [f"repeat differs from the first run at row {mismatch}"]
    return []
