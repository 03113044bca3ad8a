"""Per-layer figures from traced training runs.

Per-iteration figures cover the spans inside timed Trainer.step calls
(the same iterations the end-to-end timing uses), so the self times of
every traced function under optim.step add up to the mean step time.
Evaluation, loading and CSV writing are reported per occurrence.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .timing import self_times

STEP = "optim.step"
SELF_MS = {
    f"{name}.self_ms": (name,)
    for name in (
        "linalg.lu_factor",
        "linalg.cholesky",
        "curvature.assemble_d",
        "curvature.gn_batch_factors",
        "curvature.gn_block_gram",
        "curvature.ng_gram",
        "diff.jvp",
        "diff.vjp",
        "diff.gradient",
        "network.forward",
        "loss.loss_value",
        "loss.loss_hessian_h",
        "loss.hessian_apply",
        "solver.smw_direction",
        "solver.quadratic_terms",
        "solver.hf_cg_direction",
        STEP,
    )
}
SELF_MS["linalg.triangular.self_ms"] = ("linalg.solve_lower", "linalg.solve_upper")
SELF_MS["network.activation.self_ms"] = (
    "network.sigmoid",
    "network.softmax",
    "network.apply_activation",
    "network.act_jac_apply",
)
# Computed flop counts of one factorization of an n x n matrix.
FACTOR_FLOPS = {
    "linalg.cholesky": lambda n: n**3 / 3,
    "linalg.lu_factor": lambda n: 2 * n**3 / 3,
}
STANDARDIZE = ("data.fit_standardizer", "data.Standardizer.apply")


def matrix_order(a, *args, **kwargs) -> int:
    """Size rule for the factorization spans: the order of the matrix."""
    return len(a)


@dataclass
class LayerTotals:
    steps: int = 0
    step_s: float = 0.0
    self_s: Counter = field(default_factory=Counter)
    calls: Counter = field(default_factory=Counter)
    factor_flops: float = 0.0
    factor_s: float = 0.0
    factor_sizes: Counter = field(default_factory=Counter)
    cg_iters: int = 0
    full_loss_s: list = field(default_factory=list)
    load_idx_s: list = field(default_factory=list)
    standardize_s: list = field(default_factory=list)
    cli_run_self_s: list = field(default_factory=list)

    def add(self, spans: list[list], timed: set[int]) -> None:
        """Fold in the spans of one cli.run call; timed holds iteration indices."""
        selfs = self_times([s[:4] for s in spans])
        step_of = [-1] * len(spans)
        jvp_children = Counter()
        standardize = 0.0
        iteration = 0
        for i, (name, start, end, parent, size) in enumerate(spans):
            if name == STEP:
                step_of[i] = iteration
                iteration += 1
            elif parent >= 0:
                step_of[i] = step_of[parent]
            if name == "optim.full_loss":
                self.full_loss_s.append(end - start)
            elif name == "data.load_idx":
                self.load_idx_s.append(end - start)
            elif name in STANDARDIZE:
                standardize += end - start
            elif name == "cli.run":
                self.cli_run_self_s.append(selfs[i])
            if step_of[i] not in timed:
                continue
            self.self_s[name] += selfs[i]
            self.calls[name] += 1
            if name == STEP:
                self.steps += 1
                self.step_s += end - start
            elif name in FACTOR_FLOPS:
                self.factor_flops += FACTOR_FLOPS[name](size)
                self.factor_s += selfs[i]
                self.factor_sizes[size] += 1
            elif name == "diff.jvp" and spans[parent][0] == "solver.hf_cg_direction":
                jvp_children[parent] += 1
        self.standardize_s.append(standardize)
        # One jvp per CG iteration plus one for the final p^T B p product.
        self.cg_iters += sum(max(0, n - 1) for n in jvp_children.values())

    def per_iteration(self) -> dict[str, float]:
        steps = max(self.steps, 1)
        out = {
            metric: 1e3 * sum(self.self_s[n] for n in names) / steps
            for metric, names in SELF_MS.items()
        }
        named = {n for names in SELF_MS.values() for n in names}
        other = sum(s for n, s in self.self_s.items() if n not in named)
        out["other.self_ms"] = 1e3 * other / steps
        out["linalg.cholesky.calls"] = self.calls["linalg.cholesky"] / steps
        out["linalg.factor.mflop"] = self.factor_flops / 1e6 / steps
        out["linalg.factor.gflops"] = (
            self.factor_flops / 1e9 / self.factor_s if self.factor_s else 0.0
        )
        out["solver.cg_iters"] = self.cg_iters / steps
        return out

    def function_self_ms(self) -> dict[str, float]:
        """Self ms per iteration of every traced function, largest first."""
        steps = max(self.steps, 1)
        return {
            n: 1e3 * s / steps
            for n, s in sorted(self.self_s.items(), key=lambda kv: -kv[1])
        }
