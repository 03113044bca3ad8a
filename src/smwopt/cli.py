"""Experiment harness: config parsing, training runs, metrics, self-checks.

Configuration is a flat key=value text file; every key can also be set or
overridden with a command-line flag. A run writes one metrics row per
iteration to a CSV file whose schema is fixed (see METRICS_COLUMNS); all
columns except wall_time_s reproduce exactly under a fixed seed.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import curvature, data as data_mod, diff, loss as loss_mod
from . import network, optim, oracles, solver
from .exceptions import ConfigError, DataFormatError, NumericError

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


@dataclass
class RunConfig:
    train_images: str = ""
    train_labels: str = ""
    train_csv: str = ""
    test_images: str = ""
    test_labels: str = ""
    test_csv: str = ""
    csv_features: int = 0
    csv_classes: int = 1
    csv_header: bool = False
    subset: int = 0
    subset_seed: int = -1
    standardize: bool = True
    layers: str = ""
    activations: str = ""
    loss: str = loss_mod.SOFTMAX_CROSS_ENTROPY
    method: str = optim.SMW_GN
    n1: int = 60
    n2: int = 30
    alpha: float = 0.1
    epochs: int = 1
    seed: int = 0
    semi_stochastic: bool = False
    eta: float = 0.1
    lambda_lm: float = 1.0
    tau: float = 0.001
    boost: float = 1.01
    drop: float = 0.99
    epsilon: float = 0.25
    cg_max_iters: int = 50
    cg_tol: float = 1e-4
    eval_interval: int = 0
    out: str = "metrics.csv"


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def parse_config_file(path) -> dict[str, str]:
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value")
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    return values


def build_config(file_values: dict[str, str], overrides: dict) -> RunConfig:
    config = RunConfig()
    known = {f.name: f.type for f in fields(RunConfig)}
    merged = dict(file_values)
    merged.update({k: v for k, v in overrides.items() if v is not None})
    for key, value in merged.items():
        if key not in known:
            raise ConfigError(f"unknown config key: {key!r}")
        current = getattr(config, key)
        if isinstance(value, str):
            try:
                if isinstance(current, bool):
                    value = _parse_bool(value)
                elif isinstance(current, int):
                    value = int(value)
                elif isinstance(current, float):
                    value = float(value)
            except ValueError as err:
                raise ConfigError(f"config key {key!r}: {err}") from err
        config = replace(config, **{key: value})
    return config


def _load_split(config: RunConfig, prefix: str) -> data_mod.Dataset | None:
    images = getattr(config, f"{prefix}_images")
    labels = getattr(config, f"{prefix}_labels")
    csv = getattr(config, f"{prefix}_csv")
    if images or labels:
        if not (images and labels):
            raise ConfigError(f"{prefix}_images and {prefix}_labels go together")
        for p in (images, labels):
            if not Path(p).exists():
                raise ConfigError(f"file not found: {p}")
        return data_mod.load_idx(images, labels)
    if csv:
        if not Path(csv).exists():
            raise ConfigError(f"file not found: {csv}")
        if config.csv_features < 1:
            raise ConfigError("csv_features must be set for CSV data")
        return data_mod.load_csv(
            csv,
            num_features=config.csv_features,
            num_classes=config.csv_classes,
            skip_header=config.csv_header,
        )
    return None


def load_datasets(
    config: RunConfig,
) -> tuple[data_mod.Dataset, data_mod.Dataset | None]:
    train = _load_split(config, "train")
    if train is None:
        raise ConfigError("no training data configured")
    test = _load_split(config, "test")
    if config.subset > 0:
        seed = None if config.subset_seed < 0 else config.subset_seed
        train = train.subset(config.subset, seed)
    if config.standardize:
        stats = data_mod.fit_standardizer(train)
        train = stats.apply(train)
        if test is not None:
            test = stats.apply(test)
    return train, test


def build_model(
    config: RunConfig, train: data_mod.Dataset
) -> tuple[network.NetworkShape, loss_mod.LossSpec]:
    if not config.layers:
        raise ConfigError("network layers must be configured (e.g. layers=784,500,10)")
    try:
        spec = loss_mod.LossSpec(config.loss)
        sizes = tuple(int(v) for v in config.layers.split(","))
        if config.activations:
            acts = tuple(a.strip() for a in config.activations.split(","))
        else:
            hidden = (network.LOGISTIC,) * (len(sizes) - 2)
            acts = hidden + (loss_mod.MATCHING_ACTIVATION[spec.kind],)
        shape = network.NetworkShape(sizes, acts)
        spec.check_matches(shape)
    except ValueError as err:
        raise ConfigError(f"model: {err}") from err
    if sizes[0] != train.inputs.shape[1] or sizes[-1] != train.targets.shape[1]:
        raise ConfigError(
            f"layers {sizes} do not match data with {train.inputs.shape[1]} "
            f"features and {train.targets.shape[1]} target columns"
        )
    return shape, spec


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _metrics_row(rec: optim.IterationRecord) -> str:
    test_error = rec.test_error
    if test_error is not None and math.isnan(test_error):
        test_error = None  # evaluation ran but no test split is configured
    cells = [
        str(rec.iteration),
        _fmt(rec.epoch_frac),
        _fmt(rec.batch_loss),
        _fmt(rec.full_loss),
        _fmt(test_error),
        _fmt(rec.lam),
        _fmt(rec.rho),
        _fmt(rec.grad_norm),
        _fmt(rec.step_norm),
        _fmt(rec.wall_time),
        str(rec.counters.forward_passes),
        str(rec.counters.backward_passes),
        str(rec.counters.jvp_products),
        str(rec.counters.vjp_products),
    ]
    return ",".join(cells)


def run(config: RunConfig) -> int:
    """Train per the config and stream metrics rows to the output CSV."""
    train, test = load_datasets(config)
    shape, spec = build_model(config, train)
    shared = {f.name for f in fields(optim.OptimizerConfig)}
    opt_config = optim.OptimizerConfig(
        **{f.name: getattr(config, f.name) for f in fields(config) if f.name in shared},
        cg=solver.CgConfig(config.cg_max_iters, config.cg_tol),
    )
    trainer = optim.Trainer(
        shape,
        spec,
        train.inputs,
        train.targets,
        opt_config,
        test_inputs=None if test is None else test.inputs,
        test_targets=None if test is None else test.targets,
    )
    num_iters = config.epochs * trainer.iters_per_epoch
    interval = config.eval_interval if config.eval_interval > 0 else None
    with open(config.out, "w", encoding="utf-8") as fh:
        fh.write(",".join(METRICS_COLUMNS) + "\n")
        trainer.run(
            num_iters,
            eval_interval=interval,
            record_hook=lambda rec: fh.write(_metrics_row(rec) + "\n"),
        )
    return 0


# --- self-verification ------------------------------------------------------


def verify(seed: int = 0, grad_bias: float = 0.0) -> int:
    """Run the oracle suites and print max error and pass/fail per check.

    grad_bias is a self-test hook: a nonzero value is added to the first
    computed gradient so the harness can be seen to flag failures.
    """
    rng = np.random.default_rng(seed)
    checks: list[tuple[str, float, float]] = []

    # Gradients against central finite differences.
    worst = 0.0
    for trial, kind in enumerate(loss_mod.LOSS_KINDS * 2):
        shape, spec, theta = oracles.make_net(rng, kind)
        x = rng.normal(size=shape.input_size)
        y = oracles.random_targets(rng, kind, shape.output_size)[:, 0]
        cache = network.forward(shape, theta, x)
        g, _ = diff.gradient(shape, theta, cache, y, spec)
        if trial == 0:
            g = g + grad_bias
        fd = oracles.fd_loss_gradient(shape, theta, x, y, spec)
        worst = max(worst, float(np.max(np.abs(g - fd) / (1.0 + np.abs(fd)))))
    checks.append(("gradient_vs_finite_differences", worst, 1e-5))

    # Adjoint identity <J t1, x> == <t1, J^T x>.
    worst = 0.0
    for kind in loss_mod.LOSS_KINDS:
        for _ in range(20):
            shape, spec, theta = oracles.make_net(rng, kind)
            x = rng.normal(size=shape.input_size)
            cache = network.forward(shape, theta, x)
            t1 = rng.normal(size=shape.num_params)
            xo = rng.normal(size=shape.output_size)
            lhs = float(diff.jvp(shape, theta, cache, t1) @ xo)
            packed, _ = diff.vjp(shape, theta, cache, xo)
            rhs = float(t1 @ packed)
            worst = max(worst, abs(lhs - rhs) / (1.0 + abs(lhs)))
    checks.append(("adjoint_identity", worst, 1e-10))

    # Loss Hessians against finite differences of the gradient, and their
    # square factors against the closed forms.
    worst = 0.0
    ones_worst = 0.0
    factor_worst = 0.0
    for kind in loss_mod.LOSS_KINDS:
        shape, spec, theta = oracles.make_net(rng, kind)
        m_out = shape.output_size
        x = rng.normal(size=shape.input_size)
        y = oracles.random_targets(rng, kind, m_out)[:, 0]
        cache = network.forward(shape, theta, x)
        fd_h = oracles.fd_loss_hessian_h(spec, cache.h(shape.num_layers)[:, 0], y)
        closed = loss_mod.loss_hessian_h(spec, cache)
        worst = max(worst, float(np.max(np.abs(closed - fd_h))))
        c = loss_mod.hessian_factor(spec, cache)[0]
        factor_worst = max(factor_worst, float(np.max(np.abs(c @ c.T - closed))))
        if kind == loss_mod.SOFTMAX_CROSS_ENTROPY:
            ones_worst = max(
                ones_worst, float(np.max(np.abs(closed @ np.ones(m_out))))
            )
    checks.append(("loss_hessian_vs_finite_differences", worst, 1e-5))
    checks.append(("softmax_hessian_annihilates_ones", ones_worst, 1e-12))
    checks.append(("loss_hessian_factor", factor_worst, 1e-12))

    # Gram matrices against explicit Jacobians / expanded gradients.
    worst_gn = 0.0
    worst_ng = 0.0
    for kind in loss_mod.LOSS_KINDS:
        shape, spec, theta = oracles.make_net(rng, kind)
        nb = 3
        x = rng.normal(size=(shape.input_size, nb))
        y = oracles.random_targets(rng, kind, shape.output_size, nb)
        cache = network.forward(shape, theta, x)
        batch = curvature.gn_batch_factors(shape, theta, cache, spec)
        gram = curvature.gn_block_gram(batch)
        fmat = oracles.factored_jacobian(shape, theta, cache, spec)
        worst_gn = max(worst_gn, float(np.max(np.abs(gram - fmat @ fmat.T))))
        _, gf = diff.gradient(shape, theta, cache, y, spec)
        ngram = curvature.ng_gram(gf)
        gmat = np.stack([gf.cols([i]).expand_sum() for i in range(nb)], axis=0)
        worst_ng = max(worst_ng, float(np.max(np.abs(ngram - gmat @ gmat.T))))
    checks.append(("gn_block_gram_vs_explicit_jacobian", worst_gn, 1e-10))
    checks.append(("ng_gram_vs_expanded_gradients", worst_ng, 1e-10))

    # Woodbury direction against the dense solve, plus the model-decrease bound.
    worst_dir = 0.0
    worst_res = 0.0
    worst_margin = math.inf
    margin_lines = []
    for kind in loss_mod.LOSS_KINDS:
        for method in (curvature.GN, curvature.NG):
            for lam in (1e-3, 1.0, 1e3):
                shape, spec, theta = oracles.make_net(rng, kind)
                nb = 3
                x = rng.normal(size=(shape.input_size, nb))
                y = oracles.random_targets(rng, kind, shape.output_size, nb)
                cache = network.forward(shape, theta, x)
                g, gf = diff.gradient(shape, theta, cache, y, spec)
                if method == curvature.GN:
                    system = curvature.build_gn_system(
                        shape, theta, cache, spec, lam
                    )
                else:
                    system = curvature.build_ng_system(gf, lam)
                res = solver.smw_direction(shape, theta, system, g)
                oracle = oracles.dense_direction_oracle(
                    shape, theta, x, y, spec, lam, method
                )
                scale = float(np.max(np.abs(oracle.p))) + 1e-30
                worst_dir = max(
                    worst_dir, float(np.max(np.abs(res.p - oracle.p))) / scale
                )
                b_mat, _ = oracles.build_curvature_matrix(
                    shape, theta, x, y, spec, method
                )
                residual = b_mat @ res.p + lam * res.p + g
                worst_res = max(
                    worst_res,
                    float(np.linalg.norm(residual))
                    / (1.0 + float(np.linalg.norm(g))),
                )
                beta = float(np.max(np.linalg.eigvalsh(b_mat)))
                tau = min(lam, 1e-3)
                c1 = tau / (beta + tau)
                decrease = -res.grad_dot - 0.5 * res.quad_term
                margin = decrease - c1 * float(
                    np.linalg.norm(g) * np.linalg.norm(res.p)
                )
                worst_margin = min(worst_margin, margin)
                margin_lines.append(
                    f"  margin[{method} {kind} lam={lam:g}] = {margin:.3e}"
                )
    checks.append(("smw_vs_dense_direction", worst_dir, 1e-9))
    checks.append(("smw_residual", worst_res, 1e-8))
    checks.append(
        ("model_decrease_bound_margin", -min(worst_margin, 0.0), 1e-12)
    )

    failed = False
    for name, err, tol in checks:
        ok = err <= tol
        failed = failed or not ok
        print(f"{'PASS' if ok else 'FAIL'} {name}: max_error={err:.3e} tol={tol:.0e}")
        if name == "model_decrease_bound_margin":
            for line in margin_lines:
                print(line)
    return 1 if failed else 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smwopt",
        description="Train feed-forward networks with Woodbury-based "
        "Gauss-Newton / natural-gradient methods, SGD, or Hessian-free CG.",
    )
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--verify", action="store_true",
                        help="run the numerical self-checks and exit")
    for f in fields(RunConfig):
        parser.add_argument("--" + f.name.replace("_", "-"), dest=f.name,
                            metavar=type(f.default).__name__.upper())
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    overrides = {k: v for k, v in vars(args).items() if k not in ("config", "verify")}
    try:
        if args.verify:
            return verify(seed=build_config({}, overrides).seed)
        file_values = parse_config_file(args.config) if args.config else {}
        return run(build_config(file_values, overrides))
    except (ConfigError, DataFormatError, OSError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except (optim.TrainingError, NumericError, ArithmeticError) as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
