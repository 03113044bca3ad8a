"""Experiment harness: config parsing, training runs, metrics.

Configuration is a flat key=value text file; every key can also be set or
overridden with a command-line flag. A run writes one metrics row per
iteration to a CSV file whose schema is fixed (see METRICS_COLUMNS); all
columns except wall_time_s reproduce exactly under a fixed seed. --verify
runs the oracle self-checks of oracles.verify instead of training.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, fields, replace
from operator import attrgetter
from pathlib import Path

import numpy as np

from . import damping, data as data_mod, loss as loss_mod, network, optim, oracles, solver
from .exceptions import ConfigError, DataFormatError, NumericError, OutputError

@dataclass
class RunConfig:
    """All run options; the optimizer, damping and CG keys default to their owners'."""

    train_images: str = ""
    train_labels: str = ""
    train_csv: str = ""
    test_images: str = ""
    test_labels: str = ""
    test_csv: str = ""
    csv_header: bool = False
    subset: int = 0
    subset_seed: int = -1
    standardize: bool = True
    layers: str = ""
    activations: str = ""
    loss: str = loss_mod.SOFTMAX_CROSS_ENTROPY
    method: str = optim.OptimizerConfig.method
    n1: int = optim.OptimizerConfig.n1
    n2: int = optim.OptimizerConfig.n2
    alpha: float = optim.OptimizerConfig.alpha
    epochs: int = 1
    seed: int = optim.OptimizerConfig.seed
    semi_stochastic: bool = optim.OptimizerConfig.semi_stochastic
    eta: float = optim.OptimizerConfig.eta
    lambda_lm: float = damping.DampingState.lambda_lm
    tau: float = damping.DampingState.tau
    boost: float = damping.DampingState.boost
    drop: float = damping.DampingState.drop
    epsilon: float = damping.DampingState.epsilon
    cg_max_iters: int = solver.CgConfig.max_iters
    cg_tol: float = solver.CgConfig.rel_residual_tol
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
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise ConfigError(f"{path}: not UTF-8 text: {err}") from err
    values = {}
    for lineno, line in enumerate(text.split("\n"), start=1):
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
    if csv and (images or labels):
        raise ConfigError(
            f"{prefix}_csv and {prefix}_images/{prefix}_labels are both set"
        )
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
        sizes = _parse_model(config)[0].layer_sizes
        return data_mod.load_csv(
            csv, sizes[0], num_classes=sizes[-1], skip_header=config.csv_header
        )
    return None


def load_datasets(
    config: RunConfig,
) -> tuple[data_mod.Dataset, data_mod.Dataset | None]:
    """The training split and the test split or None, standardized in
    place with the training split's statistics when configured."""
    train = _load_split(config, "train")
    if train is None:
        raise ConfigError("no training data configured")
    test = _load_split(config, "test")
    if test is not None:
        widths = [(d.inputs.shape[1], d.targets.shape[1]) for d in (train, test)]
        if widths[1] != widths[0]:
            raise ConfigError(
                "test split has {} features and {} target columns, the "
                "training split {} and {}".format(*widths[1], *widths[0])
            )
    if config.subset < 0:
        raise ConfigError(f"need subset >= 0, got {config.subset}")
    if config.subset:
        seed = None if config.subset_seed < 0 else config.subset_seed
        train = train.subset(config.subset, seed)
    if config.standardize:
        stats = data_mod.fit_standardizer(train)
        train = stats.apply(train)
        if test is not None:
            test = stats.apply(test)
    return train, test


def _parse_model(config: RunConfig) -> tuple[network.NetworkShape, loss_mod.LossSpec]:
    """The network shape and loss named by layers, activations and loss."""
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
    return shape, spec


def build_model(
    config: RunConfig, train: data_mod.Dataset
) -> tuple[network.NetworkShape, loss_mod.LossSpec]:
    shape, spec = _parse_model(config)
    features, outputs = train.inputs.shape[1], train.targets.shape[1]
    if (shape.input_size, shape.output_size) != (features, outputs):
        raise ConfigError(
            f"layers {shape.layer_sizes} do not match data with {features} "
            f"features and {outputs} target columns"
        )
    return shape, spec


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


# The fixed metrics schema: column name and the record field it holds.
_METRICS = (
    ("iter", attrgetter("iteration")),
    ("epoch_frac", attrgetter("epoch_frac")),
    ("batch_loss", attrgetter("batch_loss")),
    ("full_loss", attrgetter("full_loss")),
    ("test_error", attrgetter("test_error")),
    ("lambda", attrgetter("lam")),
    ("rho", attrgetter("rho")),
    ("grad_norm", attrgetter("grad_norm")),
    ("step_norm", attrgetter("step_norm")),
    ("wall_time_s", attrgetter("wall_time")),
    ("forward_passes", attrgetter("counters.forward_passes")),
    ("backward_passes", attrgetter("counters.backward_passes")),
    ("jvp_products", attrgetter("counters.jvp_products")),
    ("vjp_products", attrgetter("counters.vjp_products")),
)
METRICS_COLUMNS = [name for name, _ in _METRICS]


def _metrics_row(rec: optim.IterationRecord) -> str:
    return ",".join(_fmt(cell(rec)) for _, cell in _METRICS)


def run(config: RunConfig) -> int:
    """Train per the config and stream metrics rows to the output CSV."""
    train, test = load_datasets(config)
    shape, spec = build_model(config, train)
    def keys_of(owner):  # config's values for the fields of owner it also has
        names = (f.name for f in fields(owner))
        return {n: getattr(config, n) for n in names if hasattr(config, n)}
    opt_config = optim.OptimizerConfig(
        **keys_of(optim.OptimizerConfig),
        damping=damping.DampingState(**keys_of(damping.DampingState)),
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
    if config.epochs < 1:
        raise ConfigError(f"need epochs >= 1, got {config.epochs}")
    if config.eval_interval < 0:
        raise ConfigError(f"need eval_interval >= 0, got {config.eval_interval}")
    num_iters = config.epochs * trainer.iters_per_epoch
    interval = config.eval_interval or None
    try:
        with open(config.out, "w", encoding="utf-8") as fh:
            fh.write(",".join(METRICS_COLUMNS) + "\n")
            trainer.run(
                num_iters,
                eval_interval=interval,
                record_hook=lambda rec: fh.write(_metrics_row(rec) + "\n"),
            )
    except OSError as err:
        raise OutputError(err) from err
    return 0


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
        file_values = parse_config_file(args.config) if args.config else {}
        config = build_config(file_values, overrides)
        if args.verify:
            try:
                return oracles.verify(seed=config.seed)
            except OSError as err:  # verify reads no file; this is stdout
                raise OutputError(err) from err
        # Explicit checks raise; numpy's warnings would only precede the one
        # error line. errstate(all="raise") misses OpenBLAS threads' FP flags.
        with np.errstate(all="ignore"):
            return run(config)
    except OutputError as err:
        print(f"output error: {err}", file=sys.stderr)
        return 2
    except (ConfigError, OSError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except DataFormatError as err:
        print(f"data error: {err}", file=sys.stderr)
        return 2
    except NumericError as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
