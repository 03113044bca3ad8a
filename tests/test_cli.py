import ast
import os
import subprocess
import sys
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from smwopt import cli, data, diff, network, optim, oracles, solver
from smwopt.exceptions import ConfigError
from tests.conftest import save_csv, write_idx_pair


def write_blob_csv(path, rng, n=40, m0=3, classes=2):
    x = rng.normal(size=(n, m0))
    labels = rng.integers(0, classes, size=n)
    x[labels == 1] += 2.0
    ds = data.Dataset(x, data.one_hot(labels, classes))
    save_csv(path, ds)
    return path


def base_config(tmp_path, rng, **extra):
    csv_path = write_blob_csv(tmp_path / "train.csv", rng)
    values = {
        "train_csv": str(csv_path),
        "csv_features": "3",
        "csv_classes": "2",
        "layers": "3,4,2",
        "loss": "softmax_cross_entropy",
        "method": "sgd",
        "n1": "10",
        "n2": "5",
        "alpha": "0.1",
        "epochs": "1",
        "seed": "0",
        "out": str(tmp_path / "metrics.csv"),
    }
    values.update({k: str(v) for k, v in extra.items()})
    return values


def read_metrics(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestConfigParsing:
    def test_file_plus_overrides(self, tmp_path, rng):
        values = base_config(tmp_path, rng)
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(
            "".join(f"{k}={v}\n" for k, v in values.items()) + "# comment\n"
        )
        file_values = cli.parse_config_file(cfg_path)
        config = cli.build_config(file_values, {"alpha": "0.5"})
        assert config.alpha == 0.5
        assert config.n1 == 10
        assert config.train_csv == values["train_csv"]

    def test_unknown_key(self):
        with pytest.raises(ConfigError):
            cli.build_config({"learning_rate": "1"}, {})

    def test_bad_boolean(self):
        with pytest.raises(ConfigError):
            cli.build_config({"standardize": "maybe"}, {})

    def test_missing_file_is_config_error(self, tmp_path):
        config = cli.build_config(
            {"train_csv": str(tmp_path / "nope.csv"), "csv_features": "2",
             "layers": "2,2"}, {}
        )
        with pytest.raises(ConfigError):
            cli.load_datasets(config)

    def test_layer_data_mismatch(self, tmp_path, rng):
        values = base_config(tmp_path, rng, layers="4,4,2")
        config = cli.build_config(values, {})
        train, _ = cli.load_datasets(config)
        with pytest.raises(ConfigError):
            cli.build_model(config, train)


def test_load_datasets_holds_at_most_two_input_copies(tmp_path):
    """Loading and standardizing 2,000 784-pixel images keeps at most one
    float64 working copy beside the loaded inputs, and the inputs read
    with the bits of (x - mean) / std."""
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, size=(2000, 28, 28))
    ip, lp = write_idx_pair(tmp_path, images, rng.integers(0, 10, size=2000))
    config = cli.build_config({"train_images": str(ip), "train_labels": str(lp)}, {})
    tracemalloc.start()
    try:
        train, _ = cli.load_datasets(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.25 * images.size * 8
    x = images.reshape(2000, 784) / 255.0
    mean = np.mean(x, axis=0)
    std = np.maximum(np.sqrt(np.mean((x - mean) ** 2, axis=0)), data.STD_FLOOR)
    assert np.array_equal(train.inputs.columns(slice(None)), ((x - mean) / std).T)


def test_load_datasets_holds_one_input_copy(tmp_path):
    """Loading and standardizing 2,000 784-pixel images holds at most one
    float64 copy of the inputs, with the IDX file's pixel bytes (an eighth
    of a copy) and the standardizer's blocks."""
    rng = np.random.default_rng(1)
    images = rng.integers(0, 256, size=(2000, 28, 28))
    ip, lp = write_idx_pair(tmp_path, images, rng.integers(0, 10, size=2000))
    config = cli.build_config({"train_images": str(ip), "train_labels": str(lp)}, {})
    tracemalloc.start()
    try:
        train, _ = cli.load_datasets(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.3 * images.size * 8
    x = images.reshape(2000, 784) / 255.0
    mean = np.mean(x, axis=0)
    std = np.maximum(np.sqrt(np.mean((x - mean) ** 2, axis=0)), data.STD_FLOOR)
    assert np.array_equal(train.inputs.columns(slice(None)), ((x - mean) / std).T)


def whole_array_inputs(pixels, standardize, test_pixels=None):
    """The inputs a forward reads, from the whole arrays: x / 255.0, then
    - mean and / std with the training split's statistics."""
    x = pixels.astype(np.float64)
    x /= 255.0
    tx = None if test_pixels is None else test_pixels.astype(np.float64) / 255.0
    if standardize:
        mean = np.mean(x, axis=0)
        std = np.sqrt(np.mean((x - mean) ** 2, axis=0))
        std = np.maximum(std, data.STD_FLOOR)
        x -= mean
        x /= std
        if tx is not None:
            tx = (tx - mean) / std
    return x, tx


def write_split_pair(tmp_path, rng, n, n_test, side=4):
    """Seeded train and test IDX pairs; their config values and pixel rows."""
    values, pixels = {}, []
    for split, count in (("train", n), ("test", n_test)):
        (tmp_path / split).mkdir()
        images = rng.integers(0, 256, size=(count, side, side))
        ip, lp = write_idx_pair(tmp_path / split, images, rng.integers(0, 10, size=count))
        values.update({f"{split}_images": str(ip), f"{split}_labels": str(lp)})
        pixels.append(images.reshape(count, side * side))
    return values, pixels


class TestGather:
    """Every forward of the trainer reads columns gathered and standardized
    by data.Inputs.columns, with the bits of the whole-array formula and
    column-major, as when the whole array was standardized up front."""

    @staticmethod
    def spy(monkeypatch):
        """The inputs of every forward, and the gradient batches drawn."""
        seen, batches = [], []
        forward, sample = network.forward, optim.EpochSampler.sample_batches

        def spy_forward(shape, theta, x, *args, **kwargs):
            seen.append(x)
            return forward(shape, theta, x, *args, **kwargs)

        def spy_sample(self):
            s1, s2 = sample(self)
            batches.append(s1.copy())
            return s1, s2

        monkeypatch.setattr(optim, "forward", spy_forward)
        monkeypatch.setattr(optim.EpochSampler, "sample_batches", spy_sample)
        return seen, batches

    def check_trainer(self, trainer, x, tx, monkeypatch):
        seen, batches = self.spy(monkeypatch)
        monkeypatch.setattr(optim, "EVAL_CHUNK", 64)
        trainer.step()
        assert seen[0].flags.f_contiguous
        assert np.array_equal(seen[0], x[batches[0]].T)
        for evaluate, whole in ((trainer.full_loss, x), (trainer.test_error, tx)):
            seen.clear()
            evaluate()
            assert len(seen) == -(-len(whole) // 64)
            assert all(cols.flags.f_contiguous for cols in seen)
            assert np.array_equal(np.hstack(seen), whole.T)

    @pytest.mark.parametrize("standardize", (True, False))
    def test_idx_columns(self, standardize, tmp_path, rng, monkeypatch):
        values, (pixels, test_pixels) = write_split_pair(tmp_path, rng, 300, 130)
        values.update(standardize=str(standardize).lower(), layers="16,10")
        config = cli.build_config(values, {})
        train, test = cli.load_datasets(config)
        assert train.inputs.stored.dtype == np.uint8
        shape, spec = cli.build_model(config, train)
        trainer = optim.Trainer(
            shape, spec, train.inputs, train.targets,
            optim.OptimizerConfig(method=optim.SMW_GN, n1=60, n2=30),
            test_inputs=test.inputs, test_targets=test.targets,
        )
        x, tx = whole_array_inputs(pixels, standardize, test_pixels)
        self.check_trainer(trainer, x, tx, monkeypatch)

    def test_csv_columns(self, tmp_path, rng, monkeypatch):
        values = base_config(tmp_path, rng, method="smw-gn")
        test_csv = write_blob_csv(tmp_path / "test.csv", rng, n=70)
        values.update(test_csv=str(test_csv), n1="20", n2="10")
        config = cli.build_config(values, {})
        train, test = cli.load_datasets(config)
        shape, spec = cli.build_model(config, train)
        trainer = optim.Trainer(
            shape, spec, train.inputs, train.targets,
            optim.OptimizerConfig(method=optim.SMW_GN, n1=20, n2=10),
            test_inputs=test.inputs, test_targets=test.targets,
        )
        raw = [data.load_csv(p, 3, 2).inputs.stored for p in (values["train_csv"], test_csv)]
        mean = np.mean(raw[0], axis=0)
        std = np.maximum(np.sqrt(np.mean((raw[0] - mean) ** 2, axis=0)), data.STD_FLOOR)
        x, tx = ((r - mean) / std for r in raw)
        self.check_trainer(trainer, x, tx, monkeypatch)

    def test_semi_stochastic_full_set_is_gathered_once(self, tmp_path, rng, monkeypatch):
        """The full set is gathered at the first step; every later forward
        reads that array, from the held forward cache of the iterate."""
        values, (pixels, _) = write_split_pair(tmp_path, rng, 120, 10)
        config = cli.build_config(
            {"train_images": values["train_images"],
             "train_labels": values["train_labels"], "layers": "16,10"}, {}
        )
        train, _ = cli.load_datasets(config)
        shape, spec = cli.build_model(config, train)
        trainer = optim.Trainer(
            shape, spec, train.inputs, train.targets,
            optim.OptimizerConfig(
                method=optim.SMW_NG, n1=120, n2=30, alpha=1.0,
                semi_stochastic=True, lambda_lm=5.0,
            ),
        )
        gathers, columns = [], data.Inputs.columns

        def spy_columns(inputs, idx):
            gathers.append(idx)
            return columns(inputs, idx)

        monkeypatch.setattr(data.Inputs, "columns", spy_columns)
        seen, _ = self.spy(monkeypatch)
        for _ in range(4):
            trainer.step()
        trainer.full_loss()
        assert gathers == [slice(None)]
        assert len(seen) == 5 and all(cols is seen[0] for cols in seen)
        x, _ = whole_array_inputs(pixels, True)
        assert seen[0].flags.f_contiguous
        assert np.array_equal(seen[0], x.T)

    @pytest.mark.parametrize("method", optim.METHODS)
    def test_run_writes_the_metrics_of_inputs_standardized_up_front(
        self, method, tmp_path, rng, monkeypatch
    ):
        """cli.run on IDX splits writes the metrics a Trainer fed the whole
        arrays, standardized in place before training, writes, apart from
        wall_time_s."""
        monkeypatch.setattr(optim, "EVAL_CHUNK", 64)
        values, (pixels, test_pixels) = write_split_pair(tmp_path, rng, 200, 90, side=5)
        values.update(
            layers="25,8,10", method=method, n1="20", n2="10", epochs="2",
            eval_interval="3", out=str(tmp_path / "metrics.csv"),
        )
        config = cli.build_config(values, {})
        assert cli.run(config) == 0
        header, rows = read_metrics(tmp_path / "metrics.csv")

        train, test = cli.load_datasets(config)
        shape, spec = cli.build_model(config, train)
        x, tx = whole_array_inputs(pixels, True, test_pixels)
        trainer = optim.Trainer(
            shape, spec, x, train.targets,
            optim.OptimizerConfig(method=method, n1=20, n2=10),
            test_inputs=tx, test_targets=test.targets,
        )
        records = trainer.run(2 * trainer.iters_per_epoch, eval_interval=3)
        expected = [cli._metrics_row(r).split(",") for r in records]
        assert len(rows) == len(expected) == 20
        wall = header.index("wall_time_s")
        for row, want in zip(rows, expected):
            del row[wall], want[wall]
            assert row == want


def test_load_and_train_hold_no_float64_copy_of_the_inputs(tmp_path):
    """cli.load_datasets, optim.Trainer, a step and a full evaluation on
    2,000 784-pixel images never hold a float64 array of all the inputs:
    they stay uint8 and only gathered columns are converted."""
    rng = np.random.default_rng(2)
    images = rng.integers(0, 256, size=(2000, 28, 28))
    ip, lp = write_idx_pair(tmp_path, images, rng.integers(0, 10, size=2000))
    config = cli.build_config(
        {"train_images": str(ip), "train_labels": str(lp), "layers": "784,10"}, {}
    )
    tracemalloc.start()
    try:
        train, _ = cli.load_datasets(config)
        shape, spec = cli.build_model(config, train)
        trainer = optim.Trainer(
            shape, spec, train.inputs, train.targets, optim.OptimizerConfig()
        )
        trainer.step()
        trainer.full_loss()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < images.size * 8


class TestRun:
    def test_zero_epochs_header_only(self, tmp_path, rng):
        config = cli.build_config(base_config(tmp_path, rng, epochs=0), {})
        assert cli.run(config) == 0
        header, rows = read_metrics(tmp_path / "metrics.csv")
        assert header == cli.METRICS_COLUMNS == [
            "iter", "epoch_frac", "batch_loss", "full_loss", "test_error",
            "lambda", "rho", "grad_norm", "step_norm", "wall_time_s",
            "forward_passes", "backward_passes", "jvp_products", "vjp_products",
        ]
        assert rows == []

    def test_deterministic_except_wall_time(self, tmp_path, rng):
        values = base_config(tmp_path, rng, epochs=3)
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        cli.run(cli.build_config(values, {"out": str(out_a)}))
        cli.run(cli.build_config(values, {"out": str(out_b)}))
        header, rows_a = read_metrics(out_a)
        _, rows_b = read_metrics(out_b)
        assert len(rows_a) == len(rows_b) == 12
        wall_idx = header.index("wall_time_s")
        for ra, rb in zip(rows_a, rows_b):
            del ra[wall_idx], rb[wall_idx]
            assert ra == rb

    def test_metrics_read_back_losslessly(self, tmp_path, rng):
        values = base_config(
            tmp_path, rng, method="smw-gn", epochs=1, eval_interval=2
        )
        cli.run(cli.build_config(values, {}))
        header, rows = read_metrics(tmp_path / "metrics.csv")
        assert header == cli.METRICS_COLUMNS
        full_idx = header.index("full_loss")
        evaluated = [r for r in rows if r[full_idx] != ""]
        assert len(evaluated) == 2
        int_cols = {
            "iter", "forward_passes", "backward_passes",
            "jvp_products", "vjp_products",
        }
        for row in rows:
            for name, cell in zip(header, row):
                if cell == "":
                    continue
                if name in int_cols:
                    assert str(int(cell)) == cell
                else:
                    assert f"{float(cell):.17g}" == cell

    def test_test_split_reported(self, tmp_path, rng):
        test_csv = write_blob_csv(tmp_path / "test.csv", rng, n=20)
        values = base_config(tmp_path, rng, test_csv=str(test_csv), epochs=1)
        cli.run(cli.build_config(values, {}))
        header, rows = read_metrics(tmp_path / "metrics.csv")
        err_idx = header.index("test_error")
        reported = [r[err_idx] for r in rows if r[err_idx] != ""]
        assert reported
        assert all(0.0 <= float(v) <= 1.0 for v in reported)


class TestMain:
    def test_usage_error_exit_2(self, tmp_path):
        assert cli.main(["--config", str(tmp_path / "missing.cfg")]) == 2

    def test_config_error_exit_2(self, tmp_path, rng):
        values = base_config(tmp_path, rng, n1="5", n2="50")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{k}={v}\n" for k, v in values.items()))
        assert cli.main(["--config", str(cfg)]) == 2

    def test_run_via_flags(self, tmp_path, rng):
        values = base_config(tmp_path, rng, epochs=1)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{k}={v}\n" for k, v in values.items()))
        assert cli.main(["--config", str(cfg), "--method", "smw-ng"]) == 0
        assert (tmp_path / "metrics.csv").exists()

    def test_bad_targets_exit_2(self, tmp_path, rng, capsys):
        csv_path = tmp_path / "train.csv"
        labels = rng.integers(0, 3, size=(20, 1)).astype(float)
        labels[:3, 0] = [0.0, 1.0, 2.0]
        save_csv(csv_path, data.Dataset(rng.normal(size=(20, 2)), labels))
        argv = [
            "--train-csv", str(csv_path), "--csv-features", "2",
            "--loss", "binary_cross_entropy", "--layers", "2,3,1",
            "--n1", "10", "--n2", "5",
            "--out", str(tmp_path / "m.csv"),
        ]
        assert cli.main(argv) == 2
        assert "targets must lie in [0, 1]" in capsys.readouterr().err

    @pytest.mark.parametrize("standardize", ("true", "false"))
    def test_test_split_of_another_width_exit_2(
        self, standardize, tmp_path, rng, capsys
    ):
        """4x4 training and 3x3 test images: a config error before training,
        with or without standardization."""
        argv = []
        for split, side in (("train", 4), ("test", 3)):
            (tmp_path / split).mkdir()
            images = rng.integers(0, 256, size=(20, side, side))
            ip, lp = write_idx_pair(
                tmp_path / split, images, rng.integers(0, 10, size=20)
            )
            argv += [f"--{split}-images", str(ip), f"--{split}-labels", str(lp)]
        argv += [
            "--layers", "16,10", "--standardize", standardize,
            "--n1", "10", "--n2", "5", "--out", str(tmp_path / "m.csv"),
        ]
        assert cli.main(argv) == 2
        assert "test split has 9 features" in capsys.readouterr().err
        assert not (tmp_path / "m.csv").exists()

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_overflowing_standardized_feature_exit_2(self, tmp_path, rng, capsys):
        """A CSV feature at +-1.7e308, whose standardized extremes overflow,
        is a data error at load, not a numeric failure in training."""
        csv_path = tmp_path / "train.csv"
        x = rng.normal(size=(20, 2))
        x[:, 0] = -1.7e308
        x[0, 0] = 1.7e308
        save_csv(csv_path, data.Dataset(x, data.one_hot(rng.integers(0, 2, size=20), 2)))
        argv = [
            "--train-csv", str(csv_path), "--csv-features", "2", "--csv-classes", "2",
            "--layers", "2,3,2", "--n1", "10", "--n2", "5",
            "--out", str(tmp_path / "m.csv"),
        ]
        assert cli.main(argv) == 2
        assert "NaN or Inf" in capsys.readouterr().err
        assert not (tmp_path / "m.csv").exists()

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_numeric_failure_exit_3(self, tmp_path, rng):
        csv_path = tmp_path / "train.csv"
        x = rng.normal(size=(8, 2))
        y = 1e150 * np.ones((8, 1))
        save_csv(csv_path, data.Dataset(x, y))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"train_csv={csv_path}\ncsv_features=2\ncsv_classes=1\n"
            "standardize=false\nlayers=2,2,1\nactivations=linear,linear\n"
            "loss=squared_error\nmethod=sgd\nn1=8\nn2=1\nalpha=1e200\n"
            f"epochs=2\nout={tmp_path / 'm.csv'}\n"
        )
        assert cli.main(["--config", str(cfg)]) == 3


    @pytest.mark.parametrize(
        "bad",
        [
            {"loss": "foo"},
            {"activations": "logistic,tanh"},
            {"layers": "3,x,2"},
        ],
    )
    def test_bad_model_value_exit_2(self, bad, tmp_path, rng):
        values = base_config(tmp_path, rng, **bad)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{k}={v}\n" for k, v in values.items()))
        assert cli.main(["--config", str(cfg)]) == 2

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_non_finite_trial_loss_exit_3(self, tmp_path, rng):
        # Unscaled inputs and no damping send the smw-ng trial loss to inf;
        # that is a failed step, and the run ends on a NumericError, never
        # on an uncaught ValueError.
        csv_path = tmp_path / "train.csv"
        x = 1e3 * rng.normal(size=(40, 5))
        save_csv(
            csv_path, data.Dataset(x, data.one_hot(rng.integers(0, 3, size=40), 3))
        )
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"train_csv={csv_path}\ncsv_features=5\ncsv_classes=3\n"
            "standardize=false\nlayers=5,4,3\nactivations=linear,linear\n"
            "loss=squared_error\nmethod=smw-ng\nn1=10\nn2=5\nalpha=1\n"
            f"lambda_lm=0\nepochs=3\nout={tmp_path / 'm.csv'}\n"
        )
        assert cli.main(["--config", str(cfg)]) == 3


def _flag_value(default):
    """A value differing from the default, as it would be typed."""
    if isinstance(default, bool):
        return str(not default).lower()
    if isinstance(default, (int, float)):
        return str(default + 3)
    return default + "x"


@pytest.mark.parametrize("field", fields(cli.RunConfig), ids=lambda f: f.name)
def test_every_config_key_has_a_flag(field):
    value = _flag_value(field.default)
    args = cli.make_parser().parse_args(["--" + field.name.replace("_", "-"), value])
    assert getattr(args, field.name) == value
    overrides = {k: v for k, v in vars(args).items() if k not in ("config", "verify")}
    from_flag = cli.build_config({}, overrides)
    assert from_flag == cli.build_config({field.name: value}, {})
    assert getattr(from_flag, field.name) != field.default


def test_only_cli_imports_oracles():
    """The brute-force oracles serve --verify and the tests, not training."""
    package = Path(cli.__file__).parent
    importers = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [a.name for a in node.names]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            if any("oracles" in n.split(".") for n in names):
                importers.append(path.name)
    assert importers == ["cli.py"]


def test_every_definition_outside_oracles_is_used_outside_oracles():
    """Training modules hold no test-only code: each top-level function and
    class, and each non-dunder method, defined outside oracles.py is named
    (as a Name, an Attribute or an import alias) somewhere outside oracles.py.
    """
    package = Path(cli.__file__).parent
    defined, referenced = [], set()
    for path in sorted(package.glob("*.py")):
        if path.name == "oracles.py":
            continue
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append(f"{path.stem}.{node.name}")
            if isinstance(node, ast.ClassDef):
                defined += [
                    f"{path.stem}.{node.name}.{item.name}"
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and not (item.name.startswith("__") and item.name.endswith("__"))
                ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    unused = [name for name in defined if name.rsplit(".", 1)[1] not in referenced]
    assert unused == [], f"defined but used only by oracles or tests: {unused}"


class TestVerify:
    def test_passes_by_default(self, capsys):
        assert oracles.verify(seed=0) == 0
        out = capsys.readouterr().out
        assert "PASS gradient_vs_finite_differences" in out
        assert "PASS factored_vs_dense_direction" in out
        assert "PASS low_rank_trial_forward" in out
        assert "PASS hf_factored_vs_dense_direction" in out
        assert "PASS trainer_step_vs_dense_direction" in out
        assert "FAIL" not in out

    @pytest.mark.parametrize("seed", range(1, 10))
    def test_passes_over_seeds(self, seed, capsys):
        assert oracles.verify(seed=seed) == 0
        assert "FAIL" not in capsys.readouterr().out

    @pytest.mark.parametrize("kernels", ("vjp", "jvp_and_vjp"))
    def test_output_activation_jacobian_in_kernels_fails(
        self, kernels, capsys, monkeypatch
    ):
        """Kernels that apply the output activation's Jacobian A pair the
        h_L-space loss Hessian with J = A J_h, as they did before the kernels
        moved to h_L. The gradient stays exact, and with jvp mutated too the
        adjoint identity holds, so only the theta-space check, which reads
        nothing but the gradient, sees the curvature J_h^T A H A J_h."""
        gradient, jvp, vjp = diff.gradient, diff.jvp, diff.vjp

        def output_jacobian(shape, cache, u):
            v = cache.output if u.ndim == 2 else cache.output[:, :, None]
            kind = shape.activations[-1]
            if kind == network.LOGISTIC:
                return v * (1.0 - v) * u
            if kind == network.SOFTMAX:
                return v * u - v * np.sum(v * u, axis=0, keepdims=True)
            return u

        def vjp_mutant(shape, theta, cache, x_out, *args, **kwargs):
            seed = output_jacobian(shape, cache, np.asarray(x_out, dtype=float))
            return vjp(shape, theta, cache, seed, *args, **kwargs)

        def jvp_mutant(shape, theta, cache, *args, **kwargs):
            h1 = jvp(shape, theta, cache, *args, **kwargs)
            return output_jacobian(shape, cache, h1)

        def exact_gradient(*args, **kwargs):
            with monkeypatch.context() as m:
                m.setattr(diff, "vjp", vjp)
                return gradient(*args, **kwargs)

        monkeypatch.setattr(diff, "vjp", vjp_mutant)
        monkeypatch.setattr(diff, "gradient", exact_gradient)
        if kernels == "jvp_and_vjp":
            monkeypatch.setattr(diff, "jvp", jvp_mutant)
        assert oracles.verify(seed=0) == 1
        out = capsys.readouterr().out
        assert "FAIL gn_matrix_vs_theta_hessian" in out
        if kernels == "jvp_and_vjp":
            assert out.count("FAIL") == 1

    def test_injected_error_fails(self, capsys, monkeypatch):
        gradient = diff.gradient

        def biased(*args, **kwargs):
            # Packed gradients only: a factored g has no scalar add.
            g, factors = gradient(*args, **kwargs)
            return (g + 1e-3 if isinstance(g, np.ndarray) else g), factors

        monkeypatch.setattr(diff, "gradient", biased)
        assert oracles.verify(seed=0) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_solve_without_refinement_fails(self, capsys, monkeypatch):
        """Every other Woodbury check runs at lambda >= 1e-3, above
        REFINE_LAMBDA; the small-lambda residual check catches the rest."""
        monkeypatch.setattr(solver, "REFINE_ROUNDS", 0)
        assert oracles.verify(seed=0) == 1
        out = capsys.readouterr().out
        assert "FAIL smw_residual_small_lambda" in out
        assert "FAIL smw_backward_error_wider_batch" in out

    def test_refinement_residual_without_damping_term_fails(
        self, capsys, monkeypatch
    ):
        """Refinement's residual -g - B_t p without its lambda p term. With
        g over S2 alone lambda p is tiny, so the small-lambda residual
        passes at seed 0; with g over a wider S1, lambda p carries g's part
        outside B_t's range, and only the backward error sees it."""
        apply_curvature = solver.apply_curvature

        def undamped(shape, theta, system, v, counters=None):
            bv = apply_curvature(shape, theta, system, v, counters)
            bv -= system.lam * v
            return bv

        monkeypatch.setattr(solver, "apply_curvature", undamped)
        assert oracles.verify(seed=0) == 1
        out = capsys.readouterr().out
        assert "FAIL smw_backward_error_wider_batch" in out
        assert out.count("FAIL") == 1

    def test_grams_without_bias_term_fail(self, capsys, monkeypatch):
        """S1 input Grams without the +1 that pairs the bias blocks: every
        factored inner product, U^T g, the factored jvp tangents and the
        low-rank trial forward go wrong, and only the factored checks read
        them."""
        span_of = diff.SampleSpan.of.__func__

        def no_bias(cls, cache):
            span = span_of(cls, cache)
            return cls(span.shape, span.layer_inputs, [k - 1.0 for k in span.grams])

        monkeypatch.setattr(diff.SampleSpan, "of", classmethod(no_bias))
        assert oracles.verify(seed=0) == 1
        out = capsys.readouterr().out
        assert "FAIL factored_vs_dense_direction" in out
        assert "FAIL low_rank_trial_forward" in out
        assert "FAIL hf_factored_vs_dense_direction" in out
        assert "FAIL trainer_step_vs_dense_direction" in out
        assert out.count("FAIL") == 4

    def test_curvature_adjoints_one_column_off_fail(self, capsys, monkeypatch):
        """S2 adjoints placed on S1 columns 1..n2 instead of the prefix
        0..n2-1 that S2 is, when a vector in g's frame is placed on S1."""

        def shifted(x):
            g = x.frame.g
            adjoints = []
            for a, ga in zip(x.adjoints, g.adjoints):
                full = ga * x.beta
                off = int(a.shape[1] < full.shape[1])
                full[:, off : a.shape[1] + off] = a
                adjoints.append(full)
            return diff.FactoredVector(g.span, adjoints)

        monkeypatch.setattr(diff.PrefixVector, "factored", shifted)
        assert oracles.verify(seed=0) == 1
        out = capsys.readouterr().out
        assert "FAIL factored_vs_dense_direction" in out
        assert "FAIL hf_factored_vs_dense_direction" in out
        assert "FAIL trainer_step_vs_dense_direction" in out
        assert out.count("FAIL") == 3

    @pytest.mark.parametrize("dropped", ("cross", "tail"))
    def test_inner_product_without_out_of_s2_terms_fails(
        self, dropped, capsys, monkeypatch
    ):
        """Inner products in g's frame without the terms of g's columns
        outside S2: the cross terms b vdot(X, P) or b_x b_y q. hf's CG
        direction goes wrong; the Woodbury p reads no inner product."""

        def inner(x, y):
            frame = x.frame
            total = 0.0 if dropped == "tail" else x.beta * y.beta * frame.tail_sq
            for a, b, k, c in zip(x.adjoints, y.adjoints, frame.grams, frame.cross):
                total += np.vdot(a, b @ k)
                if dropped != "cross":
                    total += y.beta * np.vdot(a, c) + x.beta * np.vdot(b, c)
            return float(total)

        monkeypatch.setattr(diff.PrefixVector, "__matmul__", inner)
        with np.errstate(all="ignore"):
            assert oracles.verify(seed=0) == 1
        out = capsys.readouterr().out
        assert "FAIL hf_factored_vs_dense_direction" in out
        assert "FAIL trainer_step_vs_dense_direction" in out
        assert out.count("FAIL") == 2

    def test_curvature_batch_one_position_off_fails(self, capsys, monkeypatch):
        """Trainer.step's curvature batch taken at S1 positions 1..n2 instead
        of the prefix 0..n2-1 that the sampler's S2 is (a semi-stochastic
        S2 one sample on, wrapping at the set's end). Only the trainer line
        runs a Trainer."""
        second_order_step = optim.Trainer._second_order_step

        def shifted(self, s1, positions):
            return second_order_step(self, s1, (positions + 1) % self.n_samples)

        monkeypatch.setattr(optim.Trainer, "_second_order_step", shifted)
        assert oracles.verify(seed=0) == 1
        out = capsys.readouterr().out
        assert "FAIL trainer_step_vs_dense_direction" in out
        assert out.count("FAIL") == 1

    def test_curvature_batch_past_the_set_end_fails(self, capsys, monkeypatch):
        """Trainer.step's curvature batch one position on without wrapping:
        a semi-stochastic S2 then reaches index N and the step raises
        IndexError. That fails the trainer line, and every other check
        still reports."""
        oracles.verify(seed=0)
        clean = capsys.readouterr().out.splitlines()
        second_order_step = optim.Trainer._second_order_step

        def shifted(self, s1, positions):
            return second_order_step(self, s1, positions + 1)

        monkeypatch.setattr(optim.Trainer, "_second_order_step", shifted)
        assert oracles.verify(seed=0) == 1
        out, err = capsys.readouterr()
        assert "FAIL trainer_step_vs_dense_direction" in out
        assert out.count("FAIL") == 1
        assert "IndexError" in err
        names = [line.split(":")[0][5:] for line in clean if "max_error=" in line]
        assert len(names) > 1
        for name in names:
            assert f" {name}: max_error=" in out

    def test_semi_stochastic_curvature_batch_of_first_rows_fails(
        self, capsys, monkeypatch
    ):
        """A semi-stochastic step's curvature batch taken as the set's first
        n2 samples instead of the sampler's random draw."""
        second_order_step = optim.Trainer._second_order_step

        def first_rows(self, s1, positions):
            if self.config.semi_stochastic:
                positions = np.arange(positions.size)
            return second_order_step(self, s1, positions)

        monkeypatch.setattr(optim.Trainer, "_second_order_step", first_rows)
        assert oracles.verify(seed=0) == 1
        out = capsys.readouterr().out
        assert "FAIL trainer_step_vs_dense_direction" in out
        assert out.count("FAIL") == 1

    def test_frame_embed_without_weights_fails(self, capsys, monkeypatch):
        """Natural gradient's U q = sum_i q_i grad_i in g's frame with the
        core weights q dropped: the factor-space Woodbury step goes wrong,
        and only the checks that run it in g's frame see it."""
        embed = diff.PrefixFrame.embed

        def unweighted(frame, factors, weights=None):
            return embed(frame, factors)

        monkeypatch.setattr(diff.PrefixFrame, "embed", unweighted)
        assert oracles.verify(seed=0) == 1
        out = capsys.readouterr().out
        assert "FAIL factored_vs_dense_direction" in out
        assert "FAIL trainer_step_vs_dense_direction" in out
        assert out.count("FAIL") == 2

    def test_main_verify_flag(self, capsys):
        assert cli.main(["--verify"]) == 0
        assert "model_decrease_bound_margin" in capsys.readouterr().out


# One smw-gn step through the library, then report whether scipy was
# imported along the way. numpy is the only declared dependency, so nothing
# on the training path may pull in scipy.
DEPENDENCY_PROBE = """
import sys
import numpy as np
import smwopt.cli
from smwopt import loss, network, optim

rng = np.random.default_rng(0)
shape = network.NetworkShape((3, 4, 2), ("logistic", "softmax"))
x = rng.normal(size=(8, 3))
y = np.eye(2)[rng.integers(0, 2, size=8)]
config = optim.OptimizerConfig(method=optim.SMW_GN, n1=4, n2=2)
trainer = optim.Trainer(
    shape, loss.LossSpec(loss.SOFTMAX_CROSS_ENTROPY), x, y, config
)
trainer.step()
print("scipy" in sys.modules)
"""


def run_python(*args, check=False):
    """Run this interpreter on the checkout's src/ and capture its output."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, check=check
    )


def test_training_path_does_not_import_scipy():
    out = run_python("-c", DEPENDENCY_PROBE, check=True)
    assert out.stdout.strip() == "False"


def test_python_dash_m_entry_point():
    out = run_python("-m", "smwopt", "--help")
    assert out.returncode == 0
    assert "usage: smwopt" in out.stdout
    assert "RuntimeWarning" not in out.stderr
