import ast
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from smwopt import cli, data, diff, network, oracles, solver
from smwopt.exceptions import ConfigError
from tests.conftest import save_csv


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
        assert "FAIL" not in out

    @pytest.mark.parametrize("seed", (1, 2, 3, 4))
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
            g, factors = gradient(*args, **kwargs)
            return g + 1e-3, factors

        monkeypatch.setattr(diff, "gradient", biased)
        assert oracles.verify(seed=0) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_solve_without_refinement_fails(self, capsys, monkeypatch):
        """Every other Woodbury check runs at lambda >= 1e-3, above
        REFINE_LAMBDA; the small-lambda residual check catches the rest."""
        monkeypatch.setattr(solver, "REFINE_ROUNDS", 0)
        assert oracles.verify(seed=0) == 1
        assert "FAIL smw_residual_small_lambda" in capsys.readouterr().out

    def test_grams_without_bias_term_fail(self, capsys, monkeypatch):
        """S1 input Grams without the +1 that pairs the bias blocks: every
        factored inner product, U^T g and the low-rank trial forward go
        wrong, and only the factored checks read them."""
        span_of = diff.SampleSpan.of.__func__

        def no_bias(cls, cache):
            span = span_of(cls, cache)
            return cls(span.shape, span.layer_inputs, [k - 1.0 for k in span.grams])

        monkeypatch.setattr(diff.SampleSpan, "of", classmethod(no_bias))
        assert oracles.verify(seed=0) == 1
        out = capsys.readouterr().out
        assert "FAIL factored_vs_dense_direction" in out
        assert "FAIL low_rank_trial_forward" in out
        assert out.count("FAIL") == 2

    def test_curvature_adjoints_one_column_off_fail(self, capsys, monkeypatch):
        """U q's S2 adjoints placed on S1 columns 1..n2 instead of the
        prefix 0..n2-1 that S2 is."""

        def shifted(span, factors, weights=None):
            adjoints = []
            for a in factors.layer_adjoints:
                full = np.zeros((a.shape[0], span.ncols))
                off = int(a.shape[1] < span.ncols)
                full[:, off : a.shape[1] + off] = a if weights is None else a * weights
                adjoints.append(full)
            return diff.FactoredVector(span, adjoints)

        monkeypatch.setattr(diff.SampleSpan, "embed", shifted)
        assert oracles.verify(seed=0) == 1
        out = capsys.readouterr().out
        assert "FAIL factored_vs_dense_direction" in out
        assert out.count("FAIL") == 1

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
