"""Acceptance suite: one test per criterion, printing a pass line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is asserted, so a plain `pytest` run is binding.
"""

import math
import struct
import time

import numpy as np
import pytest

from smwopt import cli, curvature, damping, data, diff, loss, network, optim, solver
from smwopt.oracles import (
    build_curvature_matrix,
    dense_direction_oracle,
    factored_jacobian,
    fd_loss_gradient,
    fd_loss_hessian_h,
    loss_hessian_h,
    make_net,
    output_cache,
    random_targets,
    smw_system,
)
from tests.conftest import pack


def report(num, text):
    print(f"ACCEPTANCE {num:2d} PASS: {text}")


def test_criterion_01_gradient_vs_finite_differences():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for trial in range(20):
        kind = loss.LOSS_KINDS[trial % 3]
        n_hidden = int(rng.integers(0, 3))
        hidden = [int(rng.integers(2, 13)) for _ in range(n_hidden)]
        shape, spec, theta = make_net(
            rng, kind,
            hidden=hidden,
            m_in=int(rng.integers(2, 13)),
            m_out=1 if kind == loss.BINARY_CROSS_ENTROPY else int(rng.integers(2, 13)),
        )
        x = rng.normal(size=(shape.input_size, 1))
        y = random_targets(rng, kind, shape.output_size)
        cache = network.forward(shape, theta, x)
        g, _ = diff.gradient(shape, theta, cache, y, spec)
        fd = fd_loss_gradient(shape, theta, x, y, spec)
        worst = max(worst, float(np.max(np.abs(g - fd) / (1.0 + np.abs(fd)))))
        assert worst <= 1e-5
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(1, f"gradients match central differences, max rel err {worst:.2e}, "
              f"{elapsed:.1f}s")


def test_criterion_02_adjoint_identity():
    rng = np.random.default_rng(202)
    worst = 0.0
    for trial in range(200):
        kind = loss.LOSS_KINDS[trial % 3]
        shape, spec, theta = make_net(rng, kind)
        x = rng.normal(size=(shape.input_size, 1))
        cache = network.forward(shape, theta, x)
        t1 = rng.normal(size=shape.num_params)
        xo = rng.normal(size=(shape.output_size, 1))
        lhs = float(diff.jvp(shape, theta, cache, t1)[:, 0] @ xo[:, 0])
        packed, _ = diff.vjp(shape, theta, cache, xo)
        err = abs(lhs - float(t1 @ packed)) / (1.0 + abs(lhs))
        worst = max(worst, err)
        assert err <= 1e-10
    report(2, f"adjoint identity over 200 instances, max err {worst:.2e}")


def test_criterion_03_loss_hessians():
    rng = np.random.default_rng(303)
    worst_fd = 0.0
    worst_ones = 0.0
    worst_factor = 0.0
    from tests.test_loss import random_h_y

    for kind in loss.LOSS_KINDS:
        spec = loss.LossSpec(kind)
        for _ in range(25):
            h, y = random_h_y(rng, kind)
            cache = output_cache(kind, h)
            closed = loss_hessian_h(spec, cache)[0]
            fd = fd_loss_hessian_h(spec, h, y)
            worst_fd = max(worst_fd, float(np.max(np.abs(closed - fd))))
            c = loss.hessian_factor(spec, cache)[0]
            worst_factor = max(worst_factor, float(np.max(np.abs(c @ c.T - closed))))
            if kind == loss.SOFTMAX_CROSS_ENTROPY:
                worst_ones = max(
                    worst_ones, float(np.max(np.abs(closed @ np.ones(h.size))))
                )
    assert worst_fd <= 1e-5
    assert worst_ones <= 1e-12
    assert worst_factor <= 1e-12
    report(3, f"loss Hessians: fd err {worst_fd:.2e}, H@1 {worst_ones:.2e}, "
              f"factor C C^T err {worst_factor:.2e}")


def test_criterion_04_gram_oracles():
    rng = np.random.default_rng(404)
    worst_gn = 0.0
    worst_ng = 0.0
    for trial in range(50):
        kind = loss.LOSS_KINDS[trial % 3]
        nb = int(rng.integers(1, 7))
        shape, spec, theta = make_net(
            rng, kind,
            hidden=[int(rng.integers(2, 13))],
            m_in=int(rng.integers(2, 13)),
            m_out=1 if kind == loss.BINARY_CROSS_ENTROPY else int(rng.integers(2, 5)),
        )
        assert shape.num_params <= 400
        x = rng.normal(size=(shape.input_size, nb))
        y = random_targets(rng, kind, shape.output_size, nb)
        cache = network.forward(shape, theta, x)
        batch = curvature.gn_batch_factors(shape, theta, cache, spec)
        gram = curvature.gn_block_gram(batch)
        fmat = factored_jacobian(shape, theta, cache, spec)
        worst_gn = max(worst_gn, float(np.max(np.abs(gram - fmat @ fmat.T))))
        _, gf = diff.gradient(shape, theta, cache, y, spec)
        ngram = curvature.gn_block_gram(gf)
        gmat = np.stack([gf.cols([i]).expand_sum() for i in range(nb)], axis=0)
        worst_ng = max(worst_ng, float(np.max(np.abs(ngram - gmat @ gmat.T))))
        assert worst_gn <= 1e-10 and worst_ng <= 1e-10
    report(4, f"Gram oracles over 50 instances: gn {worst_gn:.2e}, "
              f"ng {worst_ng:.2e}")


def test_criterion_05_smw_exactness():
    rng = np.random.default_rng(505)
    worst_dir = 0.0
    worst_res = 0.0
    for kind in loss.LOSS_KINDS:
        for method in (optim.SMW_GN, optim.SMW_NG):
            shape, spec, theta = make_net(
                rng, kind, hidden=[12, 10], m_in=10,
                m_out=1 if kind == loss.BINARY_CROSS_ENTROPY else 3,
            )
            assert 250 <= shape.num_params <= 350
            nb = 4
            x = rng.normal(size=(shape.input_size, nb))
            y = random_targets(rng, kind, shape.output_size, nb)
            cache = network.forward(shape, theta, x)
            g, _ = diff.gradient(shape, theta, cache, y, spec)
            for lam in (1e-3, 1.0, 1e3):
                system = smw_system(shape, theta, cache, y, spec, lam, method)
                res = solver.smw_direction(shape, theta, system, g)
                oracle = dense_direction_oracle(
                    shape, theta, x, y, spec, lam, method
                )
                scale = float(np.max(np.abs(oracle.p))) + 1e-300
                err = float(np.max(np.abs(res.p - oracle.p))) / scale
                worst_dir = max(worst_dir, err)
                assert err <= 1e-9
                b_mat, _ = build_curvature_matrix(
                    shape, theta, x, y, spec, method
                )
                rnorm = float(
                    np.linalg.norm(b_mat @ res.p + lam * res.p + g)
                ) / (1.0 + float(np.linalg.norm(g)))
                worst_res = max(worst_res, rnorm)
                assert rnorm <= 1e-8
    report(5, f"Woodbury matches dense solves: dir {worst_dir:.2e}, "
              f"residual {worst_res:.2e}")


def test_criterion_06_hf_consistency():
    rng = np.random.default_rng(606)
    worst = 0.0
    for kind in loss.LOSS_KINDS:
        shape, spec, theta = make_net(rng, kind, hidden=[5])
        nb = 4
        x = rng.normal(size=(shape.input_size, nb))
        y = random_targets(rng, kind, shape.output_size, nb)
        cache = network.forward(shape, theta, x)
        g, _ = diff.gradient(shape, theta, cache, y, spec)
        lam = 0.5
        tight = solver.CgConfig(max_iters=shape.num_params, rel_residual_tol=1e-12)
        res = solver.hf_cg_direction(shape, theta, cache, spec, lam, tight, g)
        oracle = dense_direction_oracle(shape, theta, x, y, spec, lam)
        err = float(np.max(np.abs(res.p - oracle.p))) / (
            1.0 + float(np.max(np.abs(oracle.p)))
        )
        worst = max(worst, err)
        assert err <= 1e-8
        for _ in range(10):
            default = solver.hf_cg_direction(
                shape, theta, cache, spec, lam, solver.CgConfig(), g
            )
            assert float(g @ default.p) < 0.0
    report(6, f"CG baseline matches dense at tight tolerance ({worst:.2e}) "
              "and descends at the default tolerance")


def test_criterion_07_damping_rule():
    rng = np.random.default_rng(707)
    state = damping.DampingState(
        lambda_lm=1.0, tau=0.001, boost=1.01, drop=0.99, epsilon=0.25
    )
    rhos = rng.uniform(-0.5, 1.5, size=300).tolist()
    trajectory = []
    for rho in rhos:
        state = damping.update_lambda(state, rho)
        trajectory.append(state.lambda_lm)
    replay = damping.DampingState(
        lambda_lm=1.0, tau=0.001, boost=1.01, drop=0.99, epsilon=0.25
    )
    for rho, expected in zip(rhos, trajectory):
        replay = damping.update_lambda(replay, rho)
        assert replay.lambda_lm == expected

    a = rng.normal(size=(6, 6))
    b_mat = a.T @ a + np.eye(6)
    center = rng.normal(size=6)
    theta = rng.normal(size=6)
    state = damping.DampingState(lambda_lm=1.0, tau=0.001)

    def f(v):
        d = v - center
        return 0.5 * float(d @ b_mat @ d)

    worst = 0.0
    for _ in range(12):
        g = b_mat @ (theta - center)
        p = np.linalg.solve(b_mat + state.lam * np.eye(6), -g)
        rep = damping.compute_rho(
            f(theta), f(theta + p), float(g @ p), float(p @ b_mat @ p)
        )
        worst = max(worst, abs(rep.rho - 1.0))
        assert abs(rep.rho - 1.0) <= 1e-12
        state = damping.update_lambda(state, rep.rho)
        theta = theta + p
    report(7, f"damping replay exact; quadratic rho dev {worst:.2e}")


def test_criterion_08_semi_stochastic_descent():
    start = time.perf_counter()
    rng = np.random.default_rng(808)
    n = 100
    half = n // 2
    x = np.vstack(
        [
            rng.normal(-1.0, 0.8, size=(half, 2)),
            rng.normal(1.0, 0.8, size=(n - half, 2)),
        ]
    )
    y = np.vstack([np.zeros((half, 1)), np.ones((n - half, 1))])
    shape = network.NetworkShape((2, 6, 1), ("logistic", "logistic"))
    spec = loss.LossSpec(loss.BINARY_CROSS_ENTROPY)
    config = optim.OptimizerConfig(
        method=optim.SMW_GN, n1=n, n2=20, alpha=1.0,
        semi_stochastic=True, eta=0.1, seed=0,
    )
    trainer = optim.Trainer(shape, spec, x, y, config)

    def full_gradient_norm():
        cache = network.forward(shape, trainer.theta, trainer.inputs.columns(slice(None)))
        g, _ = diff.gradient(shape, trainer.theta, cache, trainer.y, spec)
        return float(np.linalg.norm(g))

    g0 = full_gradient_norm()
    losses = [trainer.step().batch_loss for _ in range(500)]
    g1 = full_gradient_norm()
    diffs = np.diff(np.array(losses))
    assert np.all(diffs <= 0.0)
    assert g1 < 0.1 * g0
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(8, f"500 full-gradient iterations: loss non-increasing, "
              f"grad norm ratio {g1 / g0:.3f}, {elapsed:.1f}s")


def test_criterion_09_gn_exact_on_linear_least_squares():
    rng = np.random.default_rng(909)
    worst = 0.0
    for _ in range(5):
        n, m0, m_out = 8, 3, 2
        shape = network.NetworkShape((m0, m_out), ("linear",))
        spec = loss.LossSpec(loss.SQUARED_ERROR)
        x = rng.normal(size=(n, m0))
        y = rng.normal(size=(n, m_out))
        design = np.hstack([x, np.ones((n, 1))])
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        theta_star = pack(shape, [(coef[:m0].T, coef[m0])])
        config = optim.OptimizerConfig(
            method=optim.SMW_GN, n1=n, n2=n, alpha=1.0,
            damping=damping.DampingState(lambda_lm=0.0, tau=1e-10), seed=0,
        )
        trainer = optim.Trainer(shape, spec, x, y, config)
        trainer.step()
        err = float(np.max(np.abs(trainer.theta - theta_star))) / (
            1.0 + float(np.max(np.abs(theta_star)))
        )
        worst = max(worst, err)
        assert err <= 1e-6
    report(9, f"one full-batch step solves the normal equations, err {worst:.2e}")


def synthetic_digits_idx(tmp_path, seed=7, n=6000):
    """MNIST-shaped synthetic classification set written as an IDX pair."""
    rng = np.random.default_rng(seed)
    protos = rng.uniform(0.1, 0.9, size=(10, 784))
    labels = rng.integers(0, 10, size=n).astype(np.uint8)
    pix = 0.6 * protos[labels] + 0.4 * rng.uniform(0.0, 1.0, size=(n, 784))
    images = np.rint(np.clip(pix, 0.0, 1.0) * 255.0).astype(np.uint8)
    images_path = tmp_path / "digits-images.idx"
    labels_path = tmp_path / "digits-labels.idx"
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">iiii", 0x00000803, n, 28, 28))
        fh.write(images.tobytes())
    with open(labels_path, "wb") as fh:
        fh.write(struct.pack(">ii", 0x00000801, n))
        fh.write(labels.tobytes())
    return images_path, labels_path


@pytest.mark.slow
def test_criterion_10_desk_scale_digit_trend(tmp_path):
    start = time.perf_counter()
    images_path, labels_path = synthetic_digits_idx(tmp_path)
    for method in ("smw-gn", "smw-ng", "sgd", "hf"):
        out = tmp_path / f"metrics-{method}.csv"
        config = cli.build_config(
            {
                "train_images": str(images_path),
                "train_labels": str(labels_path),
                "subset": "6000",
                "layers": "784,500,10",
                "loss": "softmax_cross_entropy",
                "method": method,
                "n1": "60",
                "n2": "30",
                "alpha": "0.1",
                "epochs": "2",
                "seed": "0",
                "out": str(out),
            },
            {},
        )
        train, _ = cli.load_datasets(config)
        shape, spec = cli.build_model(config, train)
        probe = optim.Trainer(
            shape, spec, train.inputs, train.targets,
            optim.OptimizerConfig(method=method, n1=60, n2=30, alpha=0.1, seed=0),
        )
        initial_loss = probe.full_loss()
        assert cli.run(config) == 0
        lines = out.read_text().strip().splitlines()
        header = lines[0].split(",")
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 200
        full_idx = header.index("full_loss")
        evals = [float(r[full_idx]) for r in rows if r[full_idx] != ""]
        assert len(evals) == 2
        assert initial_loss > evals[0] > evals[1]
        if method == "smw-gn":
            vjp_idx = header.index("vjp_products")
            counts = np.array([int(r[vjp_idx]) for r in rows])
            per_iter = np.diff(counts)
            assert counts[0] == 30 * 10 + 30
            assert np.all(per_iter == 30 * 10 + 30)
            jvp_idx = header.index("jvp_products")
            assert all(int(r[jvp_idx]) == 0 for r in rows)
        print(f"  {method}: full loss {initial_loss:.4f} -> {evals[0]:.4f} "
              f"-> {evals[1]:.4f}")
    elapsed = time.perf_counter() - start
    assert elapsed < 15 * 60
    report(10, f"all four methods reduce the full loss over two epochs; "
               f"smw-gn reverse sweeps per iteration = 330, jvps 0; {elapsed:.0f}s")
