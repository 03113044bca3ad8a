"""Independent brute-force references for every numerical kernel.

Each oracle recomputes a quantity the fast path produces, by a route that
shares as little with it as possible: central finite differences, unit-seed
Jacobian rows, materialized Jacobians and Hessians, and dense solves. They
serve the test suite and `smwopt --verify`, which runs verify below; nothing
on the training path imports this module.
"""

from __future__ import annotations

import math

import numpy as np

from . import curvature, diff, loss as loss_mod, network, solver
from .exceptions import ShapeError

DENSE_ORACLE_MAX_PARAMS = 5000


def pack(shape, params) -> np.ndarray:
    """Inverse of network.unpack: flatten per-layer (W, b) back into theta."""
    parts = []
    for (w, b), (_, _, m_out, m_in) in zip(params, shape.param_layout()):
        w = np.asarray(w, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        if w.shape != (m_out, m_in) or b.shape != (m_out,):
            raise ShapeError(
                f"layer block shapes {w.shape}/{b.shape} do not match "
                f"({m_out}, {m_in})/({m_out},)"
            )
        parts.append(w.reshape(-1, order="F"))
        parts.append(b)
    return np.concatenate(parts)


def activation_jacobian(kind: str, h, v) -> np.ndarray:
    """Materialized jacobian dv/dh for one sample; v must equal act(h)."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1:
        raise ShapeError("activation_jacobian expects a single sample")
    if kind == network.LINEAR:
        return np.eye(v.size)
    if kind == network.LOGISTIC:
        return np.diag(v * (1.0 - v))
    if kind == network.SOFTMAX:
        return np.diag(v) - np.outer(v, v)
    raise ShapeError(f"unknown activation kind: {kind!r}")


def loss_hessian_h(spec, cache) -> np.ndarray:
    """Closed-form loss Hessians w.r.t. h_L, shape (B, m_L, m_L).

    Targets do not enter any of the three closed forms.
    """
    yhat = cache.output
    m_out, b = yhat.shape
    if spec.kind == loss_mod.SQUARED_ERROR:
        return np.broadcast_to(2.0 * np.eye(m_out), (b, m_out, m_out)).copy()
    if spec.kind == loss_mod.BINARY_CROSS_ENTROPY:
        hs = np.zeros((b, m_out, m_out))
        idx = np.arange(m_out)
        hs[:, idx, idx] = (yhat * (1.0 - yhat)).T
        return hs
    return np.einsum("jb,jk->bjk", yhat, np.eye(m_out)) - np.einsum(
        "jb,kb->bjk", yhat, yhat
    )


def make_net(rng, kind, hidden=None, m_in=None, m_out=None):
    """Random small network whose output layer matches the loss kind."""
    if m_in is None:
        m_in = int(rng.integers(2, 7))
    if hidden is None:
        hidden = [int(rng.integers(2, 7)) for _ in range(int(rng.integers(1, 3)))]
    if m_out is None:
        m_out = 1 if kind == loss_mod.BINARY_CROSS_ENTROPY else int(rng.integers(2, 5))
    sizes = (m_in, *hidden, m_out)
    acts = (network.LOGISTIC,) * len(hidden) + (
        loss_mod.MATCHING_ACTIVATION[kind],
    )
    shape = network.NetworkShape(sizes, acts)
    theta = network.init_theta(shape, rng)
    return shape, loss_mod.LossSpec(kind), theta


def random_targets(rng, kind, m_out, nbatch=1):
    """(m_out, nbatch) target columns valid for the loss kind."""
    if kind == loss_mod.SQUARED_ERROR:
        return rng.normal(size=(m_out, nbatch))
    if kind == loss_mod.BINARY_CROSS_ENTROPY:
        return rng.integers(0, 2, size=(m_out, nbatch)).astype(float)
    t = np.zeros((m_out, nbatch))
    t[rng.integers(0, m_out, size=nbatch), np.arange(nbatch)] = 1.0
    return t


def wider_batch_instance(rng, kind, m_in, eps=0.0, factored=False):
    """Gradient over a 4-column batch S1 and curvature over its prefix S2.

    The last S1 column repeats the first, so the inputs are rank-deficient;
    a nonzero eps adds eps times a normal draw to it, so they are nearly so.
    Returns shape, spec, theta, the S1 cache, its gradient g, and S2's
    inputs and targets. If factored, g is the diff.FactoredVector of the
    gradient's per-sample factors over S1, and the cache keeps h_1.
    """
    shape, spec, theta = make_net(rng, kind, m_in=m_in)
    x1 = rng.normal(size=(m_in, 4))
    x1[:, 3] = x1[:, 0]
    if eps:
        x1[:, 3] += eps * rng.normal(size=m_in)
    y1 = random_targets(rng, kind, shape.output_size, 4)
    cache1 = network.forward(shape, theta, x1, keep_first_preact=factored)
    g, factors = diff.gradient(shape, theta, cache1, y1, spec)
    if factored:
        g = diff.SampleSpan.of(cache1).embed(factors)
        g /= 4
    return shape, spec, theta, cache1, g, x1[:, :2], y1[:, :2]


def factored_case(rng, kind, method, lam):
    """The trainer's factored direction on a wider_batch_instance.

    Returns shape, theta, the S1 cache, the factored g and direction, and
    dense_direction_oracle's solve over S2 with the expanded g.
    """
    shape, spec, theta, cache1, g, x2, y2 = wider_batch_instance(
        rng, kind, m_in=5, factored=True
    )
    cache2 = cache1.cols([0, 1])
    if method == curvature.GN:
        system = curvature.build_gn_system(shape, theta, cache2, spec, lam)
    else:
        _, gf = diff.gradient(shape, theta, cache2, y2, spec)
        system = curvature.build_ng_system(gf, lam)
    res = solver.factored_direction(shape, theta, system, g)
    oracle = dense_direction_oracle(
        shape, theta, x2, y2, spec, lam, method, g=g.expand()
    )
    return shape, theta, cache1, g, res, oracle


def central_differences(f, point, step) -> np.ndarray:
    """(f(point + step e_k) - f(point - step e_k)) / (2 step), stacked on a
    trailing axis over the coordinates k of point."""
    cols = []
    for k in range(point.size):
        up, down = point.copy(), point.copy()
        up.flat[k] += step
        down.flat[k] -= step
        cols.append((f(up) - f(down)) / (2.0 * step))
    return np.stack(cols, axis=-1)


def fd_loss_gradient(shape, theta, x, y, spec, step=1e-6):
    """Central finite differences of the mean loss over every coordinate."""
    def f(point):
        cache = network.forward(shape, point, x)
        return np.mean(loss_mod.loss_value(spec, cache, y))

    return central_differences(f, theta, step)


def fd_loss_hessian_theta(shape, theta, x, y, spec, step=1e-5):
    """Hessian of the mean loss in theta, by central differences of diff.gradient.

    On a one-layer network h_L is linear in theta, so this is exactly the
    matching-loss Gauss-Newton matrix J_h^T H J_h. The only kernel involved
    is the gradient, which fd_loss_gradient checks against the loss itself;
    no curvature product is.
    """
    def grad(point):
        cache = network.forward(shape, point, x)
        return diff.gradient(shape, point, cache, y, spec)[0]

    return central_differences(grad, theta, step)


def output_cache(kind, h):
    """Single-layer cache whose output pre-activation is the (m, B) array h."""
    h = np.asarray(h, dtype=float)
    act = loss_mod.MATCHING_ACTIVATION[kind]
    return network.ForwardCache(
        shape=network.NetworkShape((h.shape[0],) * 2, (act,)),
        x=np.zeros_like(h),
        acts=[network.apply_activation(act, h)],
        output_preact=h,
    )


def fd_loss_hessian_h(spec, h, y, step=1e-6):
    """Central finite differences of the output gradient at one sample's h.

    h and y are (m_L, 1) columns; the result is the (m_L, m_L) Hessian.
    """
    def grad(point):
        return loss_mod.loss_grad_h(spec, output_cache(spec.kind, point), y)[:, 0]

    return central_differences(grad, np.asarray(h, dtype=float), step)


def explicit_jacobian(shape, theta, cache_single):
    """J built row by row from unit-seed reverse products."""
    m_out = shape.output_size
    rows = []
    for j in range(m_out):
        seed = np.zeros((m_out, 1))
        seed[j, 0] = 1.0
        packed, _ = diff.vjp(shape, theta, cache_single, seed)
        rows.append(packed)
    return np.stack(rows, axis=0)


def factored_jacobian(shape, theta, cache, spec):
    """blockdiag(C_i)^T J: each sample's Jacobian rows mixed by its Hessian factor.

    Its Gram matrix is the Gauss-Newton core's blockdiag(C)^T J J^T blockdiag(C).
    """
    c = loss_mod.hessian_factor(spec, cache)
    return np.vstack([
        c[i].T @ explicit_jacobian(shape, theta, cache.cols([i]))
        for i in range(cache.ncols)
    ])


def build_curvature_matrix(
    shape, theta, x, y, spec, method: str
) -> tuple[np.ndarray, np.ndarray]:
    """Materialize B_t and the batch gradient."""
    n = shape.num_params
    if n > DENSE_ORACLE_MAX_PARAMS:
        raise ShapeError(
            f"{n} parameters exceed the dense-oracle guard "
            f"({DENSE_ORACLE_MAX_PARAMS})"
        )
    cache = network.forward(shape, theta, x)
    g, factors = diff.gradient(shape, theta, cache, y, spec)
    nb = cache.ncols
    b_mat = np.zeros((n, n))
    if method == curvature.NG:
        for i in range(nb):
            gi = factors.cols([i]).expand_sum()
            b_mat += np.outer(gi, gi)
    else:
        for i in range(nb):
            ci = cache.cols([i])
            ji = explicit_jacobian(shape, theta, ci)
            hi = loss_hessian_h(spec, ci)[0]
            b_mat += ji.T @ hi @ ji
    b_mat /= nb
    return b_mat, g


def dense_direction_oracle(
    shape, theta, x, y, spec, lam: float, method: str = curvature.GN, g=None
) -> solver.DirectionResult:
    """Solve (B_t + lam I) p = -g with B_t materialized over the batch x.

    g defaults to the batch's own gradient; pass one taken over a wider
    batch to solve as a trainer does with S2 a subset of S1.
    """
    b_mat, g_batch = build_curvature_matrix(shape, theta, x, y, spec, method)
    g = g_batch if g is None else g
    a = b_mat + lam * np.eye(shape.num_params)
    p = np.linalg.solve(a, -g)
    return solver.DirectionResult(
        p=p, grad_dot=float(g @ p), quad_term=float(p @ b_mat @ p)
    )


def _smw_case(rng, kind, method, lam):
    """A random 3-sample instance, its Woodbury direction, the dense B_t
    and the direction's residual ||(B_t + lam I) p + g|| / (1 + ||g||)."""
    shape, spec, theta = make_net(rng, kind)
    nb = 3
    x = rng.normal(size=(shape.input_size, nb))
    y = random_targets(rng, kind, shape.output_size, nb)
    cache = network.forward(shape, theta, x)
    g, gf = diff.gradient(shape, theta, cache, y, spec)
    if method == curvature.GN:
        system = curvature.build_gn_system(shape, theta, cache, spec, lam)
    else:
        system = curvature.build_ng_system(gf, lam)
    res = solver.smw_direction(shape, theta, system, g)
    b_mat, _ = build_curvature_matrix(shape, theta, x, y, spec, method)
    residual = b_mat @ res.p + lam * res.p + g
    res_err = float(np.linalg.norm(residual)) / (1.0 + float(np.linalg.norm(g)))
    return shape, spec, theta, x, y, g, res, b_mat, res_err


def verify(seed: int = 0) -> int:
    """Run the oracle suites and print max error and pass/fail per check.

    This is `smwopt --verify`; it returns the exit code, 1 if any check fails.
    """
    rng = np.random.default_rng(seed)
    checks: list[tuple[str, float, float]] = []

    # Gradients against central finite differences.
    worst = 0.0
    for kind in loss_mod.LOSS_KINDS * 2:
        shape, spec, theta = make_net(rng, kind)
        x = rng.normal(size=(shape.input_size, 1))
        y = random_targets(rng, kind, shape.output_size)
        cache = network.forward(shape, theta, x)
        g, _ = diff.gradient(shape, theta, cache, y, spec)
        fd = fd_loss_gradient(shape, theta, x, y, spec)
        worst = max(worst, float(np.max(np.abs(g - fd) / (1.0 + np.abs(fd)))))
    checks.append(("gradient_vs_finite_differences", worst, 1e-5))

    # Adjoint identity <J t1, x> == <t1, J^T x>.
    worst = 0.0
    for kind in loss_mod.LOSS_KINDS:
        for _ in range(20):
            shape, spec, theta = make_net(rng, kind)
            x = rng.normal(size=(shape.input_size, 1))
            cache = network.forward(shape, theta, x)
            t1 = rng.normal(size=shape.num_params)
            xo = rng.normal(size=(shape.output_size, 1))
            lhs = float(diff.jvp(shape, theta, cache, t1)[:, 0] @ xo[:, 0])
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
        shape, spec, theta = make_net(rng, kind)
        m_out = shape.output_size
        x = rng.normal(size=(shape.input_size, 1))
        y = random_targets(rng, kind, m_out)
        cache = network.forward(shape, theta, x)
        fd_h = fd_loss_hessian_h(spec, cache.output_preact, y)
        closed = loss_hessian_h(spec, cache)[0]
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
        shape, spec, theta = make_net(rng, kind)
        nb = 3
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
                shape, spec, theta, x, y, g, res, b_mat, res_err = _smw_case(
                    rng, kind, method, lam
                )
                oracle = dense_direction_oracle(
                    shape, theta, x, y, spec, lam, method
                )
                scale = float(np.max(np.abs(oracle.p))) + 1e-30
                worst_dir = max(
                    worst_dir, float(np.max(np.abs(res.p - oracle.p))) / scale
                )
                worst_res = max(worst_res, res_err)
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

    # Hessian-free CG at a tight tolerance against the dense solve. The
    # gradient comes from a batch S1 wider than the curvature batch S2,
    # with a repeated column and a tenth as many columns as inputs, so CG
    # runs in the span of S1's inputs.
    worst_hf = 0.0
    for kind in loss_mod.LOSS_KINDS:
        for lam in (1e-3, 1.0, 1e3):
            shape, spec, theta, cache1, g, x2, y2 = wider_batch_instance(
                rng, kind, m_in=40
            )
            tight = solver.CgConfig(
                max_iters=shape.num_params, rel_residual_tol=1e-15
            )
            try:
                res = solver.hf_cg_direction(
                    shape, theta, cache1.cols([0, 1]), spec, lam, tight, g,
                    inputs=cache1.x,
                )
            except ShapeError:  # g outside the inputs' span
                worst_hf = math.inf
                continue
            oracle = dense_direction_oracle(
                shape, theta, x2, y2, spec, lam, g=g
            )
            scale = float(np.max(np.abs(oracle.p))) + 1e-30
            worst_hf = max(
                worst_hf, float(np.max(np.abs(res.p - oracle.p))) / scale
            )
    checks.append(("hf_cg_vs_dense_direction", worst_hf, 1e-9))

    # Below solver.REFINE_LAMBDA only iterative refinement keeps the Woodbury
    # residual small. The dense oracle's own direction is too inaccurate
    # there to compare against, so only the residual is checked.
    worst_res = 0.0
    for kind in loss_mod.LOSS_KINDS:
        for method in (curvature.GN, curvature.NG):
            worst_res = max(worst_res, _smw_case(rng, kind, method, 1e-10)[-1])
    checks.append(("smw_residual_small_lambda", worst_res, 1e-8))

    # On a one-layer net h_L is linear in theta, so the matching-loss
    # Gauss-Newton matrix is the loss Hessian in theta. Central differences
    # of the gradient, which the first check pins to the loss, measure it
    # without the Jacobian products that every other curvature check shares
    # with the fast path.
    worst = 0.0
    for kind in loss_mod.LOSS_KINDS:
        shape, spec, _ = make_net(rng, kind, hidden=[])
        theta = 3.0 * network.init_theta(shape, rng)
        x = rng.normal(size=(shape.input_size, 2))
        y = random_targets(rng, kind, shape.output_size, 2)
        b_mat, _ = build_curvature_matrix(shape, theta, x, y, spec, curvature.GN)
        hessian = fd_loss_hessian_theta(shape, theta, x, y, spec)
        worst = max(worst, float(np.max(np.abs(b_mat - hessian))))
    checks.append(("gn_matrix_vs_theta_hessian", worst, 1e-8))

    # The stochastic trainer's step in factor space: g and p as adjoints
    # over a gradient batch S1 wider than the curvature batch S2, and the
    # low-rank trial forward at theta + p, against the dense solve and a
    # forward at the expanded point.
    worst_dir = 0.0
    worst_trial = 0.0
    for kind in loss_mod.LOSS_KINDS:
        for method in (curvature.GN, curvature.NG):
            for lam in (1e-3, 1.0, 1e3):
                shape, theta, cache1, _, res, oracle = factored_case(
                    rng, kind, method, lam
                )
                scale = float(np.max(np.abs(oracle.p))) + 1e-30
                worst_dir = max(worst_dir, float(
                    np.max(np.abs(res.p.expand() - oracle.p))
                ) / scale)
                trial = network.forward_low_rank(
                    shape, theta, cache1, res.p.adjoints, res.p.span.grams[0]
                ).output_preact
                dense = network.forward(
                    shape, theta + res.p.expand(), cache1.x
                ).output_preact
                worst_trial = max(worst_trial, float(
                    np.max(np.abs(trial - dense)) / (1.0 + np.max(np.abs(dense)))
                ))
    checks.append(("factored_vs_dense_direction", worst_dir, 1e-9))
    checks.append(("low_rank_trial_forward", worst_trial, 1e-9))

    failed = False
    for name, err, tol in checks:
        ok = err <= tol
        failed = failed or not ok
        print(f"{'PASS' if ok else 'FAIL'} {name}: max_error={err:.3e} tol={tol:.0e}")
        if name == "model_decrease_bound_margin":
            for line in margin_lines:
                print(line)
    return 1 if failed else 0
