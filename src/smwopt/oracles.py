"""Independent brute-force references for every numerical kernel.

Each oracle recomputes a quantity the fast path produces, by a route that
shares as little with it as possible: central finite differences, unit-seed
Jacobian rows, materialized Jacobians and Hessians, and dense solves. They
serve the test suite and `smwopt --verify`, which runs verify below; nothing
on the training path imports this module.
"""

from __future__ import annotations

import copy
import math
import traceback
from functools import partial

import numpy as np

from . import curvature, damping, diff, loss as loss_mod, network, optim, solver
from .exceptions import ConfigError, ShapeError

DENSE_ORACLE_MAX_PARAMS = 5000


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


def batch_instance(rng, kind, nb=3):
    """A random net and nb samples, laid out as wider_batch_instance; S1 = S2."""
    shape, spec, theta = make_net(rng, kind)
    x = rng.normal(size=(shape.input_size, nb))
    y = random_targets(rng, kind, shape.output_size, nb)
    cache = network.forward(shape, theta, x)
    g, _ = diff.gradient(shape, theta, cache, y, spec)
    return shape, spec, theta, cache, g, x, y


def wider_batch_instance(rng, kind, m_in, eps=0.0, factored=False):
    """Gradient over a 4-column batch S1 and curvature over its prefix S2.

    The last S1 column repeats the first, so the inputs are rank-deficient;
    a nonzero eps adds eps times a normal draw to it, so they are nearly so.
    Returns shape, spec, theta, the S1 cache, its gradient g, and S2's
    inputs and targets. If factored, g is placed in its diff.PrefixFrame
    as the stochastic trainer places it, a diff.PrefixVector, and the
    cache keeps h_1.
    """
    shape, spec, theta = make_net(rng, kind, m_in=m_in)
    x1 = rng.normal(size=(m_in, 4))
    x1[:, 3] = x1[:, 0]
    if eps:
        x1[:, 3] += eps * rng.normal(size=m_in)
    y1 = random_targets(rng, kind, shape.output_size, 4)
    cache1 = network.forward(shape, theta, x1, keep_first_preact=factored)
    g, _ = diff.gradient(shape, theta, cache1, y1, spec, factored=factored)
    if factored:
        g = diff.PrefixFrame.of(g, 2).gradient
    return shape, spec, theta, cache1, g, x1[:, :2], y1[:, :2]


def smw_case(instance, method, lam):
    """The trainer's Woodbury direction on an instance, and the dense B_t over S2."""
    shape, spec, theta, cache1, g, x2, y2 = instance
    # An index array copies S2's columns; a slice view would round differently.
    cache2 = cache1.cols(np.arange(x2.shape[1]))
    system = smw_system(shape, theta, cache2, y2, spec, lam, method)
    res = solver.smw_direction(shape, theta, system, g)
    return res, build_curvature_matrix(shape, theta, x2, y2, spec, method)[0]


def smw_system(shape, theta, cache, y, spec, lam, method=optim.SMW_GN):
    """The Woodbury system the trainer's method, optim.SMW_GN or SMW_NG,
    builds over the samples of cache, whose targets are y."""
    if method == optim.SMW_NG:
        factors = diff.gradient(shape, theta, cache, y, spec)[1]
    else:
        factors = curvature.gn_batch_factors(shape, theta, cache, spec)
    return curvature.GramSystem.of(factors, lam)


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
    if method == optim.SMW_NG:
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
    shape, theta, x, y, spec, lam: float, method: str = optim.SMW_GN, g=None
) -> solver.DirectionResult:
    """Solve (B_t + lam I) p = -g with B_t materialized over the batch x.

    g defaults to the batch's own gradient; pass one taken over a wider
    batch to solve as a trainer does with S2 a subset of S1.
    """
    b_mat, g_batch = build_curvature_matrix(shape, theta, x, y, spec, method)
    return dense_direction(b_mat, lam, g_batch if g is None else g)


def dense_direction(b_mat, lam, g) -> solver.DirectionResult:
    """The dense solve of (B_t + lam I) p = -g, with g . p and p^T B_t p."""
    p = np.linalg.solve(b_mat + lam * np.eye(len(g)), -g)
    return solver.DirectionResult(
        p=p, grad_dot=float(g @ p), quad_term=float(p @ b_mat @ p)
    )


def residual(b_mat, lam, p, g) -> float:
    """||(B_t + lam I) p + g|| / (1 + ||g||)."""
    r = b_mat @ p + lam * p + g
    return float(np.linalg.norm(r)) / (1.0 + float(np.linalg.norm(g)))


def backward_error(b_mat, lam, p, g) -> float:
    """The normwise backward error ||r|| / (||A|| ||p|| + ||g||) of p, with
    A = B_t + lam I, r = A p + g and the spectral norm of A (Higham,
    Accuracy and Stability of Numerical Algorithms, ch. 7)."""
    a = b_mat + lam * np.eye(len(g))
    r = a @ p + g
    norm = np.linalg.norm
    return float(norm(r) / (norm(a, 2) * norm(p) + norm(g)))


def relative_error(x, ref) -> float:
    """max |x - ref| relative to ref's largest entry."""
    return float(np.max(np.abs(x - ref))) / (float(np.max(np.abs(ref))) + 1e-30)


def _trainer_step_setup(rng, kind, method, state, semi=False, m_in=None):
    """An optim.Trainer on 12 random samples, with damping state, and the
    dense B_t over the S2 and the gradient over the S1 that a copy of its
    sampler draws. The stochastic trainer takes n1=6, n2=3 and alpha=0.5;
    the semi-stochastic one n1=12, the whole set in index order, n2=3 and
    alpha=1. hf runs CG at a tight tolerance."""
    shape, spec, _ = make_net(rng, kind, m_in=m_in)
    n = 12
    x = rng.normal(size=(n, shape.input_size))
    y = random_targets(rng, kind, shape.output_size, n).T
    config = optim.OptimizerConfig(
        method=method, n1=n if semi else 6, n2=3, alpha=1.0 if semi else 0.5,
        damping=state, semi_stochastic=semi,
        cg=solver.CgConfig(max_iters=shape.num_params, rel_residual_tol=1e-15),
        seed=int(rng.integers(2**31)),
    )
    trainer = optim.Trainer(shape, spec, x, y, config)
    theta = trainer.theta
    s1, s2 = copy.deepcopy(trainer.sampler).sample_batches()
    if semi:
        s1 = np.arange(n)
    cache1 = network.forward(shape, theta, x[s1].T)
    g, _ = diff.gradient(shape, theta, cache1, y[s1].T, spec)
    b_mat, _ = build_curvature_matrix(shape, theta, x[s2].T, y[s2].T, spec, method)
    return trainer, b_mat, g


def _trainer_step_case(rng, kind, method, lambda_lm, semi=False):
    """One step of _trainer_step_setup's trainer against theta + alpha p,
    with p the dense solve. Returns the largest error relative to alpha
    p's largest entry, and whether the step was accepted; a rejected step
    reads 0 if it left theta bit for bit, and infinite if it moved theta."""
    state = damping.DampingState(lambda_lm=lambda_lm)
    trainer, b_mat, g = _trainer_step_setup(rng, kind, method, state, semi)
    theta = trainer.theta
    step = trainer.config.alpha * dense_direction(b_mat, state.lam, g).p
    rec = trainer.step()
    if not rec.accepted:
        return (0.0 if np.array_equal(trainer.theta, theta) else math.inf), False
    scale = float(np.max(np.abs(step))) + 1e-30
    return float(np.max(np.abs(trainer.theta - (theta + step)))) / scale, True


def _small_lambda_step_cases(rng):
    """One stochastic step of each curvature method at lambda = 1e-10,
    where the trainer solves packed: the backward error of p = (theta_1 -
    theta_0) / alpha for _trainer_step_setup's B_t and g. Solved in factor
    space, where refinement cannot reach 1e-15, its worst case read
    1.4e-15 to 7.1e-14 on seeds 0-9, against at most 6.7e-17 packed."""
    state = damping.DampingState(lambda_lm=0.0, tau=1e-10)
    for kind in loss_mod.LOSS_KINDS:
        for method in (optim.SMW_GN, optim.SMW_NG, optim.HF):
            trainer, b_mat, g = _trainer_step_setup(rng, kind, method, state, m_in=5)
            theta = trainer.theta
            trainer.step()
            p = (trainer.theta - theta) / trainer.config.alpha
            yield (backward_error(b_mat, state.lam, p, g),)


def _gradient_cases(rng):
    """Gradients against central finite differences."""
    for kind in loss_mod.LOSS_KINDS * 2:
        shape, spec, theta = make_net(rng, kind)
        x = rng.normal(size=(shape.input_size, 1))
        y = random_targets(rng, kind, shape.output_size)
        cache = network.forward(shape, theta, x)
        g, _ = diff.gradient(shape, theta, cache, y, spec)
        fd = fd_loss_gradient(shape, theta, x, y, spec)
        yield (float(np.max(np.abs(g - fd) / (1.0 + np.abs(fd)))),)


def _adjoint_cases(rng):
    """The adjoint identity <J t1, x> == <t1, J^T x>."""
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
            yield (abs(lhs - rhs) / (1.0 + abs(lhs)),)


def _loss_hessian_cases(rng):
    """Loss Hessians against finite differences of the gradient, softmax's
    annihilating the ones vector, and their square factors against the
    closed forms."""
    for kind in loss_mod.LOSS_KINDS:
        shape, spec, theta = make_net(rng, kind)
        m_out = shape.output_size
        x = rng.normal(size=(shape.input_size, 1))
        y = random_targets(rng, kind, m_out)
        cache = network.forward(shape, theta, x)
        fd_h = fd_loss_hessian_h(spec, cache.output_preact, y)
        closed = loss_hessian_h(spec, cache)[0]
        c = loss_mod.hessian_factor(spec, cache)[0]
        softmax = kind == loss_mod.SOFTMAX_CROSS_ENTROPY
        ones = closed @ np.ones(m_out) if softmax else 0.0
        yield (
            float(np.max(np.abs(closed - fd_h))),
            float(np.max(np.abs(ones))),
            float(np.max(np.abs(c @ c.T - closed))),
        )


def _gram_cases(rng):
    """Gram matrices against explicit Jacobians and expanded gradients."""
    for kind in loss_mod.LOSS_KINDS:
        shape, spec, theta, cache, _, _, y = batch_instance(rng, kind)
        batch = curvature.gn_batch_factors(shape, theta, cache, spec)
        fmat = factored_jacobian(shape, theta, cache, spec)
        _, gf = diff.gradient(shape, theta, cache, y, spec)
        gmat = np.stack([gf.cols([i]).expand_sum() for i in range(cache.ncols)])
        yield (
            float(np.max(np.abs(curvature.gn_block_gram(batch) - fmat @ fmat.T))),
            float(np.max(np.abs(curvature.gn_block_gram(gf) - gmat @ gmat.T))),
        )


def _smw_cases(rng):
    """The Woodbury direction against the dense solve, and the margin of
    the model-decrease bound, whose negation the check reads."""
    for kind in loss_mod.LOSS_KINDS:
        for method in (optim.SMW_GN, optim.SMW_NG):
            for lam in (1e-3, 1.0, 1e3):
                instance = batch_instance(rng, kind)
                g = instance[4]
                res, b_mat = smw_case(instance, method, lam)
                dense = dense_direction(b_mat, lam, g)
                beta = float(np.max(np.linalg.eigvalsh(b_mat)))
                tau = min(lam, 1e-3)
                c1 = tau / (beta + tau)
                decrease = -res.grad_dot - 0.5 * res.quad_term
                margin = decrease - c1 * float(
                    np.linalg.norm(g) * np.linalg.norm(res.p)
                )
                yield (
                    relative_error(res.p, dense.p),
                    residual(b_mat, lam, res.p, g),
                    -margin,
                    f"  margin[{method} {kind} lam={lam:g}] = {margin:.3e}",
                )


def _hf_cases(rng, factored=False):
    """Hessian-free CG at a tight tolerance against the dense solve, on
    theta's coordinates. The gradient comes from a batch S1 wider than the
    curvature batch S2, with a repeated column and a tenth as many columns
    as inputs. If factored, this is the stochastic trainer's hf step: g and
    every CG vector are in g's frame over S1."""
    for kind in loss_mod.LOSS_KINDS:
        for lam in (1e-3, 1.0, 1e3):
            shape, spec, theta, cache1, g, x2, y2 = wider_batch_instance(
                rng, kind, m_in=40, factored=factored
            )
            tight = solver.CgConfig(max_iters=shape.num_params, rel_residual_tol=1e-15)
            cache2 = cache1.cols(np.arange(x2.shape[1]))
            res = solver.hf_cg_direction(shape, theta, cache2, spec, lam, tight, g)
            oracle = dense_direction_oracle(
                shape, theta, x2, y2, spec, lam, g=np.asarray(g)
            )
            yield (relative_error(np.asarray(res.p), oracle.p),)


def _small_lambda_cases(rng):
    """Below solver.REFINE_LAMBDA only iterative refinement keeps the
    Woodbury residual small. The dense oracle's own direction is too
    inaccurate there to compare against, so only the residual is checked."""
    for kind in loss_mod.LOSS_KINDS:
        for method in (optim.SMW_GN, optim.SMW_NG):
            instance = batch_instance(rng, kind)
            res, b_mat = smw_case(instance, method, 1e-10)
            yield (residual(b_mat, 1e-10, res.p, instance[4]),)


def _backward_error_cases(rng):
    """The same at lambda = 1e-10 with g over a batch S1 wider than S2, as
    a stochastic step has it. The part of g outside B_t's range makes
    ||p|| ~ ||g|| / lambda, so the residual above reads 1e-6 there even for
    a backward-stable solve; the backward error scales it by ||A|| ||p||.
    On seeds 0-9 it read at most 7.2e-17 refined, 5.2e-15 to 1.4e-13
    unrefined, and 1.2e-10 to 3.3e-10 when refinement's residual leaves out
    lambda p, which the residual check above passes on 7 of those 10 seeds."""
    for kind in loss_mod.LOSS_KINDS:
        for method in (optim.SMW_GN, optim.SMW_NG):
            instance = wider_batch_instance(rng, kind, m_in=5)
            res, b_mat = smw_case(instance, method, 1e-10)
            yield (backward_error(b_mat, 1e-10, res.p, instance[4]),)


def _theta_hessian_cases(rng):
    """On a one-layer net h_L is linear in theta, so the matching-loss
    Gauss-Newton matrix is the loss Hessian in theta. Central differences of
    the gradient, which the first check pins to the loss, measure it without
    the Jacobian products that every other curvature check shares with the
    fast path."""
    for kind in loss_mod.LOSS_KINDS:
        shape, spec, _ = make_net(rng, kind, hidden=[])
        theta = 3.0 * network.init_theta(shape, rng)
        x = rng.normal(size=(shape.input_size, 2))
        y = random_targets(rng, kind, shape.output_size, 2)
        b_mat, _ = build_curvature_matrix(shape, theta, x, y, spec, optim.SMW_GN)
        hessian = fd_loss_hessian_theta(shape, theta, x, y, spec)
        yield (float(np.max(np.abs(b_mat - hessian))),)


def _factored_cases(rng):
    """The stochastic trainer's step in factor space: g and p in g's frame
    over a gradient batch S1 wider than the curvature batch S2, and the
    low-rank trial forward at theta + p placed on S1, against the dense
    solve and a forward at the expanded point."""
    for kind in loss_mod.LOSS_KINDS:
        for method in (optim.SMW_GN, optim.SMW_NG):
            for lam in (1e-3, 1.0, 1e3):
                instance = wider_batch_instance(rng, kind, m_in=5, factored=True)
                shape, _, theta, cache1, g, _, _ = instance
                res, b_mat = smw_case(instance, method, lam)
                placed = res.p.factored()
                p = placed.expand_sum()
                oracle = dense_direction(b_mat, lam, g.expand())
                trial = network.forward_low_rank(
                    shape, theta, cache1, placed.layer_adjoints, res.p.frame.first_gram
                ).output_preact
                dense = network.forward(shape, theta + p, cache1.x).output_preact
                yield (
                    relative_error(p, oracle.p),
                    float(np.max(np.abs(trial - dense)) / (1.0 + np.max(np.abs(dense)))),
                )


def _trainer_step_cases(rng):
    """What the trainer runs: one stochastic step of each curvature method,
    batches drawn, direction solved and theta + alpha p applied, against the
    dense solve on the same batches; then one semi-stochastic step, whose S2
    is a random draw from the whole set. The check fails if no
    semi-stochastic step is accepted, as rejections compare no p."""
    accepted = False
    for semi, lambdas in ((False, (0.0, 1.0)), (True, (1.0,))):
        for kind in loss_mod.LOSS_KINDS:
            for method in (optim.SMW_GN, optim.SMW_NG, optim.HF):
                for lambda_lm in lambdas:
                    err, ok = _trainer_step_case(rng, kind, method, lambda_lm, semi)
                    accepted = accepted or (semi and ok)
                    yield (err,)
    if not accepted:
        yield (math.inf,)


# The --verify checks: each row pairs a case generator with the (name,
# tolerance) of the checks it measures, in printed order. The generator
# takes its group's rng and yields one tuple per case: the case's error for
# each check, then any detail lines to print after them. A row's index k
# seeds that rng, so a new row goes last.
CHECKS = (
    (_gradient_cases, (("gradient_vs_finite_differences", 1e-5),)),
    (_adjoint_cases, (("adjoint_identity", 1e-10),)),
    (_loss_hessian_cases, (
        ("loss_hessian_vs_finite_differences", 1e-5),
        ("softmax_hessian_annihilates_ones", 1e-12),
        ("loss_hessian_factor", 1e-12),
    )),
    (_gram_cases, (
        ("gn_block_gram_vs_explicit_jacobian", 1e-10),
        ("ng_gram_vs_expanded_gradients", 1e-10),
    )),
    (_smw_cases, (
        ("smw_vs_dense_direction", 1e-9),
        ("smw_residual", 1e-8),
        ("model_decrease_bound_margin", 1e-12),
    )),
    (_hf_cases, (("hf_cg_vs_dense_direction", 1e-9),)),
    (_small_lambda_cases, (("smw_residual_small_lambda", 1e-8),)),
    (_backward_error_cases, (("smw_backward_error_wider_batch", 1e-15),)),
    (_theta_hessian_cases, (("gn_matrix_vs_theta_hessian", 1e-8),)),
    (_factored_cases, (
        ("factored_vs_dense_direction", 1e-9),
        ("low_rank_trial_forward", 1e-9),
    )),
    (partial(_hf_cases, factored=True), (("hf_factored_vs_dense_direction", 1e-9),)),
    (_trainer_step_cases, (("trainer_step_vs_dense_direction", 1e-10),)),
    (_small_lambda_step_cases, (("trainer_step_backward_error_small_lambda", 1e-15),)),
)


def measure_group(k: int, seed: int) -> tuple[list[float], list[str]]:
    """The largest error of each check in CHECKS[k] over the group's cases,
    drawn from default_rng([seed, k]), and the detail lines they yielded.

    Each error starts at 0 and a NaN error reads as infinite. A group that
    raises prints its traceback to stderr and reads infinite on every check.
    """
    cases, checks = CHECKS[k]
    worst, details = [0.0] * len(checks), []
    try:
        for case in cases(np.random.default_rng([seed, k])):
            for i, err in enumerate(case[: len(checks)]):
                worst[i] = max(worst[i], math.inf if math.isnan(err) else err)
            details.extend(case[len(checks) :])
    except Exception:  # a fault in one group fails its checks, not verify
        traceback.print_exc()
        worst = [math.inf] * len(checks)
    return worst, details


def verify(seed: int = 0) -> int:
    """Run the checks of CHECKS and print max error and pass/fail per check,
    each group's detail lines after its checks.

    This is `smwopt --verify`; it returns the exit code, 1 if any check fails.
    """
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    failed = False
    for k, (_, checks) in enumerate(CHECKS):
        worst, details = measure_group(k, seed)
        for (name, tol), err in zip(checks, worst):
            ok = err <= tol
            failed = failed or not ok
            print(f"{'PASS' if ok else 'FAIL'} {name}: max_error={err:.3e} tol={tol:.0e}")
        for line in details:
            print(line)
    return int(failed)
