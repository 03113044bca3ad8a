"""Training loops: curvature-preconditioned steps, SGD and CG baselines.

One iteration of the second-order methods draws a gradient batch S1 and a
curvature sub-batch S2 from S1, computes the damped direction p on S2,
measures the reduction ratio rho with S1 estimates of the objective at
the unscaled trial point theta + p, updates the damping state, and
applies theta + alpha * p. In semi-stochastic mode the gradient and
objective use the full data set, alpha is 1, and the step is applied only
when rho clears the acceptance threshold eta (which makes the sequence of
objective values non-increasing). The next iterate is then either the
trial point or the unchanged theta, so each semi-stochastic iteration
makes one full-set forward pass, the trial forward, and reuses it (or
this iteration's own forward after a rejection) as the forward pass of
the next iteration.

One rule, read once per step, picks the vector form: a stochastic step
(S2 a prefix of S1) at lambda >= solver.REFINE_LAMBDA keeps g and p in
factor space, and every other step is packed. In factor space g goes
into its diff.PrefixFrame right after the gradient, the direction solver
(smw_direction, or hf_cg_direction for hf) sees and returns only
diff.PrefixVectors, and p is placed on S1 once, as diff.BackpropFactors,
for network.forward_low_rank's trial forward and theta + alpha * p, the
step's one parameter-length write. Below REFINE_LAMBDA the stochastic
step is the packed step the semi-stochastic mode runs, as only packed
refinement reaches its backward error.

Every forward reads its inputs through data.Inputs.columns, which
converts and standardizes only the samples it gathers: each stochastic
batch, each EVAL_CHUNK-column block of an evaluation, and the
semi-stochastic full set, which is gathered at the first step and then
read from the held forward cache of the iterate (ForwardCache.x).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import curvature, damping as damping_mod, data, diff, loss as loss_mod, solver
from .counters import OpCounters
from .exceptions import ConfigError, NumericError, TrainingError
from .network import ForwardCache, NetworkShape, forward, forward_low_rank, init_theta

SGD = "sgd"
HF = "hf"
SMW_GN = "smw-gn"
SMW_NG = "smw-ng"
METHODS = (SGD, HF, SMW_GN, SMW_NG)

# Columns per evaluation forward. A block holds its gathered inputs and
# first-layer pre-activation: at 784-500, 6.1 + 3.9 MiB for 1024 columns
# against 24.5 + 15.6 MiB for 4096. Evaluating 6000 columns at 784-500-10
# (2 cores, 2 BLAS threads, medians of 15 interleaved rounds) took 95 ms
# in 1024-column blocks, 104 ms in 512, 95 ms in 2048 and 92 ms in 4096,
# against 86 ms for 4096-column views of inputs standardized up front.
EVAL_CHUNK = 1024


@dataclass(frozen=True)
class OptimizerConfig:
    method: str = SMW_GN
    n1: int = 60
    n2: int = 30
    alpha: float = 0.1
    semi_stochastic: bool = False
    eta: float = 0.1
    damping: damping_mod.DampingState = field(default_factory=damping_mod.DampingState)
    cg: solver.CgConfig = field(default_factory=solver.CgConfig)
    seed: int = 0

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError(f"unknown method: {self.method!r}")
        if self.n1 < 1:
            raise ConfigError(f"n1 must be at least 1, got {self.n1}")
        if self.method != SGD and not 1 <= self.n2 <= self.n1:
            raise ConfigError(f"need 1 <= n2 <= n1, got n2={self.n2}, n1={self.n1}")
        if not 0.0 < self.alpha < math.inf:
            raise ConfigError(f"need 0 < alpha < inf, got {self.alpha}")
        if not math.isfinite(self.eta):
            raise ConfigError(f"eta must be finite, got {self.eta}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if self.semi_stochastic:
            if self.method == SGD:
                raise ConfigError("semi-stochastic mode needs a curvature method")
            if self.alpha != 1.0:
                raise ConfigError("semi-stochastic mode requires alpha == 1")
            if not 0.0 < self.eta < self.damping.epsilon:
                raise ConfigError("semi-stochastic mode requires 0 < eta < epsilon")


@dataclass
class IterationRecord:
    iteration: int
    epoch_frac: float
    batch_loss: float
    rho: float
    lam: float
    grad_norm: float
    step_norm: float
    accepted: bool
    wall_time: float
    counters: OpCounters
    full_loss: float | None = None
    test_error: float | None = None


class EpochSampler:
    """Shuffled-partition batch sampling.

    Each epoch is a fresh random permutation cut into batches of n1, so
    over one epoch with N divisible by n1 every index appears exactly
    once. The curvature sub-batch is the first n2 indices of the batch,
    which is itself a uniform subset because the batch is shuffled.
    """

    def __init__(self, rng: np.random.Generator, n: int, n1: int, n2: int):
        self.rng = rng
        self.n = n
        self.n1 = n1
        self.n2 = n2
        self._perm: np.ndarray | None = None
        self._pos = 0

    def sample_batches(self) -> tuple[np.ndarray, np.ndarray]:
        if self._perm is None or self._pos >= self.n:
            self._perm = self.rng.permutation(self.n)
            self._pos = 0
        s1 = self._perm[self._pos : self._pos + self.n1]
        self._pos += self.n1
        s2 = s1[: min(self.n2, s1.size)]
        return s1, s2


class Trainer:
    """Owns the parameter vector, damping state, counters, and batch stream.

    inputs is (N, m0) and targets (N, m_L) with samples as rows. The
    inputs are held as given, a data.Inputs (an array is read as stored,
    as float64), and every forward reads column-major sample columns
    gathered from them by Inputs.columns, so the full set, a batch and an
    evaluation block round alike in the BLAS products. Test inputs are
    held the same way. Targets are stored transposed, as sample columns.

    The trainer only ever rebinds self.theta and never writes into it, and
    neither may callers: a semi-stochastic step reuses the forward cache of
    the current iterate while self.theta is the array it was computed at.
    """

    def __init__(
        self,
        shape: NetworkShape,
        spec: loss_mod.LossSpec,
        inputs: np.ndarray,
        targets: np.ndarray,
        config: OptimizerConfig,
        test_inputs: np.ndarray | None = None,
        test_targets: np.ndarray | None = None,
    ):
        spec.check_matches(shape)
        if (test_inputs is None) != (test_targets is None):
            raise ConfigError("test inputs and test targets must be given together")
        self.shape = shape
        self.spec = spec
        self.inputs, self.y = self._split("", inputs, targets)
        self.test_inputs = self.test_y = None
        if test_inputs is not None:
            self.test_inputs, self.test_y = self._split("test ", test_inputs, test_targets)
        self.n_samples = self.inputs.shape[0]
        n1 = config.n1
        if n1 > self.n_samples or (config.semi_stochastic and n1 != self.n_samples):
            need = "==" if config.semi_stochastic else "<="
            raise ConfigError(f"need n1 {need} N ({self.n_samples}), got n1={n1}")
        self.config = config
        seed_init, seed_batch = np.random.SeedSequence(config.seed).spawn(2)
        self.theta = init_theta(shape, np.random.default_rng(seed_init))
        # (theta, full-set forward cache at theta) of the current
        # semi-stochastic iterate; valid while self.theta is that array.
        self._iterate: tuple[np.ndarray, ForwardCache] | None = None
        self.sampler = EpochSampler(
            np.random.default_rng(seed_batch), self.n_samples, n1, config.n2
        )
        self.damping = config.damping
        self.counters = OpCounters()
        self.t = 0
        self.samples_seen = 0
        self._clock_start = time.perf_counter()

    def _split(self, name, inputs, targets) -> tuple[data.Inputs, np.ndarray]:
        """A split's inputs, and its targets as sample columns, once both
        hold one row per sample at the network's input and output widths."""
        inputs = data.Inputs.of(inputs)
        targets = np.asarray(targets, dtype=np.float64)
        m0, m_out = self.shape.input_size, self.shape.output_size
        if inputs.shape[1:] != (m0,) or targets.shape != (len(inputs), m_out):
            raise ConfigError(
                f"{name}inputs {inputs.shape} / {name}targets {targets.shape} "
                f"must be (N, {m0}) / (N, {m_out})"
            )
        y = np.ascontiguousarray(targets.T)
        loss_mod.check_targets(self.spec, y)
        return inputs, y

    @property
    def iters_per_epoch(self) -> int:
        return math.ceil(self.n_samples / self.config.n1)

    def _mean_loss(self, cache, targets) -> float:
        return float(np.mean(loss_mod.loss_value(self.spec, cache, targets)))

    def step(self) -> IterationRecord:
        """Sample batches and run one iteration of the configured method."""
        s1, s2 = self.sampler.sample_batches()
        # Curvature sample positions within the gradient batch: S2 is a
        # prefix of S1.
        positions = np.arange(s2.size)
        if self.config.semi_stochastic:
            # Evaluate the full-set objective in fixed index order so
            # rejected steps reproduce f(theta) bit for bit; the curvature
            # sub-batch keeps the random draw.
            s1, positions = slice(None), s2
        try:
            if self.config.method == SGD:
                return self.step_sgd(s1)
            return self._second_order_step(s1, positions)
        except ArithmeticError as err:
            raise TrainingError(self.t, err) from err

    def step_sgd(self, s1: np.ndarray) -> IterationRecord:
        cache = forward(self.shape, self.theta, self.inputs.columns(s1), self.counters)
        f_before = self._mean_loss(cache, self.y[:, s1])
        g, _ = diff.gradient(
            self.shape, self.theta, cache, self.y[:, s1], self.spec, self.counters
        )
        grad_norm = diff.norm(g)
        if not (math.isfinite(f_before) and math.isfinite(grad_norm)):
            raise NumericError(f"batch is not finite: loss={f_before}, |g|={grad_norm}")
        self.theta = self.theta - self.config.alpha * g
        return self._record(
            batch_loss=f_before,
            rho=math.nan,
            lam=math.nan,
            grad_norm=grad_norm,
            step_norm=grad_norm,
            accepted=True,
            batch_size=s1.size,
        )

    def _direction(self, positions, cache1, g, gfactors, lam) -> solver.DirectionResult:
        if self.config.method == SMW_NG:
            factors = gfactors.cols(positions)
        else:
            cache2 = cache1.cols(positions)
            if self.config.method == HF:
                return solver.hf_cg_direction(
                    self.shape, self.theta, cache2, self.spec, lam,
                    self.config.cg, g, self.counters,
                )
            factors = curvature.gn_batch_factors(
                self.shape, self.theta, cache2, self.spec, self.counters
            )
        system = curvature.GramSystem.of(factors, lam)
        return solver.smw_direction(self.shape, self.theta, system, g, self.counters)

    def _second_order_step(self, s1, positions) -> IterationRecord:
        """Curvature step; semi-stochastic steps are applied only when rho >= eta.

        In semi-stochastic mode s1 is slice(None), and the forward cache of
        the iterate the step ends at is kept for the next step; its input
        columns, the full set gathered once, serve every later step.
        """
        semi = self.config.semi_stochastic
        lam = self.damping.lam
        factored = not semi and lam >= solver.REFINE_LAMBDA
        cache1 = self._iterate_cache()
        if cache1 is None:
            cache1 = forward(
                self.shape, self.theta, self.inputs.columns(s1), self.counters,
                keep_first_preact=factored,
            )
        x1, y1 = cache1.x, self.y[:, s1]
        f_before = self._mean_loss(cache1, y1)
        g, gfactors = diff.gradient(
            self.shape, self.theta, cache1, y1, self.spec, self.counters,
            factored=factored,
        )
        if factored:
            frame = diff.PrefixFrame.of(g, positions.size)
            g = frame.gradient
        result = self._direction(positions, cache1, g, gfactors, lam)
        grad_norm = diff.norm(g)
        # The gradient and the full-batch factors are dead now; freed, they
        # no longer sit beside the trial forward's arrays at the step's peak.
        del g, gfactors
        p = result.p
        if factored:
            p = p.factored()  # placed on S1, the step's one placement
            trial_cache = forward_low_rank(
                self.shape, self.theta, cache1, p.layer_adjoints, frame.first_gram,
                self.counters,
            )
        else:
            trial = self.theta + p
            trial_cache = forward(self.shape, trial, x1, self.counters)
        f_after = self._mean_loss(trial_cache, y1)
        report = damping_mod.compute_rho(
            f_before, f_after, result.grad_dot, result.quad_term
        )
        self.damping = damping_mod.update_lambda(self.damping, report.rho)
        accepted = not semi or report.rho >= self.config.eta
        if semi:
            # alpha is 1, so an accepted step lands on the trial point
            # (theta + 1.0 * p == theta + p bit for bit).
            if accepted:
                self.theta = trial
            self._iterate = (self.theta, trial_cache if accepted else cache1)
        else:
            # A placed p expands once, each adjoint scaled by alpha, into
            # the fresh array that becomes theta + alpha * p.
            alpha = self.config.alpha
            step = p.expand_sum(weights=np.full(p.ncols, alpha)) if factored else p * alpha
            step += self.theta
            self.theta = step
        return self._record(
            batch_loss=f_before,
            rho=report.rho,
            lam=lam,
            grad_norm=grad_norm,
            step_norm=result.step_norm,
            accepted=accepted,
            batch_size=x1.shape[1],
        )

    def _record(self, batch_size, **outcome) -> IterationRecord:
        self.samples_seen += int(batch_size)
        rec = IterationRecord(
            iteration=self.t,
            epoch_frac=self.samples_seen / self.n_samples,
            wall_time=time.perf_counter() - self._clock_start,
            counters=self.counters.snapshot(),
            **outcome,
        )
        self.t += 1
        return rec

    def _chunked_mean(self, inputs: data.Inputs, y: np.ndarray, chunk_sum) -> float:
        """Column mean of chunk_sum(cache, y) over EVAL_CHUNK-column forwards.

        No block's cache is bound to a name, so it is freed before the
        next block is gathered.
        """
        total = 0.0
        for start in range(0, len(inputs), EVAL_CHUNK):
            sl = slice(start, start + EVAL_CHUNK)
            total += chunk_sum(
                forward(self.shape, self.theta, inputs.columns(sl), self.counters),
                y[:, sl],
            )
        return total / len(inputs)

    def _iterate_cache(self) -> ForwardCache | None:
        """The full-set forward of the current semi-stochastic iterate, if held."""
        if self._iterate is not None and self._iterate[0] is self.theta:
            return self._iterate[1]
        return None

    def full_loss(self) -> float:
        """Mean loss over the whole training set at the current theta.

        A semi-stochastic trainer reads it from the full-set forward it
        holds for its current iterate, with no forward pass.
        """
        cache = self._iterate_cache()
        if cache is not None:
            return self._mean_loss(cache, self.y)
        return self._chunked_mean(
            self.inputs, self.y,
            lambda cache, y: float(np.sum(loss_mod.loss_value(self.spec, cache, y))),
        )

    def test_error(self) -> float | None:
        if self.test_inputs is None:
            return None
        return self._chunked_mean(
            self.test_inputs, self.test_y,
            lambda cache, y: loss_mod.error_rate(cache.output, y) * cache.ncols,
        )

    def run(
        self,
        num_iters: int,
        eval_interval: int | None = None,
        record_hook=None,
    ) -> list[IterationRecord]:
        """Run num_iters iterations, attaching full evaluations periodically.

        eval_interval defaults to once per epoch; pass 0 to disable the
        full-data evaluations entirely. A negative num_iters or
        eval_interval raises ConfigError before any step. A full loss that
        is not finite raises TrainingError before its record reaches
        record_hook.
        """
        if num_iters < 0:
            raise ConfigError(f"need num_iters >= 0, got {num_iters}")
        if eval_interval is None:
            eval_interval = self.iters_per_epoch
        elif eval_interval < 0:
            raise ConfigError(f"need eval_interval >= 0, got {eval_interval}")
        records = []
        for _ in range(num_iters):
            rec = self.step()
            if eval_interval and rec.iteration % eval_interval == eval_interval - 1:
                rec.full_loss = self.full_loss()
                if not math.isfinite(rec.full_loss):
                    err = NumericError(f"full loss is not finite: {rec.full_loss}")
                    raise TrainingError(rec.iteration, err)
                rec.test_error = self.test_error()
            if record_hook is not None:
                record_hook(rec)
            records.append(rec)
        return records
