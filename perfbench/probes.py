"""Observations the traced run takes besides spans.

Probe records every training step's outcome and, at sampled iterations,
the direction solve's inputs and result, so the direction residual
||(B + lam I) p + g|| / ||g|| can be computed after the run with
counters=None: the probe never changes the program's op counts.
"""

from __future__ import annotations

import inspect

import numpy as np

SAMPLE_EVERY = 25
SAMPLE_OFFSET = 10


class Probe:
    def __init__(self, smwopt):
        self.sm = smwopt
        self.steps: list[tuple[bool, bool]] = []  # (accepted, rho < epsilon)
        self.captures: list[tuple[str, dict, np.ndarray]] = []
        self._calls = 0

    def install(self, tracer) -> None:
        """Wrap Trainer.step and the direction solvers, over the tracer."""
        optim, solver = self.sm.optim, self.sm.solver
        step = optim.Trainer.step

        def observed_step(trainer):
            rec = step(trainer)
            self.steps.append((rec.accepted, rec.rho < trainer.damping.epsilon))
            return rec

        tracer.patch(optim.Trainer, "step", observed_step)
        for name in ("smw_direction", "hf_cg_direction"):
            tracer.patch(solver, name, self._sampler(name, getattr(solver, name)))

    def _sampler(self, name, fn):
        signature = inspect.signature(inspect.unwrap(fn))

        def sampled(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self._calls % SAMPLE_EVERY == SAMPLE_OFFSET:
                bound = signature.bind(*args, **kwargs).arguments
                self.captures.append((name, bound, result.p))
            self._calls += 1
            return result

        return sampled

    def drain(self) -> list[tuple[float, int]]:
        """(relative residual, core size) per captured solve; clears them.

        Core size is 0 for the matrix-free CG solve.
        """
        out = [self._residual(name, a, p) for name, a, p in self.captures]
        self.captures.clear()
        self._calls = 0
        return out

    def _residual(self, name, a, p) -> tuple[float, int]:
        diff, loss, solver = self.sm.diff, self.sm.loss, self.sm.solver
        shape, theta, g = a["shape"], a["theta"], a["g"]
        if name == "smw_direction":
            system = a["system"]
            bp = solver.apply_curvature(shape, theta, system, p, None)
            lam, core_size = system.lam, system.core.shape[0]
        else:
            cache = a["cache"]
            jv = diff.jvp(shape, theta, cache, p)
            hjv = loss.hessian_apply(a["spec"], cache, jv)
            bp = diff.vjp(shape, theta, cache, hjv)[0] / cache.ncols
            lam, core_size = a["lam"], 0
        r = bp + lam * p + g
        return float(np.linalg.norm(r) / np.linalg.norm(g)), core_size
