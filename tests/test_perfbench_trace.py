"""The benchmark's traced mode against the program as it is now.

perfbench/run.py --trace 1 wraps every public function of smwopt's
modules and a few Trainer methods (perfbench.tracer.Tracer), and its
probe (perfbench.probes.Probe) wraps Trainer.step and the direction
solvers and recomputes sampled residuals from their bound arguments.
Both are installed here, read-only and as run.py installs them, on tiny
training runs: a signature or name they rely on that changes fails here
instead of in a benchmark run.
"""

import math
from dataclasses import replace

import pytest

import smwopt
from perfbench import checks
from perfbench.layers import FACTOR_FLOPS, matrix_order
from perfbench.probes import Probe
from perfbench.tracer import Tracer
from smwopt import cli, optim
from tests.test_cli import base_config, read_metrics

RUNS = {
    "smw-gn": dict(method="smw-gn", n1=4, n2=2, epochs=2),
    "hf": dict(method="hf", n1=4, n2=2, epochs=2),
    "smw-ng-semi": dict(
        method="smw-ng", n1=40, n2=5, epochs=12, alpha=1, semi_stochastic="true",
        eta=0.1, lambda_lm=5, eval_interval=4,
    ),
}


def traced_run(cfg):
    """cli.run under the tracer and probe, installed as run.py does."""
    tracer = Tracer(size_of={name: matrix_order for name in FACTOR_FLOPS})
    probe = Probe(smwopt)
    modules = [getattr(smwopt, name) for name in smwopt.__all__]
    methods = [
        (optim.Trainer, "__init__", "optim.Trainer"),
        (optim.Trainer, "step", "optim.step"),
        (optim.Trainer, "full_loss", "optim.full_loss"),
        (smwopt.data.Standardizer, "apply", "data.Standardizer.apply"),
    ]
    tracer.install(modules, methods)
    probe.install(tracer)
    try:
        assert cli.run(cfg) == 0
    finally:
        tracer.uninstall()
    return tracer, probe


@pytest.mark.parametrize("name", sorted(RUNS))
def test_traced_run_writes_the_untraced_csv(name, tmp_path, rng):
    values = base_config(tmp_path, rng, **RUNS[name])
    cfg = cli.build_config(values, {})
    plain_out, traced_out = tmp_path / "plain.csv", tmp_path / "traced.csv"
    assert cli.run(replace(cfg, out=str(plain_out))) == 0
    forward = smwopt.network.forward
    tracer, probe = traced_run(replace(cfg, out=str(traced_out)))
    assert smwopt.network.forward is forward  # every patch undone

    header, plain = read_metrics(plain_out)
    traced_header, traced = read_metrics(traced_out)
    assert header == traced_header == checks.METRICS_COLUMNS
    assert checks.check_repeat(traced, plain) == []
    steps = [span for span in tracer.spans if span[0] == "optim.step"]
    assert len(steps) == len(probe.steps) == len(plain)

    # Every curvature solve runs through smw_direction or hf_cg_direction,
    # which the probe samples. The Gauss-Newton core has n2 * m_L rows,
    # natural gradient's n2, and CG none.
    solves = probe.drain()
    assert solves
    m_out = int(cfg.layers.split(",")[-1])
    core = {"smw-gn": cfg.n2 * m_out, "smw-ng": cfg.n2, "hf": 0}[cfg.method]
    for residual, core_size in solves:
        assert math.isfinite(residual)
        assert core_size == core
