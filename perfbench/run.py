"""Training benchmark: one workload, one seed, untraced or traced.

    python3 perfbench/run.py --workload gn-softmax --seed 1 --seconds 20 --trace 0

Generates seeded synthetic digits as IDX files, then trains through
smwopt.cli.run (the path of ``smwopt --config``) again and again, one run
after another in this one process, as many times as fill about the given
seconds on the reference machine (Workload.calls). Every run's metrics
CSV is checked. The last stdout line is a JSON object with
the keys correct, attempted, failed and metrics: end-to-end metrics with
--trace 0, per-layer metrics with --trace 1. Exits 1 when a check fails
and 2 when the program's source is missing. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import fields, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(ROOT))

from perfbench import checks, timing  # noqa: E402
from perfbench.workloads import WARMUP_ITERATIONS, WORKLOADS  # noqa: E402

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS_MAX = 2
SETUP_REPEATS = 7
OVERRUN = 1.25
WORK_DIR = ROOT / ".perfbench"

END_TO_END_UNITS = {
    "iter_ms_p50": "ms",
    "iter_ms_tail": "ms",
    "run_s": "s",
    "setup_s": "s",
    "final_loss": "nats",
    "peak_rss_mb": "MiB",
}
PER_LAYER_UNITS = {
    **{name: "ms" for name in (
        "linalg.lu_factor.self_ms",
        "linalg.cholesky.self_ms",
        "linalg.triangular.self_ms",
        "curvature.assemble_d.self_ms",
        "curvature.gn_batch_factors.self_ms",
        "curvature.gn_block_gram.self_ms",
        "curvature.ng_gram.self_ms",
        "diff.jvp.self_ms",
        "diff.vjp.self_ms",
        "diff.gradient.self_ms",
        "network.forward.self_ms",
        "network.activation.self_ms",
        "loss.loss_value.self_ms",
        "loss.loss_hessian_h.self_ms",
        "loss.hessian_apply.self_ms",
        "solver.smw_direction.self_ms",
        "solver.quadratic_terms.self_ms",
        "solver.hf_cg_direction.self_ms",
        "optim.step.self_ms",
        "other.self_ms",
        "optim.full_loss.ms",
        "data.load_idx.ms",
        "data.standardize.ms",
        "cli.run.self_ms",
    )},
    "linalg.cholesky.calls": "count",
    "linalg.factor.mflop": "MFLOP",
    "linalg.factor.gflops": "GFLOP/s",
    "curvature.core_size": "count",
    "solver.cg_iters": "count",
    "diff.jvp.cols": "count",
    "diff.vjp.cols": "count",
    "diff.backward.cols": "count",
    "network.forward.cols": "count",
    "optim.accepted_frac": "fraction",
    "damping.boost_frac": "fraction",
    "solver.residual_max": "ratio",
    "trace.step_share": "ratio",
    "trace_overhead_frac": "fraction",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pin_blas_threads() -> tuple[int, int]:
    """Fix the BLAS thread count before numpy loads; returns (threads, nproc)."""
    nproc = len(os.sched_getaffinity(0))
    threads = max(1, min(BLAS_THREADS_MAX, nproc))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)
    return threads, nproc


def commit_hash() -> str:
    """HEAD of the checkout's git directory, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int, threads: int, nproc: int) -> dict:
    import numpy as np

    try:
        openblas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{openblas['name']} {openblas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "commit": commit_hash(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
        "nproc": nproc,
    }


def import_program():
    """Import smwopt from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import smwopt

    if Path(smwopt.__file__).resolve().parent != (SRC / "smwopt").resolve():
        raise ImportError(f"smwopt imported from {smwopt.__file__}, not {SRC}")
    return smwopt


def optimizer_config(sm, cfg):
    """The OptimizerConfig cli.run builds from the same RunConfig."""
    shared = {
        f.name: getattr(cfg, f.name)
        for f in fields(sm.optim.OptimizerConfig)
        if hasattr(cfg, f.name)
    }
    cg = sm.solver.CgConfig(cfg.cg_max_iters, cfg.cg_tol)
    return sm.optim.OptimizerConfig(**shared, cg=cg)


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


class Bench:
    """One workload at one seed: set-up timing, repeated runs, checks."""

    def __init__(self, sm, workload, seed: int, workdir: Path):
        from perfbench.digits import write_digits_idx

        self.sm = sm
        self.workload = workload
        self.workdir = workdir
        images, labels = write_digits_idx(workdir, seed, workload.samples)
        values = dict(
            workload.config,
            train_images=str(images),
            train_labels=str(labels),
            seed=str(seed),
        )
        self.cfg = sm.cli.build_config(values, {})
        self.reference = None
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0

    def time_setup(self) -> list[float]:
        """Set-up wall times; also records the full training loss at theta0."""
        cli, optim = self.sm.cli, self.sm.optim
        times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            train, _ = cli.load_datasets(self.cfg)
            shape, spec = cli.build_model(self.cfg, train)
            trainer = optim.Trainer(
                shape, spec, train.inputs, train.targets,
                optimizer_config(self.sm, self.cfg),
            )
            times.append(time.perf_counter() - start)
        self.m_out = shape.output_size
        self.initial_loss = trainer.full_loss()
        return times

    def run_once(self):
        """One cli.run call; returns (seconds, rows) or None when it failed."""
        self.attempted += 1
        problems = []
        try:
            result = self._run_checked()
        except Exception as err:  # a raising run is a failed run, not a crash
            problems = [f"raised {err!r}"]
        else:
            if isinstance(result, list):
                problems = result
        if problems:
            self.failed += 1
            self.failures.extend(f"run {self.attempted}: {p}" for p in problems)
            return None
        return result

    def _run_checked(self):
        """(seconds, rows) of one checked run, or the list of its failures."""
        out = self.workdir / f"metrics-{self.attempted}.csv"
        start = time.perf_counter()
        code = self.sm.cli.run(replace(self.cfg, out=str(out)))
        elapsed = time.perf_counter() - start
        if code != 0:
            return [f"returned {code}"]
        header, rows = read_csv(out)
        out.unlink()
        problems = checks.check_run(
            header, rows, self.workload.iterations(), self.cfg.method,
            self.cfg.n2, self.m_out, self.initial_loss,
        )
        if not problems:
            if self.reference is None:
                self.reference = rows
            else:
                problems = checks.check_repeat(rows, self.reference)
        return problems or (elapsed, rows)

    def timed(self, rows) -> list[tuple[int, float]]:
        wall = [float(r[checks.WALL]) for r in rows]
        evals = set(checks.evaluations(rows))
        return timing.timed_iterations(wall, evals, WARMUP_ITERATIONS)


def loop(bench: Bench, seconds: float, once, traced_too=None) -> None:
    """One warm-up run, then the measured runs, one after another.

    The first run in a fresh process is about a third slower throughout
    (memory first touched, BLAS threads started), so it is checked but not
    measured. The measured runs alternate with traced_too if given. On a
    machine much slower than the one call_s was measured on, they stop
    once OVERRUN x seconds have passed, after at least two.
    """
    bench.run_once()
    start = time.perf_counter()
    for k in range(bench.workload.calls(seconds)):
        if k >= 2 and time.perf_counter() - start > OVERRUN * seconds:
            return
        (once if traced_too is None or k % 2 == 0 else traced_too)()


def end_to_end(bench: Bench, seconds: float) -> tuple[dict, dict]:
    setup = bench.time_setup()
    run_s, per_run, finals = [], [], []

    def once():
        result = bench.run_once()
        if result is not None:
            elapsed, rows = result
            run_s.append(elapsed)
            per_run.append([t for _, t in bench.timed(rows)])
            evals = checks.evaluations(rows)
            finals.append(evals[max(evals)])

    loop(bench, seconds, once)
    if not run_s:
        return {}, {}
    iters = [t for run in per_run for t in run]
    tails = [timing.tail(run) for run in per_run]
    _, pct, n = tails[0]
    metrics = {
        "iter_ms_p50": 1e3 * statistics.median(iters),
        "iter_ms_tail": 1e3 * statistics.median(value for value, _, _ in tails),
        "run_s": statistics.median(run_s),
        "setup_s": statistics.median(setup),
        "final_loss": finals[0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "iter_ms_p50": f"median of {len(iters)} timed iterations",
        "iter_ms_tail": (
            f"median over {len(tails)} runs of each run's p{pct:.1f} "
            f"({n} timed iterations per run)"
        ),
        "run_s": f"median of {len(run_s)} runs",
        "setup_s": f"median of {len(setup)} set-ups",
        "final_loss": "full training loss at the last evaluation",
        "peak_rss_mb": "peak resident memory of this process",
        "iterations_ms": [[round(1e3 * t, 4) for t in run] for run in per_run],
    }
    return metrics, notes


def per_layer(bench: Bench, seconds: float) -> tuple[dict, dict]:
    from perfbench.layers import FACTOR_FLOPS, LayerTotals, matrix_order
    from perfbench.probes import Probe
    from perfbench.tracer import Tracer

    sm = bench.sm
    bench.time_setup()
    tracer = Tracer(size_of={name: matrix_order for name in FACTOR_FLOPS})
    probe = Probe(sm)
    totals = LayerTotals()
    plain, traced, solves = [], [], []
    counts = {k: [] for k in ("jvp_products", "vjp_products",
                              "backward_passes", "forward_passes")}
    modules = [getattr(sm, name) for name in sm.__all__]
    methods = [
        (sm.optim.Trainer, "__init__", "optim.Trainer"),
        (sm.optim.Trainer, "step", "optim.step"),
        (sm.optim.Trainer, "full_loss", "optim.full_loss"),
        (sm.data.Standardizer, "apply", "data.Standardizer.apply"),
    ]

    def untraced_once():
        result = bench.run_once()
        if result is not None:
            plain.extend(t for _, t in bench.timed(result[1]))

    def traced_once():
        tracer.clear()
        tracer.install(modules, methods)
        probe.install(tracer)
        try:
            result = bench.run_once()
        finally:
            tracer.uninstall()
        solves.extend(probe.drain())
        if result is None:
            return
        rows = result[1]
        timed = bench.timed(rows)
        timed_rows = {i for i, _ in timed}
        totals.add(tracer.spans, timed_rows)
        traced.extend(t for _, t in timed)
        for column, values in counts.items():
            deltas = checks.counter_deltas(rows, column)
            values.extend(deltas[i] for i in timed_rows)

    loop(bench, seconds, untraced_once, traced_once)
    if not traced or not plain:
        return {}, {}
    metrics = totals.per_iteration()
    metrics.update({
        "optim.full_loss.ms": 1e3 * statistics.fmean(totals.full_loss_s),
        "data.load_idx.ms": 1e3 * statistics.fmean(totals.load_idx_s),
        "data.standardize.ms": 1e3 * statistics.fmean(totals.standardize_s),
        "cli.run.self_ms": 1e3 * statistics.fmean(totals.cli_run_self_s),
        "curvature.core_size": max((size for _, size in solves), default=0),
        "diff.jvp.cols": statistics.fmean(counts["jvp_products"]),
        "diff.vjp.cols": statistics.fmean(counts["vjp_products"]),
        "diff.backward.cols": statistics.fmean(counts["backward_passes"]),
        "network.forward.cols": statistics.fmean(counts["forward_passes"]),
        "optim.accepted_frac": statistics.fmean(a for a, _ in probe.steps),
        "damping.boost_frac": statistics.fmean(b for _, b in probe.steps),
        "solver.residual_max": max((r for r, _ in solves), default=0.0),
        "trace.step_share": totals.step_s / sum(traced),
        "trace_overhead_frac": statistics.median(traced) / statistics.median(plain) - 1,
    })
    sizes = ", ".join(f"{n}x{n} x{c}" for n, c in sorted(totals.factor_sizes.items()))
    notes = {
        "linalg.factor.mflop": f"computed, per iteration ({sizes or 'none'})",
        "linalg.factor.gflops": "computed flops / factorization self time",
        "solver.residual_max": (
            f"max over {len(solves)} sampled solves"
            + (f"; cg_tol {bench.cfg.cg_tol:g}" if bench.cfg.method == "hf" else "")
        ),
        "trace.step_share": "traced step spans / traced iteration time",
        "trace_overhead_frac": (
            f"traced p50 over untraced p50 of {len(traced)} / {len(plain)} "
            "iterations, minus 1"
        ),
        "other.self_ms": "every other traced function under optim.step",
    }
    notes["functions"] = totals.function_self_ms()
    return metrics, notes


def report(metrics: dict, units: dict, notes: dict) -> dict:
    out = {}
    for name, unit in units.items():
        value = metrics[name]
        out[name] = {"value": value, "unit": unit}
        note = notes.get(name, "")
        print(f"  {name:36s} {value:14.6g} {unit:9s} {note}")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "smwopt" / "__init__.py").is_file():
        print(f"error: program source {SRC / 'smwopt'} not found", file=sys.stderr)
        return 2
    threads, nproc = pin_blas_threads()
    sm = import_program()
    workload = WORKLOADS[args.workload]
    env = environment(args.seed, threads, nproc)
    workdir = WORK_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        bench = Bench(sm, workload, args.seed, workdir)
        if args.trace:
            metrics, notes = per_layer(bench, args.seconds)
        else:
            metrics, notes = end_to_end(bench, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = bench.failed
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: "
          f"{workload.why}")
    print("env " + json.dumps(env))
    for failure in bench.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(f"  {'failed_frac':36s} {failed / bench.attempted:14.6g} "
          f"{'fraction':9s} {failed} of {bench.attempted} runs")
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    reported = report(metrics, units, notes) if metrics else {}
    results = WORK_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = {"env": env, "workload": workload.name, "trace": args.trace,
              "failures": bench.failures, "metrics": reported, "notes": notes}
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "correct": failed == 0 and bool(metrics),
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": reported,
    }))
    return 0 if failed == 0 and metrics else 1


if __name__ == "__main__":
    sys.exit(main())
