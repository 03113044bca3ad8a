"""Tests of the benchmark's own arithmetic and instrumentation."""

import json
import struct
import types
from pathlib import Path

import numpy as np
import pytest

from perfbench import checks, timing
from perfbench.digits import write_digits_idx
from perfbench.tracer import Tracer
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def span(name, start, end, parent=-1):
    return (name, start, end, parent)


def test_self_time_subtracts_children():
    spans = [span("a", 0.0, 10.0), span("b", 1.0, 3.0, 0), span("c", 5.0, 6.0, 0)]
    assert timing.self_times(spans) == pytest.approx([7.0, 2.0, 1.0])


def test_self_time_counts_grandchildren_only_once():
    spans = [
        span("a", 0.0, 10.0),
        span("b", 1.0, 9.0, 0),
        span("c", 2.0, 4.0, 1),
        span("d", 4.0, 8.0, 1),
    ]
    assert timing.self_times(spans) == pytest.approx([2.0, 2.0, 2.0, 4.0])


def test_self_time_merges_back_to_back_and_nested_children():
    # Back-to-back children share an endpoint; a child lying inside
    # another child's interval adds nothing to the covered length.
    spans = [
        span("a", 0.0, 10.0),
        span("b", 1.0, 3.0, 0),
        span("c", 3.0, 5.0, 0),
        span("d", 3.5, 4.5, 0),
        span("e", 9.0, 12.0, 0),
    ]
    assert timing.self_times(spans)[0] == pytest.approx(10.0 - 4.0 - 1.0)


def test_self_time_of_leaf_is_its_duration():
    assert timing.self_times([span("a", 2.0, 2.5)]) == pytest.approx([0.5])


def test_tail_keeps_ten_samples_beyond():
    samples = list(range(100, 0, -1))  # 100 values, unsorted
    value, pct, n = timing.tail(samples)
    assert (value, pct, n) == (90, 90.0, 100)
    assert sum(s > value for s in samples) == timing.MIN_BEYOND_TAIL


def test_tail_percentile_follows_sample_count():
    value, pct, n = timing.tail([float(i) for i in range(1, 41)])
    assert (value, pct, n) == (30.0, 75.0, 40)
    value, pct, n = timing.tail([float(i) for i in range(11)])
    assert (value, pct, n) == (0.0, 100.0 / 11, 11)


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        timing.tail([1.0] * 10)


def test_timed_iterations_skip_warmup_and_post_evaluation_rows():
    wall = [1.0, 2.0, 3.5, 4.0, 9.0, 10.0, 11.5]
    # Row 3 carries an evaluation, which lands in row 4's difference.
    timed = timing.timed_iterations(wall, eval_rows={3, 6}, warmup=2)
    assert timed == pytest.approx([(2, 1.5), (3, 0.5), (5, 1.0), (6, 1.5)])


def test_timed_iterations_first_row_counts_from_start():
    assert timing.timed_iterations([0.25, 0.5], set(), warmup=0) == pytest.approx(
        [(0, 0.25), (1, 0.25)]
    )


def test_spread_is_interquartile_range_over_median():
    assert timing.spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(3.0 / 3.0)
    assert timing.spread([2.0] * 6) == 0.0


def test_counter_deltas_and_budget_check():
    def row(i, full, lam, jvp, vjp):
        cells = ["0"] * len(checks.METRICS_COLUMNS)
        cells[0] = str(i)
        cells[checks.METRICS_COLUMNS.index("full_loss")] = full
        cells[checks.METRICS_COLUMNS.index("lambda")] = str(lam)
        cells[checks.METRICS_COLUMNS.index("jvp_products")] = str(jvp)
        cells[checks.METRICS_COLUMNS.index("vjp_products")] = str(vjp)
        return cells

    rows = [row(0, "", 1.0, 60, 330), row(1, "0.5", 1.0, 120, 660)]
    assert checks.counter_deltas(rows, "vjp_products") == [330, 330]
    ok = checks.check_run(checks.METRICS_COLUMNS, rows, 2, "smw-gn", 30, 10, 1.0)
    assert ok == []
    rows[1] = row(1, "0.5", 1.0, 120, 661)
    bad = checks.check_run(checks.METRICS_COLUMNS, rows, 2, "smw-gn", 30, 10, 1.0)
    assert len(bad) == 1 and "vjp" in bad[0]
    assert checks.check_run(checks.METRICS_COLUMNS, rows, 2, "hf", 30, 10, 1.0)
    assert checks.check_run(checks.METRICS_COLUMNS, rows, 2, "smw-ng", 30, 10, 1.0)
    worse = checks.check_run(checks.METRICS_COLUMNS, rows[:1] + [row(1, "2", 1.0, 0, 0)],
                             3, "sgd", 30, 10, 1.0)
    assert len(worse) == 2  # row count and a final loss above the start


def test_repeat_check_ignores_only_wall_time():
    rows = [[str(i)] * len(checks.METRICS_COLUMNS) for i in range(3)]
    other = [list(r) for r in rows]
    other[1][checks.WALL] = "9.5"
    assert checks.check_repeat(other, rows) == []
    other[2][0] = "x"
    assert checks.check_repeat(other, rows) == ["repeat differs from the first run at row 2"]


def test_tracer_patches_every_binding_and_restores():
    lib = types.ModuleType("pkg.lib")
    exec("def inner(x):\n    return x + 1\n"
         "def outer(x):\n    return inner(x) * 2\n", lib.__dict__)
    user = types.ModuleType("pkg.user")
    user.inner = lib.inner  # as after `from .lib import inner`
    exec("def call(x):\n    return inner(x)\n", user.__dict__)
    original = lib.inner
    tracer = Tracer()
    tracer.install([lib, user])
    assert lib.outer(1) == 4 and user.call(1) == 2
    names = [(s[0], s[3]) for s in tracer.spans]
    # user.inner is the same function, so it carries its defining name.
    assert names == [("lib.outer", -1), ("lib.inner", 0), ("user.call", -1),
                     ("lib.inner", 2)]
    tracer.uninstall()
    assert lib.inner is original and user.inner is original
    tracer.clear()
    lib.outer(1)
    assert tracer.spans == []


def test_digits_match_the_acceptance_recipe(tmp_path):
    seed, n = 3, 1100
    images_path, labels_path = write_digits_idx(tmp_path, seed, n)
    rng = np.random.default_rng(seed)
    protos = rng.uniform(0.1, 0.9, size=(10, 784))
    labels = rng.integers(0, 10, size=n).astype(np.uint8)
    pix = 0.6 * protos[labels] + 0.4 * rng.uniform(0.0, 1.0, size=(n, 784))
    images = np.rint(np.clip(pix, 0.0, 1.0) * 255.0).astype(np.uint8)
    raw = images_path.read_bytes()
    assert struct.unpack(">iiii", raw[:16]) == (0x803, n, 28, 28)
    assert raw[16:] == images.tobytes()
    assert labels_path.read_bytes()[8:] == labels.tobytes()


def test_benchmark_json_lists_what_run_reports():
    from perfbench import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS


def test_layer_totals_count_only_timed_steps():
    from perfbench.layers import LayerTotals

    def spans_of_step(offset, parent_run):
        base = offset
        return [
            ["optim.step", base, base + 10.0, parent_run, None],
            ["solver.hf_cg_direction", base + 1.0, base + 9.0, None, None],
            ["diff.jvp", base + 2.0, base + 3.0, None, None],
            ["diff.jvp", base + 4.0, base + 5.0, None, None],
            ["diff.jvp", base + 6.0, base + 7.0, None, None],
            ["linalg.cholesky", base + 7.5, base + 8.5, None, 30],
        ]

    spans = [["cli.run", 0.0, 100.0, -1, None]]
    for offset in (10.0, 30.0):
        step = len(spans)
        block = spans_of_step(offset, 0)
        block[1][3] = step
        for s in block[2:]:
            s[3] = step + 1
        spans.extend(block)
    totals = LayerTotals()
    totals.add(spans, timed={1})
    assert totals.steps == 1 and totals.step_s == pytest.approx(10.0)
    assert totals.cg_iters == 2  # three jvp, the last one for p^T B p
    assert totals.self_s["solver.hf_cg_direction"] == pytest.approx(4.0)
    assert totals.factor_sizes == {30: 1}
    assert totals.factor_flops == pytest.approx(30**3 / 3)
    assert totals.cli_run_self_s == [pytest.approx(80.0)]
    per_iter = totals.per_iteration()
    assert per_iter["optim.step.self_ms"] == pytest.approx(2e3)
    assert per_iter["linalg.cholesky.calls"] == 1
