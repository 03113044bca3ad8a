"""Arithmetic on measured times: iteration times, tail percentile, self time.

Pure functions over plain numbers so the benchmark's own rules can be
tested without running the program.
"""

from __future__ import annotations

import statistics

MIN_BEYOND_TAIL = 10


def timed_iterations(
    wall_times: list[float], eval_rows: set[int], warmup: int
) -> list[tuple[int, float]]:
    """(iteration, seconds) for every iteration that counts as timed.

    wall_times is the metrics CSV's cumulative wall_time_s column; the
    first row's time counts from the start of training. An iteration is
    timed when it lies past the warm-up and the row before it is not a
    full-evaluation row, whose evaluation lands in the next difference.
    """
    timed = []
    previous = 0.0
    for i, t in enumerate(wall_times):
        if i >= warmup and (i - 1) not in eval_rows:
            timed.append((i, t - previous))
        previous = t
    return timed


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, sample count) of the highest supported percentile.

    Sorted ascending, the value at rank k = n - MIN_BEYOND_TAIL (1-based)
    is the highest one with at least MIN_BEYOND_TAIL samples ranked beyond
    it; its percentile is 100 * k / n.
    """
    n = len(samples)
    if n <= MIN_BEYOND_TAIL:
        raise ValueError(
            f"need more than {MIN_BEYOND_TAIL} samples for a tail, got {n}"
        )
    k = n - MIN_BEYOND_TAIL
    return sorted(samples)[k - 1], 100.0 * k / n, n


def covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of the given intervals."""
    clipped = sorted(
        (max(s, start), min(e, end)) for s, e in intervals if e > start and s < end
    )
    total = 0.0
    run_start = run_end = None
    for s, e in clipped:
        if run_end is None or s > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = s, e
        else:
            run_end = max(run_end, e)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans) -> list[float]:
    """Self time of every span: its duration minus what its children cover.

    spans is a sequence of (name, start, end, parent) with parent the
    index of the enclosing span or -1.
    """
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [
        (end - start) - covered(start, end, kids)
        for (name, start, end, parent), kids in zip(spans, children)
    ]


def spread(values: list[float]) -> float:
    """Distance between the first and third quartile over the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
