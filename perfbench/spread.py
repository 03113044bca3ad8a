"""Run one workload at several seeds and print each metric's spread.

    python3 perfbench/spread.py --workload gn-bce --seeds 1 2 3 4 5 --seconds 20

Spread is the distance between the first and third quartile of the
per-run values over their median, the measure BENCHMARK.json's bounds
are set against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.timing import spread  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: exit {proc.returncode} correct {result['correct']} "
              f"attempted {result['attempted']} failed {result['failed']}",
              flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, vals in values.items():
        shown = " ".join(f"{v:.5g}" for v in vals)
        line = f"{name:36s} median {statistics.median(vals):12.6g}"
        if len(vals) >= 2 and statistics.median(vals):
            line += f" spread {spread(vals):7.4f}"
        print(f"{line}  [{shown}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
