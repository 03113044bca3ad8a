"""The benchmark's workloads: one training configuration each.

All use the 784-500-10 network with logistic hidden units on seeded
synthetic digits; README.md says why each one is in the set. call_s is
the wall time of one training run on the machine the benchmark was set
up on (2 cores, OpenBLAS with 2 threads); it fixes how many runs a
measurement of a given length makes, so every run of a workload pools the
same number of iterations.
"""

from __future__ import annotations

from dataclasses import dataclass

# Iterations at the start of every training run that are not timed.
WARMUP_ITERATIONS = 5

@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    samples: int
    config: dict[str, str]
    call_s: float

    def calls(self, seconds: float) -> int:
        """Training runs that fill about `seconds`; at least two."""
        return max(2, round(seconds / self.call_s))

    def iterations(self) -> int:
        n1 = int(self.config["n1"])
        return int(self.config["epochs"]) * -(-self.samples // n1)


_DESK = {"layers": "784,500,10", "n1": "60", "n2": "30", "alpha": "0.1", "epochs": "1"}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "gn-softmax",
            "smw-gn on softmax CE at desk scale; the 300-wide unsymmetric LU core dominates",
            6000,
            dict(_DESK, loss="softmax_cross_entropy", method="smw-gn"),
            6.0,
        ),
        Workload(
            "gn-bce",
            "smw-gn on binary CE; SPD path with one 300-wide and thirty 10x10 Cholesky factorizations",
            6000,
            dict(_DESK, loss="binary_cross_entropy", method="smw-gn"),
            4.0,
        ),
        Workload(
            "hf-softmax",
            "Hessian-free CG on the gn-softmax problem; bypasses linalg and curvature",
            6000,
            dict(_DESK, loss="softmax_cross_entropy", method="hf"),
            4.7,
        ),
        Workload(
            "ng-semi",
            "semi-stochastic smw-ng on 1200 samples; full-batch forward and gradient dominate, each step is accept-tested",
            1200,
            {
                "layers": "784,500,10",
                "loss": "softmax_cross_entropy",
                "method": "smw-ng",
                "semi_stochastic": "true",
                "alpha": "1",
                "eta": "0.1",
                # Default lambda_lm=1 rejects ~15% of steps; each rejection
                # stalls the run and the final loss then differs by ~30%
                # between seeds. From 5 no step was rejected on any seed tried.
                "lambda_lm": "5",
                "n1": "1200",
                "n2": "30",
                "epochs": "100",
                "eval_interval": "50",
            },
            11.0,
        ),
    )
}
