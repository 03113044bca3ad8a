"""Operation counters for the backpropagation kernels.

Counts are per sample: a batched call over B columns adds B. Increments
are plain int additions (atomic under the GIL), and totals do not depend
on the order in which concurrent per-sample work completes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass
class OpCounters:
    forward_passes: int = 0
    backward_passes: int = 0
    jvp_products: int = 0
    vjp_products: int = 0

    def snapshot(self) -> "OpCounters":
        return replace(self)

