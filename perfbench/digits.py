"""Seeded MNIST-shaped synthetic digits, written as an IDX image/label pair.

Same recipe and random stream as the acceptance suite's
synthetic_digits_idx: ten prototypes, labels, then per-pixel noise. The
noise is drawn in row blocks, which consumes the generator in the same
order as one draw of the whole array while keeping the generator's
temporary memory small.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

PIXELS = 784
BLOCK_ROWS = 500


def write_digits_idx(directory: Path, seed: int, n: int) -> tuple[Path, Path]:
    rng = np.random.default_rng(seed)
    protos = rng.uniform(0.1, 0.9, size=(10, PIXELS))
    labels = rng.integers(0, 10, size=n).astype(np.uint8)
    images_path = directory / "digits-images.idx"
    labels_path = directory / "digits-labels.idx"
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">iiii", 0x00000803, n, 28, 28))
        for start in range(0, n, BLOCK_ROWS):
            block = labels[start : start + BLOCK_ROWS]
            noise = rng.uniform(0.0, 1.0, size=(block.size, PIXELS))
            pix = 0.6 * protos[block] + 0.4 * noise
            fh.write(np.rint(np.clip(pix, 0.0, 1.0) * 255.0).astype(np.uint8).tobytes())
    with open(labels_path, "wb") as fh:
        fh.write(struct.pack(">ii", 0x00000801, n))
        fh.write(labels.tobytes())
    return images_path, labels_path
