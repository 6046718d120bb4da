"""A fixed reference task that the benchmark times beside each measured command.

The benchmark runs on a shared host whose speed drifts by tens of percent
over minutes, far more than a run's samples vary among themselves. The
reference does the same work in every run and every commit, and does not use
the program, so its time tracks only the host's speed. Dividing the measured
command's median wall time by the reference's median time from the same run
cancels most of that drift.

The task mixes the two kinds of work the program does: a 9-tap stencil,
per-channel normalisation and a ReLU over small arrays between Python-level
loops (like cv-64's training steps), and the same stencil over large 128x128
arrays (like eval-128's inference). It runs in the benchmark's own process,
so interpreter start and imports add nothing to its noise.
"""

from __future__ import annotations

import time

import numpy as np

_TAPS = np.linspace(-1.0, 1.0, 9)


def _stencil_pass(x: np.ndarray) -> np.ndarray:
    h, w = x.shape[-2] - 2, x.shape[-1] - 2
    y = np.zeros_like(x)
    for k in range(9):
        dy, dx = divmod(k, 3)
        y[..., 1:-1, 1:-1] += _TAPS[k] * x[..., dy:dy + h, dx:dx + w]
    y -= y.mean(axis=(0, 2, 3), keepdims=True)
    y /= y.std(axis=(0, 2, 3), keepdims=True) + 1e-5
    return np.maximum(y, 0.0, out=y)


def reference_s() -> float:
    """Wall time of one pass of the fixed task, in seconds (about 0.3 s)."""
    small = np.linspace(0.0, 1.0, 16 * 8 * 32 * 32).reshape(16, 8, 32, 32)
    large = np.linspace(0.0, 1.0, 8 * 8 * 128 * 128).reshape(8, 8, 128, 128)
    start = time.perf_counter()
    for _ in range(36):
        _stencil_pass(small)
        acc = 0.0
        for i in range(3000):
            acc += i * 0.5
    for _ in range(4):
        _stencil_pass(large)
    return time.perf_counter() - start
