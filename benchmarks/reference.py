"""The reference kernel that the benchmark's times are measured against.

The host's speed drifts by up to two times within minutes, as other
tenants load the shared cores, and the drift lasts longer than a run, so
no number of repeats makes a raw time steady.  The runner therefore times
this kernel before and after every unit of work and reports the unit's
time as a multiple of the kernel's.  The kernel does what lnlab does most:
layer normalization, softmax and small matrix products on arrays of a few
entries, driven from a Python loop, so a drift slows both alike.

It never changes: the ratios of two commits are comparable only while
both are measured against the same kernel.  It does not use lnlab.
"""

from __future__ import annotations

import numpy as np

ROUNDS = 100
STEPS = 8


def run() -> float:
    """One pass of the kernel (about 30 ms on one quiet core)."""
    rng = np.random.default_rng(0)
    x = rng.normal(size=(4, 3))
    w = rng.normal(size=(4, 4)) / 2
    total = 0.0
    for _ in range(ROUNDS):
        for _ in range(STEPS):
            xc = x - x.mean(axis=0)
            y = xc / np.sqrt((xc * xc).mean(axis=0) + 1e-5)
            s = y.T @ y
            e = np.exp(s - s.max(axis=0))
            x = np.tanh(w @ y @ (e / e.sum(axis=0))) + 0.5 * x
        total += float(x.sum())
    return total
