"""Machine-speed calibration: a fixed numpy kernel timed around every job.

The effective speed of a shared host drifts by up to 1.7x over tens of
seconds, far more than the changes the benchmark has to resolve. The drift
hits the calibration kernel and the program alike, so each job's wall time is
rescaled by NOMINAL_S over the mean of the kernel times measured just before
and just after it. The kernel is the benchmark's own code, so no change to
the program can alter it, but it does the kind of work the integrator does,
on the workload's own batch and dimension: SME-like increments (stacked
matrix products, traces, Hermitian parts) and one eigvalsh call.
"""
from __future__ import annotations

from time import perf_counter

import numpy as np

# One kernel pass takes about this long on a 2-core Intel Xeon (2.1 GHz) host
# at its faster speed, so rescaled times read as seconds there.
NOMINAL_S = 0.015
# increments per pass for each (batch, dimension), sized to NOMINAL_S
PASSES = {(1000, 2): 11, (1000, 3): 9, (1, 3): 750, (100, 8): 48}


class Calibrated:
    """Rescales measured times to NOMINAL_S kernel speed; run one pass per time."""

    def __init__(self, batch: int, n: int):
        rng = np.random.default_rng(0)
        self._state = rng.normal(size=(batch, n, n)) + 1j * rng.normal(size=(batch, n, n))
        self._c = np.diag(np.arange(n, dtype=float)).astype(complex)
        self._reps = PASSES[batch, n]
        self._before = self.kernel_seconds()

    def kernel_seconds(self) -> float:
        """Wall time of one pass of the fixed kernel."""
        c = self._c
        t0 = perf_counter()
        a = self._state
        for _ in range(self._reps):
            ca = c @ a
            ex = np.einsum("...ii", ca).real
            g = ca + np.conj(np.swapaxes(ca, -1, -2)) - 2.0 * ex[..., None, None] * a
            d = ca @ c - 0.5 * (c @ ca + a @ c @ c)
            nxt = a + 1e-3 * d + 1e-3 * g
        np.linalg.eigvalsh(0.5 * (nxt + np.conj(np.swapaxes(nxt, -1, -2))))
        return perf_counter() - t0

    def rescale(self, seconds: float) -> float:
        """Rescale a time measured since the previous pass, then run the next pass."""
        after = self.kernel_seconds()
        scaled = seconds * NOMINAL_S / (0.5 * (self._before + after))
        self._before = after
        return scaled
