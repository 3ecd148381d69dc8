"""The first-order low-pass and the demodulation-based derivative estimators.

``FirstOrderFilter`` is the exact zero-order-hold discretization of c/(s+c):
unconditionally stable, and exact at the sample instants for a step input.
The washout s/(s+c) is the input minus its low-pass; ``run_esc`` washes the
map output once and both estimators demodulate that one signal.  A filter
instance owns its state, so one instance belongs to one loop.  The
period-averaging identities that justify the estimators are checked by the
tests (``tests/verification.py``), not at runtime.
"""
from __future__ import annotations

import math

__all__ = [
    "FirstOrderFilter",
    "estimate_gradient",
    "estimate_hessian",
]

# Demodulation divides by the dither amplitude; below this it is meaningless.
MIN_DEMOD_AMPLITUDE = 1e-9


class FirstOrderFilter:
    """Low-pass c/(s+c), exact ZOH discretization; the washout s/(s+c) of u is
    ``u - f.step(u)``."""

    __slots__ = ("state", "_gain")

    def __init__(self, corner: float, dt: float):
        if not (corner > 0.0 and math.isfinite(corner)):
            raise ValueError(f"corner frequency must be > 0, got {corner}")
        if not (dt > 0.0 and math.isfinite(dt)):
            raise ValueError(f"dt must be > 0, got {dt}")
        self.state = 0.0
        self._gain = 1.0 - math.exp(-corner * dt)

    def step(self, u: float) -> float:
        """Advance one sample; returns the low-pass output."""
        self.state += self._gain * (u - self.state)
        return self.state


def estimate_gradient(washed: float, demod: float) -> float:
    """Gradient estimate: the washed-out map output times this sample's
    gradient demodulation signal (``dither.gradient_demod``).

    The washout removes the unknown DC level of the map output before the
    sinusoidal demodulation, which otherwise injects a large zero-mean
    carrier into the estimate.  The amplitude the signal divides by is
    checked where the run is validated, not here.
    """
    return demod * washed


def estimate_hessian(washed: float, demod: float, smoother: FirstOrderFilter) -> float:
    """Curvature estimate: low-pass the washed-out map output times this
    sample's curvature demodulation signal (``dither.hessian_demod``)."""
    return smoother.step(demod * washed)
