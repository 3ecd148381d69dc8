"""The first-order low-pass and the demodulation-based derivative estimators.

``FirstOrderFilter`` is the exact zero-order-hold discretization of c/(s+c):
unconditionally stable, and exact at the sample instants for a step input.
The washout s/(s+c) is the input minus its low-pass; ``run_esc`` washes the
map output once and both estimators demodulate that one signal.  A filter
instance owns its state, so one instance belongs to one loop.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .dither import QUADRATURE_NODES, DitherParams, gauss_legendre, gradient_demod, hessian_demod

__all__ = [
    "FirstOrderFilter",
    "EstimatorOutputs",
    "estimate_gradient",
    "estimate_hessian",
    "period_average_estimates",
]

# Demodulation divides by the dither amplitude; below this it is meaningless.
MIN_DEMOD_AMPLITUDE = 1e-9


class FirstOrderFilter:
    """Low-pass c/(s+c), exact ZOH discretization; the washout s/(s+c) of u is
    ``u - f.step(u)``."""

    __slots__ = ("state", "_gain")

    def __init__(self, corner: float, dt: float, state: float = 0.0):
        if not (corner > 0.0 and math.isfinite(corner)):
            raise ValueError(f"corner frequency must be > 0, got {corner}")
        if not (dt > 0.0 and math.isfinite(dt)):
            raise ValueError(f"dt must be > 0, got {dt}")
        self.state = state
        self._gain = 1.0 - math.exp(-corner * dt)

    def step(self, u: float) -> float:
        """Advance one sample; returns the low-pass output."""
        self.state += self._gain * (u - self.state)
        return self.state


class EstimatorOutputs(NamedTuple):
    G_hat: float
    H_hat: float


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


def period_average_estimates(params: DitherParams, y_star: float, H: float,
                             vartheta: float) -> EstimatorOutputs:
    """Period averages of the demodulated output for a frozen tracking error.

    With the map output y(t) = y_star + (H/2)*(vartheta + a*sin(omega*t))^2
    held at a frozen vartheta, the averages of the demodulated signals over
    one period recover exactly (H*vartheta, H).  Evaluated by
    ``QUADRATURE_NODES``-point Gauss-Legendre quadrature; serves as the
    averaging-level check of the estimator design.
    """
    if params.a < MIN_DEMOD_AMPLITUDE:
        raise ValueError(f"dither amplitude {params.a:.3g} too small for demodulation "
                         f"(minimum {MIN_DEMOD_AMPLITUDE:.0e})")
    period = params.period
    t, w = gauss_legendre(QUADRATURE_NODES, 0.0, period)
    y = y_star + 0.5 * H * (vartheta + params.a * np.sin(params.omega * t)) ** 2
    g_av = float(w @ (gradient_demod(params, t) * y)) / period
    h_av = float(w @ (hessian_demod(params, t) * y)) / period
    return EstimatorOutputs(G_hat=g_av, H_hat=h_av)
