"""Compensation controller for the diffusion actuator.

The one implementable law is ``realtime_control``: only the measurable map
input enters, and the output is smoothed by a first-order low-pass.  Its
average is the state feedback U = K_bar * Z on the backstepping scalar
Z = vartheta + integral of g*u, which ``analysis.to_target`` computes from the
field and ``loop.run_average_system`` simulates.

The backstepping kernel maps the error cascade onto an exponentially stable
target system; its normalization vanishes at the singular gains
-(2k+1)^2 pi^2/(4 L^3), k = 0, 1, 2, ...  ``check_gain`` is the one rule
for them: it finds the index of the singular gain nearest a given gain in
closed form and rejects a band around it; ``make_kernel`` applies it.
"""
from __future__ import annotations

import math
import warnings
from typing import NamedTuple

import numpy as np

from .filters import FirstOrderFilter

__all__ = [
    "GainConfig",
    "BacksteppingKernel",
    "ControllerState",
    "ForbiddenGainError",
    "check_gain",
    "make_kernel",
    "realtime_control",
    "integrate_theta_hat",
]


class ForbiddenGainError(ValueError):
    """Compensator gain is non-negative or too close to a singular value."""

    def __init__(self, message: str, kappa: int | None = None):
        super().__init__(message)
        self.kappa = kappa


class GainConfig(NamedTuple):
    """Loop gains: adaptation gain K >= 0 and the corner frequency c of the
    control smoothing low-pass.  The compensator gain is not configured: it
    is the averaged loop gain K_bar = K*H of the map curvature H."""

    K: float
    c: float


# Half-width of the band rejected around each singular gain, in units of pi^2/(4 L^3):
# the condition is measure-zero, but a near-miss makes the kernel normalization blow up.
GAIN_TOL = 1e-6


def check_gain(K_bar: float, L: float) -> int | None:
    """Reject a compensator gain that is not negative, or that lies within
    ``GAIN_TOL*pi^2/(4 L^3)`` of a singular value -(2k+1)^2 pi^2/(4 L^3).

    Every k = 0, 1, 2, ... is covered: the k nearest K_bar is found in closed
    form.  Returns that k when K_bar lies within ten such bands (admissible
    but badly conditioned), else None.
    """
    if L <= 0.0:
        raise ValueError(f"domain length must be > 0, got {L}")
    try:
        scaled = -4.0 * L**3 * K_bar    # (2k+1)^2 * pi^2 at the singular gains
    except OverflowError:               # L**3 beyond the float range
        raise ForbiddenGainError(f"compensator gain out of range: L^3 overflows "
                                 f"for L = {L}") from None
    if not math.isfinite(scaled):
        raise ForbiddenGainError(f"compensator gain out of range: 4*L^3*K_bar = {-scaled}")
    if K_bar >= 0.0:
        raise ForbiddenGainError(f"compensator gain must be negative, got {K_bar}")
    kappa = max(0, round((math.sqrt(scaled) / math.pi - 1.0) / 2.0))
    singular = -((2 * kappa + 1) ** 2) * math.pi**2 / (4.0 * L**3)
    tol = GAIN_TOL * math.pi**2 / (4.0 * L**3)
    if abs(K_bar - singular) < tol:
        raise ForbiddenGainError(
            f"compensator gain {K_bar:.6g} lies within {tol:.3g} of the singular value "
            f"-(2*{kappa}+1)^2*pi^2/(4*L^3) = {singular:.6g}; the kernel normalization "
            f"vanishes there",
            kappa=kappa,
        )
    return kappa if abs(K_bar - singular) < 10.0 * tol else None


class BacksteppingKernel(NamedTuple):
    """Kernel data for the error-to-target transformation on [0, L].

    A_cl = K_bar * L is the closed-loop rate of the transformed scalar; for
    admissible gains it is negative and the kernel collapses to a real
    cosine: gamma(x) = K_bar * cos(sqrt(-A_cl) x) / cos(sqrt(-A_cl) L).
    """

    L: float
    K_bar: float
    A_cl: float

    def g(self, x):
        """Spatial weight (L^2 - x^2)/2; zero at the driven end."""
        x = np.asarray(x, dtype=float)
        return 0.5 * (self.L**2 - x**2)

    def gamma(self, x):
        """Kernel gain profile; gamma(L) = K_bar exactly."""
        x = np.asarray(x, dtype=float)
        if self.A_cl > 0.0:
            root = math.sqrt(self.A_cl)
            return self.K_bar * np.cosh(root * x) / math.cosh(root * self.L)
        root = math.sqrt(-self.A_cl)
        return self.K_bar * np.cos(root * x) / math.cos(root * self.L)


def make_kernel(K_bar: float, L: float, check: bool = True) -> BacksteppingKernel:
    """Build the kernel, gating on gain admissibility.

    Every negative gain goes through ``check_gain``: the kernel normalization
    vanishes at the singular gains, and one within ten bands of them warns
    that the kernel is badly conditioned.  ``check=False`` skips only the
    sign gate, for instability probes with K_bar >= 0.
    """
    kappa = check_gain(K_bar, L) if check or K_bar < 0.0 else None
    if kappa is not None:
        warnings.warn(
            f"compensator gain {K_bar:.6g} is within 10x tolerance of the singular "
            f"value at kappa={kappa}; kernel is badly conditioned",
            RuntimeWarning,
        )
    return BacksteppingKernel(L=L, K_bar=K_bar, A_cl=K_bar * L)


class ControllerState:
    """Mutable per-run controller state: integrator, smoothing filter, K and L."""

    __slots__ = ("theta_hat", "T_filter", "K", "L")

    def __init__(self, theta_hat: float, T_filter: FirstOrderFilter, K: float, L: float):
        self.theta_hat, self.T_filter, self.K, self.L = theta_hat, T_filter, K, L


def realtime_control(state: ControllerState, G_hat: float, H_hat: float, Theta: float,
                     probe: float) -> float:
    """Implementable law: smooth K*[G_hat + H_hat*(L*theta_hat - Theta + probe)].

    ``probe`` is this sample's target perturbation a*sin(omega t) at the map
    input.  The bracketed term reconstructs the field integral of the averaged
    law U = K_bar * Z from the measured map input alone (integration by parts
    against the weight g eliminates the distributed state), so no field
    sensing is required.  Advances the smoothing filter by one sample.
    """
    feedback = state.L * state.theta_hat - Theta + probe
    bracket = state.K * (G_hat + H_hat * feedback)
    return state.T_filter.step(bracket)


def integrate_theta_hat(state: ControllerState, U: float, dt: float) -> float:
    """Advance the input-estimate integrator: theta_hat += dt * U."""
    if dt <= 0.0:
        raise ValueError(f"dt must be > 0, got {dt}")
    state.theta_hat += dt * U
    return state.theta_hat
