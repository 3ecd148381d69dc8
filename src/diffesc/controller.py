"""Compensation controller for the diffusion actuator.

Three forms of the same law:

* ``ideal_control``    - state feedback on the transformed scalar Z built
  from the tracking error and the weighted field integral (needs the full
  field state; analysis/reference use).
* ``average_control``  - the same law written in terms of period-averaged
  gradient/curvature estimates.
* ``realtime_control`` - the implementable form: only the measurable map
  input enters, and the output is smoothed by a first-order low-pass.

The backstepping kernel maps the error cascade onto an exponentially stable
target system; its normalization vanishes on a discrete set of forbidden
gains, which ``check_gain`` rejects up front.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .filters import FirstOrderFilter
from .heat import Grid, integrate_profile

__all__ = [
    "GainConfig",
    "BacksteppingKernel",
    "ControllerState",
    "ForbiddenGainError",
    "forbidden_gains",
    "check_gain",
    "make_kernel",
    "transform_scalar",
    "ideal_control",
    "average_control",
    "realtime_control",
    "integrate_theta_hat",
]


class ForbiddenGainError(ValueError):
    """Compensator gain is non-negative or too close to a singular value."""

    def __init__(self, message: str, kappa: int | None = None):
        super().__init__(message)
        self.kappa = kappa


@dataclass(frozen=True)
class GainConfig:
    """Loop gains: adaptation gain K >= 0 and the corner frequency c of the
    control smoothing low-pass.  The compensator gain is not configured: it
    is the averaged loop gain K_bar = K*H of the map curvature H."""

    K: float
    c: float


def forbidden_gains(L: float, kappa_max: int) -> np.ndarray:
    """Singular compensator gains -(2k+1)^2 pi^2 / (4 L^3), k = 0..kappa_max."""
    k = np.arange(kappa_max + 1)
    return -((2 * k + 1) ** 2) * math.pi**2 / (4.0 * L**3)


def default_gain_tol(L: float) -> float:
    # relative to the first singular value; the condition is measure-zero but
    # a near-miss makes the kernel normalization blow up
    return 1e-6 * math.pi**2 / (4.0 * L**3)


def check_gain(K_bar: float, L: float, kappa_max: int = 100, tol: float | None = None) -> None:
    """Reject inadmissible compensator gains; returns silently when fine."""
    if L <= 0.0:
        raise ValueError(f"domain length must be > 0, got {L}")
    if not math.isfinite(K_bar):
        raise ForbiddenGainError(f"compensator gain is not finite: {K_bar}")
    if K_bar >= 0.0:
        raise ForbiddenGainError(f"compensator gain must be negative, got {K_bar}")
    if tol is None:
        tol = default_gain_tol(L)
    bad = forbidden_gains(L, kappa_max)
    hits = np.flatnonzero(np.abs(K_bar - bad) < tol)
    if hits.size:
        kappa = int(hits[0])
        raise ForbiddenGainError(
            f"compensator gain {K_bar:.6g} lies within {tol:.3g} of the singular value "
            f"-(2*{kappa}+1)^2*pi^2/(4*L^3) = {bad[kappa]:.6g}; the kernel normalization "
            f"vanishes there",
            kappa=kappa,
        )


@dataclass(frozen=True)
class BacksteppingKernel:
    """Kernel data for the error-to-target transformation on [0, L].

    A_cl = K_bar * L is the closed-loop rate of the transformed scalar; for
    admissible gains it is negative and the kernel collapses to a real
    cosine: gamma(x) = K_bar * cos(sqrt(lam) x) / cos(sqrt(lam) L).
    """

    L: float
    K_bar: float
    A_cl: float
    lam: float      # -A_cl, positive for admissible gains

    def g(self, x):
        """Spatial weight (L^2 - x^2)/2; zero at the driven end."""
        x = np.asarray(x, dtype=float)
        return 0.5 * (self.L**2 - x**2)

    def gamma(self, x):
        """Kernel gain profile; gamma(L) = K_bar exactly."""
        x = np.asarray(x, dtype=float)
        if self.A_cl < 0.0:
            root = math.sqrt(self.lam)
            return self.K_bar * np.cos(root * x) / math.cos(root * self.L)
        if self.A_cl > 0.0:
            root = math.sqrt(self.A_cl)
            return self.K_bar * np.cosh(root * x) / math.cosh(root * self.L)
        return self.K_bar * np.ones_like(x)


def make_kernel(K_bar: float, L: float, check: bool = True) -> BacksteppingKernel:
    """Build the kernel, gating on gain admissibility.

    ``check=False`` skips the sign gate (used by instability probes) but the
    singular normalization is always rejected.
    """
    if check:
        check_gain(K_bar, L)
        try:
            check_gain(K_bar, L, tol=10.0 * default_gain_tol(L))
        except ForbiddenGainError as near:
            warnings.warn(
                f"compensator gain {K_bar:.6g} is within 10x tolerance of the singular "
                f"value at kappa={near.kappa}; kernel is badly conditioned",
                RuntimeWarning,
            )
    A_cl = K_bar * L
    if A_cl < 0.0 and abs(math.cos(math.sqrt(-A_cl) * L)) < 1e-9:
        raise ForbiddenGainError(
            f"kernel normalization vanishes for compensator gain {K_bar:.6g}"
        )
    return BacksteppingKernel(L=L, K_bar=K_bar, A_cl=A_cl, lam=-A_cl)


def transform_scalar(kernel: BacksteppingKernel, vartheta: float, u_profile: np.ndarray,
                     grid: Grid, rule: str = "auto") -> float:
    """Transformed scalar Z = vartheta + integral of g*u over the domain."""
    x = grid.nodes()
    return vartheta + integrate_profile(kernel.g(x) * u_profile, grid.dx, rule)


def ideal_control(kernel: BacksteppingKernel, vartheta: float, u_profile: np.ndarray,
                  grid: Grid, rule: str = "auto") -> float:
    """State-feedback law U = K_bar * Z; needs the full field profile."""
    return kernel.K_bar * transform_scalar(kernel, vartheta, u_profile, grid, rule)


def average_control(kernel: BacksteppingKernel, G_hat_av: float, H_hat_av: float,
                    u_av_profile: np.ndarray, grid: Grid, K: float,
                    rule: str = "auto") -> float:
    """Averaged law K*G_av + K*H_av * integral(g*u_av).

    With exact averages G_av = H*vartheta_av and H_av = H this coincides
    with ``ideal_control`` at K_bar = K*H.
    """
    x = grid.nodes()
    weighted = integrate_profile(kernel.g(x) * u_av_profile, grid.dx, rule)
    return K * G_hat_av + K * H_hat_av * weighted


@dataclass
class ControllerState:
    """Mutable per-run controller state: integrator, smoothing filter, gains."""

    theta_hat: float
    T_filter: FirstOrderFilter
    gains: GainConfig
    L: float


def realtime_control(state: ControllerState, G_hat: float, H_hat: float, Theta: float,
                     probe: float) -> float:
    """Implementable law: smooth K*[G_hat + H_hat*(L*theta_hat - Theta + probe)].

    ``probe`` is this sample's target perturbation a*sin(omega t) at the map
    input.  The bracketed term reconstructs the field integral of the ideal
    law from the measured map input alone (integration by parts against the
    weight g eliminates the distributed state), so no field sensing is
    required.  Advances the smoothing filter by one sample.
    """
    feedback = state.L * state.theta_hat - Theta + probe
    bracket = state.gains.K * (G_hat + H_hat * feedback)
    return state.T_filter.step(bracket)


def integrate_theta_hat(state: ControllerState, U: float, dt: float) -> float:
    """Advance the input-estimate integrator: theta_hat += dt * U."""
    if dt <= 0.0:
        raise ValueError(f"dt must be > 0, got {dt}")
    state.theta_hat += dt * U
    return state.theta_hat
