"""Probing-signal design for a diffusion actuator.

When the optimized input is the spatial integral of a diffusing field, a
plain ``a*sin(omega*t)`` perturbation at the boundary does not produce an
``a*sin(omega*t)`` perturbation at the map input.  The boundary signal has
to be motion-planned instead: we pick the boundary trace of an exact
space-time solution of the heat equation whose spatial integral is the
desired sinusoid.  The design reduces to two constants, an amplitude and a
phase, obtained from the phasor sum of the two travelling components of
that solution.

All functions here are pure and accept scalars or numpy arrays for the
(x, t) arguments.  The loops evaluate the signals over arrays of
``loop.CHUNK`` consecutive sample times, one chunk at a time, and read them
per step as Python floats.
"""
from __future__ import annotations

import math
import sys
from typing import NamedTuple

import numpy as np

__all__ = [
    "DitherParams",
    "DitherDesign",
    "IdentityReport",
    "design_dither",
    "dither_signal",
    "dither_field",
    "dither_envelope",
    "gradient_demod",
    "hessian_demod",
    "verify_integral_identity",
]

# Gauss-Legendre nodes over the field or one period: the integrands are analytic, so
# the quadrature error sits far below IDENTITY_TOL, the largest residual that passes.
QUADRATURE_NODES = 64
IDENTITY_TOL = 1e-6
# Input gate on the probe's size: past this exponent exp(L*sqrt(2*omega)) overflows a
# float; below it the field's exp(k*x) and the design's exp(q) stay finite.
MAX_EXPONENT = math.log(sys.float_info.max)


class DitherParams(NamedTuple):
    """Target perturbation: integral of the diffused field = a*sin(omega*t)."""

    a: float        # perturbation amplitude at the map input
    omega: float    # angular frequency, rad/s
    L: float        # actuator domain length

    def validate(self) -> None:
        if not (self.a >= 0.0 and math.isfinite(self.a)):
            raise ValueError(f"dither amplitude must be >= 0, got {self.a}")
        if not (self.omega > 0.0 and math.isfinite(self.omega)):
            raise ValueError(f"dither frequency must be > 0, got {self.omega}")
        if not (self.L > 0.0 and math.isfinite(self.L)):
            raise ValueError(f"domain length must be > 0, got {self.L}")
        exponent = self.L * math.sqrt(2.0 * self.omega)
        if exponent > MAX_EXPONENT:
            raise ValueError(f"domain length L = {self.L} and frequency omega = {self.omega} "
                             f"are out of range: the probe design's exp(L*sqrt(2*omega)) = "
                             f"exp({exponent:.6g}) overflows past exp({MAX_EXPONENT:.6g})")

    @property
    def period(self) -> float:
        return 2.0 * math.pi / self.omega


class DitherDesign(NamedTuple):
    """Computed boundary-signal constants for a given DitherParams."""

    params: DitherParams
    amplitude: float    # A, amplitude of the planned reference at x=0
    phase: float        # phi = -arg of the integrated-field phasor, rad, in (-pi, pi]


def _wavenumber(params: DitherParams) -> float:
    # spatial decay/oscillation rate of the travelling components
    return math.sqrt(params.omega / 2.0)


def design_dither(params: DitherParams) -> DitherDesign:
    """Compute the boundary-signal constants from the integrated-field phasor.

    Integrating the planned field gives a growing component e^q at phase
    q - pi/4 and a decaying component entering with a NEGATIVE amplitude
    -e^{-q} at phase -q - pi/4 (q = L*sqrt(omega/2)).  Their sum is the
    phasor P = e^q * Pt with the scaled phasor

        Pt = e^{j(q - pi/4)} - e^{-2q} * e^{j(-q - pi/4)},

    so A = 2*a*sqrt(omega) / (e^q * |Pt|) and phi = -arg(Pt), in (-pi, pi].
    As omega -> 0, |P| -> 2*L*sqrt(omega), so A tends to a/L.
    """
    params.validate()
    q = params.L * _wavenumber(params)
    quarter = math.pi / 4.0
    # built from math alone: loading cmath costs every CLI command ~0.3 MiB of memory
    grow, decay = q - quarter, -(q + quarter)
    scaled = (complex(math.cos(grow), math.sin(grow))
              - math.exp(-2.0 * q) * complex(math.cos(decay), math.sin(decay)))
    amplitude = 2.0 * params.a * math.sqrt(params.omega) / (math.exp(q) * abs(scaled))
    return DitherDesign(params=params, amplitude=amplitude,
                        phase=-math.atan2(scaled.imag, scaled.real))


def dither_field(design: DitherDesign, x, t):
    """Planned reference field: an exact heat-equation solution on [0, L].

    Sum of a growing and a decaying travelling wave; its trace at x=L is the
    boundary dither and its spatial integral over [0, L] is a*sin(omega*t).
    """
    k = _wavenumber(design.params)
    w = design.params.omega
    half_amp = 0.5 * design.amplitude
    arg = w * np.asarray(t, dtype=float) + design.phase
    kx = k * np.asarray(x, dtype=float)
    return half_amp * (np.exp(kx) * np.sin(arg + kx) + np.exp(-kx) * np.sin(arg - kx))


def dither_signal(design: DitherDesign, t):
    """Boundary dither: the planned field evaluated at x = L."""
    return dither_field(design, design.params.L, t)


def dither_envelope(design: DitherDesign) -> float:
    """Upper bound on |dither_signal|: (A/2)*(exp(kL) + exp(-kL))."""
    q = design.params.L * _wavenumber(design.params)
    return 0.5 * design.amplitude * (math.exp(q) + math.exp(-q))


def gradient_demod(params: DitherParams, t):
    """Demodulation signal multiplying the output to estimate the gradient."""
    s = np.sin(params.omega * np.asarray(t, dtype=float))
    s *= 2.0 / params.a         # in place: one run-length temporary fewer at peak memory
    return s


def hessian_demod(params: DitherParams, t):
    """Demodulation signal multiplying the output to estimate the curvature."""
    c = np.cos(2.0 * params.omega * np.asarray(t, dtype=float))
    c *= -8.0 / params.a**2
    return c


def gauss_legendre(n_nodes: int, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights scaled to [lo, hi]."""
    nodes, weights = np.polynomial.legendre.leggauss(n_nodes)
    half = 0.5 * (hi - lo)
    return lo + half * (nodes + 1.0), half * weights


class IdentityReport(NamedTuple):
    """Result of checking integral(field) == a*sin(omega*t) over samples."""

    max_residual: float
    passed: bool
    n_samples: int


def verify_integral_identity(design: DitherDesign, t_samples) -> IdentityReport:
    """Quadrature check that the planned field integrates to a*sin(omega*t).

    Uses ``QUADRATURE_NODES``-point Gauss-Legendre quadrature and passes when
    the largest residual is below ``IDENTITY_TOL``.  A failure indicates a
    bug in the design constants or the field formula.
    """
    t_samples = np.atleast_1d(np.asarray(t_samples, dtype=float))
    if t_samples.size == 0:
        raise ValueError("t_samples must be non-empty")
    p = design.params
    x, w = gauss_legendre(QUADRATURE_NODES, 0.0, p.L)
    integrals = w @ dither_field(design, x[:, None], t_samples[None, :])
    target = p.a * np.sin(p.omega * t_samples)
    max_residual = float(np.max(np.abs(integrals - target)))
    return IdentityReport(
        max_residual=max_residual,
        passed=max_residual < IDENTITY_TOL,
        n_samples=int(t_samples.size),
    )
