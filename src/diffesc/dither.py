"""Probing-signal design for a diffusion actuator.

When the optimized input is the spatial integral of a diffusing field, a
plain ``a*sin(omega*t)`` perturbation at the boundary does not produce an
``a*sin(omega*t)`` perturbation at the map input.  The boundary signal has
to be motion-planned instead: we pick the boundary trace of an exact
space-time solution of the heat equation whose spatial integral is the
desired sinusoid.  The design reduces to two constants, an amplitude and a
phase.  The two travelling components of that solution integrate to one
phasor proportional to sinh(q(1+j)), q = L*sqrt(omega/2), so both constants
follow from the real and imaginary parts sinh(q)cos(q) and cosh(q)sin(q).

All functions here are pure and accept scalars or numpy arrays for the
(x, t) arguments.  The loops evaluate the signals over arrays of
``loop.CHUNK`` consecutive sample times, one chunk at a time, and read them
per step as Python floats.
"""
from __future__ import annotations

import math
import sys
from functools import lru_cache
from typing import NamedTuple

import numpy as np

__all__ = [
    "DitherParams",
    "DitherDesign",
    "design_dither",
    "dither_signal",
    "dither_field",
    "field_integral",
    "dither_envelope",
    "gradient_demod",
    "hessian_demod",
]

# Gauss-Legendre nodes over the field: it is analytic in x, so the quadrature error of
# its integral sits at the rounding floor.
QUADRATURE_NODES = 64
# Input gate on the probe's size: past this exponent exp(L*sqrt(2*omega)) overflows a
# float; below it the field's exp(k*x) and the design's sinh(q) and cosh(q) stay finite.
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
        if not math.isfinite(self.period):
            raise ValueError(f"dither frequency {self.omega:.3g} is out of range: its period "
                             f"2*pi/omega overflows")
        if not (self.L > 0.0 and math.isfinite(self.L)):
            raise ValueError(f"domain length must be > 0, got {self.L}")
        if not self.L * _wavenumber(self) > 0.0:
            raise ValueError(f"domain length L = {self.L} and frequency omega = {self.omega} "
                             f"are out of range: q = L*sqrt(omega/2) underflows to 0")
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
    phasor P = e^q * Pt with

        Pt = e^{j(q - pi/4)} - e^{-2q} * e^{j(-q - pi/4)}
           = 2 e^{-q} * e^{-j pi/4} * sinh(q(1+j)),

    so |P| = 2|sinh(q(1+j))| and, with re + j*im = sinh(q(1+j)) =
    sinh(q)cos(q) + j*cosh(q)sin(q),

        A = a*sqrt(omega) / hypot(re, im),
        phi = -arg(e^{-j pi/4} * sinh(q(1+j))) = -atan2(im - re, re + im),

    phi in (-pi, pi].  No two nearly equal phasors are subtracted, so A keeps
    its relative accuracy down to q -> 0, where re = im = q and A tends to
    a/L; phi tends to -q^2/3 there and keeps its absolute accuracy (im - re,
    about 2q^3/3, loses relative digits).  A design
    whose boundary dither would overflow (``dither_envelope`` not finite, as
    for a/L beyond the float range) is a ValueError.
    """
    params.validate()
    q = params.L * _wavenumber(params)
    re, im = math.sinh(q) * math.cos(q), math.cosh(q) * math.sin(q)
    amplitude = params.a * math.sqrt(params.omega) / math.hypot(re, im)
    design = DitherDesign(params=params, amplitude=amplitude,
                          phase=-math.atan2(im - re, re + im))
    if not math.isfinite(dither_envelope(design)):
        raise ValueError(f"dither amplitude a = {params.a:.3g} is out of range for L = "
                         f"{params.L:.3g} and omega = {params.omega:.3g}: the boundary "
                         f"dither overflows")
    return design


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


@lru_cache(maxsize=8)
def _nodes(L: float) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``QUADRATURE_NODES`` Gauss-Legendre nodes and weights scaled to [0, L]."""
    nodes, weights = np.polynomial.legendre.leggauss(QUADRATURE_NODES)
    x, w = 0.5 * L * (nodes + 1.0), 0.5 * L * weights
    x.flags.writeable = w.flags.writeable = False
    return x, w


def field_integral(design: DitherDesign, t):
    """Gauss-Legendre integral of ``dither_field`` over [0, L] at each time of ``t``.

    ``t`` is a scalar or an array, and the result has its shape: one (64, t.size)
    product, of which a scalar ``t`` is the one-column case.  The design
    is right when this equals a*sin(omega*t) to rounding; the residual of
    that identity is what ``diffesc design-dither`` prints.
    """
    x, w = _nodes(design.params.L)
    t = np.asarray(t, dtype=float)
    return (w @ dither_field(design, x[:, None], t.ravel())).reshape(t.shape)


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
