"""Probing-signal design tests.

The independent oracle is the arbitrary-precision phasor evaluation in
mpmath: the integrated field is (A / 2 sqrt(omega)) * Im{P e^{j(wt+phi)}}
with P = e^q e^{j(q-pi/4)} - e^{-q} e^{j(-q-pi/4)}, so the design constants
must satisfy A = 2 a sqrt(omega) / |P| and phi = -arg(P) (mod 2pi).  The
end-to-end oracle is quadrature of the field against a*sin(omega*t).
"""
import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from diffesc.dither import (
    MAX_EXPONENT,
    DitherParams,
    design_dither,
    dither_envelope,
    dither_field,
    dither_signal,
    gauss_legendre,
    gradient_demod,
    hessian_demod,
    verify_integral_identity,
)


def phasor_oracle(a, omega, L, dps=60):
    """High-precision design constants from the complex phasor sum."""
    with mp.workdps(dps):
        a_, omega_, L_ = mp.mpf(a), mp.mpf(omega), mp.mpf(L)
        q = L_ * mp.sqrt(omega_ / 2)
        quarter = mp.pi / 4
        P = mp.e**q * mp.expjpi(0) * mp.exp(1j * (q - quarter)) \
            - mp.e**-q * mp.exp(1j * (-q - quarter))
        return float(2 * a_ * mp.sqrt(omega_) / mp.fabs(P)), float(-mp.arg(P))


CASES = [(0.2, 10.0, 1.0), (0.2, 10.0, 2.0), (0.1, 25.0, 1.0), (0.7, 3.0, 0.5)]


@pytest.mark.parametrize("a,omega,L", CASES)
def test_design_matches_phasor_oracle(a, omega, L):
    d = design_dither(DitherParams(a, omega, L))
    A_ref, phi_ref = phasor_oracle(a, omega, L)
    assert d.amplitude == pytest.approx(A_ref, abs=1e-12)
    # phases agree modulo 2*pi
    assert abs(np.exp(1j * (d.phase - phi_ref)) - 1.0) < 1e-12


def test_design_matches_phasor_oracle_on_log_grid():
    # 25 x 25 log grid over omega in [1e-3, 1e3] and L in [0.01, 30]; at small q
    # the squared-magnitude form e^{2q} + e^{-2q} - 2 cos 2q loses ~1e-10 to
    # cancellation, and the 5 cells past MAX_EXPONENT must be rejected
    in_range = beyond = 0
    for omega in np.logspace(-3.0, 3.0, 25).tolist():
        for L in np.logspace(-2.0, math.log10(30.0), 25).tolist():
            p = DitherParams(0.2, omega, L)
            if L * math.sqrt(2.0 * omega) > MAX_EXPONENT:
                beyond += 1
                with pytest.raises(ValueError, match="out of range"):
                    design_dither(p)
                continue
            in_range += 1
            d = design_dither(p)
            A_ref, phi_ref = phasor_oracle(p.a, omega, L)
            assert abs(d.amplitude / A_ref - 1.0) <= 1e-12, (omega, L)
            assert abs(np.exp(1j * (d.phase - phi_ref)) - 1.0) <= 1e-12, (omega, L)
            assert -math.pi < d.phase <= math.pi
    assert (in_range, beyond) == (620, 5)


def cmath_design(p):
    """A and phi with the phasor built by cmath, the form the design must reproduce
    bit for bit when it builds the same phasor from math alone."""
    q = p.L * math.sqrt(p.omega / 2.0)
    quarter = math.pi / 4.0
    scaled = cmath.exp(1j * (q - quarter)) - math.exp(-2.0 * q) * cmath.exp(-1j * (q + quarter))
    return 2.0 * p.a * math.sqrt(p.omega) / (math.exp(q) * abs(scaled)), -cmath.phase(scaled)


def test_design_bit_equal_to_cmath_phasor():
    # the 25 x 25 log grid at a = 0.2, then 5000 seeded draws over the same ranges
    cells = [(0.2, omega, L) for omega in np.logspace(-3.0, 3.0, 25).tolist()
             for L in np.logspace(-2.0, math.log10(30.0), 25).tolist()]
    rng = np.random.default_rng(0)
    cells += zip(rng.uniform(0.01, 0.5, 5000).tolist(),
                 (10.0 ** rng.uniform(-3.0, 3.0, 5000)).tolist(),
                 (10.0 ** rng.uniform(-2.0, math.log10(30.0), 5000)).tolist())
    checked = 0
    for a, omega, L in cells:
        if L * math.sqrt(2.0 * omega) > MAX_EXPONENT:
            continue
        p = DitherParams(a, omega, L)
        d = design_dither(p)
        assert (d.amplitude, d.phase) == cmath_design(p), (a, omega, L)
        checked += 1
    assert checked == 5604          # 620 grid cells and 4984 draws in range


def test_design_reference_values():
    # frozen from the phasor oracle at the headline configuration
    d = design_dither(DitherParams(0.2, 10.0, 1.0))
    assert d.amplitude == pytest.approx(0.13481635708410036, abs=1e-12)
    assert d.phase == pytest.approx(-1.43960553976457, abs=1e-12)


@pytest.mark.parametrize("a,omega,L", CASES)
def test_integral_identity(a, omega, L):
    p = DitherParams(a, omega, L)
    d = design_dither(p)
    ts = np.linspace(0.0, p.period, 200, endpoint=False)
    report = verify_integral_identity(d, ts)
    assert report.passed
    assert report.max_residual < 1e-12 * max(1.0, a)


@settings(max_examples=60, deadline=None)
@given(a=st.floats(1e-3, 5.0), omega=st.floats(0.1, 200.0), L=st.floats(0.1, 3.0))
def test_integral_identity_property(a, omega, L):
    p = DitherParams(a, omega, L)
    ts = np.linspace(0.0, p.period, 64, endpoint=False)
    report = verify_integral_identity(design_dither(p), ts)
    assert report.max_residual < 1e-12 * a


def test_integral_identity_mpmath_quadrature():
    # independent adaptive quadrature, no Gauss-Legendre involved
    p = DitherParams(0.2, 10.0, 1.0)
    d = design_dither(p)
    with mp.workdps(40):
        k = mp.sqrt(mp.mpf(p.omega) / 2)
        for t in (0.0, 0.2337, 0.41):
            arg = p.omega * t + d.phase
            f = lambda x: mp.mpf(d.amplitude) / 2 * (
                mp.e**(k * x) * mp.sin(arg + k * x) + mp.e**(-k * x) * mp.sin(arg - k * x)
            )
            integral = mp.quad(f, [0, p.L])
            assert abs(float(integral - p.a * mp.sin(mp.mpf(p.omega) * t))) < 1e-12


def test_perturbed_amplitude_breaks_identity():
    # the integral is linear in the amplitude: +10% gives a 0.1*a*|sin| residual
    p = DitherParams(0.2, 10.0, 1.0)
    d = design_dither(p)
    bad = d._replace(amplitude=1.1 * d.amplitude)
    ts = np.linspace(0.0, p.period, 400, endpoint=False)
    report = verify_integral_identity(bad, ts)
    assert not report.passed
    assert 0.099 * p.a < report.max_residual < 0.101 * p.a


def test_zero_amplitude_design_is_degenerate():
    p = DitherParams(0.0, 10.0, 1.0)
    d = design_dither(p)
    assert d.amplitude == 0.0
    report = verify_integral_identity(d, np.linspace(0, p.period, 50))
    assert report.passed and report.max_residual == 0.0


def test_amplitude_linear_in_a_and_phase_independent():
    p1 = design_dither(DitherParams(0.2, 10.0, 1.0))
    p2 = design_dither(DitherParams(0.4, 10.0, 1.0))
    assert p2.amplitude == pytest.approx(2.0 * p1.amplitude, rel=1e-14)
    assert p2.phase == p1.phase


def test_static_limit():
    # omega -> 0: |P| ~ 2 L sqrt(omega), so the designed amplitude tends to a/L
    p = DitherParams(0.3, 1e-8, 2.0)
    d = design_dither(p)
    assert d.amplitude == pytest.approx(p.a / p.L, rel=1e-6)


def test_param_validation():
    with pytest.raises(ValueError):
        DitherParams(-0.1, 10.0, 1.0).validate()
    with pytest.raises(ValueError):
        DitherParams(0.2, 0.0, 1.0).validate()
    with pytest.raises(ValueError):
        DitherParams(0.2, 10.0, -1.0).validate()
    with pytest.raises(ValueError):
        design_dither(DitherParams(0.2, math.inf, 1.0))


def test_boundary_trace_and_center_value():
    p = DitherParams(0.2, 10.0, 1.0)
    d = design_dither(p)
    ts = np.linspace(0.0, 2.0, 57)
    # trace at x=L is bit-identical to the boundary signal
    assert np.array_equal(dither_field(d, p.L, ts), dither_signal(d, ts))
    # at x=0 the two travelling components coincide
    expected = d.amplitude * np.sin(p.omega * ts + d.phase)
    np.testing.assert_allclose(dither_field(d, 0.0, ts), expected, atol=1e-15)


def test_field_is_even_and_flux_free_at_origin():
    p = DitherParams(0.2, 10.0, 1.0)
    d = design_dither(p)
    t = 0.77
    for h in (1e-2, 1e-3):
        assert abs(dither_field(d, h, t) - dither_field(d, -h, t)) < 1e-14
    # one-sided derivative estimate converges to zero; the usual O(h^2) term
    # cancels by evenness, leaving O(h^3)
    res = []
    for h in (2e-2, 1e-2, 5e-3):
        der = (-3 * dither_field(d, 0.0, t) + 4 * dither_field(d, h, t)
               - dither_field(d, 2 * h, t)) / (2 * h)
        res.append(abs(der))
    assert res[0] > res[1] > res[2]
    assert res[0] / res[2] == pytest.approx(64.0, rel=0.3)


def test_field_satisfies_heat_equation():
    # central-difference residual shrinks at second order under refinement
    p = DitherParams(0.2, 10.0, 1.0)
    d = design_dither(p)
    x0, t0 = 0.4, 0.9

    def residual(h):
        ddt = (dither_field(d, x0, t0 + h) - dither_field(d, x0, t0 - h)) / (2 * h)
        ddxx = (dither_field(d, x0 - h, t0) - 2 * dither_field(d, x0, t0)
                + dither_field(d, x0 + h, t0)) / (h * h)
        return abs(ddt - ddxx)

    r1, r2 = residual(1e-2), residual(5e-3)
    assert r1 / r2 == pytest.approx(4.0, rel=0.2)


def test_signal_periodicity_and_envelope():
    p = DitherParams(0.2, 10.0, 1.0)
    d = design_dither(p)
    ts = np.linspace(0.0, p.period, 113)
    np.testing.assert_allclose(dither_signal(d, ts + p.period), dither_signal(d, ts),
                               atol=1e-13)
    env = dither_envelope(d)
    dense = np.linspace(0.0, p.period, 5000)
    assert np.max(np.abs(dither_signal(d, dense))) <= env + 1e-12


def test_demodulation_signals():
    p = DitherParams(0.2, 10.0, 1.0)
    assert gradient_demod(p, 0.0) == 0.0
    assert gradient_demod(p, math.pi / (2 * p.omega)) == pytest.approx(10.0, rel=1e-12)
    assert hessian_demod(p, 0.0) == pytest.approx(-200.0, rel=1e-12)
    assert abs(hessian_demod(p, math.pi / (4 * p.omega))) < 1e-10
    # period means vanish; the curvature demod also has period pi/omega
    t, w = gauss_legendre(64, 0.0, p.period)
    assert abs(w @ gradient_demod(p, t)) / p.period < 1e-10
    assert abs(w @ hessian_demod(p, t)) / p.period < 1e-10
    ts = np.linspace(0.0, 1.0, 31)
    np.testing.assert_allclose(hessian_demod(p, ts + math.pi / p.omega),
                               hessian_demod(p, ts), atol=1e-10)


def test_phase_continuous_where_the_phasor_real_part_changes_sign():
    # at omega = 10 the real part of the phasor changes sign near L = 1.0577,
    # where phi passes through -pi/2; the phase has no branch there
    def real_part(L):
        q = L * math.sqrt(5.0)
        return math.cos(q - math.pi / 4) - math.exp(-2 * q) * math.cos(q + math.pi / 4)

    L_star = brentq(real_part, 0.9, 1.3, xtol=1e-14)
    assert L_star == pytest.approx(1.0577, abs=1e-4)
    for L in (L_star - 1e-7, L_star, L_star + 1e-7):
        phase = design_dither(DitherParams(0.2, 10.0, L)).phase
        assert phase == pytest.approx(-math.pi / 2, abs=1e-6)
    # phi falls at d(phi)/dL ~ -sqrt(5): steps of 1e-3 in L move it by ~2.2e-3
    phases = [design_dither(DitherParams(0.2, 10.0, L)).phase
              for L in np.linspace(0.9, 1.3, 401).tolist()]
    assert np.max(np.abs(np.diff(phases))) < 0.01


def test_identity_report_validation():
    d = design_dither(DitherParams(0.2, 10.0, 1.0))
    with pytest.raises(ValueError):
        verify_integral_identity(d, [])
