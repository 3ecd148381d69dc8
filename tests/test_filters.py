"""Filter and estimator tests.

The exact discretization makes the discrete step responses closed-form:
low-pass output after k samples of a unit step is 1 - exp(-c k dt), and the
washout u - low-pass(u) is exp(-c k dt).  Averaging identities are checked
by quadrature.
"""
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from diffesc.dither import DitherParams, gradient_demod, hessian_demod
from diffesc.filters import FirstOrderFilter, estimate_gradient, estimate_hessian
from verification import period_average_estimates


def test_low_pass_step_response_exact():
    c, dt = 3.7, 0.01
    f = FirstOrderFilter(c, dt)
    for k in range(1, 400):
        out = f.step(1.0)
        assert out == pytest.approx(1.0 - math.exp(-c * k * dt), abs=1e-12)


def test_high_pass_rejects_dc_exactly():
    c, dt = 2.0, 0.02
    f = FirstOrderFilter(c, dt)
    for k in range(1, 400):
        out = 5.0 - f.step(5.0)
        assert out == pytest.approx(5.0 * math.exp(-c * k * dt), abs=1e-11)
    assert abs(out) < 1e-6


def test_low_pass_frequency_response_at_corner():
    # driving at the corner frequency: gain 1/sqrt(2), phase -pi/4
    c = omega = 10.0
    dt = 1e-4
    f = FirstOrderFilter(c, dt)
    ts = np.arange(0.0, 6.0, dt)
    out = np.array([f.step(math.sin(omega * t)) for t in ts])
    sel = ts > 4.0
    basis = np.column_stack([np.sin(omega * ts[sel]), np.cos(omega * ts[sel])])
    p, q = np.linalg.lstsq(basis, out[sel], rcond=None)[0]
    amp, phase = math.hypot(p, q), math.atan2(q, p)
    assert amp == pytest.approx(1.0 / math.sqrt(2.0), rel=0.02)
    assert phase == pytest.approx(-math.pi / 4.0, rel=0.02)


def test_filters_are_linear():
    rng = np.random.default_rng(11)
    u = rng.standard_normal(300)
    v = rng.standard_normal(300)
    a, b = 1.7, -0.6
    f1, f2, f3 = (FirstOrderFilter(4.0, 0.01) for _ in range(3))
    for uu, vv in zip(u, v):
        combined = f3.step(a * uu + b * vv)
        assert combined == pytest.approx(a * f1.step(uu) + b * f2.step(vv), abs=1e-12)


@given(c=st.floats(1e-3, 1e3), dt=st.floats(1e-5, 1.0),
       u=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50))
def test_washout_matches_its_zoh_recurrence_bit_for_bit(c, dt, u):
    # the washout s/(s+c) written out: state += gain*(u - state), output u - state
    f = FirstOrderFilter(c, dt)
    gain, state = 1.0 - math.exp(-c * dt), 0.0
    for uu in u:
        state += gain * (uu - state)
        assert uu - f.step(uu) == uu - state


def test_filter_validation_and_reset():
    with pytest.raises(ValueError):
        FirstOrderFilter(-1.0, 0.01)
    with pytest.raises(ValueError):
        FirstOrderFilter(1.0, 0.0)
    f = FirstOrderFilter(1.0, 0.01)
    f.state = 0.3
    f.step(1.0)
    f.state = 0.0
    assert f.step(1.0) == pytest.approx(1.0 - math.exp(-0.01), abs=1e-15)


def test_gradient_estimate_of_constant_output_averages_out():
    # constant map output: once the washout settles, the demodulated signal
    # is zero-mean over a period
    p = DitherParams(0.2, 10.0, 1.0)
    dt = 1e-3
    washout = FirstOrderFilter(1.0, dt)
    period_samples = round(p.period / dt)
    demod = gradient_demod(p, np.arange(12_000) * dt)
    values = []
    for k in range(12_000):
        values.append(estimate_gradient(5.0 - washout.step(5.0), demod.item(k)))
    late = np.array(values[-period_samples:])
    assert abs(late.mean()) < 1e-3


def test_hessian_estimate_of_zero_output_is_zero():
    p = DitherParams(0.2, 10.0, 1.0)
    smoother = FirstOrderFilter(1.0, 1e-3)
    for demod in hessian_demod(p, np.arange(100) * 1e-3):
        out = estimate_hessian(0.0, demod.item(), smoother)
    assert out == 0.0


@pytest.mark.parametrize("vartheta", [0.0, 0.3, -1.2, 2.5])
def test_period_average_identities(vartheta):
    # the averaging backbone: mean of demodulated output over one period
    # returns (H*vartheta, H) exactly for a frozen tracking error
    p = DitherParams(0.2, 10.0, 1.0)
    H = -2.0
    G_av, H_av = period_average_estimates(p, y_star=5.0, H=H, vartheta=vartheta)
    assert G_av == pytest.approx(H * vartheta, abs=1e-8)
    assert H_av == pytest.approx(H, abs=1e-8)


def test_period_average_other_parameters():
    p = DitherParams(0.05, 40.0, 2.0)
    G_av, H_av = period_average_estimates(p, y_star=-1.0, H=-0.7, vartheta=0.9)
    assert G_av == pytest.approx(-0.7 * 0.9, abs=1e-8)
    assert H_av == pytest.approx(-0.7, abs=1e-8)
