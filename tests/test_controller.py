"""Compensation controller tests.

The kernel oracle is a direct complex-arithmetic evaluation of
K_bar * (e^{sqrt(A_cl) x} + e^{-sqrt(A_cl) x}) / (e^{sqrt(A_cl) L} + e^{-sqrt(A_cl) L})
with the principal complex square root; the real cosine/cosh forms in the
implementation must agree with it to rounding.
"""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diffesc.analysis import to_target
from diffesc.controller import (
    ControllerState,
    ForbiddenGainError,
    check_gain,
    integrate_theta_hat,
    make_kernel,
    realtime_control,
)
from diffesc.filters import FirstOrderFilter
from diffesc.heat import Grid, integrate_profile


def gamma_complex(K_bar, L, x):
    root = np.sqrt(complex(K_bar * L))
    x = np.asarray(x, dtype=float)
    num = np.exp(root * x) + np.exp(-root * x)
    den = np.exp(root * L) + np.exp(-root * L)
    return K_bar * num / den


class TestCheckGain:
    def test_accepts_nominal_gain(self):
        check_gain(-0.4, 1.0)

    @pytest.mark.parametrize("kappa", range(11))
    def test_rejects_each_forbidden_value(self, kappa):
        value = -((2 * kappa + 1) ** 2) * math.pi**2 / 4.0
        with pytest.raises(ForbiddenGainError) as err:
            check_gain(value, 1.0)
        assert err.value.kappa == kappa

    def test_rejects_positive_gain(self):
        with pytest.raises(ForbiddenGainError):
            check_gain(1.0, 1.0)
        with pytest.raises(ForbiddenGainError):
            check_gain(0.0, 1.0)

    def test_scaling_with_length(self):
        L = 2.0
        first = -math.pi**2 / (4.0 * L**3)
        with pytest.raises(ForbiddenGainError):
            check_gain(first, L)
        check_gain(first * 1.5, L)

    def test_length_whose_cube_overflows_is_rejected(self):
        with pytest.raises(ForbiddenGainError, match="out of range"):
            check_gain(-0.4, 1e103)

    def test_tolerance_band(self):
        first = -math.pi**2 / 4.0
        with pytest.raises(ForbiddenGainError):
            check_gain(first + 1e-7, 1.0)
        check_gain(first * (1.0 + 1e-3), 1.0)

    @settings(max_examples=60, deadline=None)
    @given(
        L=st.floats(0.5, 3.0),
        kappa=st.integers(0, 10_000),
        offset=st.floats(-0.9, 0.9),
    )
    @example(L=0.5, kappa=10_000, offset=0.9)
    @example(L=3.0, kappa=10_000, offset=-0.9)
    def test_forbidden_band_property(self, L, kappa, offset):
        # |offset| <= 0.9 leaves room for the rounding of bad + offset*tol:
        # half an ulp of the singular gain is 0.045*tol at kappa = 10^4
        tol = 1e-6 * math.pi**2 / (4.0 * L**3)
        bad = -((2 * kappa + 1) ** 2) * math.pi**2 / (4.0 * L**3)
        with pytest.raises(ForbiddenGainError) as err:
            check_gain(bad + offset * tol, L)
        assert err.value.kappa == kappa
        check_gain(bad + 2.0 * tol, L)
        check_gain(bad - 2.0 * tol, L)

    @pytest.mark.parametrize("L", [0.1, 0.37, 1.0, 2.5, 3.0])
    def test_closed_form_matches_array_scan(self, L):
        # the array scan over kappa = 0..100 that the closed form replaced:
        # every gain gets the same decision and the same kappa, at and
        # around each band edge and between the bands
        unit = math.pi**2 / (4.0 * L**3)
        bad = -((2 * np.arange(101) + 1) ** 2) * math.pi**2 / (4.0 * L**3)
        tol = 1e-6 * math.pi**2 / (4.0 * L**3)
        edges = np.concatenate([bad - tol, bad + tol])
        gains = np.concatenate([
            edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
            *(bad + f * tol for f in (0.0, -0.5, 0.999999, -1.000001, 2.0, -10.0, 50.0)),
            -unit * np.linspace(0.01, 201.0**2, 4001),
        ])
        for K_bar in gains.tolist():
            hits = np.flatnonzero(np.abs(K_bar - bad) < tol)
            try:
                check_gain(K_bar, L)
                kappa = None
            except ForbiddenGainError as err:
                kappa = err.kappa
            assert kappa == (int(hits[0]) if hits.size else None), K_bar

    def test_singular_gain_beyond_kappa_100_rejected(self):
        with pytest.raises(ForbiddenGainError) as err:
            check_gain(-(301**2) * math.pi**2 / 4.0, 1.0)
        assert err.value.kappa == 150

    def test_invalid_length(self):
        with pytest.raises(ValueError):
            check_gain(-0.4, 0.0)


class TestKernel:
    def test_endpoint_values(self):
        kern = make_kernel(-0.4, 1.0)
        assert float(kern.gamma(1.0)) == pytest.approx(-0.4, abs=1e-15)
        lam = 0.4
        expected0 = -0.4 / math.cos(math.sqrt(lam))
        assert float(kern.gamma(0.0)) == pytest.approx(expected0, rel=1e-14)
        assert float(kern.g(1.0)) == 0.0
        assert float(kern.g(0.0)) == 0.5

    @pytest.mark.parametrize("K_bar", [-0.4, -1.7, -9.0])
    def test_matches_complex_arithmetic(self, K_bar):
        kern = make_kernel(K_bar, 1.0)
        xs = np.linspace(0.0, 1.0, 501)
        ref = gamma_complex(K_bar, 1.0, xs)
        assert np.max(np.abs(ref.imag)) < 1e-12
        assert np.max(np.abs(kern.gamma(xs) - ref.real)) < 1e-12

    def test_positive_gain_probe_matches_complex(self):
        kern = make_kernel(0.4, 1.0, check=False)
        xs = np.linspace(0.0, 1.0, 101)
        ref = gamma_complex(0.4, 1.0, xs)
        assert np.max(np.abs(kern.gamma(xs) - ref.real)) < 1e-12

    def test_near_singular_gain_warns(self):
        edge = -math.pi**2 / 4.0 * (1.0 + 4e-6)  # inside 10x band, outside reject band
        with pytest.warns(RuntimeWarning, match="conditioned"):
            make_kernel(edge, 1.0)

    def test_singular_normalization_rejected_even_unchecked(self):
        with pytest.raises(ForbiddenGainError):
            make_kernel(-math.pi**2 / 4.0, 1.0, check=False)


class TestControlLaws:
    # the averaged law U = K_bar * Z on the backstepping scalar that to_target computes
    grid = Grid(1.0, 101)
    kern = make_kernel(-0.4, 1.0)

    def control(self, vartheta, profile, grid=None, rule="auto"):
        grid = grid or self.grid
        return self.kern.K_bar * to_target(self.kern, vartheta, profile, grid, rule).Z

    def test_ideal_control_zero_field(self):
        assert self.control(0.7, np.zeros(101)) == pytest.approx(-0.4 * 0.7, abs=1e-15)

    def test_ideal_control_uniform_field(self):
        # integral of (1 - y^2)/2 over [0,1] is 1/3
        assert self.control(0.0, np.ones(101)) == pytest.approx(-0.4 / 3.0, abs=1e-12)

    def test_ideal_control_against_fine_quadrature(self):
        profile_fn = lambda x: np.sin(3 * x) + 0.2 * x**2 - 0.5 * x
        coarse = self.control(0.3, profile_fn(self.grid.nodes()))
        fine = Grid(1.0, 4001)
        ref = self.control(0.3, profile_fn(fine.nodes()), fine)
        assert coarse == pytest.approx(ref, abs=1e-8)

    def test_transform_scalar_quadrature_rule(self):
        z_simpson = to_target(self.kern, 0.0, np.ones(101), self.grid).Z
        z_trap = to_target(self.kern, 0.0, np.ones(101), self.grid, rule="trapezoid").Z
        assert z_simpson == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert z_trap == pytest.approx(1.0 / 3.0, abs=1e-4)


def make_state(c=10.0, dt=1e-3, K=0.2, theta_hat=0.0):
    return ControllerState(
        theta_hat=theta_hat,
        T_filter=FirstOrderFilter(c, dt),
        K=K,
        L=1.0,
    )


class TestRealtimeControl:
    def test_zero_estimates_decay_filter_state(self):
        state = make_state()
        state.T_filter.state = 1.0
        prev = 1.0
        for k in range(50):
            u = realtime_control(state, 0.0, 0.0, 0.0, 0.2 * math.sin(10.0 * k * 1e-3))
            assert abs(u) < abs(prev) or u == 0.0
            prev = u
        assert abs(prev) < math.exp(-10.0 * 49e-3) * 1.01

    def test_wide_open_filter_passes_bracket(self):
        state = make_state(c=1e6)
        G_hat, H_hat, Theta, t = 1.3, -2.0, 0.4, 0.21
        for _ in range(3):
            u = realtime_control(state, G_hat, H_hat, Theta, 0.2 * math.sin(10.0 * t))
        feedback = 1.0 * state.theta_hat - Theta + 0.2 * math.sin(10.0 * t)
        bracket = 0.2 * (G_hat + H_hat * feedback)
        assert u == pytest.approx(bracket, rel=1e-3)

    def test_frozen_average_inputs_match_average_control(self):
        # quasi-steady field: constant profile equal to the applied control;
        # the estimate is chosen so the measurable feedback term equals the
        # weighted field integral
        grid = Grid(1.0, 101)
        kern = make_kernel(-0.4, 1.0)
        H, K = -2.0, 0.2
        vartheta = 0.6
        u_profile = np.full(101, -0.25)
        t = 0.37
        weighted = integrate_profile(kern.g(grid.nodes()) * u_profile, grid.dx)
        Theta = 2.0 + vartheta + 0.2 * math.sin(10.0 * t)  # theta_star = 2
        theta_hat = weighted + Theta - 0.2 * math.sin(10.0 * t)  # L = 1
        state = make_state(c=1e7, theta_hat=theta_hat)
        for _ in range(3):
            u_rt = realtime_control(state, H * vartheta, H, Theta, 0.2 * math.sin(10.0 * t))
        # with exact averages the bracket reduces to K_bar * Z, K_bar = K*H
        u_avg = K * H * to_target(kern, vartheta, u_profile, grid).Z
        assert u_rt == pytest.approx(u_avg, rel=1e-3)


class TestIntegrator:
    def test_zero_input_freezes(self):
        state = make_state(theta_hat=1.2)
        integrate_theta_hat(state, 0.0, 1e-3)
        assert state.theta_hat == 1.2

    def test_unit_input_accumulates(self):
        state = make_state()
        for _ in range(1000):
            integrate_theta_hat(state, 1.0, 1e-3)
        assert state.theta_hat == pytest.approx(1.0, rel=1e-12)

    def test_exponential_input(self):
        state = make_state()
        dt = 1e-4
        for k in range(round(2.0 / dt)):
            integrate_theta_hat(state, math.exp(-k * dt), dt)
        assert state.theta_hat == pytest.approx(1.0 - math.exp(-2.0), abs=2e-4)

    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            integrate_theta_hat(make_state(), 1.0, 0.0)
