"""Transformation, decay-fit, and scaling-analysis tests."""
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from diffesc import analysis
from diffesc.analysis import (
    TargetState,
    _line_fit,
    fit_decay,
    from_target,
    late_time_residuals,
    residual_scaling,
    target_residuals,
    to_target,
)
from diffesc.controller import make_kernel
from diffesc.heat import Grid, SolverConfig
from diffesc.loop import ScenarioConfig, StaticMap, TrajectoryRecord, run_average_system

KERNEL = make_kernel(-0.4, 1.0)
GRID = Grid(1.0, 101)


def smooth_profile(x):
    return np.sin(3 * x) + 0.2 * x**2 - 0.5 * x


class TestTransform:
    def test_zero_field(self):
        ts = to_target(KERNEL, 1.0, np.zeros(GRID.n), GRID)
        assert ts.Z == pytest.approx(1.0, abs=1e-15)
        np.testing.assert_allclose(ts.w, -KERNEL.gamma(GRID.nodes()), atol=1e-15)

    def test_kernel_aligned_field_maps_to_zero(self):
        # u = gamma * Z0 with the matching scalar error gives w identically 0
        x = GRID.nodes()
        Z0 = 1.4
        u = KERNEL.gamma(x) * Z0
        vartheta, _ = from_target(KERNEL, TargetState(Z=Z0, w=np.zeros(GRID.n)), GRID)
        ts = to_target(KERNEL, vartheta, u, GRID)
        assert ts.Z == pytest.approx(Z0, abs=1e-12)
        assert np.max(np.abs(ts.w)) < 1e-12

    def test_round_trip_forward_then_back(self):
        u = smooth_profile(GRID.nodes())
        ts = to_target(KERNEL, 0.8, u, GRID)
        vartheta, u_back = from_target(KERNEL, ts, GRID)
        assert vartheta == pytest.approx(0.8, abs=1e-10)
        assert np.max(np.abs(u_back - u)) < 1e-10

    def test_round_trip_back_then_forward(self):
        w = 0.3 * np.cos(2 * GRID.nodes())
        target = TargetState(Z=0.9, w=w)
        vartheta, u = from_target(KERNEL, target, GRID)
        ts = to_target(KERNEL, vartheta, u, GRID)
        assert ts.Z == pytest.approx(0.9, abs=1e-10)
        assert np.max(np.abs(ts.w - w)) < 1e-10

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(3, 160),
        L=st.floats(0.5, 2.0),
        gain_fraction=st.floats(0.01, 30.0),
        vartheta=st.floats(-3.0, 3.0),
        data=st.data(),
    )
    def test_round_trip_property(self, n, L, gain_fraction, vartheta, data):
        # K_bar ranges over multiples of the first singular value, odd and
        # even node counts select Simpson and trapezoid weights
        K_bar = -gain_fraction * math.pi**2 / (4.0 * L**3)
        # keep 1e-3 first-singular-value units clear of the singular gains
        # -(2k+1)^2 pi^2/(4 L^3), k <= 2 for gain_fraction <= 30
        assume(min(abs(gain_fraction - (2 * k + 1) ** 2) for k in range(3)) >= 1e-3)
        kernel = make_kernel(K_bar, L)
        grid = Grid(L, n)
        u = data.draw(arrays(np.float64, n, elements=st.floats(-2.0, 2.0)))
        ts = to_target(kernel, vartheta, u, grid)
        back_vartheta, back_u = from_target(kernel, ts, grid)
        gamma_max = float(np.max(np.abs(kernel.gamma(grid.nodes()))))
        scale = 1.0 + abs(ts.Z) * gamma_max
        assert back_vartheta == pytest.approx(vartheta, abs=1e-13 * scale)
        assert np.max(np.abs(back_u - u)) <= 1e-13 * scale
        # a stack of profiles, one vartheta each, transforms as its rows do
        rows = data.draw(st.integers(1, 4))
        stack = np.vstack([u, data.draw(arrays(np.float64, (rows, n),
                                                elements=st.floats(-2.0, 2.0)))])
        varthetas = np.append(vartheta, data.draw(arrays(np.float64, rows,
                                                         elements=st.floats(-3.0, 3.0))))
        both = to_target(kernel, varthetas, stack, grid)
        assert both.Z.shape == (rows + 1,) and both.w.shape == stack.shape
        for vth, profile, Z, w in zip(varthetas, stack, both.Z, both.w):
            one = to_target(kernel, vth, profile, grid)
            scale = 1.0 + abs(one.Z) * gamma_max
            assert abs(Z - one.Z) <= 1e-13 * scale
            assert np.max(np.abs(w - one.w)) <= 1e-13 * scale

    def test_zero_target_maps_to_origin(self):
        vartheta, u = from_target(KERNEL, TargetState(Z=0.0, w=np.zeros(GRID.n)), GRID)
        assert vartheta == 0.0
        assert np.all(u == 0.0)

    def test_inverse_offset_against_high_precision_quadrature(self):
        # vartheta for (Z=1, w=0) is 1 - integral of g*gamma
        vartheta, _ = from_target(KERNEL, TargetState(Z=1.0, w=np.zeros(GRID.n)), GRID)
        lam = math.sqrt(0.4)
        with mp.workdps(40):
            integral = mp.quad(
                lambda y: mp.mpf(0.5) * (1 - y**2) * (-0.4) * mp.cos(lam * y) / mp.cos(lam),
                [0, 1],
            )
            expected = float(1 - integral)
        assert vartheta == pytest.approx(expected, abs=1e-9)

    def test_discrete_transform_converges_at_second_order(self):
        # trapezoid-rule transform against the continuum value of Z
        with mp.workdps(40):
            z_exact = 0.8 + float(mp.quad(
                lambda y: mp.mpf(0.5) * (1 - y**2) * (mp.sin(3 * y) + mp.mpf("0.2") * y**2
                                                      - mp.mpf("0.5") * y),
                [0, 1],
            ))
        errs, dxs = [], []
        for n in (26, 51, 101):
            g = Grid(1.0, n)
            ts = to_target(KERNEL, 0.8, smooth_profile(g.nodes()), g, rule="trapezoid")
            errs.append(abs(ts.Z - z_exact))
            dxs.append(g.dx)
        slope = np.polyfit(np.log(dxs), np.log(errs), 1)[0]
        assert 1.8 <= slope <= 2.2


# fit_decay and residual_scaling on inputs built from the math module, printed as
# float.hex; run in fresh interpreters that pick other BLAS kernels and SIMD paths
FIT_PROBE = """
import json, math
import numpy as np
from diffesc.analysis import fit_decay, residual_scaling
t = [0.01 * i for i in range(2001)]
decay = fit_decay(np.array(t), np.array([3.0 * math.exp(-0.8 * s + 0.05 * math.sin(7.0 * s))
                                         for s in t]))
scaling = residual_scaling({a: (1.3 * a * a * (1.0 + 0.1 * math.sin(9.0 * a)),
                                0.7 * a * (1.0 + 0.1 * math.cos(5.0 * a)))
                            for a in (0.3, 0.2, 0.1, 0.05)})
print(json.dumps([float(v).hex() for v in (*decay[:3], *scaling[:4])]))
"""
KERNEL_ENVIRONMENTS = ({}, {"OPENBLAS_CORETYPE": "Prescott"},
                       {"NPY_DISABLE_CPU_FEATURES": "AVX512_SPR,AVX512_ICL,X86_V4"})


class TestLineFit:
    @settings(max_examples=300, deadline=None)
    @given(centre=st.floats(-10.0, 10.0), spread=st.floats(0.5, 10.0), data=st.data())
    def test_agrees_with_polyfit_on_well_conditioned_data(self, centre, spread, data):
        n = data.draw(st.integers(3, 40))
        u = data.draw(arrays(np.float64, n - 2, elements=st.floats(-1.0, 1.0)))
        x = centre + spread * np.concatenate([[-1.0, 1.0], u])
        y = data.draw(arrays(np.float64, n, elements=st.just(0.0) | st.floats(1e-6, 1e6)
                             | st.floats(-1e6, -1e-6)))
        slope, intercept, _ = _line_fit(x, y)
        ref_slope, ref_intercept = np.polyfit(x, y, 1)
        # rounding of the sums scales with n, the conditioning max|x|/std(x) and max|y|
        cond = np.max(np.abs(x)) / np.std(x)
        scale = 8.0 * n * np.finfo(float).eps * cond * np.max(np.abs(y))
        assert abs(slope - ref_slope) <= scale / np.std(x)
        assert abs(intercept - ref_intercept) <= scale * cond

    @given(centre=st.integers(-1000, 1000), slope=st.integers(-1000, 1000),
           intercept=st.integers(-10**6, 10**6),
           offsets=st.lists(st.integers(1, 1000), min_size=1, max_size=20))
    def test_recovers_an_exact_line(self, centre, slope, intercept, offsets):
        # points in pairs about an integer centre: every mean, deviation and sum is exact
        x = np.array([centre] + [centre + s * d for d in offsets for s in (-1, 1)], dtype=float)
        assert _line_fit(x, slope * x + intercept) == (slope, intercept, 1.0)

    def test_bits_do_not_depend_on_the_blas_kernel_or_simd_path(self):
        # a LAPACK solve's last bits follow the BLAS kernel (np.polyfit's moved under
        # OPENBLAS_CORETYPE=Prescott); fixed-order sums give the same bits everywhere
        base = {**os.environ, "PYTHONPATH": str(Path(analysis.__file__).parents[1])}
        outputs = [subprocess.run([sys.executable, "-c", FIT_PROBE], capture_output=True,
                                  text=True, check=True, env={**base, **extra}).stdout
                   for extra in KERNEL_ENVIRONMENTS]
        assert len(json.loads(outputs[0])) == 7
        assert outputs[1:] == outputs[:1] * 2


class TestDecayFit:
    def test_recovers_exact_exponential(self):
        t = np.linspace(0.0, 10.0, 400)
        omega = 3.0 * np.exp(-0.5 * t)
        fit = fit_decay(t, omega)
        assert not fit.degenerate
        assert fit.nu_hat == pytest.approx(0.5, abs=1e-6)
        assert fit.eta_hat * omega[0] == pytest.approx(3.0, abs=1e-6)
        assert fit.r_squared > 1.0 - 1e-12

    def test_growth_gives_negative_rate(self):
        t = np.linspace(0.0, 5.0, 200)
        fit = fit_decay(t, 0.1 * np.exp(0.8 * t))
        assert fit.nu_hat == pytest.approx(-0.8, abs=1e-6)

    def test_floor_values_excluded_with_note(self):
        t = np.linspace(0.0, 10.0, 100)
        omega = 3.0 * np.exp(-0.5 * t)
        omega[-5:] = 0.0
        fit = fit_decay(t, omega)
        assert not fit.degenerate
        assert "excluded 5" in fit.note
        assert fit.nu_hat == pytest.approx(0.5, abs=1e-6)

    def test_degenerate_when_all_floor(self):
        t = np.linspace(0.0, 1.0, 50)
        fit = fit_decay(t, np.zeros(50))
        assert fit.degenerate

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_decay(np.arange(3.0), np.arange(2.0))
        with pytest.raises(ValueError):
            fit_decay(np.arange(0.0), np.arange(0.0))
        # a record of fewer than 3 samples is valid input with a degenerate fit
        for n in (1, 2):
            fit = fit_decay(np.arange(float(n)), np.ones(n))
            assert fit.degenerate and math.isnan(fit.nu_hat)

    def test_residual_csv_export(self, tmp_path):
        from diffesc.analysis import save_fit_residuals_csv

        # one row per fitted sample: over [500, 1000], 3*exp(-0.8t) falls to the rounding
        # floor at t = 807 and on to subnormals, which the fit leaves out (615 of 1001 kept)
        for t, rate in ((np.linspace(0.0, 10.0, 200), 0.5),
                        (np.linspace(0.0, 1000.0, 2001), 0.8)):
            omega = 3.0 * np.exp(-rate * t)
            fit = fit_decay(t, omega)
            path = tmp_path / f"residuals_{rate}.csv"
            save_fit_residuals_csv(t, omega, fit, path)
            assert path.read_text().splitlines()[0] == "t,log_value,fit,residual"
            data = np.loadtxt(path, delimiter=",", skiprows=1)
            assert data.shape[0] == fit.n_points
            assert np.max(np.abs(data[:, 3])) < 1e-6


@pytest.fixture(scope="module")
def short_average_run():
    cfg = ScenarioConfig(
        map=StaticMap(5.0, 2.0, -2.0),
        a=0.2,
        omega=10.0,
        K=0.2,
        c=10.0,
        solver=SolverConfig(dt=1e-3),
        grid=Grid(1.0, 101),
        T_final=10.0,
        record_every=10,
    )
    return run_average_system(cfg, initial_vartheta=1.0)


class TestTargetResiduals:
    def test_boundary_exact_and_scalar_small(self, short_average_run):
        res = target_residuals(short_average_run, KERNEL, t_min=1.0)
        assert not res.inconclusive
        assert res.boundary_residual < 1e-12
        assert res.scalar_residual < 5e-4
        assert res.heat_residual < 2.0

    def test_inconclusive_for_short_trajectory(self, short_average_run):
        rec = short_average_run
        tiny = rec._replace(t=rec.t[:4], vartheta=rec.vartheta[:4], U=rec.U[:4], Z=rec.Z[:4],
                            u_norm=rec.u_norm[:4], Omega=rec.Omega[:4], u=rec.u[:4])
        res = target_residuals(tiny, KERNEL)
        assert res.inconclusive


def synthetic_record(a, c_y=1.0, c_th=1.0):
    t = np.linspace(0.0, 10.0, 200)
    y = 5.0 - c_y * a**2 * np.ones_like(t)
    Theta = 2.0 + c_th * a * np.ones_like(t)
    zeros = np.zeros_like(t)
    return TrajectoryRecord(t=t, theta=Theta, Theta=Theta, y=y, U=zeros,
                            G_hat=zeros, H_hat=zeros, S=zeros, vartheta=zeros)


class TestResidualScaling:
    map_ = StaticMap(5.0, 2.0, -2.0)

    def residuals(self, amplitudes, c_y=1.0):
        return {a: late_time_residuals(synthetic_record(a, c_y=c_y), self.map_)
                for a in amplitudes}

    def test_synthetic_exponents(self):
        fit = residual_scaling(self.residuals((0.2, 0.1, 0.05)))
        assert not fit.inconclusive
        assert fit.y_exponent == pytest.approx(2.0, abs=1e-9)
        assert fit.theta_exponent == pytest.approx(1.0, abs=1e-9)
        assert fit.y_r_squared > 0.999

    def test_single_amplitude_inconclusive(self):
        fit = residual_scaling(self.residuals((0.2,)))
        assert fit.inconclusive

    def test_floor_residuals_inconclusive(self):
        fit = residual_scaling(self.residuals((0.2, 0.1, 0.05), c_y=0.0))
        assert fit.inconclusive

    @pytest.mark.filterwarnings("error")
    def test_zero_amplitude_inconclusive(self):
        # a = 0 is a valid run without excitation, but log(0) has no place in the fit
        fit = residual_scaling(self.residuals((0.2, 0.0, 0.1)))
        assert fit.inconclusive and math.isnan(fit.y_exponent)
        assert fit.note == "amplitude 0 is not positive: no log-log fit"

    def test_late_time_window(self):
        rec = synthetic_record(0.1)
        y_res, th_res = late_time_residuals(rec, self.map_)
        assert y_res == pytest.approx(0.01, abs=1e-12)
        assert th_res == pytest.approx(0.1, abs=1e-12)
