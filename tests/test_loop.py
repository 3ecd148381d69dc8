"""Closed-loop behavior tests.

Long-horizon convergence quality is graded by the acceptance suite; these
tests cover wiring, invariants, edge cases, and the short-horizon physics
(dither-only response, curvature estimate, baseline loop averaging).
"""
import math
import sys
import tempfile
import tracemalloc
import warnings
from itertools import chain
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from diffesc import loop
from diffesc.analysis import to_target
from diffesc.controller import (ControllerState, ForbiddenGainError, integrate_theta_hat,
                                make_kernel, realtime_control)
from diffesc.dither import DitherParams, design_dither, dither_signal
from diffesc.filters import FirstOrderFilter
from diffesc.heat import (MAX_NODES, SCHEMES, Grid, SolverConfig, _propagator,
                          integration_weights, make_field, spatial_integral, step)
from diffesc.loop import (
    TRAJECTORY_COLUMNS,
    FieldHistory,
    ScenarioConfig,
    SimulationDiverged,
    StaticMap,
    evaluate_map,
    run_average_system,
    run_esc,
    run_standard_esc,
    save_average_csv,
    save_field_csv,
    save_trajectory_csv,
)
from diffesc.loop import _write_csv

MAP = StaticMap(y_star=5.0, theta_star=2.0, H=-2.0)
NODES = Grid(1.0, 101).nodes()          # the nodes of scenario()'s default grid


def scenario(T=5.0, dt=1e-3, n=101, **kw):
    defaults = dict(
        map=MAP, a=0.2, omega=10.0, K=0.2, c=10.0,
        solver=SolverConfig(dt=dt), grid=Grid(1.0, n), T_final=T,
    )
    defaults.update(kw)
    return ScenarioConfig(**defaults)


class TestStaticMap:
    def test_known_points(self):
        assert evaluate_map(MAP, 2.0) == 5.0
        assert evaluate_map(MAP, 3.0) == 4.0

    def test_even_about_optimizer(self):
        for delta in (0.1, 0.7, 2.3):
            assert evaluate_map(MAP, 2.0 + delta) == evaluate_map(MAP, 2.0 - delta)

    def test_positive_curvature_rejected(self):
        with pytest.raises(ValueError):
            StaticMap(5.0, 2.0, 2.0).validate()

    def test_diverging_input_gives_minus_inf(self):
        assert evaluate_map(MAP, 1e200) == -math.inf
        with np.errstate(over="ignore"):
            values = evaluate_map(MAP, np.array([2.0, 3.0, 1e200]))
        np.testing.assert_array_equal(values, [5.0, 4.0, -np.inf])


def numpy_scalar_loop(config):
    """run_esc's loop body with every per-step scalar a NumPy scalar.

    The reference for the precomputed time signals: time from the sample
    array, the map squared by ``**``, and the probe and both demodulation
    signals through ``np.sin`` / ``np.cos`` at each step.  The washout is its
    ZOH recurrence written out here, so it shares no filter code with
    ``run_esc``.  Returns the recorded rows as columns.
    """
    dith, dt, m = config.dither, config.solver.dt, config.map
    n_steps = round(config.T_final / dt)
    t_all = np.arange(n_steps + 1) * dt
    S_all = dither_signal(design_dither(dith), t_all)
    fld = make_field(config.grid, config.solver, initial=config.initial_alpha)
    gw, w = 1.0 - math.exp(-config.washout_corner * dt), 0.0
    smoother = FirstOrderFilter(config.hessian_corner, dt)
    ctrl = ControllerState(theta_hat=config.initial_theta_hat,
                           T_filter=FirstOrderFilter(config.c, dt),
                           K=config.K, L=config.grid.L)
    rows = []
    for k in range(n_steps + 1):
        t = t_all[k]
        Theta = spatial_integral(fld)
        y = float(m.y_star + 0.5 * m.H * (np.asarray(Theta) - m.theta_star) ** 2)
        w += gw * (y - w)
        washed = y - w
        G_hat = float((2.0 / dith.a) * np.sin(dith.omega * np.asarray(t))) * washed
        demod_h = float((-8.0 / dith.a**2) * np.cos(2.0 * dith.omega * np.asarray(t)))
        H_hat = smoother.step(demod_h * washed)
        probe = float(dith.a * np.sin(dith.omega * np.asarray(t)))
        U = realtime_control(ctrl, G_hat, H_hat, Theta, probe)
        if k % config.record_every == 0:
            rows.append((t, ctrl.theta_hat + S_all[k], Theta, y, U, G_hat, H_hat, S_all[k],
                         Theta - probe - m.theta_star))
        if k == n_steps:
            break
        integrate_theta_hat(ctrl, U, dt)
        step(fld, ctrl.theta_hat + S_all[k + 1])
    return np.array(rows).T


def math_scalar_loop(config):
    """run_standard_esc's loop with the probe and both demodulation signals
    through ``math.sin`` / ``math.cos`` at each step.  Returns the recorded
    rows as columns."""
    dith, dt, m, K = config.dither, config.solver.dt, config.map, config.K
    theta_hat = config.initial_theta_hat
    rows = []
    for k in range(round(config.T_final / dt) + 1):
        t = k * dt
        S = dith.a * math.sin(dith.omega * t)
        y = m.y_star + 0.5 * m.H * (theta_hat + S - m.theta_star) ** 2
        G_hat = (2.0 / dith.a) * math.sin(dith.omega * t) * y
        H_hat = (-8.0 / dith.a**2) * math.cos(2.0 * dith.omega * t) * y
        U = K * G_hat
        if k % config.record_every == 0:
            rows.append((t, theta_hat + S, theta_hat + S, y, U, G_hat, H_hat, S,
                         theta_hat - m.theta_star))
        theta_hat += dt * U
    return np.array(rows).T


class TestRunEsc:
    def test_error_identity_holds_at_every_sample(self):
        rec = run_esc(scenario(T=3.0))
        lhs = rec.vartheta + 0.2 * np.sin(10.0 * rec.t)
        rhs = rec.Theta - MAP.theta_star
        assert np.max(np.abs(lhs - rhs)) < 1e-9

    def test_float_path_matches_numpy_scalar_loop(self):
        # the bundled baseline's values, 3 s
        cfg = scenario(T=3.0)
        rec = run_esc(cfg)
        for name, ref in zip(TRAJECTORY_COLUMNS.split(","), numpy_scalar_loop(cfg)):
            assert np.max(np.abs(getattr(rec, name) - ref)) <= 1e-12, name

    def test_three_filter_steps_per_sample(self, monkeypatch):
        # one washout, the curvature smoother and the control smoother: a
        # second washout on the same map output would show as a fourth call
        calls = 0
        original = FirstOrderFilter.step

        def counted(self, u):
            nonlocal calls
            calls += 1
            return original(self, u)

        monkeypatch.setattr(FirstOrderFilter, "step", counted)
        run_esc(scenario(T=0.5))
        assert calls == 3 * 501
        # a = 0 takes the same step: only the sample stream knows the amplitude
        calls = 0
        quiet(run_esc, scenario(T=0.5, a=0.0))
        assert calls == 3 * 501

    def test_deterministic(self):
        r1 = run_esc(scenario(T=2.0))
        r2 = run_esc(scenario(T=2.0))
        for name in ("t", "theta", "Theta", "y", "U", "G_hat", "H_hat", "S", "vartheta"):
            assert np.array_equal(getattr(r1, name), getattr(r2, name))

    def test_zero_adaptation_freezes_estimate(self):
        # K = 0 disables adaptation; the boundary still carries the dither,
        # so after the transient the map input is the pure target sinusoid
        cfg = scenario(T=8.0, K=0.0, initial_theta_hat=0.5)
        rec = run_esc(cfg)
        theta_hat = rec.theta - rec.S
        assert np.max(np.abs(theta_hat - 0.5)) < 1e-12
        late = rec.t > 5.0
        target = 0.5 + 0.2 * np.sin(10.0 * rec.t[late])
        assert np.max(np.abs(rec.Theta[late] - target)) < 2e-3

    def test_zero_dither_warns_and_freezes(self):
        cfg = scenario(T=1.0, a=0.0)
        with pytest.warns(RuntimeWarning, match="excitation"):
            rec = run_esc(cfg)
        assert np.all(rec.G_hat == 0.0)
        assert np.max(np.abs((rec.theta - rec.S))) == 0.0  # theta_hat stays 0
        # every sample is stepped and recorded, with and without excitation
        for run in (rec, run_esc(scenario(T=1.0))):
            assert len(run.t) == 1000 // cfg.record_every + 1
            assert run.t[-1] == cfg.T_final

    def test_rejects_forbidden_gain(self):
        with pytest.raises(ForbiddenGainError):
            run_esc(scenario(T=1.0, K=math.pi**2 / 8.0))     # K*H = -pi^2/4

    def test_divergence_detected(self):
        cfg = scenario(T=1.0, initial_alpha=np.full(101, 1e300))
        with np.errstate(over="ignore"):
            with pytest.raises(SimulationDiverged) as err:
                run_esc(cfg)
        assert err.value.step_index == 0

    def test_zero_gain_run_keeps_a_huge_estimate(self):
        # K = 0 adapts nothing: H_hat * feedback overflows at step 1 while every signal is
        # finite, and the control must stay 0 rather than 0 * inf = nan
        rec = run_esc(scenario(T=1.0, K=0.0, initial_theta_hat=1e150))
        assert np.all(rec.U == 0.0) and np.all(rec.theta == 1e150 + rec.S)

    def test_zero_gain_run_diverges_on_its_curvature_estimate(self):
        # with U held at 0 the estimates are tested themselves: H_hat leaves the float range
        with pytest.raises(SimulationDiverged, match="H_hat=inf, U=0.0") as err:
            run_esc(scenario(T=1.0, K=0.0, initial_theta_hat=1.2e154))
        assert err.value.step_index == 6

    def test_curvature_estimate_settles_near_true_value(self):
        rec = run_esc(scenario(T=30.0))
        late = rec.t > 24.0
        h_late = rec.H_hat[late]
        assert np.all(np.abs(h_late - MAP.H) < 0.2 * abs(MAP.H))

    def test_snapshots_and_csv_round_trip(self, tmp_path):
        cfg = scenario(T=1.0, snapshot_every=100)
        rec = run_esc(cfg)
        assert rec.field_history is not None
        m, n = rec.field_history.alpha.shape
        assert n == 101 and m == len(rec.field_history.t)

        traj = tmp_path / "traj.csv"
        save_trajectory_csv(rec, traj)
        header = traj.read_text().splitlines()[0]
        assert header == "t,theta,Theta,y,U,G_hat,H_hat,S,vartheta"
        data = np.loadtxt(traj, delimiter=",", skiprows=1)
        np.testing.assert_allclose(data[:, 2], rec.Theta, rtol=1e-10)

        fpath = tmp_path / "field.csv"
        save_field_csv(rec.field_history, fpath)
        assert fpath.read_text().splitlines()[0] == "t,x,alpha"
        fdata = np.loadtxt(fpath, delimiter=",", skiprows=1)
        assert fdata.shape == (m * n, 3)

    def test_snapshots_leave_the_trajectory_bit_identical(self):
        # field reads never move the actuator's block anchor, so snapshot
        # cadence cannot change a trajectory
        plain = run_esc(scenario(T=2.0, snapshot_every=0))
        snapped = run_esc(scenario(T=2.0, snapshot_every=200))
        assert snapped.field_history is not None
        for name in TRAJECTORY_COLUMNS.split(","):
            assert np.array_equal(getattr(plain, name), getattr(snapped, name)), name

    def test_csv_columns_are_the_record_fields(self, tmp_path):
        for rec in (run_esc(scenario(T=0.5)), run_standard_esc(scenario(T=0.5))):
            path = tmp_path / "traj.csv"
            save_trajectory_csv(rec, path)
            header = path.read_text().splitlines()[0].split(",")
            data = np.loadtxt(path, delimiter=",", skiprows=1)
            for j, name in enumerate(header):
                np.testing.assert_allclose(data[:, j], getattr(rec, name), rtol=1e-10,
                                           err_msg=name)

    def test_record_cadence(self):
        rec = run_esc(scenario(T=1.0, record_every=25))
        assert rec.t[1] - rec.t[0] == pytest.approx(0.025)
        assert rec.t[-1] == pytest.approx(1.0)

    def test_doubling_frequency_does_not_increase_residuals(self):
        from diffesc.analysis import late_time_residuals

        res = {}
        for omega in (10.0, 20.0):
            rec = run_esc(scenario(T=30.0, omega=omega))
            res[omega] = late_time_residuals(rec, MAP)
        assert res[20.0][0] <= res[10.0][0] * 1.05
        assert res[20.0][1] <= res[10.0][1] * 1.05


RUNNERS = [run_esc, run_standard_esc]


def quiet(runner, cfg):
    """``runner(cfg)`` without the zero-amplitude warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return runner(cfg)


@pytest.mark.parametrize("a", [0.0, 0.2])
def test_samples_are_floats_at_every_amplitude(a):
    # every runner step reads five floats, with and without excitation
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        samples = list(loop._samples(DitherParams(a, 10.0, 1.0), 1e-3, 2 * loop.CHUNK + 3))
    assert len(samples) == 2 * loop.CHUNK + 3
    assert all(type(value) is float for sample in samples for value in sample)
    if a == 0.0:
        assert all(g == 0.0 and h == 0.0 for *_, g, h in samples)


@pytest.mark.parametrize("runner", RUNNERS)
def test_zero_dither_warns_and_estimates_nothing(runner):
    cfg = scenario(T=1.0, a=0.0, initial_theta_hat=0.5)
    with pytest.warns(RuntimeWarning, match="excitation"):
        rec = runner(cfg)
    for name in ("G_hat", "H_hat", "U"):
        assert np.all(getattr(rec, name) == 0.0), name
    assert np.all(rec.theta - rec.S == 0.5)                 # theta_hat stays frozen


@pytest.mark.parametrize("runner", RUNNERS)
@pytest.mark.parametrize("a", [0.0, 0.2])
@pytest.mark.parametrize("record_every", [7, 10])
def test_run_keeps_every_sample(runner, a, record_every):
    # 2501 samples span three CHUNK-sample arrays of the time signals
    cfg = scenario(T=2.5, record_every=record_every, a=a)
    rec = quiet(runner, cfg)
    n_steps = round(cfg.T_final / cfg.solver.dt)
    assert len(rec.t) == n_steps // record_every + 1
    assert np.array_equal(rec.t, np.arange(0, n_steps + 1, record_every) * cfg.solver.dt)
    if n_steps % record_every == 0:
        assert rec.t[-1] == cfg.T_final


@pytest.mark.parametrize("runner", RUNNERS)
def test_run_shorter_than_half_a_step_returns_one_row(runner):
    cfg = scenario(T=4e-4)                  # round(T_final / dt) == 0
    rec = runner(cfg)
    assert [len(col) for col in rec[:9]] == [1] * 9
    assert rec.t[0] == 0.0


@pytest.mark.parametrize("runner", RUNNERS)
@pytest.mark.parametrize("a", [0.0, 0.2])
def test_chunk_size_leaves_the_run_bit_identical(monkeypatch, runner, a):
    # the time signals are evaluated CHUNK samples at a time; where the chunks
    # end must not change a column or a snapshot
    cfg = scenario(T=2.5, record_every=3, snapshot_every=250, a=a)
    n_steps = round(cfg.T_final / cfg.solver.dt)
    ref = quiet(runner, cfg)
    for chunk in (1, 7, n_steps, n_steps + 1, loop.CHUNK):
        monkeypatch.setattr(loop, "CHUNK", chunk)
        rec = quiet(runner, cfg)
        for name in TRAJECTORY_COLUMNS.split(","):
            assert np.array_equal(getattr(rec, name), getattr(ref, name)), (chunk, name)
        if runner is run_esc:
            assert np.array_equal(rec.field_history.t, ref.field_history.t), chunk
            assert np.array_equal(rec.field_history.alpha, ref.field_history.alpha), chunk


class TestAverageSystem:
    def test_origin_is_equilibrium(self):
        rec = run_average_system(scenario(T=2.0, initial_vartheta=0.0))
        assert np.max(rec.Omega) == 0.0

    def test_norm_decays_for_admissible_gain(self):
        rec = run_average_system(scenario(T=10.0))
        assert rec.Omega[-1] < 1e-3 * rec.Omega[0]
        assert np.all(np.diff(rec.Omega[rec.t > 1.0]) <= 1e-12)

    def test_sign_flipped_gain_grows_with_probe_flag(self):
        cfg = scenario(T=10.0)
        with pytest.raises(ForbiddenGainError):
            run_average_system(cfg._replace(K_bar=0.4))
        rec = run_average_system(cfg._replace(K_bar=0.4, allow_unstable=True))
        assert rec.Omega[-1] > 50.0 * rec.Omega[0]

    def test_boundary_entry_carries_same_time_control(self):
        rec = run_average_system(scenario(T=2.0))
        np.testing.assert_allclose(rec.u[:, -1], rec.U, atol=0.0)

    def test_modal_transform_matches_nodal_to_target(self):
        # the runner reads Z through the modal readout; to_target is the nodal form
        rec = run_average_system(scenario(T=2.0, initial_alpha=np.sin(math.pi * NODES)))
        assert np.array_equal(rec.U, rec.K_bar * rec.Z)
        nodal = to_target(make_kernel(rec.K_bar, rec.grid.L), rec.vartheta, rec.u, rec.grid)
        assert np.max(np.abs(nodal.Z - rec.Z)) <= 1e-12 * np.max(np.abs(rec.Z))

    def test_norms_are_the_quadrature_of_each_recorded_profile(self):
        rec = run_average_system(scenario(T=2.0, initial_alpha=np.cos(3.0 * NODES),
                                          initial_vartheta=0.5))
        w = integration_weights(rec.grid.n, rec.grid.dx)
        u_sq = [float(profile**2 @ w) for profile in rec.u]
        assert rec.u_norm.tolist() == [math.sqrt(v) for v in u_sq]
        assert rec.Omega.tolist() == [vth**2 + v for vth, v in zip(rec.vartheta.tolist(), u_sq)]

    def test_csv_export(self, tmp_path):
        rec = run_average_system(scenario(T=1.0))
        path = tmp_path / "avg.csv"
        save_average_csv(rec, path)
        assert path.read_text().splitlines()[0] == "t,vartheta,U,Z,u_norm,Omega"
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert data.shape == (rec.t.size, 6)

    @pytest.mark.parametrize("vartheta", [math.inf, math.nan])
    def test_non_finite_initial_error_is_a_value_error(self, vartheta):
        with pytest.raises(ValueError, match="initial_vartheta"):
            run_average_system(scenario(T=1.0, initial_vartheta=vartheta))

    @pytest.mark.parametrize("kw", [dict(record_every=0), dict(T=-1.0)])
    def test_invalid_scenario_rejected(self, kw):
        with pytest.raises(ValueError):
            run_average_system(scenario(**{"T": 1.0, **kw}))

    def test_initial_profile_accepted(self):
        rec = run_average_system(scenario(T=1.0, initial_alpha=np.sin(math.pi * NODES),
                                          initial_vartheta=0.0))
        assert rec.Omega[0] > 0.0
        assert rec.Omega[-1] < rec.Omega[0]


class TestStandardEsc:
    def test_precomputed_signals_match_math_scalar_loop(self):
        cfg = scenario(T=3.0)
        rec = run_standard_esc(cfg)
        for name, ref in zip(TRAJECTORY_COLUMNS.split(","), math_scalar_loop(cfg)):
            assert np.max(np.abs(getattr(rec, name) - ref)) <= 1e-12, name

    def test_zero_gain_freezes(self):
        rec = run_standard_esc(scenario(T=2.0, K=0.0))
        assert np.max(np.abs(rec.vartheta - rec.vartheta[0])) == 0.0

    def test_period_mean_error_decays_at_adaptation_rate(self):
        # the averaged loop contracts at K*|H|; the demodulated DC of the
        # output adds a zero-mean ripple that the period mean removes
        rec = run_standard_esc(scenario(T=20.0, record_every=1))
        t, v = rec.t, rec.vartheta
        per = round(scenario().dither.period / (t[1] - t[0]))
        vbar = np.convolve(v, np.ones(per) / per, mode="same")
        sel = (t >= 1.0) & (t <= 8.0)
        rate = -np.polyfit(t[sel], np.log(np.abs(vbar[sel])), 1)[0]
        assert 0.3 < rate < 0.5

    def test_converges_to_neighborhood(self):
        rec = run_standard_esc(scenario(T=40.0))
        late = rec.t > 30.0
        assert np.mean(np.abs(rec.vartheta[late])) < 0.75

    def test_amplitude_scaling_in_averaging_regime(self):
        # needs a frequency high enough that the demodulated DC ripple
        # (which grows like 1/a) sits below the a^2 floor
        dt, T = 1e-4, 20.0
        residuals = []
        for a in (0.2, 0.1, 0.05):
            rec = run_standard_esc(scenario(T=T, dt=dt, a=a, omega=2000.0, record_every=20))
            late = rec.t > 0.8 * T
            residuals.append(np.mean(np.abs(rec.y[late] - MAP.y_star)))
        slope = np.polyfit(np.log([0.2, 0.1, 0.05]), np.log(residuals), 1)[0]
        assert 1.7 < slope < 2.3

    def test_validation(self):
        with pytest.raises(ValueError):
            run_standard_esc(scenario(T=1.0, K=-0.1))
        with pytest.raises(ValueError):
            run_standard_esc(scenario(T=-1.0))

    def test_zero_record_every_is_value_error(self):
        with pytest.raises(ValueError, match="record_every"):
            run_standard_esc(scenario(T=1.0, record_every=0))

    def test_divergence_detected(self):
        with pytest.raises(SimulationDiverged, match="non-finite signal") as err:
            run_standard_esc(scenario(T=1.0, K=1000.0))
        assert 0 < err.value.step_index < 1000


class TestScenarioValidation:
    def test_bad_record_every(self):
        with pytest.raises(ValueError):
            scenario(T=1.0, record_every=0).validate()

    def test_bad_duration(self):
        with pytest.raises(ValueError):
            scenario(T=-1.0).validate()

    def test_bad_corners(self):
        with pytest.raises(ValueError):
            scenario(T=1.0, washout_corner=0.0).validate()

    @pytest.mark.parametrize("kw", [
        dict(T=math.nan),
        dict(T=math.inf),
        dict(map=StaticMap(math.nan, 2.0, -2.0)),
        dict(map=StaticMap(5.0, math.inf, -2.0)),
        dict(c=0.0),
        dict(c=math.nan),
        dict(hessian_corner=math.inf),
    ])
    def test_non_finite_or_nonpositive_values_rejected(self, kw):
        with pytest.raises(ValueError):
            scenario(**kw).validate()

    @pytest.mark.parametrize("K", [-0.1, math.nan, math.inf])
    def test_negative_or_non_finite_adaptation_gain_rejected(self, K):
        with pytest.raises(ValueError, match="adaptation gain"):
            scenario(K=K).validate()

    @pytest.mark.parametrize("omega,L", [(10.0, 1.0), (10.0, 100.0), (1000.0, 1.0),
                                         (2000.0, 3.0)])
    def test_coarse_grid_rejected_and_suggested_node_count_passes(self, omega, L):
        def config(n):
            return scenario(omega=omega, grid=Grid(L, n), K=0.0)

        with pytest.raises(ValueError, match="too coarse") as err:
            config(3).validate()
        n_min = int(str(err.value).rsplit("nodes >= ", 1)[1])
        config(n_min).validate()
        with pytest.raises(ValueError, match="too coarse"):
            config(n_min - 1).validate()

    def test_amplitude_below_demodulation_minimum_rejected(self):
        with pytest.raises(ValueError, match="demodulation"):
            scenario(a=1e-10).validate()

    def test_zero_gain_and_zero_amplitude_accepted(self):
        scenario(K=0.0).validate()
        scenario(a=0.0).validate()

    def test_step_count_is_the_rounded_ratio(self):
        assert scenario(T=1.0, dt=1e-3).n_steps == 1000
        assert scenario(T=0.4e-3, dt=1e-3).n_steps == 0

    @pytest.mark.parametrize("kw, match", [
        (dict(dt=1e-320), "step count"),
        (dict(T=1e300, dt=1e-10), "step count"),
        (dict(a=1e200), "a\\^2 overflows"),
        (dict(omega=1e-320), "period"),
        (dict(grid=Grid(1e-120, 101)), "L\\^3 underflows"),
        (dict(grid=Grid(1e-200, 11), K=0.0), "mesh ratio"),
        (dict(a=1e154, grid=Grid(1e-155, 3), K=0.0), "boundary dither overflows"),
    ])
    def test_magnitude_extremes_rejected(self, kw, match):
        # each used to pass validation and then raise ZeroDivisionError or
        # OverflowError in the run
        with pytest.raises(ValueError, match=match):
            scenario(**kw).validate()

    def test_validation_builds_nothing_at_the_node_cap(self):
        # the solver rules need only dx: validating the largest allowed grid
        # allocates no modal basis and builds no propagator
        config = scenario(n=MAX_NODES, dt=1.2345e-3)
        cache = _propagator.cache_info()
        tracemalloc.start()
        try:
            config.validate()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert _propagator.cache_info() == cache


# The validate-implies-run contract over extreme inputs.  One to four keys are drawn,
# numeric ones from 0 or +-1e-320..1e300, log-uniform; the rest keep a cheap base value
# (11 nodes, 50 steps), and drawn step counts above 100 are discarded, so every run is short.
CONTRACT_BASE = dict(y_star=5.0, theta_star=2.0, H=-2.0, a=0.2, omega=10.0, K=0.2, c=10.0,
                     washout_corner=1.0, hessian_corner=1.0, L=1.0, n=11, dt=1e-3,
                     T_final=0.05, initial_theta_hat=0.0, record_every=10, snapshot_every=10,
                     initial_vartheta=1.0, K_bar=None, allow_unstable=False)
EXTREME = st.one_of(st.just(0.0), st.builds(lambda sign, e: sign * 10.0 ** e,
                                            st.sampled_from((1.0, -1.0)),
                                            st.floats(-320.0, 300.0)))
DRAWS = {key: EXTREME for key in CONTRACT_BASE}
DRAWS.update(n=st.one_of(st.integers(-1, 101), st.integers(MAX_NODES + 1, 10**300)),
             record_every=EXTREME.map(int), snapshot_every=EXTREME.map(int),
             K_bar=st.none() | EXTREME, allow_unstable=st.booleans())


@st.composite
def extreme_scenarios(draw):
    v = dict(CONTRACT_BASE)
    for key in draw(st.sets(st.sampled_from(sorted(DRAWS)), min_size=1, max_size=4)):
        v[key] = draw(DRAWS[key])
    return v, draw(st.sampled_from(SCHEMES))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(extreme_scenarios())
@example(({**CONTRACT_BASE, "y_star": -1.0, "theta_star": 0.0,
           "initial_theta_hat": sys.float_info.max, "initial_vartheta": sys.float_info.max},
          "crank_nicolson"))
@example(({**CONTRACT_BASE, "K": 0.0, "initial_theta_hat": 1e150}, "crank_nicolson"))
@example(({**CONTRACT_BASE, "K": 0.0, "initial_theta_hat": 1.2e154}, "crank_nicolson"))
def test_a_validated_scenario_runs_or_diverges(case):
    # validate() raises ValueError, or run_esc returns a record with no non-finite value,
    # or it raises SimulationDiverged: no config that passes validation may crash mid-run
    # with another exception.  The averaged run holds to the same, behind the gate the
    # CLI adds for it.  The first example's input estimate overflows on its first step
    # while Theta, y and U are still finite; at K = 0 the other two overflow H_hat * feedback
    # with U held at 0, the second also H_hat itself
    v, scheme = case
    try:
        config = ScenarioConfig(
            map=StaticMap(v["y_star"], v["theta_star"], v["H"]),
            a=v["a"], omega=v["omega"], K=v["K"], c=v["c"],
            solver=SolverConfig(v["dt"], scheme), grid=Grid(v["L"], v["n"]),
            T_final=v["T_final"], initial_theta_hat=v["initial_theta_hat"],
            record_every=v["record_every"], snapshot_every=v["snapshot_every"],
            washout_corner=v["washout_corner"], hessian_corner=v["hessian_corner"],
            initial_vartheta=v["initial_vartheta"], K_bar=v["K_bar"],
            allow_unstable=v["allow_unstable"])
        config.validate()
    except ValueError:
        return
    assume(config.n_steps <= 100)
    try:
        rec = run_esc(config)
    except SimulationDiverged:
        pass
    else:
        assert all(np.isfinite(column).all() for column in rec[:9])
    try:
        loop._average_kernel(config)
    except ValueError:
        return
    try:
        run_average_system(config)
    except SimulationDiverged:
        pass


# values %.12g renders in every form: non-finite, signed zero, subnormal, near overflow
CSV_EDGES = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308,
             1e308, -1e308, 1.7976931348623157e308, 0.1, 123456789012.5, 1e-5, 1e16]


@settings(max_examples=150, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(0, 50), st.integers(1, 9)),
              elements=st.floats(allow_subnormal=True) | st.sampled_from(CSV_EDGES)))
def test_write_csv_matches_savetxt_bytes(data):
    header = ",".join(f"c{j}" for j in range(data.shape[1]))
    with tempfile.TemporaryDirectory() as tmp:
        ours, ref = Path(tmp) / "ours.csv", Path(tmp) / "ref.csv"
        _write_csv(ours, header, data)
        np.savetxt(ref, data, delimiter=",", header=header, comments="", fmt="%.12g")
        assert ours.read_bytes() == ref.read_bytes()


@settings(max_examples=30, deadline=None)
@given(st.tuples(st.integers(1, 6), st.integers(1, 9)).flatmap(lambda shape: st.tuples(
    arrays(np.float64, shape[0], elements=st.sampled_from(CSV_EDGES) | st.floats()),
    arrays(np.float64, shape[1], elements=st.sampled_from(CSV_EDGES) | st.floats()),
    arrays(np.float64, shape, elements=st.sampled_from(CSV_EDGES) | st.floats()))))
def test_field_csv_matches_savetxt_bytes(case):
    t, x, alpha = case
    m, n = alpha.shape
    long = np.column_stack([np.repeat(t, n), np.tile(x, m), alpha.ravel()])
    with tempfile.TemporaryDirectory() as tmp:
        ours, ref = Path(tmp) / "ours.csv", Path(tmp) / "ref.csv"
        save_field_csv(FieldHistory(t=t, x=x, alpha=alpha), ours)
        np.savetxt(ref, long, delimiter=",", header="t,x,alpha", comments="", fmt="%.12g")
        assert ours.read_bytes() == ref.read_bytes()


def _whole_table_csv(header, data):
    """The former one-format writer: every value in one tuple, the table in one string."""
    rows, cols = data.shape
    row = ",".join(["%.12g"] * cols) + "\n"
    return header + "\n" + (row * rows) % tuple(data.ravel().tolist())


def _whole_field_csv(history):
    """The former one-format field writer, each distinct t and x formatted once."""
    ts = ["%.12g," % t for t in history.t.tolist()]
    xs = ["%.12g," % x for x in history.x.tolist()]
    heads = [t + x for t in ts for x in xs]
    cells = chain.from_iterable(zip(heads, history.alpha.ravel().tolist()))
    return "t,x,alpha\n" + ("%s%.12g\n" * len(heads)) % tuple(cells)


def _csv_values(rng, shape):
    values = rng.normal(scale=1e3, size=shape)
    values.ravel()[::7] = rng.choice(CSV_EDGES, size=values.ravel()[::7].size)
    return values


@pytest.mark.parametrize("rows", [0, 1, loop.CHUNK, loop.CHUNK + 1, 3 * loop.CHUNK + 5])
def test_write_csv_in_blocks_matches_whole_table_format(tmp_path, rows):
    data = _csv_values(np.random.default_rng(rows), (rows, 9))
    _write_csv(tmp_path / "ours.csv", TRAJECTORY_COLUMNS, data)
    assert (tmp_path / "ours.csv").read_text() == _whole_table_csv(TRAJECTORY_COLUMNS, data)


PER_BLOCK = loop.CHUNK // 101       # snapshot times per block on a 101-node grid


@pytest.mark.parametrize("m, n", [(0, 1), (1, 1), (loop.CHUNK, 1), (loop.CHUNK + 1, 1),
                                  (0, 101), (1, 101), (PER_BLOCK, 101), (PER_BLOCK + 1, 101),
                                  (3 * PER_BLOCK + 2, 101), (2, loop.CHUNK + 1), (3, 0)])
def test_field_csv_in_blocks_matches_whole_table_format(tmp_path, m, n):
    rng = np.random.default_rng(m * 1000 + n)
    history = FieldHistory(t=_csv_values(rng, m), x=_csv_values(rng, n),
                           alpha=_csv_values(rng, (m, n)))
    save_field_csv(history, tmp_path / "ours.csv")
    assert (tmp_path / "ours.csv").read_text() == _whole_field_csv(history)


def test_csv_writers_peak_memory_is_bounded_by_the_block(tmp_path):
    # the whole-table format peaked at 9.7 MiB for this trajectory table and at
    # 7.1 MiB for the field (501 snapshots of 101 nodes); by blocks of CHUNK rows,
    # at 0.50 and 0.17 MiB
    rng = np.random.default_rng(3)
    data = rng.normal(size=(20001, 9))
    history = FieldHistory(t=np.linspace(0.0, 14.0, 501), x=np.linspace(0.0, 1.0, 101),
                           alpha=rng.normal(size=(501, 101)))
    peaks = []
    for write in (lambda: _write_csv(tmp_path / "trajectory.csv", TRAJECTORY_COLUMNS, data),
                  lambda: save_field_csv(history, tmp_path / "field.csv")):
        tracemalloc.start()
        try:
            write()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= 1.0 * 2**20 and peaks[1] <= 0.5 * 2**20, peaks
