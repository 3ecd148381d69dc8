"""Closed-loop simulations: full ESC loop, averaged error system, and the
PDE-free baseline loop.

Per step the full loop measures the map input (spatial integral of the
actuator field), evaluates the unknown map, demodulates gradient/curvature
estimates, computes the smoothed control, integrates the input estimate,
and drives the actuator boundary with estimate + dither.  All runs are
fixed-step and deterministic: identical configuration reproduces bit
identical trajectories.
"""
from __future__ import annotations

import math
import warnings
from array import array
from itertools import chain, repeat
from typing import NamedTuple

import numpy as np

from .controller import (
    ControllerState,
    ForbiddenGainError,
    GainConfig,
    check_gain,
    integrate_theta_hat,
    make_kernel,
    realtime_control,
)
from .dither import DitherParams, design_dither, dither_signal, gradient_demod, hessian_demod
from .filters import MIN_DEMOD_AMPLITUDE, FirstOrderFilter, estimate_gradient, estimate_hessian
from .heat import (MAX_NODES, Grid, SolverConfig, integrate_profile, integration_weights,
                   linear_functional, make_field, spatial_integral, step)

__all__ = [
    "StaticMap",
    "ScenarioConfig",
    "TrajectoryRecord",
    "FieldHistory",
    "AverageRecord",
    "SimulationDiverged",
    "evaluate_map",
    "run_esc",
    "run_average_system",
    "run_standard_esc",
    "save_trajectory_csv",
    "save_field_csv",
    "save_average_csv",
]

TRAJECTORY_COLUMNS = "t,theta,Theta,y,U,G_hat,H_hat,S,vartheta"
# Largest k*dx = sqrt(omega/2)*dx at which the grid resolves the planned probe field:
# with K = 0 the map-input probe is off by 1.6e-3 in amplitude and 0.043 rad in phase
# at k*dx = 0.71, and by 3.8e-2 and 0.19 rad at 0.89.
MAX_K_DX = 0.75
# Samples per array evaluation of the time signals: a run holds one chunk of
# them, never the whole run's.
CHUNK = 1024


class SimulationDiverged(RuntimeError):
    """A loop signal went non-finite; carries the failing step index."""

    def __init__(self, message: str, step_index: int):
        super().__init__(message)
        self.step_index = step_index


def _diverged(k: int, t: float, Theta: float, y: float, U: float) -> SimulationDiverged:
    return SimulationDiverged(
        f"non-finite signal at step {k} (t={t:.6g}): Theta={Theta}, y={y}, U={U}", step_index=k)


class StaticMap:
    """Unknown quadratic objective y = y_star + (H/2)*(Theta - theta_star)^2.

    ``evaluate_map`` reads its fields at every step, where a slot is read
    faster than a NamedTuple field."""

    __slots__ = ("y_star", "theta_star", "H")

    def __init__(self, y_star: float, theta_star: float, H: float):
        self.y_star, self.theta_star, self.H = y_star, theta_star, H

    def validate(self) -> None:
        if not (self.H < 0.0 and math.isfinite(self.H)):
            raise ValueError(f"map curvature must be negative (maximum sought), got {self.H}")
        if not (math.isfinite(self.y_star) and math.isfinite(self.theta_star)):
            raise ValueError(
                f"map optimum must be finite, got y_star={self.y_star}, "
                f"theta_star={self.theta_star}"
            )


def evaluate_map(m: StaticMap, Theta):
    """Quadratic map output at a float or ndarray input.

    Squares by multiplication: a diverging input gives -inf, not OverflowError.
    """
    d = Theta - m.theta_star
    return m.y_star + 0.5 * m.H * (d * d)


class ScenarioConfig(NamedTuple):
    """Everything one closed-loop run needs; the one input of every runner.

    ``validate`` is the single gate all three runners call first.  The
    compensator gain ``K_bar`` = K*H; ``validate`` rejects it when it is
    forbidden, naming K and H, unless K = 0 (no adaptation, so no compensated
    loop), and it rejects a grid too coarse for the probe (k*dx above
    ``MAX_K_DX``) or finer than ``heat.MAX_NODES``.  It builds no array.
    """

    map: StaticMap
    dither: DitherParams
    gains: GainConfig
    solver: SolverConfig
    grid: Grid
    T_final: float
    initial_theta_hat: float = 0.0
    initial_alpha: object = None          # array, callable of x, or None (zeros)
    record_every: int = 10
    snapshot_every: int = 0               # 0 disables field snapshots
    washout_corner: float = 1.0
    hessian_corner: float = 1.0

    @property
    def K_bar(self) -> float:
        """Compensator gain K*H."""
        return self.gains.K * self.map.H

    def validate(self) -> None:
        self.map.validate()
        self.dither.validate()
        if self.grid.n > MAX_NODES:
            raise ValueError(f"nodes = {self.grid.n} exceeds the cap of {MAX_NODES} of the "
                             "dense modal basis (ROADMAP item 10, an FFT transform, lifts it)")
        self.solver.validate(self.grid.dx)
        if 0.0 < self.dither.a < MIN_DEMOD_AMPLITUDE:
            raise ValueError(f"dither amplitude {self.dither.a:.3g} is below the demodulation "
                             f"minimum {MIN_DEMOD_AMPLITUDE:.0e} (0 runs without excitation)")
        if not math.isfinite(self.initial_theta_hat):
            raise ValueError(f"initial input estimate must be finite, "
                             f"got {self.initial_theta_hat}")
        if not (self.gains.K >= 0.0 and math.isfinite(self.gains.K)):
            raise ValueError(f"adaptation gain K must be finite and >= 0, got {self.gains.K}")
        if not (self.T_final > 0.0 and math.isfinite(self.T_final)):
            raise ValueError(f"run duration must be > 0, got {self.T_final}")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")
        if self.snapshot_every < 0:
            raise ValueError("snapshot_every must be >= 0")
        if abs(self.grid.L - self.dither.L) > 1e-12 * max(1.0, abs(self.grid.L)):
            raise ValueError(
                f"grid length {self.grid.L} and dither length {self.dither.L} disagree"
            )
        for corner in (self.washout_corner, self.hessian_corner, self.gains.c):
            if not (corner > 0.0 and math.isfinite(corner)):
                raise ValueError(f"filter corner frequencies must be > 0, got {corner}")
        if self.gains.K > 0.0:
            try:
                check_gain(self.K_bar, self.grid.L)
            except ForbiddenGainError as exc:      # name where the gain comes from
                raise ForbiddenGainError(f"design gain K*H = {self.gains.K:.6g} * "
                                         f"{self.map.H:.6g}: {exc}", kappa=exc.kappa) from None
        k_dx = math.sqrt(self.dither.omega / 2.0) * self.grid.dx
        if k_dx > MAX_K_DX:
            raise ValueError(
                f"grid too coarse for the probe: omega = {self.dither.omega}, L = {self.grid.L} "
                f"and nodes = {self.grid.n} give k*dx = sqrt(omega/2)*dx = {k_dx:.3g} > "
                f"{MAX_K_DX}; use nodes >= {math.ceil(k_dx * (self.grid.n - 1) / MAX_K_DX) + 1}")


class TrajectoryRecord(NamedTuple):
    """Sampled closed-loop signals, fields in ``TRAJECTORY_COLUMNS`` order."""

    t: np.ndarray
    theta: np.ndarray      # actuator boundary command
    Theta: np.ndarray      # map input (spatial integral of the field)
    y: np.ndarray          # map output
    U: np.ndarray          # control signal
    G_hat: np.ndarray      # gradient estimate
    H_hat: np.ndarray      # curvature estimate
    S: np.ndarray          # boundary dither
    vartheta: np.ndarray   # propagated tracking error Theta - a sin(omega t) - theta_star
    field_history: "FieldHistory | None" = None


class FieldHistory(NamedTuple):
    """Field snapshots for surface plots / CSV export."""

    t: np.ndarray          # (m,)
    x: np.ndarray          # (n,)
    alpha: np.ndarray      # (m, n)


class AverageRecord(NamedTuple):
    """Sampled averaged error system: scalar error, field profiles, norms."""

    t: np.ndarray
    vartheta: np.ndarray
    U: np.ndarray
    Z: np.ndarray
    u_norm: np.ndarray     # sqrt(integral of u^2)
    Omega: np.ndarray      # vartheta^2 + integral of u^2
    u: np.ndarray          # (m, n) field profiles, boundary entry = same-time control
    grid: Grid
    K_bar: float


def _samples(dither: DitherParams, dt: float, n: int):
    """(t, S, probe, g, h) at each sample k*dt, k < n, as Python floats: the
    boundary dither S, the probe a*sin(omega t) and the demodulation signals
    g and h (None when a = 0).

    The signals are evaluated as arrays of ``CHUNK`` samples at a time, and
    one ``chain`` yields the zipped columns, so a step reads its sample
    without a Python frame and no whole-run array is ever held."""
    design = design_dither(dither)

    def chunks():
        for k0 in range(0, n, CHUNK):
            t = np.arange(k0, min(k0 + CHUNK, n)) * dt
            probe = dither.a * np.sin(dither.omega * t)
            if dither.a == 0.0:
                # two iterators: zip would drain one shared iterator twice per sample
                g, h = repeat(None, t.size), repeat(None, t.size)
            else:
                g, h = gradient_demod(dither, t).tolist(), hessian_demod(dither, t).tolist()
            yield zip(t.tolist(), dither_signal(design, t).tolist(), probe.tolist(), g, h)

    return chain.from_iterable(chunks())


def run_esc(config: ScenarioConfig) -> TrajectoryRecord:
    """Run the full extremum-seeking loop with the diffusion actuator.

    Step ordering: measure -> estimate -> control -> integrate the input
    estimate -> apply boundary -> advance the PDE; the control at time t is
    a function of signals at time t only.  Iteration k first advances the
    loop from sample k-1 with this sample's boundary dither.
    """
    config.validate()
    if config.dither.a == 0.0:
        warnings.warn(
            "dither amplitude is zero: the loop cannot estimate gradients without "
            "excitation", RuntimeWarning,
        )

    dt = config.solver.dt
    # read every step, so bound as locals: a NamedTuple field read is slower than a local
    map_, record_every, snapshot_every = config.map, config.record_every, config.snapshot_every
    n_steps = round(config.T_final / dt)

    fld = make_field(config.grid, config.solver, initial=config.initial_alpha)
    washout = FirstOrderFilter(config.washout_corner, dt)
    smoother = FirstOrderFilter(config.hessian_corner, dt)
    ctrl = ControllerState(
        theta_hat=config.initial_theta_hat,
        T_filter=FirstOrderFilter(config.gains.c, dt),
        K=config.gains.K,
        L=config.grid.L,
    )

    rows = array("d")
    snaps_t, snaps_alpha = [], []
    for k, (t, S, probe, g, h) in enumerate(_samples(config.dither, dt, n_steps + 1)):
        if k:
            integrate_theta_hat(ctrl, U, dt)
            step(fld, ctrl.theta_hat + S)
        Theta = spatial_integral(fld)
        y = evaluate_map(map_, Theta)
        if g is None:
            G_hat = H_hat = 0.0
        else:
            washed = y - washout.step(y)           # the washout s/(s+c) of y
            G_hat = estimate_gradient(washed, g)
            H_hat = estimate_hessian(washed, h, smoother)
        U = realtime_control(ctrl, G_hat, H_hat, Theta, probe)
        if not (math.isfinite(Theta) and math.isfinite(y) and math.isfinite(U)):
            raise _diverged(k, t, Theta, y, U)
        if k % record_every == 0:
            rows.extend((
                t,
                ctrl.theta_hat + S,                        # boundary command
                Theta, y, U, G_hat, H_hat, S,
                Theta - probe - map_.theta_star,
            ))
        if snapshot_every and k % snapshot_every == 0:
            snaps_t.append(t)
            snaps_alpha.append(fld.alpha)              # a fresh array at each read

    history = None
    if snaps_t:
        history = FieldHistory(t=np.array(snaps_t), x=config.grid.nodes(),
                               alpha=np.array(snaps_alpha))
    return TrajectoryRecord(*np.frombuffer(rows).reshape(-1, 9).T, field_history=history)


def run_average_system(
    config: ScenarioConfig,
    initial_vartheta: float,
    K_bar: float | None = None,
    check_admissible: bool = True,
) -> AverageRecord:
    """Simulate the averaged error cascade under the averaged control law.

    The compensator gain is K*H unless ``K_bar`` overrides it, and the field
    starts from ``config.initial_alpha``.  The recorded field profiles carry
    the same-time control value at the boundary entry (the weight g vanishes
    there, so the transformed scalar is insensitive to it); the PDE step
    applies the control held over the step.  ``check_admissible=False``
    allows sign-flipped gain probes.
    """
    config.validate()
    if K_bar is None:
        K_bar = config.K_bar
    grid = config.grid
    kernel = make_kernel(K_bar, grid.L, check=check_admissible)
    dt, record_every = config.solver.dt, config.record_every
    n_steps = round(config.T_final / dt)

    fld = make_field(grid, config.solver, initial=config.initial_alpha)
    vartheta = float(initial_vartheta)
    weights = integration_weights(grid.n, grid.dx)
    transformed = linear_functional(grid, weights * kernel.g(grid.nodes()))
    w_end = float(weights[-1])

    rows, profiles = array("d"), []
    for k in range(n_steps + 1):
        Z = vartheta + transformed(fld)
        U = K_bar * Z
        if not (math.isfinite(vartheta) and math.isfinite(U)):
            raise SimulationDiverged(
                f"non-finite averaged state at step {k}: vartheta={vartheta}, U={U}",
                step_index=k,
            )
        if k % record_every == 0:
            consistent = fld.alpha.copy()
            consistent[-1] = U
            u_sq = integrate_profile(consistent**2, grid.dx)
            rows.extend((k * dt, vartheta, U, Z, math.sqrt(u_sq), vartheta**2 + u_sq))
            profiles.append(consistent)
        if k == n_steps:
            break
        vartheta += dt * (spatial_integral(fld) + w_end * (U - fld.boundary))
        step(fld, U)

    return AverageRecord(*np.frombuffer(rows).reshape(-1, 6).T, u=np.array(profiles),
                         grid=grid, K_bar=K_bar)


def run_standard_esc(config: ScenarioConfig) -> TrajectoryRecord:
    """PDE-free baseline loop: the map input is estimate + a*sin(omega*t).

    Reads the map, dither, adaptation gain ``K``, duration, step, initial
    estimate and record cadence of ``config``; the grid and the solver
    scheme are validated but not simulated.  Raises ``SimulationDiverged`` on
    the first non-finite Theta, y or U, as ``run_esc`` does.
    """
    config.validate()
    map_, K, dt, record_every = (config.map, config.gains.K, config.solver.dt,
                                 config.record_every)
    n_steps = round(config.T_final / dt)
    theta_hat = float(config.initial_theta_hat)
    rows = array("d")
    # the map input is perturbed by the probe itself, which the record's S column holds
    for k, (t, _, S, g, h) in enumerate(_samples(config.dither, dt, n_steps + 1)):
        Theta = theta_hat + S
        y = evaluate_map(map_, Theta)
        G_hat = g * y if g is not None else 0.0
        H_hat = h * y if h is not None else 0.0
        U = K * G_hat
        if not (math.isfinite(Theta) and math.isfinite(y) and math.isfinite(U)):
            raise _diverged(k, t, Theta, y, U)
        if k % record_every == 0:
            rows.extend((t, Theta, Theta, y, U, G_hat, H_hat, S,
                         theta_hat - map_.theta_star))
        theta_hat += dt * U
    return TrajectoryRecord(*np.frombuffer(rows).reshape(-1, 9).T)


def _write_csv(path, header: str, data: np.ndarray) -> None:
    """Write a 2-D array as ``%.12g`` comma-delimited rows under a header, formatted
    ``CHUNK`` rows at a time."""
    rows, cols = data.shape
    row = ",".join(["%.12g"] * cols) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for r0 in range(0, rows, CHUNK):
            block = data[r0:r0 + CHUNK]
            fh.write((row * len(block)) % tuple(block.ravel().tolist()))


def save_trajectory_csv(record: TrajectoryRecord, path) -> None:
    """Write the trajectory with the fixed column set."""
    data = np.column_stack([getattr(record, name) for name in TRAJECTORY_COLUMNS.split(",")])
    _write_csv(path, TRAJECTORY_COLUMNS, data)


def save_field_csv(history: FieldHistory, path) -> None:
    """Write field snapshots as long-format (t, x, alpha) rows, in the ``%.12g``
    format of ``_write_csv``, a block of snapshot times (about ``CHUNK`` rows) at a
    time; each distinct t and x is formatted once."""
    xs = ["%.12g," % x for x in history.x.tolist()]
    ts = history.t.tolist()
    per = max(1, CHUNK // max(1, len(xs)))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,x,alpha\n")
        for i0 in range(0, len(ts), per):
            block_ts = ["%.12g," % t for t in ts[i0:i0 + per]]
            heads = [t + x for t in block_ts for x in xs]
            cells = chain.from_iterable(zip(heads, history.alpha[i0:i0 + per].ravel().tolist()))
            fh.write(("%s%.12g\n" * len(heads)) % tuple(cells))


def save_average_csv(record: AverageRecord, path) -> None:
    """Write the averaged-system scalars (profiles are not serialized)."""
    data = np.column_stack([
        record.t, record.vartheta, record.U, record.Z, record.u_norm, record.Omega,
    ])
    _write_csv(path, "t,vartheta,U,Z,u_norm,Omega", data)
