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
from itertools import chain
from typing import NamedTuple

import numpy as np

from .controller import (
    ControllerState,
    ForbiddenGainError,
    check_gain,
    integrate_theta_hat,
    make_kernel,
    realtime_control,
)
from .dither import DitherParams, design_dither, dither_signal, gradient_demod, hessian_demod
from .filters import MIN_DEMOD_AMPLITUDE, FirstOrderFilter, estimate_gradient, estimate_hessian
from .heat import (MAX_NODES, Grid, Readout, SolverConfig, integration_weights, make_field,
                   spatial_integral, step)

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


def _diverged(k: int, t: float, Theta, y, G_hat, H_hat, U) -> SimulationDiverged:
    return SimulationDiverged(f"non-finite signal at step {k} (t={t:.6g}): Theta={Theta}, "
                              f"y={y}, G_hat={G_hat}, H_hat={H_hat}, U={U}", step_index=k)


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

    Each setting has one field and one default; the length is ``grid.L`` only,
    and the probe ``dither`` is derived.  The last three fields are read by
    ``run_average_system`` only.  ``validate``, the gate every runner calls
    first, rejects a forbidden design gain K*H, naming K and H, unless K = 0
    (no adaptation, so no compensated loop), a grid too coarse for the probe
    (k*dx above ``MAX_K_DX``) or finer than ``heat.MAX_NODES``, and any
    magnitude the run would overflow (a^2, the step count ``n_steps``).  It
    builds no array.
    """

    map: StaticMap
    a: float                              # probe amplitude at the map input
    omega: float                          # probe frequency, rad/s
    K: float                              # adaptation gain
    solver: SolverConfig
    grid: Grid
    T_final: float
    c: float = 10.0                       # corner of the control smoothing low-pass
    initial_theta_hat: float = 0.0
    initial_alpha: object = None          # profile array over the grid's nodes, or None (zeros)
    record_every: int = 10
    snapshot_every: int = 0               # 0 disables field snapshots
    washout_corner: float = 1.0
    hessian_corner: float = 1.0
    initial_vartheta: float = 1.0         # averaged run: initial tracking error
    K_bar: float | None = None            # averaged run: compensator gain override (None: K*H)
    allow_unstable: bool = False          # averaged run: skip the gain's sign gate (a probe)

    @property
    def dither(self) -> DitherParams:
        """The probe on the grid's length."""
        return DitherParams(self.a, self.omega, self.grid.L)

    @property
    def n_steps(self) -> int:
        """Solver steps of the run, round(T_final / dt); ``validate`` keeps it finite."""
        return round(self.T_final / self.solver.dt)

    def validate(self) -> None:
        self.map.validate()
        design_dither(self.dither)          # validates the dither; rejects an overflowing probe
        if self.grid.n > MAX_NODES:
            raise ValueError(f"nodes = {self.grid.n} exceeds the cap of {MAX_NODES} of the "
                             "dense modal basis (an FFT transform would lift it)")
        self.solver.validate(self.grid.dx)
        if 0.0 < self.a < MIN_DEMOD_AMPLITUDE:
            raise ValueError(f"dither amplitude {self.a:.3g} is below the demodulation "
                             f"minimum {MIN_DEMOD_AMPLITUDE:.0e} (0 runs without excitation)")
        if not math.isfinite(self.a * self.a):
            raise ValueError(f"dither amplitude {self.a:.3g} is out of range: the "
                             f"curvature demodulation's a^2 overflows")
        if not math.isfinite(self.initial_theta_hat):
            raise ValueError(f"initial input estimate must be finite, "
                             f"got {self.initial_theta_hat}")
        if not math.isfinite(self.initial_vartheta):
            raise ValueError(f"initial_vartheta must be finite, got {self.initial_vartheta}")
        if not (self.K >= 0.0 and math.isfinite(self.K)):
            raise ValueError(f"adaptation gain K must be finite and >= 0, got {self.K}")
        if not (self.T_final > 0.0 and math.isfinite(self.T_final)):
            raise ValueError(f"run duration must be > 0, got {self.T_final}")
        if not math.isfinite(self.T_final / self.solver.dt):
            raise ValueError(f"duration {self.T_final:.6g} and dt = {self.solver.dt:.3g} are "
                             f"out of range: the step count T_final/dt overflows")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")
        if self.snapshot_every < 0:
            raise ValueError("snapshot_every must be >= 0")
        for corner in (self.washout_corner, self.hessian_corner, self.c):
            if not (corner > 0.0 and math.isfinite(corner)):
                raise ValueError(f"filter corner frequencies must be > 0, got {corner}")
        if self.K > 0.0:
            try:
                check_gain(self.K * self.map.H, self.grid.L)
            except ForbiddenGainError as exc:      # name where the gain comes from
                raise ForbiddenGainError(f"design gain K*H = {self.K:.6g} * "
                                         f"{self.map.H:.6g}: {exc}", kappa=exc.kappa) from None
        k_dx = math.sqrt(self.omega / 2.0) * self.grid.dx
        if k_dx > MAX_K_DX:
            raise ValueError(
                f"grid too coarse for the probe: omega = {self.omega}, L = {self.grid.L} "
                f"and nodes = {self.grid.n} give k*dx = sqrt(omega/2)*dx = {k_dx:.3g} > "
                f"{MAX_K_DX}; use nodes >= {math.ceil(k_dx * (self.grid.n - 1) / MAX_K_DX) + 1}")


class TrajectoryRecord(NamedTuple):
    """Sampled closed-loop signals; the first nine fields are the CSV's columns."""

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


TRAJECTORY_COLUMNS = ",".join(TrajectoryRecord._fields[:9])


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
    g and h.

    At a = 0 it warns that there is no excitation and yields g = h = 0.0, so
    every runner step takes the one path and its estimates stay zero.  The
    signals are evaluated as arrays of ``CHUNK`` samples at a time, and one
    ``chain`` yields the zipped columns, so a step reads its sample without a
    Python frame and no whole-run array is ever held."""
    design = design_dither(dither)
    if dither.a == 0.0:
        warnings.warn("dither amplitude is zero: the loop cannot estimate gradients without "
                      "excitation", RuntimeWarning)

    def chunks():
        for k0 in range(0, n, CHUNK):
            t = np.arange(k0, min(k0 + CHUNK, n)) * dt
            probe = dither.a * np.sin(dither.omega * t)
            if dither.a == 0.0:
                g = h = [0.0] * t.size
            else:
                g, h = gradient_demod(dither, t).tolist(), hessian_demod(dither, t).tolist()
            yield zip(t.tolist(), dither_signal(design, t).tolist(), probe.tolist(), g, h)

    return chain.from_iterable(chunks())


def run_esc(config: ScenarioConfig) -> TrajectoryRecord:
    """Run the full extremum-seeking loop with the diffusion actuator.

    Step ordering: measure -> estimate -> control -> integrate the input
    estimate -> apply boundary -> advance the PDE; the control at time t is
    a function of signals at time t only.  Iteration k first advances the
    loop from sample k-1 with this sample's boundary dither.  Raises
    ``SimulationDiverged`` on the first non-finite boundary command, G_hat, H_hat
    or U (a non-finite Theta or y makes the washed output, so both estimates, nan).
    """
    config.validate()
    dt = config.solver.dt
    # read every step, so bound as locals: a NamedTuple field read is slower than a local
    map_, record_every, snapshot_every = config.map, config.record_every, config.snapshot_every

    fld = make_field(config.grid, config.solver, initial=config.initial_alpha)
    washout = FirstOrderFilter(config.washout_corner, dt)
    smoother = FirstOrderFilter(config.hessian_corner, dt)
    ctrl = ControllerState(
        theta_hat=config.initial_theta_hat,
        T_filter=FirstOrderFilter(config.c, dt),
        K=config.K,
        L=config.grid.L,
    )

    rows = array("d")
    snaps_t, snaps_alpha = [], []
    for k, (t, S, probe, g, h) in enumerate(_samples(config.dither, dt, config.n_steps + 1)):
        if k:
            integrate_theta_hat(ctrl, U, dt)
            try:
                step(fld, ctrl.theta_hat + S)
            except ValueError:                     # the estimate can overflow alone
                raise SimulationDiverged(f"non-finite boundary command at step {k} (t={t:.6g}): "
                                         f"theta={ctrl.theta_hat + S}", step_index=k) from None
        Theta = spatial_integral(fld)
        y = evaluate_map(map_, Theta)
        washed = y - washout.step(y)               # the washout s/(s+c) of y
        G_hat = estimate_gradient(washed, g)
        H_hat = estimate_hessian(washed, h, smoother)
        U = realtime_control(ctrl, G_hat, H_hat, Theta, probe)
        if not (math.isfinite(G_hat) and math.isfinite(H_hat) and math.isfinite(U)):
            raise _diverged(k, t, Theta, y, G_hat, H_hat, U)
        if k % record_every == 0:
            rows.extend((t, ctrl.theta_hat + S, Theta, y, U, G_hat, H_hat, S,  # boundary command
                         Theta - probe - map_.theta_star))
        if snapshot_every and k % snapshot_every == 0:
            snaps_t.append(t)
            snaps_alpha.append(fld.alpha)              # a fresh array at each read

    history = None
    if snaps_t:
        history = FieldHistory(t=np.array(snaps_t), x=config.grid.nodes(),
                               alpha=np.array(snaps_alpha))
    return TrajectoryRecord(*np.frombuffer(rows).reshape(-1, 9).T, field_history=history)


def _average_kernel(config: ScenarioConfig):
    """The averaged run's gate beyond ``config.validate()``: ``make_kernel`` of the
    compensator gain (K*H when ``config.K_bar`` is None); returns the kernel."""
    K_bar = config.K_bar
    gain = config.K * config.map.H if K_bar is None else K_bar
    try:
        return make_kernel(gain, config.grid.L, allow_unstable=config.allow_unstable)
    except ForbiddenGainError as exc:      # name where the gain comes from
        source = (f"design gain K*H = {config.K:.6g} * {config.map.H:.6g}" if K_bar is None
                  else f"override K_bar = {K_bar:.6g}")
        probe = ("; only an instability probe (allow_unstable = true) may run it"
                 if gain >= 0.0 else "")
        raise ForbiddenGainError(f"{source}: {exc}{probe}", kappa=exc.kappa) from None


def run_average_system(config: ScenarioConfig) -> AverageRecord:
    """Simulate the averaged error cascade under the averaged control law.

    The compensator gain is K*H unless ``config.K_bar`` overrides it; the
    error starts from ``config.initial_vartheta`` and the field from
    ``config.initial_alpha``.  The recorded field profiles carry the same-time
    control value at the boundary entry (the weight g vanishes there, so the
    transformed scalar is insensitive to it); the PDE step applies the control
    held over the step.  ``config.allow_unstable`` allows sign-flipped gain
    probes.
    """
    config.validate()
    kernel = _average_kernel(config)
    K_bar, grid = kernel.K_bar, config.grid
    dt, record_every, n_steps = config.solver.dt, config.record_every, config.n_steps

    fld = make_field(grid, config.solver, initial=config.initial_alpha)
    vartheta = float(config.initial_vartheta)
    weights = integration_weights(grid.n, grid.dx)
    transformed = Readout(grid, weights * kernel.g(grid.nodes()))
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
            with np.errstate(over="ignore"):           # an overflow is reported below
                u_sq = (consistent * consistent) @ weights
            Omega = vartheta * vartheta + u_sq
            if not math.isfinite(Omega):
                raise SimulationDiverged(
                    f"non-finite energy at step {k}: vartheta={vartheta}, "
                    f"integral of u^2={u_sq}", step_index=k)
            rows.extend((k * dt, vartheta, U, Z, math.sqrt(u_sq), Omega))
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
    the first non-finite G_hat, H_hat or U, as ``run_esc`` does.
    """
    config.validate()
    map_, K, dt, record_every = config.map, config.K, config.solver.dt, config.record_every
    theta_hat = float(config.initial_theta_hat)
    rows = array("d")
    # the map input is perturbed by the probe itself, which the record's S column holds
    for k, (t, _, S, g, h) in enumerate(_samples(config.dither, dt, config.n_steps + 1)):
        Theta = theta_hat + S
        y = evaluate_map(map_, Theta)
        G_hat, H_hat = g * y, h * y
        U = K * G_hat
        if not (math.isfinite(G_hat) and math.isfinite(H_hat) and math.isfinite(U)):
            raise _diverged(k, t, Theta, y, G_hat, H_hat, U)
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
    data = np.column_stack(record[:9])
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
