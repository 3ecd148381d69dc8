"""Numerical verification of the structural claims behind the controller.

Checks that can only be demonstrated, not asserted, at runtime: the
backstepping transformation (``to_target``) really maps the averaged cascade
onto the stable target system, trajectories decay exponentially with a
measurable rate, and the residual optimization error scales with dither
amplitude and frequency at the predicted orders.  The inverse transformation,
the actuator's refinement study and the period-averaging identities are test
code (``tests/verification.py``): no command runs them.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .controller import BacksteppingKernel
from .heat import Grid, integration_weights
from .loop import AverageRecord, StaticMap, TrajectoryRecord, _write_csv

__all__ = [
    "TargetState",
    "TargetResiduals",
    "DecayFit",
    "ScalingFit",
    "to_target",
    "target_residuals",
    "fit_decay",
    "late_time_residuals",
    "residual_scaling",
    "save_fit_residuals_csv",
    "format_report",
]

DECAY_WINDOW = 0.5          # trailing fraction of a record that fit_decay fits
DECAY_FLOOR = 1e-280        # fit_decay leaves out samples at or below it as rounding noise
RESIDUAL_WINDOW = 0.2       # trailing fraction of a run that late_time_residuals averages
RESIDUAL_FLOOR = 1e-12      # residuals below it sit at the solver error floor


class TargetState(NamedTuple):
    """Transformed coordinates: scalar Z and field w on the grid, or a stack of them."""

    Z: float
    w: np.ndarray


def to_target(kernel: BacksteppingKernel, vartheta: float | np.ndarray, u_profile: np.ndarray,
              grid: Grid) -> TargetState:
    """Forward transformation (vartheta, u) -> (Z = vartheta + integral of g*u,
    w = u - gamma*Z), the one nodal form; ``u_profile`` may be a stack of
    profiles along the last axis, with a ``vartheta`` for each."""
    x = grid.nodes()
    Z = vartheta + (kernel.g(x) * u_profile) @ integration_weights(grid.n, grid.dx)
    return TargetState(Z=Z, w=u_profile - np.multiply.outer(Z, kernel.gamma(x)))


class TargetResiduals(NamedTuple):
    """How well an averaged run satisfies the target-system equations."""

    scalar_residual: float      # max |dZ/dt - A_cl * Z|
    boundary_residual: float    # max |w at the driven end|
    heat_residual: float        # max |dw/dt - d2w/dx2| on interior nodes
    inconclusive: bool
    note: str = ""


def target_residuals(record: AverageRecord, kernel: BacksteppingKernel,
                     t_min: float = 0.0) -> TargetResiduals:
    """Finite-difference residuals of the target dynamics along a trajectory.

    ``t_min`` masks the startup window: the initial field is generally
    incompatible with the control at t=0, and the resulting fast transient
    swamps finite differences.  The scalar residual decays at first order in
    the step size; the field residual additionally carries the control
    sample-and-hold lag divided by dx^2 near the driven end.
    """
    t = record.t
    sel = t >= t_min
    if t.size < 7 or sel.sum() < 5:
        return TargetResiduals(math.nan, math.nan, math.nan, True,
                               "too few samples for finite differencing")
    dt_s = float(t[1] - t[0])
    grid = record.grid
    Z, w = to_target(kernel, record.vartheta, record.u, grid)

    inner = sel[1:-1]  # central differences exist for samples 1..m-2
    Zdot = (Z[2:] - Z[:-2]) / (2.0 * dt_s)
    scalar_residual = float(np.max(np.abs(Zdot - kernel.A_cl * Z[1:-1])[inner]))

    boundary_residual = float(np.max(np.abs(w[sel, -1])))

    dx = grid.dx
    w_t = (w[2:, :] - w[:-2, :]) / (2.0 * dt_s)
    w_xx = (w[1:-1, :-2] - 2.0 * w[1:-1, 1:-1] + w[1:-1, 2:]) / (dx * dx)
    heat_residual = float(np.max(np.abs(w_t[:, 1:-1] - w_xx)[inner, :]))

    return TargetResiduals(
        scalar_residual=scalar_residual,
        boundary_residual=boundary_residual,
        heat_residual=heat_residual,
        inconclusive=False,
    )


class DecayFit(NamedTuple):
    """Exponential fit envelope(t) ~ eta_hat * value(0) * exp(-nu_hat * t)."""

    eta_hat: float
    nu_hat: float
    r_squared: float
    window: tuple
    n_points: int
    degenerate: bool
    note: str = ""


def _line_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Least-squares line y ~ slope*x + intercept: (slope, intercept, R^2).

    Centred closed form in multiply-and-sum reductions: no LAPACK call (the
    first one of a process adds ~1 MiB of resident memory), and the same bits
    under every BLAS kernel and SIMD dispatch level.
    """
    x_mean, y_mean = x.mean(), y.mean()
    dx = x - x_mean
    slope = np.sum(dx * (y - y_mean)) / np.sum(dx * dx)
    intercept = y_mean - slope * x_mean
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    return float(slope), float(intercept), (1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0)


def _fitted(t: np.ndarray, values: np.ndarray, t0: float) -> np.ndarray:
    """The samples ``fit_decay`` fits: at or after ``t0`` and above ``DECAY_FLOOR``."""
    return (t >= t0) & (values > DECAY_FLOOR)


def fit_decay(t: np.ndarray, omega_series: np.ndarray) -> DecayFit:
    """Least-squares line on log(values) over the trailing ``DECAY_WINDOW`` (half).

    Values at or below ``DECAY_FLOOR`` are excluded (noted); the fit is
    flagged degenerate when fewer than 3 usable points remain, as in a record
    of fewer than 3 samples.
    """
    t = np.asarray(t, dtype=float)
    vals = np.asarray(omega_series, dtype=float)
    if t.shape != vals.shape or t.size == 0:
        raise ValueError("need matching, non-empty t/value arrays")
    t0 = t[-1] - DECAY_WINDOW * (t[-1] - t[0])
    sel = t >= t0
    usable = _fitted(t, vals, t0)
    note = ""
    if usable.sum() < sel.sum():
        note = f"excluded {int(sel.sum() - usable.sum())} samples at/below the rounding floor"
    if usable.sum() < 3:
        return DecayFit(math.nan, math.nan, math.nan, (float(t0), float(t[-1])),
                        int(usable.sum()), True, note or "too few usable samples")
    slope, intercept, r2 = _line_fit(t[usable], np.log(vals[usable]))
    # in the log domain: exp(intercept) alone overflows when value(0) nears the float range
    eta_hat = math.exp(intercept - math.log(vals[0])) if vals[0] > 0 else math.nan
    return DecayFit(
        eta_hat=float(eta_hat),
        nu_hat=float(-slope),
        r_squared=float(r2),
        window=(float(t0), float(t[-1])),
        n_points=int(usable.sum()),
        degenerate=False,
        note=note,
    )


def late_time_residuals(record: TrajectoryRecord, map_: StaticMap) -> tuple[float, float]:
    """Time means of |y - y*| and |Theta - Theta*| over the trailing
    ``RESIDUAL_WINDOW`` (fifth) of the run."""
    t = record.t
    sel = t >= t[-1] - RESIDUAL_WINDOW * (t[-1] - t[0])
    y_res = float(np.mean(np.abs(record.y[sel] - map_.y_star)))
    theta_res = float(np.mean(np.abs(record.Theta[sel] - map_.theta_star)))
    return y_res, theta_res


class ScalingFit(NamedTuple):
    """Slopes and R^2 of the log late-time residuals on log dither amplitude."""

    y_exponent: float
    theta_exponent: float
    y_r_squared: float
    theta_r_squared: float
    inconclusive: bool
    note: str = ""


def residual_scaling(residuals: dict) -> ScalingFit:
    """Fit residual-vs-amplitude exponents from ``{amplitude: (y_res, theta_res)}``,
    each pair as ``late_time_residuals`` gives it.

    Expected exponents for a quadratic map at fixed large frequency: about 2
    for the output residual and about 1 for the input residual.  Fewer than
    3 amplitudes, an amplitude that is not positive (it has no logarithm), or
    residuals below ``RESIDUAL_FLOOR`` are inconclusive.
    """
    def inconclusive(note):
        return ScalingFit(math.nan, math.nan, math.nan, math.nan, True, note)

    if len(residuals) < 3:
        return inconclusive("need at least 3 completed runs")
    amps = np.array(list(residuals), dtype=float)
    if not np.all(amps > 0.0):
        return inconclusive(f"amplitude {amps.min():g} is not positive: no log-log fit")
    y_res, th_res = np.array(list(residuals.values()), dtype=float).T
    if np.any(y_res < RESIDUAL_FLOOR) or np.any(th_res < RESIDUAL_FLOOR):
        return inconclusive("residuals at solver error floor")
    y_exp, _, y_r2 = _line_fit(np.log(amps), np.log(y_res))
    th_exp, _, th_r2 = _line_fit(np.log(amps), np.log(th_res))
    return ScalingFit(y_exp, th_exp, y_r2, th_r2, inconclusive=False)


def format_report(items: dict) -> str:
    """Render an analysis report as plain 'key: value' lines."""
    lines = []
    for key, value in items.items():
        if isinstance(value, float):
            lines.append(f"{key}: {value:.6g}")
        else:
            lines.append(f"{key}: {value}")
    return "\n".join(lines) + "\n"


def save_fit_residuals_csv(t: np.ndarray, values: np.ndarray, fit: DecayFit, path) -> None:
    """Write the decay fit's log-domain residuals at exactly the samples it fitted."""
    t = np.asarray(t, dtype=float)
    values = np.asarray(values, dtype=float)
    sel = _fitted(t, values, fit.window[0])
    logv = np.log(values[sel])
    log_ref = math.log(values[0]) if values[0] > 0 else math.nan   # as fit_decay's reference
    fitted = math.log(fit.eta_hat) + log_ref - fit.nu_hat * t[sel]
    data = np.column_stack([t[sel], logv, fitted, logv - fitted])
    _write_csv(path, "t,log_value,fit,residual", data)
