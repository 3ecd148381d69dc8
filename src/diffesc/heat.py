"""1-D diffusion actuator on a uniform grid.

The field obeys  d/dt alpha = eps * d2/dx2 alpha  on [0, L] with an
insulated left end (zero flux at x=0, second-order mirror ghost node) and a
driven right end (Dirichlet value at x=L).  All three schemes are one
theta-method (explicit Euler theta=0, Crank-Nicolson 1/2, implicit Euler 1):
each step solves one symmetric tridiagonal system whose factors, like the
validation and the explicit stability bound, are computed once per
(grid, dt, scheme, diffusion).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.linalg.lapack import dpttrf, dpttrs

__all__ = [
    "SCHEMES",
    "Grid",
    "SolverConfig",
    "ActuatorField",
    "OrderEstimate",
    "make_field",
    "step",
    "spatial_integral",
    "integrate_profile",
    "integration_weights",
    "field_norm_l2",
    "convergence_order",
]

# implicit weight theta of each scheme's theta-method step
THETAS = {"crank_nicolson": 0.5, "implicit_euler": 1.0, "explicit_euler": 0.0}
SCHEMES = tuple(THETAS)


@dataclass(frozen=True)
class Grid:
    """Uniform grid with n nodes spanning [0, L], both boundaries included."""

    L: float
    n: int

    def __post_init__(self):
        if self.n < 3:
            raise ValueError(f"grid needs at least 3 nodes, got {self.n}")
        if not (self.L > 0.0 and math.isfinite(self.L)):
            raise ValueError(f"domain length must be > 0, got {self.L}")

    @property
    def dx(self) -> float:
        return self.L / (self.n - 1)

    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.L, self.n)


@dataclass
class SolverConfig:
    dt: float
    scheme: str = "crank_nicolson"

    def validate(self) -> None:
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise ValueError(f"dt must be > 0, got {self.dt}")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}, expected one of {SCHEMES}")


@dataclass
class ActuatorField:
    """Diffusion state alpha on a grid; alpha[-1] is the applied boundary value."""

    grid: Grid
    alpha: np.ndarray
    t: float = 0.0
    diffusion: float = 1.0


def make_field(grid: Grid, initial=None, diffusion: float = 1.0, t: float = 0.0) -> ActuatorField:
    """Build a field; ``initial`` is a profile array, a callable of x, or None (zeros)."""
    if initial is None:
        alpha = np.zeros(grid.n)
    elif callable(initial):
        alpha = np.asarray(initial(grid.nodes()), dtype=float) * np.ones(grid.n)
    else:
        alpha = np.array(initial, dtype=float)
        if alpha.shape != (grid.n,):
            raise ValueError(f"initial profile has shape {alpha.shape}, expected ({grid.n},)")
    if diffusion <= 0.0:
        raise ValueError(f"diffusion coefficient must be > 0, got {diffusion}")
    return ActuatorField(grid=grid, alpha=alpha, t=t, diffusion=diffusion)


@lru_cache(maxsize=64)
def _stepper(m: int, dx: float, dt: float, scheme: str, eps: float):
    """Validated, factored theta-method step on the m non-Dirichlet nodes.

    With r = eps*dt/dx^2 the step reads (I - theta*r*Lap) v+ =
    (I + (1-theta)*r*Lap) v + boundary terms, where row 0 of Lap is the
    insulated end (mirror ghost: off-diagonal doubled).  Halving row 0 on
    both sides makes both operators symmetric tridiagonal, and the left one
    positive definite, so it is factored once with ``dpttrf``.

    Returns ``(diag, lo, hi, factors)``: the diagonal of the halved
    explicit-side operator, its off-diagonal (1-theta)*r, the implicit
    weight theta*r, and the LDL^T factors.  All arrays are read-only.
    """
    SolverConfig(dt, scheme).validate()
    theta = THETAS[scheme]
    if theta == 0.0 and dt > dx * dx / (2.0 * eps):
        raise ValueError(
            f"explicit step unstable: dt={dt:.3g} exceeds dx^2/(2*eps)={dx*dx/(2*eps):.3g}"
        )
    r = eps * dt / (dx * dx)
    lo, hi = (1.0 - theta) * r, theta * r
    diag = np.full(m, 1.0 - 2.0 * lo)
    lhs_diag = np.full(m, 1.0 + 2.0 * hi)
    diag[0] *= 0.5
    lhs_diag[0] *= 0.5
    factors = dpttrf(lhs_diag, np.full(m - 1, -hi))[:2]
    for arr in (diag, *factors):
        arr.flags.writeable = False
    return diag, lo, hi, factors


def step(field: ActuatorField, boundary_theta: float, config: SolverConfig) -> ActuatorField:
    """Advance the field by one theta-method step, applying the new boundary value.

    The Dirichlet value enters with weight (1-theta)*r at the old time level
    and theta*r at the new one, which keeps Crank-Nicolson second-order
    accurate.  The field is updated in place and returned.
    """
    if not math.isfinite(boundary_theta):
        raise ValueError(f"boundary value is not finite: {boundary_theta}")
    alpha = field.alpha
    if not np.isfinite(alpha).all():
        bad = int(np.flatnonzero(~np.isfinite(alpha))[0])
        raise FloatingPointError(f"non-finite state at node {bad} (t={field.t:.6g})")

    v = alpha[:-1]
    diag, lo, hi, factors = _stepper(v.size, field.grid.dx, config.dt, config.scheme,
                                     field.diffusion)
    rhs = diag * v
    rhs[:-1] += lo * v[1:]
    rhs[1:] += lo * v[:-1]
    rhs[-1] += lo * alpha[-1] + hi * boundary_theta
    v[:] = dpttrs(*factors, rhs, overwrite_b=1)[0]

    alpha[-1] = boundary_theta
    field.t += config.dt
    return field


@lru_cache(maxsize=64)
def integration_weights(n: int, dx: float, rule: str = "auto") -> np.ndarray:
    """Quadrature weights over the grid: composite trapezoid or Simpson.

    ``auto`` picks Simpson when the node count is odd (even panel count),
    trapezoid otherwise.  Built once per (n, dx, rule); the array is read-only.
    """
    if rule == "auto":
        rule = "simpson" if n % 2 == 1 else "trapezoid"
    if rule == "trapezoid":
        w = np.full(n, dx)
        w[0] = w[-1] = 0.5 * dx
    elif rule == "simpson":
        if n % 2 == 0:
            raise ValueError("Simpson weights need an odd number of nodes")
        w = np.full(n, 2.0 * dx / 3.0)
        w[1::2] = 4.0 * dx / 3.0
        w[0] = w[-1] = dx / 3.0
    else:
        raise ValueError(f"unknown quadrature rule {rule!r}")
    w.flags.writeable = False
    return w


def integrate_profile(values: np.ndarray, dx: float, rule: str = "auto") -> float:
    """Integral of grid values over the domain with the selected rule."""
    values = np.asarray(values, dtype=float)
    return float(integration_weights(values.size, dx, rule) @ values)


def spatial_integral(field: ActuatorField, rule: str = "auto") -> float:
    """Integral of the field over [0, L]; this is the input seen by the map."""
    return integrate_profile(field.alpha, field.grid.dx, rule)


def field_norm_l2(field: ActuatorField) -> float:
    """Discrete L2 norm sqrt(integral of alpha^2), trapezoid weights."""
    return math.sqrt(integrate_profile(field.alpha**2, field.grid.dx, rule="trapezoid"))


@dataclass(frozen=True)
class OrderEstimate:
    order: float
    dxs: tuple
    errors: tuple
    inconclusive: bool
    note: str = ""


def convergence_order(
    exact,
    refinements,
    scheme: str = "crank_nicolson",
    L: float = 1.0,
    T: float = 0.5,
    diffusion: float = 1.0,
    error_floor: float = 1e-12,
) -> OrderEstimate:
    """Refinement study against an exact space-time solution.

    ``exact(x, t)`` supplies initial data, the boundary trace at x=L, and the
    reference at the final time.  Returns the least-squares slope of
    log(max error) vs log(dx) over the ``refinements`` list of (n, dt) pairs.
    """
    if len(refinements) < 3:
        raise ValueError("need at least 3 refinement levels")
    dxs, errors = [], []
    for n, dt in refinements:
        grid = Grid(L, n)
        nsteps = max(1, round(T / dt))
        dt_eff = T / nsteps  # land exactly on T
        cfg = SolverConfig(dt=dt_eff, scheme=scheme)
        fld = make_field(grid, initial=lambda x: exact(x, 0.0), diffusion=diffusion)
        for k in range(nsteps):
            step(fld, float(exact(L, (k + 1) * dt_eff)), cfg)
        err = float(np.max(np.abs(fld.alpha - exact(grid.nodes(), T))))
        dxs.append(grid.dx)
        errors.append(err)
    if max(errors) < error_floor:
        return OrderEstimate(
            order=float("nan"),
            dxs=tuple(dxs),
            errors=tuple(errors),
            inconclusive=True,
            note="errors at rounding floor",
        )
    slope = np.polyfit(np.log(dxs), np.log(errors), 1)[0]
    return OrderEstimate(order=float(slope), dxs=tuple(dxs), errors=tuple(errors), inconclusive=False)
