"""1-D diffusion actuator on a uniform grid.

The field obeys  d/dt alpha = d2/dx2 alpha  (unit diffusion, the one
actuator the probe design and the backstepping kernel are derived for) on
[0, L] with an insulated left end (zero flux at x=0, second-order mirror
ghost node) and a driven right end (Dirichlet value at x=L), stepped by one
theta-method (explicit Euler theta=0, Crank-Nicolson 1/2, implicit Euler 1).
The discrete Laplacian on the m = n-1 non-Dirichlet nodes has eigenvectors
cos(beta_k j), beta_k = (2k+1)pi/(2m), and eigenvalues -4 sin^2(beta_k/2)/dx^2.
A field is held in these modal coordinates, where a step is elementwise:
z+ = lam*z + f*u with the modal input u = (1-theta)*b_old + theta*b_new.

The recurrence is advanced in blocks of ``BLOCK`` steps (its standard
lifting).  A field keeps the anchor z0, its state at the block's start, and
the block's inputs u_0, u_1, ...; after j of them

    z = lam**j * z0 + sum_{i<j} lam**(j-1-i) * f * u_i,

so a step only records u, and every ``BLOCK``-th step moves the anchor with
one (m, BLOCK) product.  ``_propagator``, cached per (m, dx, dt, scheme),
is the one copy of this lifting, ``_modal_state`` the one place that sums
it (for the anchor move and for ``alpha``), and ``SolverConfig.validate``
holds its rules and builds nothing.  A linear functional c @ z + w * b (the
integral the map sees is one) is then

    P[j] + sum_{i<j} h[j-1-i] * u_i + w * b,

where the free response P[j] = (c * lam**j) @ z0 is refreshed once per
block and the impulse response h[l] = c @ (lam**l * f) once per
propagator: a sum of at most BLOCK - 1 float products per read.  Blocks start every ``BLOCK`` steps
from ``make_field`` and reads never move the anchor, so when and how often a
field is read cannot change its trajectory, and a rerun is bit-identical.
The lifted sums round differently from the per-step recurrence, by a few
ulp of the state's scale.  The eigenbasis is a dense m x m matrix, so
``MAX_NODES`` caps the grid a scenario may use.
"""
from __future__ import annotations

import math
from functools import lru_cache
from operator import mul
from typing import NamedTuple

import numpy as np

__all__ = [
    "SCHEMES",
    "Grid",
    "SolverConfig",
    "ActuatorField",
    "OrderEstimate",
    "make_field",
    "step",
    "linear_functional",
    "spatial_integral",
    "integrate_profile",
    "integration_weights",
    "convergence_order",
]

# implicit weight theta of each scheme's theta-method step
THETAS = {"crank_nicolson": 0.5, "implicit_euler": 1.0, "explicit_euler": 0.0}
SCHEMES = tuple(THETAS)
ERROR_FLOOR = 1e-12     # refinement errors all below it sit at the rounding floor
# steps per lifted block: a longer block spreads its NumPy calls over more
# steps but lengthens the per-read sum (run_esc, 14 s at n = 101 and 801,
# medians of 12 interleaved rounds: 7.0 and 8.0 us/step at 4, 5.9 and 6.7 at
# 8, 5.4 and 6.2 at 16)
BLOCK = 16
# largest scenario grid: make_field plus a step peaks near 8*m^2 B, 129 MiB here;
# a probe that passes loop.MAX_K_DX and dither.MAX_EXPONENT needs <= ~475 nodes
MAX_NODES = 4097


class Grid:
    """Uniform grid with n nodes spanning [0, L], both boundaries included."""

    __slots__ = ("L", "n")

    def __init__(self, L: float, n: int):
        if n < 3:
            raise ValueError(f"grid needs at least 3 nodes, got {n}")
        if not (L > 0.0 and math.isfinite(L)):
            raise ValueError(f"domain length must be > 0, got {L}")
        self.L, self.n = L, n

    @property
    def dx(self) -> float:
        return self.L / (self.n - 1)

    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.L, self.n)


class SolverConfig(NamedTuple):
    dt: float
    scheme: str = "crank_nicolson"

    def validate(self, dx: float) -> None:
        """Reject a bad dt or scheme, a mesh ratio dt/dx^2 beyond the float range, and
        an explicit step above dx^2/2 (unstable)."""
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise ValueError(f"dt must be > 0, got {self.dt}")
        if not (dx * dx > 0.0 and math.isfinite(self.dt / (dx * dx))):
            raise ValueError(f"mesh ratio dt/dx^2 is out of range: dt = {self.dt:.3g}, "
                             f"dx = {dx:.3g}")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}, expected one of {SCHEMES}")
        if THETAS[self.scheme] == 0.0 and self.dt > dx * dx / 2.0:
            raise ValueError(f"explicit step unstable: dt={self.dt:.3g} exceeds "
                             f"dx^2/2={dx*dx/2:.3g}")


@lru_cache(maxsize=8)
def _modes(m: int) -> np.ndarray:
    """Read-only eigenvector matrix Phi[j, k] = cos(beta_k j) of the m-node Laplacian."""
    j = np.arange(m, dtype=float)
    # (2k+1)*j < 2m^2 and its remainder modulo 4m are exact floats, which keeps the
    # cosine argument exact; the one m x m array is reduced, scaled and cosined in place
    phi = np.outer(j, 2.0 * j + 1.0)
    np.fmod(phi, 4 * m, out=phi)
    phi *= math.pi / (2 * m)
    np.cos(phi, out=phi)
    phi.flags.writeable = False
    return phi


class ActuatorField:
    """Diffusion state over the current block of at most ``BLOCK`` steps.

    ``anchor`` is the modal state at the block's start (a new read-only
    array at every block), ``inputs`` the block's modal inputs
    (1-theta)*b_old + theta*b_new so far, newest first, and ``boundary`` the
    applied boundary value.  ``alpha``, the nodal profile (boundary value
    last), is built from the current modal state on each read, read-only,
    and reading it changes nothing.  Everything else is fixed by
    ``make_field`` for the field's life: the implicit weight ``theta`` of its
    solver config, the propagator's ``powers`` (row j is lam**j, j =
    0..BLOCK) and ``forcing`` (row i is lam**i * f), and the readout
    ``integral`` of the auto-rule spatial integral.
    """

    __slots__ = ("anchor", "inputs", "boundary", "theta", "powers", "forcing", "integral")

    def __init__(self, anchor: np.ndarray, inputs: list, boundary: float, theta: float,
                 powers: np.ndarray, forcing: np.ndarray, integral: _Readout):
        self.anchor, self.inputs, self.boundary = anchor, inputs, boundary
        self.theta, self.powers, self.forcing, self.integral = theta, powers, forcing, integral

    @property
    def alpha(self) -> np.ndarray:
        z = _modal_state(self)
        alpha = np.append(_modes(z.size) @ z, self.boundary)
        alpha.flags.writeable = False
        return alpha


def _modal_state(field: ActuatorField) -> np.ndarray:
    """The modal state after the block's j inputs, lam**j * anchor + inputs @ forcing[:j],
    as a new array."""
    j = len(field.inputs)
    z = field.powers[j] * field.anchor
    if j:
        z += np.dot(field.inputs, field.forcing[:j])
    return z


def make_field(grid: Grid, solver: SolverConfig, initial=None) -> ActuatorField:
    """Build a field stepped by ``solver``; ``initial`` is a profile array, a
    callable of x, or None (zeros).  Its first block starts here."""
    if initial is None:
        alpha = np.zeros(grid.n)
    elif callable(initial):
        alpha = np.asarray(initial(grid.nodes()), dtype=float) * np.ones(grid.n)
    else:
        alpha = np.array(initial, dtype=float)
        if alpha.shape != (grid.n,):
            raise ValueError(f"initial profile has shape {alpha.shape}, expected ({grid.n},)")
    bad = np.flatnonzero(~np.isfinite(alpha))
    if bad.size:
        raise ValueError(f"initial profile is not finite at node {bad[0]}")
    # the modes are orthogonal under the node weights (1/2, 1, ..., 1), norm m/2
    m = grid.n - 1
    alpha[0] *= 0.5
    z = (2.0 / m) * (alpha[:-1] @ _modes(m))
    z.flags.writeable = False
    theta, powers, forcing = _propagator(m, grid.dx, solver.dt, solver.scheme)
    integral = _Readout(grid, integration_weights(grid.n, grid.dx))
    return ActuatorField(z, [], float(alpha[-1]), theta, powers, forcing, integral)


@lru_cache(maxsize=64)
def _propagator(m: int, dx: float, dt: float, scheme: str):
    """The validated modal theta-step z+ = lam*z + f*((1-theta)*b_old + theta*b_new),
    lifted over a block: theta, ``powers`` (BLOCK+1, m), row j lam**j, and
    ``forcing`` (BLOCK, m), row i lam**i * f.

    With r = dt/dx^2, lam = (1 + (1-theta)*r*nu)/(1 - theta*r*nu) and f is
    the modal projection of the boundary coupling r*e_{m-1} over the same
    denominator.
    """
    SolverConfig(dt, scheme).validate(dx)
    theta = THETAS[scheme]
    r = dt / (dx * dx)
    nu = -4.0 * np.sin((2 * np.arange(m) + 1) * (math.pi / (4 * m))) ** 2
    denom = 1.0 - theta * r * nu
    lam = (1.0 + (1.0 - theta) * r * nu) / denom
    f = (2.0 / m) * _modes(m)[m - 1] * r / denom
    powers = lam ** np.arange(BLOCK + 1)[:, None]
    forcing = powers[:BLOCK] * f
    powers.flags.writeable = forcing.flags.writeable = False
    return theta, powers, forcing


def step(field: ActuatorField, boundary_theta: float) -> ActuatorField:
    """Advance the field by one theta-method step, applying the new boundary value.

    The Dirichlet value enters with weight (1-theta) at the old time level
    and theta at the new one, which keeps Crank-Nicolson second-order
    accurate.  The step records that modal input; the ``BLOCK``-th input of
    a block moves the anchor to  lam**BLOCK * anchor + inputs @ forcing  and
    starts the next block.  The field is updated in place and returned; it
    stays finite because ``make_field`` and this function reject non-finite
    input.
    """
    if not math.isfinite(boundary_theta):
        raise ValueError(f"boundary value is not finite: {boundary_theta}")
    boundary = float(boundary_theta)
    theta = field.theta
    inputs = field.inputs
    inputs.insert(0, (1.0 - theta) * field.boundary + theta * boundary)
    field.boundary = boundary
    if len(inputs) == BLOCK:
        anchor = _modal_state(field)
        anchor.flags.writeable = False      # readouts key their free response on it
        field.anchor = anchor
        inputs.clear()
    return field


class _Readout:
    """The functional field -> weights @ field.alpha = coef @ z + w_end * boundary,
    with ``coef`` its modal coefficients and ``w_end`` its boundary weight.

    Over a block it is  free[j] + sum_i impulse[i] * inputs[i] + w_end * boundary
    after j inputs: ``free`` (row j: (coef * lam**j) @ anchor) is refreshed
    once per anchor, ``impulse`` (coef @ lam**i * f) once per propagator.
    """

    __slots__ = ("coef", "w_end", "forcing", "rows", "impulse", "anchor", "free")

    def __init__(self, grid: Grid, weights):
        self.coef, self.w_end = weights[:-1] @ _modes(grid.n - 1), float(weights[-1])
        self.forcing = self.anchor = None

    def __call__(self, fld: ActuatorField) -> float:
        if fld.anchor is not self.anchor:
            self._refresh(fld)
        u = fld.inputs
        return sum(map(mul, u, self.impulse), self.free[len(u)]) + self.w_end * fld.boundary

    def _refresh(self, fld: ActuatorField) -> None:
        if fld.forcing is not self.forcing:
            self.rows = fld.powers[:BLOCK] * self.coef
            self.impulse = (fld.forcing @ self.coef).tolist()
            self.forcing = fld.forcing
        self.free = (self.rows @ fld.anchor).tolist()
        self.anchor = fld.anchor


def linear_functional(grid: Grid, weights):
    """The map field -> weights @ field.alpha on ``grid``.

    Served from the field's block data: one (BLOCK, m) product per block, then
    a sum of at most BLOCK - 1 products per call.  The returned readout keeps
    the free response of the last anchor it read, so reading several fields
    in turn refreshes it on every call.
    """
    return _Readout(grid, weights)


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


def integrate_profile(values: np.ndarray, dx: float, rule: str = "auto"):
    """Integral of grid values along the last axis by the selected rule: a float,
    or an array for a stack of profiles."""
    values = np.asarray(values, dtype=float)
    total = values @ integration_weights(values.shape[-1], dx, rule)
    return float(total) if values.ndim == 1 else total


def spatial_integral(field: ActuatorField) -> float:
    """Integral of the field over [0, L] (auto rule); this is the input seen by the map."""
    readout = field.integral         # _Readout.__call__ inlined: the loop reads it every step
    if field.anchor is not readout.anchor:
        readout._refresh(field)
    u = field.inputs
    return sum(map(mul, u, readout.impulse), readout.free[len(u)]) + readout.w_end * field.boundary


class OrderEstimate(NamedTuple):
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
) -> OrderEstimate:
    """Refinement study against an exact space-time solution.

    ``exact(x, t)`` supplies initial data, the boundary trace at x=L, and the
    reference at the final time.  Returns the least-squares slope of
    log(max error) vs log(dx) over the ``refinements`` list of (n, dt) pairs;
    inconclusive when every error is below ``ERROR_FLOOR``.
    """
    if len(refinements) < 3:
        raise ValueError("need at least 3 refinement levels")
    dxs, errors = [], []
    for n, dt in refinements:
        grid = Grid(L, n)
        nsteps = max(1, round(T / dt))
        dt_eff = T / nsteps  # land exactly on T
        fld = make_field(grid, SolverConfig(dt=dt_eff, scheme=scheme),
                         initial=lambda x: exact(x, 0.0))
        for k in range(nsteps):
            step(fld, float(exact(L, (k + 1) * dt_eff)))
        err = float(np.max(np.abs(fld.alpha - exact(grid.nodes(), T))))
        dxs.append(grid.dx)
        errors.append(err)
    floor = max(errors) < ERROR_FLOOR
    order = math.nan if floor else float(np.polyfit(np.log(dxs), np.log(errors), 1)[0])
    return OrderEstimate(order=order, dxs=tuple(dxs), errors=tuple(errors), inconclusive=floor,
                         note="errors at rounding floor" if floor else "")
