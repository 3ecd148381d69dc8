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
one (m, BLOCK) product.  ``ActuatorModel``, cached per (m, dx, dt, scheme)
and held by each field as ``model``, is the one copy of this lifting,
``_modal_state`` the one place that sums it (for the anchor move and for
``alpha``), and ``SolverConfig.validate`` holds its rules and builds nothing.
A ``Readout`` c @ z + w * b (the integral the map sees is one) is then

    P[j] + sum_{i<j} h[j-1-i] * u_i + w * b,

where the free response P[j] = (c * lam**j) @ z0 is refreshed once per
block and the impulse response h[l] = c @ (lam**l * f) once per model: a
sum of at most BLOCK - 1 float products per read.  Blocks start every
``BLOCK`` steps from ``make_field`` and reads never move the anchor, so when
and how often a field is read cannot change its trajectory, and a rerun is
bit-identical.
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
    "ActuatorModel",
    "ActuatorField",
    "Readout",
    "make_field",
    "step",
    "spatial_integral",
    "integration_weights",
]

# implicit weight theta of each scheme's theta-method step
THETAS = {"crank_nicolson": 0.5, "implicit_euler": 1.0, "explicit_euler": 0.0}
SCHEMES = tuple(THETAS)
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


class ActuatorModel(NamedTuple):
    """The discrete actuator, per mode z+ = lam*z + f*((1-theta)*b_old + theta*b_new),
    lifted over a block: row j of ``powers`` (BLOCK+1, m) is lam**j, so lam = powers[1],
    and row i of ``forcing`` (BLOCK, m) is lam**i * f, so f = forcing[0]; both read-only."""

    theta: float                # the scheme's implicit weight
    powers: np.ndarray
    forcing: np.ndarray


class ActuatorField:
    """Diffusion state over the current block of at most ``BLOCK`` steps.

    ``anchor`` is the modal state at the block's start (a new read-only
    array at every block), ``inputs`` the block's modal inputs
    (1-theta)*b_old + theta*b_new so far, newest first, and ``boundary`` the
    applied boundary value.  ``alpha``, the nodal profile (boundary value
    last), is built from the current modal state on each read, read-only,
    and reading it changes nothing.  ``make_field`` fixes the rest for the
    field's life: the ``model`` of its grid and solver config, and the
    ``integral``, the ``Readout`` of the spatial integral (``integration_weights``).
    """

    __slots__ = ("anchor", "inputs", "boundary", "model", "integral")

    def __init__(self, anchor: np.ndarray, inputs: list, boundary: float,
                 model: ActuatorModel, integral: Readout):
        self.anchor, self.inputs, self.boundary = anchor, inputs, boundary
        self.model, self.integral = model, integral

    @property
    def alpha(self) -> np.ndarray:
        z = _modal_state(self)
        alpha = np.append(_modes(z.size) @ z, self.boundary)
        alpha.flags.writeable = False
        return alpha


def _modal_state(field: ActuatorField) -> np.ndarray:
    """The modal state after the block's j inputs, lam**j * anchor + inputs @ forcing[:j],
    as a new array."""
    j, model = len(field.inputs), field.model
    z = model.powers[j] * field.anchor
    if j:
        z += np.dot(field.inputs, model.forcing[:j])
    return z


def make_field(grid: Grid, solver: SolverConfig, initial=None) -> ActuatorField:
    """Build a field stepped by ``solver``; ``initial`` is a profile array over the
    grid's nodes or None (zeros).  Its first block starts here."""
    if initial is None:
        alpha = np.zeros(grid.n)
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
    model = _propagator(m, grid.dx, solver.dt, solver.scheme)
    return ActuatorField(z, [], float(alpha[-1]), model,
                         Readout(grid, integration_weights(grid.n, grid.dx)))


@lru_cache(maxsize=64)
def _propagator(m: int, dx: float, dt: float, scheme: str) -> ActuatorModel:
    """The validated ``ActuatorModel`` of m modes for grid step dx, time step dt and scheme.

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
    return ActuatorModel(theta, powers, forcing)


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
    theta = field.model.theta
    inputs = field.inputs
    inputs.insert(0, (1.0 - theta) * field.boundary + theta * boundary)
    field.boundary = boundary
    if len(inputs) == BLOCK:
        anchor = _modal_state(field)
        anchor.flags.writeable = False      # readouts key their free response on it
        field.anchor = anchor
        inputs.clear()
    return field


class Readout:
    """The functional field -> weights @ field.alpha = coef @ z + w_end * boundary on
    ``grid``: ``coef`` holds the weights' modal coefficients, ``w_end`` the boundary weight.

    Over a block it is  free[j] + sum_i impulse[i] * inputs[i] + w_end * boundary
    after j inputs: ``free`` (row j: (coef * lam**j) @ anchor) is refreshed
    once per anchor, ``impulse`` (coef @ lam**i * f) once per model.  Only the last
    anchor's ``free`` is kept, so reading several fields in turn refreshes it each call.
    """

    __slots__ = ("coef", "w_end", "model", "rows", "impulse", "anchor", "free")

    def __init__(self, grid: Grid, weights):
        self.coef, self.w_end = weights[:-1] @ _modes(grid.n - 1), float(weights[-1])
        self.model = self.anchor = None

    def __call__(self, fld: ActuatorField) -> float:
        if fld.anchor is not self.anchor:
            self._refresh(fld)
        u = fld.inputs
        return sum(map(mul, u, self.impulse), self.free[len(u)]) + self.w_end * fld.boundary

    def _refresh(self, fld: ActuatorField) -> None:
        model = fld.model
        if model is not self.model:
            self.rows = model.powers[:BLOCK] * self.coef
            self.impulse = (model.forcing @ self.coef).tolist()
            self.model = model
        self.free = (self.rows @ fld.anchor).tolist()
        self.anchor = fld.anchor


@lru_cache(maxsize=64)
def integration_weights(n: int, dx: float) -> np.ndarray:
    """Quadrature weights over the grid, the one rule of every profile integral:
    composite Simpson when the node count is odd (even panel count), trapezoid
    when it is even.  Built once per (n, dx); the array is read-only."""
    if n % 2 == 1:
        w = np.full(n, 2.0 * dx / 3.0)
        w[1::2] = 4.0 * dx / 3.0
        w[0] = w[-1] = dx / 3.0
    else:
        w = np.full(n, dx)
        w[0] = w[-1] = 0.5 * dx
    w.flags.writeable = False
    return w


def spatial_integral(field: ActuatorField) -> float:
    """Integral of the field over [0, L] by ``integration_weights``: the map's input."""
    readout = field.integral      # Readout.__call__ inlined: one call frame less per loop step
    if field.anchor is not readout.anchor:
        readout._refresh(field)
    u = field.inputs
    return sum(map(mul, u, readout.impulse), readout.free[len(u)]) + readout.w_end * field.boundary
