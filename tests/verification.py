"""Verification studies behind acceptance criteria 2, 5, 7 and 9 and their
unit tests.  No command runs them, so they live with the tests, written
against the package's public API."""
import numpy as np

from diffesc.analysis import _line_fit
from diffesc.dither import QUADRATURE_NODES, field_integral, gradient_demod, hessian_demod
from diffesc.heat import Grid, SolverConfig, integration_weights, make_field, step

ERROR_FLOOR = 1e-12     # refinement errors all below it sit at the rounding floor
IDENTITY_TOL = 1e-6     # the largest residual of the probe's integral identity that passes


def gauss_legendre(lo, hi):
    """``QUADRATURE_NODES`` Gauss-Legendre nodes and weights scaled to [lo, hi]."""
    nodes, weights = np.polynomial.legendre.leggauss(QUADRATURE_NODES)
    half = 0.5 * (hi - lo)
    return lo + half * (nodes + 1.0), half * weights


def identity_residual(design, ts):
    """max |integral of the planned field - a*sin(omega*t)| over the times ``ts``."""
    p = design.params
    return float(np.max(np.abs(field_integral(design, ts) - p.a * np.sin(p.omega * ts))))


def convergence_order(exact, refinements, scheme="crank_nicolson", L=1.0, T=0.5):
    """Refinement study against an exact space-time solution ``exact(x, t)``,
    which supplies the initial data, the boundary trace at x = L and the
    reference at time T.  Returns (order, errors): the least-squares slope of
    log(max error) on log(dx) over the (n, dt) pairs of ``refinements``, and
    the max errors themselves."""
    dxs, errors = [], []
    for n, dt in refinements:
        grid = Grid(L, n)
        nsteps = max(1, round(T / dt))
        dt = T / nsteps                     # land exactly on T
        fld = make_field(grid, SolverConfig(dt, scheme), initial=exact(grid.nodes(), 0.0))
        for k in range(nsteps):
            step(fld, float(exact(L, (k + 1) * dt)))
        dxs.append(grid.dx)
        errors.append(float(np.max(np.abs(fld.alpha - exact(grid.nodes(), T)))))
    return _line_fit(np.log(dxs), np.log(errors))[0], errors


def period_average_estimates(params, y_star, H, vartheta):
    """(G, H) averages of the demodulated map output over one period, for the
    output y = y_star + (H/2)*(vartheta + a*sin(omega t))^2 at a frozen
    tracking error; they equal (H*vartheta, H).  Gauss-Legendre quadrature."""
    t, w = gauss_legendre(0.0, params.period)
    y = y_star + 0.5 * H * (vartheta + params.a * np.sin(params.omega * t)) ** 2
    return (float(w @ (gradient_demod(params, t) * y)) / params.period,
            float(w @ (hessian_demod(params, t) * y)) / params.period)


def from_target(kernel, target, grid):
    """Inverse of ``analysis.to_target``, (Z, w) -> (vartheta, u): u = w + gamma*Z
    and vartheta = (1 - integral of g*gamma)*Z - integral of g*w.  Exact up to
    rounding, as both integrals take the forward map's weights."""
    x = grid.nodes()
    g, gamma, w = kernel.g(x), kernel.gamma(x), integration_weights(grid.n, grid.dx)
    vartheta = (1.0 - (g * gamma) @ w) * target.Z - (g * target.w) @ w
    return float(vartheta), target.w + gamma * target.Z
