"""Diffusion solver tests.

The exact reference solution throughout is the planned probing field, which
solves the heat equation with an insulated left end by construction; its
known boundary trace drives the solver and its values at the final time
grade the error.
"""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import solve_banded

from diffesc.dither import DitherParams, design_dither, dither_field
from diffesc.heat import (
    SCHEMES,
    Grid,
    Readout,
    SolverConfig,
    integration_weights,
    make_field,
    spatial_integral,
    step,
)
from diffesc.heat import BLOCK, THETAS, _modes, _propagator
from verification import ERROR_FLOOR, convergence_order


@pytest.fixture(scope="module")
def reference_field():
    design = design_dither(DitherParams(0.2, 10.0, 1.0))
    return lambda x, t: dither_field(design, x, t)


def march(field, boundary_fn, dt, n_steps):
    for k in range(n_steps):
        step(field, float(boundary_fn((k + 1) * dt)))
    return field


def l2_norm(field, grid):
    """The scheme's energy norm: trapezoid weights at every node count."""
    w = np.full(grid.n, grid.dx)
    w[0] = w[-1] = 0.5 * grid.dx
    return math.sqrt(field.alpha**2 @ w)


CN = SolverConfig(dt=1e-3)


@pytest.mark.parametrize("scheme", ["crank_nicolson", "implicit_euler"])
def test_constant_boundary_reaches_steady_state(scheme):
    grid = Grid(1.0, 51)
    fld = make_field(grid, SolverConfig(dt=2e-3, scheme=scheme),
                     initial=np.sin(5 * grid.nodes()) + 1.0)
    march(fld, lambda t: 3.0, 2e-3, 10_000)
    assert np.max(np.abs(fld.alpha - 3.0)) < 1e-6


def test_zero_stays_zero():
    grid = Grid(1.0, 31)
    fld = make_field(grid, CN)
    march(fld, lambda t: 0.0, CN.dt, 500)
    assert np.all(fld.alpha == 0.0)


def test_tracks_exact_solution(reference_field):
    grid = Grid(1.0, 101)
    fld = make_field(grid, CN, initial=reference_field(grid.nodes(), 0.0))
    march(fld, lambda t: reference_field(1.0, t), CN.dt, 1000)
    assert np.max(np.abs(fld.alpha - reference_field(grid.nodes(), 1.0))) < 1e-4


def test_explicit_scheme_and_stability_gate(reference_field):
    grid = Grid(1.0, 26)
    dx = grid.dx
    cfg = SolverConfig(dt=0.4 * dx * dx, scheme="explicit_euler")
    fld = make_field(grid, cfg, initial=reference_field(grid.nodes(), 0.0))
    n = round(0.2 / cfg.dt)
    march(fld, lambda t: reference_field(1.0, t), cfg.dt, n)
    assert np.max(np.abs(fld.alpha - reference_field(grid.nodes(), n * cfg.dt))) < 5e-3

    bad = SolverConfig(dt=0.6 * dx * dx, scheme="explicit_euler")
    with pytest.raises(ValueError, match="unstable"):
        make_field(grid, bad)
    with pytest.raises(ValueError, match="unstable"):
        bad.validate(dx)
    SolverConfig(dt=0.5 * dx * dx, scheme="explicit_euler").validate(dx)   # the bound itself
    for scheme in ("crank_nicolson", "implicit_euler"):    # unconditionally stable
        SolverConfig(dt=0.6 * dx * dx, scheme=scheme).validate(dx)


def test_rejects_non_finite_state_with_node_index():
    grid = Grid(1.0, 11)
    initial = np.zeros(grid.n)
    initial[4] = math.nan
    with pytest.raises(ValueError, match="node 4"):
        make_field(grid, CN, initial=initial)
    with pytest.raises(ValueError):
        step(make_field(grid, CN), math.inf)


def test_implicit_euler_maximum_principle():
    rng = np.random.default_rng(42)
    grid = Grid(1.0, 41)
    initial = rng.uniform(-1.0, 2.0, grid.n)
    fld = make_field(grid, SolverConfig(dt=5e-3, scheme="implicit_euler"), initial=initial)
    boundaries = rng.uniform(-0.5, 1.5, 400)
    lo = min(initial.min(), boundaries.min())
    hi = max(initial.max(), boundaries.max())
    for b in boundaries:
        step(fld, float(b))
        assert fld.alpha.min() >= lo - 1e-12
        assert fld.alpha.max() <= hi + 1e-12


def test_crank_nicolson_norm_nonincreasing_with_zero_boundary():
    rng = np.random.default_rng(3)
    grid = Grid(1.0, 41)
    initial = rng.standard_normal(grid.n)
    initial[-1] = 0.0
    fld = make_field(grid, SolverConfig(dt=5e-3), initial=initial)
    prev = l2_norm(fld, grid)
    for _ in range(200):
        step(fld, 0.0)
        cur = l2_norm(fld, grid)
        assert cur <= prev + 1e-13
        prev = cur


def test_step_is_deterministic(reference_field):
    def run():
        grid = Grid(1.0, 51)
        fld = make_field(grid, CN, initial=reference_field(grid.nodes(), 0.0))
        march(fld, lambda t: reference_field(1.0, t), CN.dt, 300)
        return fld.alpha

    assert np.array_equal(run(), run())


def test_spatial_integral_exact_cases():
    # Simpson at an odd node count, trapezoid at an even one: both exact on a line
    for n in (101, 100):
        grid = Grid(1.0, n)
        const = make_field(grid, CN, initial=np.full(n, 2.5))
        assert spatial_integral(const) == pytest.approx(2.5, abs=1e-14)
        linear = make_field(grid, CN, initial=grid.nodes())
        assert spatial_integral(linear) == pytest.approx(0.5, abs=1e-12)


def test_spatial_integral_quadrature_orders(reference_field):
    # sampled exact field vs its known integral a*sin(omega*t)
    t0 = 0.31
    target = 0.2 * math.sin(10.0 * t0)

    def err(n):
        grid = Grid(1.0, n)
        profile = reference_field(grid.nodes(), t0)
        return abs(profile @ integration_weights(n, grid.dx) - target)

    # the node count's parity picks the rule: trapezoid when even, Simpson when odd
    trap = [err(n) for n in (26, 50, 100)]
    slope_t = np.polyfit(np.log([1 / 25, 1 / 49, 1 / 99]), np.log(trap), 1)[0]
    assert 1.7 < slope_t < 2.3
    simp = [err(n) for n in (51, 101, 201)]
    slope_s = np.polyfit(np.log([1 / 50, 1 / 100, 1 / 200]), np.log(simp), 1)[0]
    assert 3.5 < slope_s < 4.5


def test_integration_weights_built_once_and_read_only():
    w = integration_weights(101, 0.01)
    assert integration_weights(101, 0.01) is w
    with pytest.raises(ValueError, match="read-only"):
        w[0] = 1.0
    assert w.sum() == pytest.approx(1.0, abs=1e-14)


def test_convergence_order_crank_nicolson(reference_field):
    # dt tied to dx^2 so the spatial truncation dominates
    refinements = [(26, 2.56e-3), (51, 6.4e-4), (101, 1.6e-4)]
    order, errors = convergence_order(reference_field, refinements, scheme="crank_nicolson", T=0.5)
    assert max(errors) >= ERROR_FLOOR
    assert 1.8 <= order <= 2.2


def test_convergence_order_implicit_euler_temporal(reference_field):
    # dt tied to dx so the first-order temporal error dominates
    refinements = [(26, 0.016), (51, 0.008), (101, 0.004)]
    order, errors = convergence_order(reference_field, refinements, scheme="implicit_euler", T=0.5)
    assert max(errors) >= ERROR_FLOOR
    assert 0.7 <= order <= 1.3


def test_grid_and_config_validation():
    with pytest.raises(ValueError):
        Grid(1.0, 2)
    with pytest.raises(ValueError):
        Grid(-1.0, 11)
    with pytest.raises(ValueError):
        SolverConfig(dt=-1e-3).validate(0.1)
    with pytest.raises(ValueError):
        SolverConfig(dt=1e-3, scheme="rk4").validate(0.1)
    # dx^2 underflows to 0, or dt/dx^2 overflows: the propagator would divide by
    # zero or build NaN eigenvalues
    for dt, dx in ((1e-3, 1e-200), (1e200, 1e-100)):
        with pytest.raises(ValueError, match="mesh ratio"):
            SolverConfig(dt=dt).validate(dx)
    with pytest.raises(ValueError):
        make_field(Grid(1.0, 11), CN, initial=np.ones(7))


def test_boundary_value_stored_on_field():
    grid = Grid(1.0, 21)
    fld = make_field(grid, CN)
    step(fld, 1.7)
    assert fld.alpha[-1] == 1.7


def banded_step(alpha, boundary_theta, dx, dt, scheme):
    """Reference stepper: one branch per scheme, one banded solve per step."""
    r = dt / (dx * dx)
    v = alpha[:-1]
    theta_old = alpha[-1]
    if scheme == "explicit_euler":
        lap = np.empty_like(v)
        lap[0] = 2.0 * (v[1] - v[0])
        lap[1:-1] = v[:-2] - 2.0 * v[1:-1] + v[2:]
        lap[-1] = v[-2] - 2.0 * v[-1] + theta_old
        v += r * lap
    else:
        w = 0.5 * r if scheme == "crank_nicolson" else r
        ab = np.zeros((3, v.size))
        ab[0, 1:] = -w
        ab[1, :] = 1.0 + 2.0 * w
        ab[2, :-1] = -w
        ab[0, 1] = -2.0 * w
        if scheme == "crank_nicolson":
            rhs = np.empty_like(v)
            rhs[0] = (1.0 - r) * v[0] + r * v[1]
            rhs[1:-1] = v[1:-1] + w * (v[:-2] - 2.0 * v[1:-1] + v[2:])
            rhs[-1] = (1.0 - r) * v[-1] + w * (v[-2] + theta_old + boundary_theta)
        else:
            rhs = v.copy()
            rhs[-1] += r * boundary_theta
        v[:] = solve_banded((1, 1), ab, rhs)
    alpha[-1] = boundary_theta


@st.composite
def stepping_cases(draw):
    n = draw(st.integers(3, 300))
    scheme = draw(st.sampled_from(SCHEMES))
    dx = 1.0 / (n - 1)
    if scheme == "explicit_euler":
        dt = draw(st.floats(0.01, 1.0)) * dx * dx / 2.0
    else:
        dt = draw(st.floats(1e-6, 2e-2))
    unit = st.floats(-1.0, 1.0)
    initial = draw(arrays(np.float64, n, elements=unit))
    boundary = draw(st.lists(unit, min_size=1, max_size=40))
    return n, scheme, dt, initial, boundary


@settings(max_examples=80, deadline=None)
@given(stepping_cases())
def test_step_matches_banded_reference(case):
    n, scheme, dt, initial, boundary = case
    grid = Grid(1.0, n)
    fld = make_field(grid, SolverConfig(dt=dt, scheme=scheme), initial=initial)
    ref = initial.copy()
    for b in boundary:
        step(fld, b)
        banded_step(ref, b, grid.dx, dt, scheme)
        assert np.max(np.abs(fld.alpha - ref)) <= 1e-12


def test_crank_nicolson_long_run_matches_banded_reference(reference_field):
    grid = Grid(1.0, 101)
    fld = make_field(grid, CN, initial=reference_field(grid.nodes(), 0.0))
    ref = fld.alpha.copy()
    for k in range(10_000):
        b = float(reference_field(1.0, (k + 1) * CN.dt))
        step(fld, b)
        banded_step(ref, b, grid.dx, CN.dt, CN.scheme)
    assert np.max(np.abs(fld.alpha - ref)) <= 1e-12
    assert np.max(np.abs(fld.alpha - reference_field(grid.nodes(), 10.0))) < 1e-4


def test_step_factors_built_once_and_read_only():
    grid = Grid(1.0, 21)
    cfg = SolverConfig(dt=1.2345e-3)
    misses = _propagator.cache_info().misses
    fld = march(make_field(grid, cfg), lambda t: math.sin(t), cfg.dt, 50)
    assert _propagator.cache_info().misses == misses + 1
    assert fld.model is _propagator(grid.n - 1, grid.dx, cfg.dt, cfg.scheme)
    assert _modes(grid.n - 1) is _modes(grid.n - 1)
    for arr in (fld.model.powers, fld.model.forcing, _modes(grid.n - 1)):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0


@pytest.mark.parametrize("L, n, solver", [
    (1.0, 101, CN), (1.0, 100, CN),
    (2.0, 41, SolverConfig(dt=1e-3, scheme="implicit_euler")),
    (0.5, 21, SolverConfig(dt=1e-4, scheme="explicit_euler")),
])
def test_public_model_dc_gain_is_the_rod_length(L, n, solver):
    # a held boundary value b settles to the uniform profile b, whose integral is L*b, so
    # the model and the integral's readout give G(1) = sum coef*f/(1-lam) + w_end = L
    # (relative errors 1.1e-14 to 5.3e-14), read through public names only
    fld = make_field(Grid(L, n), solver)
    lam, f = fld.model.powers[1], fld.model.forcing[0]
    gain = np.sum(fld.integral.coef * f / (1.0 - lam)) + fld.integral.w_end
    assert abs(gain - L) <= 1e-12 * L


def test_modal_basis_is_built_in_one_dense_array():
    # the m x m cosine table is the largest array a field needs, so it is built in
    # place: an integer or float temporary of the same size would double the peak
    grid = Grid(1.0, 2049)
    m = grid.n - 1
    _modes.cache_clear()
    tracemalloc.start()
    try:
        make_field(grid, SolverConfig(dt=1e-3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        _modes.cache_clear()
    assert peak <= 1.25 * 8 * m * m


def _former_propagator(m, dx, dt, scheme):
    """Reference: the per-step factors (lam, f, theta), then their block
    lifting (powers, forcing) computed from them."""
    theta = THETAS[scheme]
    r = dt / (dx * dx)
    nu = -4.0 * np.sin((2 * np.arange(m) + 1) * (math.pi / (4 * m))) ** 2
    denom = 1.0 - theta * r * nu
    lam = (1.0 + (1.0 - theta) * r * nu) / denom
    f = (2.0 / m) * _modes(m)[m - 1] * r / denom
    powers = lam ** np.arange(BLOCK + 1)[:, None]
    return lam, f, theta, powers, powers[:BLOCK] * f


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("m", [2, 10, 100, 800])
def test_one_propagator_holds_the_per_step_factors_bit_for_bit(m, scheme):
    dx = 1.0 / m
    dt = 0.45 * dx * dx if scheme == "explicit_euler" else 1e-3
    lam, f, theta, powers, forcing = _former_propagator(m, dx, dt, scheme)
    got_theta, got_powers, got_forcing = _propagator(m, dx, dt, scheme)
    assert got_theta == theta
    assert got_powers[1].tobytes() == lam.tobytes() and got_forcing[0].tobytes() == f.tobytes()
    assert got_powers.tobytes() == powers.tobytes()
    assert got_forcing.tobytes() == forcing.tobytes()


def test_field_profile_is_read_only():
    grid = Grid(1.0, 11)
    fld = make_field(grid, CN, initial=grid.nodes())
    with pytest.raises(ValueError, match="read-only"):
        fld.alpha[3] = 1.0
    assert fld.alpha[3] == pytest.approx(0.3, abs=1e-15)


EPS = np.finfo(float).eps


def unit_vectors(n):
    return arrays(np.float64, n, elements=st.floats(-1.0, 1.0))


# Both checks below compare sums taken in different orders (over nodes and
# over modes), so their bounds follow a rounding model that grows with the
# term count; a wrong mode or coefficient would still be an O(1) error.
@settings(max_examples=60, deadline=None)
@given(profile=st.integers(3, 801).flatmap(unit_vectors))
@example(profile=np.ones(685))          # error 1.23e-13, ~0.2 of the bound
def test_profile_round_trip(profile):
    m = profile.size - 1
    alpha = make_field(Grid(1.0, profile.size), CN, initial=profile).alpha
    assert np.max(np.abs(alpha - profile)) <= 4 * m * EPS * max(1.0, np.max(np.abs(profile)))


@settings(max_examples=40, deadline=None)
@given(case=st.integers(3, 300).flatmap(
    lambda n: st.tuples(unit_vectors(n), unit_vectors(n), st.floats(-1.0, 1.0))))
@example(case=(np.ones(297), np.ones(297), 0.0))      # off by 1.1e-13 near 290, ~5 ulp
def test_linear_functional_matches_nodal_dot_product(case):
    weights, profile, boundary = case
    n = weights.size
    grid = Grid(1.0, n)
    fld = make_field(grid, CN, initial=profile)
    step(fld, boundary)
    # l1 x max-norm rather than sum(|w| * |alpha|): with the weights where the
    # field is ~0 the two sums cancel and the modal one keeps its rounding
    tol = 4 * n * EPS * np.sum(np.abs(weights)) * np.max(np.abs(fld.alpha)) + 1e-300
    assert abs(Readout(grid, weights)(fld) - weights @ fld.alpha) <= tol


def test_crank_nicolson_fine_grid_matches_banded_reference(reference_field):
    # Theta, sampled every 1000 steps, within 1e-12; the nodal profile, which sums
    # m = 800 modal terms per node, within 5e-12 (both measured ~6e-13)
    grid = Grid(1.0, 801)
    fld = make_field(grid, CN, initial=reference_field(grid.nodes(), 0.0))
    ref = fld.alpha.copy()
    w = integration_weights(grid.n, grid.dx)
    for k in range(10_000):
        b = float(reference_field(1.0, (k + 1) * CN.dt))
        step(fld, b)
        banded_step(ref, b, grid.dx, CN.dt, CN.scheme)
        if k % 1000 == 999:
            assert abs(spatial_integral(fld) - w @ ref) <= 1e-12
    assert np.max(np.abs(fld.alpha - ref)) <= 5e-12


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(3, 120),
    scheme=st.sampled_from(["crank_nicolson", "implicit_euler"]),
    dt=st.floats(1e-6, 2e-1),
    data=st.data(),
)
def test_l2_norm_nonincreasing_with_zero_boundary(n, scheme, dt, data):
    initial = data.draw(arrays(np.float64, n, elements=st.floats(-1.0, 1.0)))
    initial[-1] = 0.0
    grid = Grid(1.0, n)
    fld = make_field(grid, SolverConfig(dt=dt, scheme=scheme), initial=initial)
    prev = l2_norm(fld, grid)
    for _ in range(30):
        step(fld, 0.0)
        cur = l2_norm(fld, grid)
        assert cur <= prev * (1.0 + 1e-12) + 1e-15
        prev = cur


@st.composite
def block_cases(draw):
    n = draw(st.integers(3, 120))
    scheme = draw(st.sampled_from(SCHEMES))
    dx = 1.0 / (n - 1)
    if scheme == "explicit_euler":
        dt = draw(st.floats(0.01, 1.0)) * dx * dx / 2.0
    else:
        dt = draw(st.floats(1e-6, 0.5))
    unit = st.floats(-1.0, 1.0)
    length = draw(st.integers(1, 5 * BLOCK).filter(lambda k: k % BLOCK))
    boundary = draw(st.lists(unit, min_size=length, max_size=length))
    reads = draw(st.lists(st.booleans(), min_size=length, max_size=length))
    return (n, scheme, dt, draw(arrays(np.float64, n, elements=unit)), boundary, reads,
            draw(arrays(np.float64, n, elements=unit)))


# The lifted sums round differently from the per-step recurrence, and the
# modal reads differ from nodal dot products in summation order, so reads
# are bounded by a rounding model that grows with the node count plus the
# step count k (worst of 2300 random cases: 0.88 of the model without the
# factor 4); a wrong power, input order or stale free response is an O(1) error.
@settings(max_examples=80, deadline=None)
@given(block_cases())
def test_block_reads_match_per_step_modal_reference(case):
    n, scheme, dt, initial, boundary, reads, weights = case
    m = n - 1
    grid = Grid(1.0, n)
    solver = SolverConfig(dt=dt, scheme=scheme)
    fld = make_field(grid, solver, initial=initial)
    unread = make_field(grid, solver, initial=initial)
    functional = Readout(grid, weights)
    theta, powers, forcing = _propagator(m, grid.dx, dt, scheme)
    lam, f = powers[1], forcing[0]
    half = initial.copy()
    half[0] *= 0.5
    z, b = (2.0 / m) * (half[:-1] @ _modes(m)), initial[-1]
    w = integration_weights(n, grid.dx)
    for k, (b_new, read) in enumerate(zip(boundary, reads), start=1):
        z = lam * z + f * ((1.0 - theta) * b + theta * b_new)     # per-step reference
        b = b_new
        step(fld, b_new)
        step(unread, b_new)
        if read:
            ref = np.append(_modes(m) @ z, b)
            bound = 4 * (n + k) * EPS * max(1.0, np.max(np.abs(ref)))
            assert np.max(np.abs(fld.alpha - ref)) <= bound
            assert abs(spatial_integral(fld) - w @ ref) <= bound * np.sum(np.abs(w))
            assert abs(functional(fld) - weights @ ref) <= bound * np.sum(np.abs(weights)) + 1e-300
    # reads are pure: the field read above and the one never read are bit-identical
    assert np.array_equal(fld.alpha, unread.alpha)
    assert spatial_integral(fld) == spatial_integral(unread)


def test_block_boundaries_count_from_make_field():
    grid = Grid(1.0, 21)
    fld = make_field(grid, CN, initial=grid.nodes())
    anchor, moves = fld.anchor, []
    for k in range(1, 3 * BLOCK + 1):
        step(fld, 0.5)
        fld.alpha                          # a read never moves the anchor
        if fld.anchor is not anchor:
            anchor = fld.anchor
            moves.append(k)
        assert len(fld.inputs) == k % BLOCK
    assert moves == [BLOCK, 2 * BLOCK, 3 * BLOCK]
