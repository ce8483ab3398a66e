"""Newton oracle, gradient validation, exhaustive scans."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import partialcrit as pc
from partialcrit import oracle, problems
from partialcrit.errors import ConvergenceError

from reference import brute_nash, fd_gradient_check


def test_newton_exact_on_affine_residual(scalar_linear):
    # quadratic coupling means an affine residual: one Newton step suffices,
    # GMRES solving its two unknowns exactly
    result = pc.newton_full(scalar_linear)
    assert result.converged
    assert result.iterations <= 2
    ref = np.linalg.solve(np.array([[2.0, -0.2], [0.2, 2.0]]),
                          np.array([1.0, 0.0]))
    assert result.u_star.coeffs[0] == pytest.approx(ref[0], abs=1e-10)
    assert result.v_star.coeffs[0] == pytest.approx(ref[1], abs=1e-10)


def test_newton_agrees_with_scheme(bundled, solved):
    for name in ("scalar_linear", "scalar_sincos", "sincos_1d"):
        system = bundled[name]
        pair, _ = solved[name]
        orc = pc.newton_full(system)
        du = pc.norm_a(pair.u_star - orc.u_star, system.space)
        dv = pc.norm_a(pair.v_star - orc.v_star, system.space)
        assert np.hypot(du, dv) <= 10 * (1e-8 + 1e-8), name


def test_newton_surfaces_residual_errors(scalar_linear):
    # an error raised inside the residual reaches the caller unchanged,
    # also from within the matrix-free GMRES step
    calls = []

    def eval_nu(u, v):
        calls.append(None)
        if len(calls) > 1:
            raise TypeError("residual failed")
        return scalar_linear.eval_Nu(u, v)

    broken = dataclasses.replace(scalar_linear, eval_Nu=eval_nu)
    with pytest.raises(TypeError, match="residual failed"):
        pc.newton_full(broken, jacobian_free=True)


def test_a_newton_residual_samples_each_side_once(monkeypatch):
    # 2 curls a stacked residual, u's and v's, on every GMRES matvec and
    # line-search step, where the two gradients each sampled both sides
    curls = [0]
    curl = problems._StokesGrid.curl

    def counting(self, psi):
        curls[0] += 1
        return curl(self, psi)

    monkeypatch.setattr(problems._StokesGrid, "curl", counting)
    system = pc.build_stokes(pc.StokesSpec(
        n_per_dim=9, lengths=(1.0, 1.0), mu_coeff=1.0,
        nonlinearity=pc.NonlinearitySpec.sincos(0.5)))
    resids = [0]
    eval_nu = system.eval_Nu

    def counted(u, v):
        resids[0] += 1
        return eval_nu(u, v)

    curls[0] = 0
    result = oracle.newton_full(dataclasses.replace(system, eval_Nu=counted))
    assert result.converged and resids[0] > 2
    assert curls[0] == 2 * resids[0]


def test_newton_dense_and_matrix_free_agree(sincos_1d):
    dense = pc.newton_full(sincos_1d, jacobian_free=False)
    free = pc.newton_full(sincos_1d, jacobian_free=True)
    diff = pc.norm_a(dense.u_star - free.u_star, sincos_1d.space)
    assert diff <= 1e-7


def test_newton_line_search_failure():
    # a strong sincos coupling on a soft scalar operator: at iteration 9
    # no halving of the Newton step lowers the stacked residual
    system = pc.build_scalar(0.5, pc.NonlinearitySpec.sincos(3.0))
    with pytest.raises(ConvergenceError) as err:
        pc.newton_full(system, jacobian_free=False)
    assert str(err.value) == ("line search could not reduce the stacked "
                              "residual")
    assert err.value.iterations == 9


def test_newton_gmres_failure_names_the_newton_iteration():
    # the system above on the matrix-free path: at Newton iteration 7
    # restarted GMRES runs out of its 300 cycles
    system = pc.build_scalar(0.5, pc.NonlinearitySpec.sincos(3.0))
    with pytest.raises(ConvergenceError) as err:
        pc.newton_full(system, jacobian_free=True)
    assert str(err.value) == ("inner linear solve did not converge "
                              "(gmres info 300)")
    assert err.value.iterations == 7


def test_newton_budget_error(monkeypatch):
    system = pc.build_scalar(2.0,
                             pc.NonlinearitySpec.quadratic(0.0, 0.2, 0.0, 1.0))
    # one Newton step lands on this linear system's solution, but a
    # one-step budget ends before the convergence test sees it
    monkeypatch.setattr(oracle, "NEWTON_MAX_ITERS", 1)
    with pytest.raises(ConvergenceError) as err:
        pc.newton_full(system)
    assert str(err.value) == "no convergence in 1 iterations"
    assert err.value.iterations == 1
    # an infinite tol used to accept the zero pair at iteration 0
    for bad in (0.0, -1e-8, np.inf, np.nan):
        with pytest.raises(ValueError,
                           match="^tol must be positive and finite$"):
            pc.newton_full(system, tol=bad)


def test_newton_singular_jacobian_is_a_solver_failure():
    # c = -a_value / 2 zeroes the v-derivative of the v-residual
    system = pc.build_scalar(2.0,
                             pc.NonlinearitySpec.quadratic(0.0, 0.0, -1.0, 1.0))
    with pytest.raises(ConvergenceError, match="Jacobian"):
        pc.newton_full(system, jacobian_free=False)


def test_fd_gradient_check_small_on_random_states(bundled, rng):
    for name, system in bundled.items():
        space = system.space
        u = 0.5 * rng.standard_normal(space.dim)
        v = 0.5 * rng.standard_normal(space.dim)
        err = fd_gradient_check(system, u, v, n_dirs=5)
        assert err <= 1e-5, f"{name}: {err}"


def test_fd_gradient_check_refuses_no_directions(sincos_1d):
    # no direction would score a perfect 0.0 from no check at all
    u = v = np.zeros(sincos_1d.space.dim)
    for n_dirs in (0, -1):
        with pytest.raises(ValueError, match="^n_dirs must be at least 1"):
            fd_gradient_check(sincos_1d, u, v, n_dirs=n_dirs)


def test_brute_nash_confirms_scalar_solutions(bundled, solved):
    for name in ("scalar_linear", "scalar_sincos", "scalar_stiff"):
        pair, _ = solved[name]
        rep = brute_nash(bundled[name], pair, grid_radius=0.5, grid_n=401)
        assert rep.ok, f"{name}: {rep}"
        assert rep.min_e1_delta >= -rep.slack
        assert rep.max_e2_delta <= rep.slack


def test_brute_nash_input_checks(sincos_1d, scalar_linear, solved):
    pair, _ = solved["scalar_linear"]
    with pytest.raises(ValueError):
        brute_nash(sincos_1d, pair)  # dimension too large
    space = scalar_linear.space
    zero = space.wrap(np.zeros(space.dim))
    fake = pc.SolutionPair(u_star=zero, v_star=zero,
                           residuals=(1.0, 1.0), converged=False, stages=0)
    with pytest.raises(ValueError):
        brute_nash(scalar_linear, fake)
    with pytest.raises(ValueError):
        brute_nash(scalar_linear, pair, grid_n=2)


@pytest.mark.parametrize("radius", [-0.5, 0.0, np.nan, np.inf])
def test_brute_nash_refuses_a_radius_not_positive_and_finite(radius):
    # a negative radius scanned the same box with a negative slack, and
    # nan returned an all-NaN report
    system = pc.build_scalar(2.0, pc.NonlinearitySpec.sincos(0.1))
    pair, _ = pc.run_scheme(system)
    assert brute_nash(system, pair, grid_radius=0.5).ok
    with pytest.raises(ValueError, match="^grid_radius must be positive "
                                         "and finite"):
        brute_nash(system, pair, grid_radius=radius)


def test_the_nash_probes_refuse_a_pair_from_another_space():
    # each probe read the pair's coefficients unchecked: a pair of the
    # L=1 interval failed the probe of the L=2 one, and a pair of a=2
    # failed the scan of a=3, equal in dimension
    nl = pc.NonlinearitySpec.sincos(0.1)
    one, two = (pc.build_dirichlet(pc.DirichletSpec(
        dims=1, n_per_dim=15, lengths=(length,), nonlinearity=nl))
        for length in (1.0, 2.0))
    pair, _ = pc.run_scheme(one)
    with pytest.raises(ValueError, match="vector belongs to 'dirichlet-1d-"
                                         "n15-L1-c0', not 'dirichlet-1d-n15-L2"):
        pc.nash_check(two, pair)
    pair, _ = pc.run_scheme(pc.build_scalar(2.0, nl))
    with pytest.raises(ValueError, match="vector belongs to 'scalar-a2', "
                                         "not 'scalar-a3'"):
        brute_nash(pc.build_scalar(3.0, nl), pair)


def test_brute_nash_detects_wrong_candidate(scalar_linear):
    # a shifted point is not a saddle: the scan must flag it
    space = scalar_linear.space
    wrong = pc.SolutionPair(
        u_star=space.wrap(np.array([0.9])),
        v_star=space.wrap(np.array([0.4])),
        residuals=(1e-12, 1e-12),  # claimed converged, actually not
        converged=True, stages=1)
    rep = brute_nash(scalar_linear, wrong, grid_radius=1.0, grid_n=201)
    assert not rep.ok


def _zero_pair(system):
    # the zero pair, marked converged with zero residuals
    zero = system.space.wrap(np.zeros(system.space.dim))
    return pc.SolutionPair(u_star=zero, v_star=zero, residuals=(0.0, 0.0),
                           converged=True, stages=1)


@pytest.mark.parametrize("a, drop", [(0.6, -9.9e-4), (1.0, -5.0e-3),
                                     (3.0, -2.5e-2)])
def test_nash_check_rejects_a_concave_partial_functional(a, drop):
    # E1 = (1/2 - a) u^2 has the zero pair as its maximum in u, not its
    # minimum: the declared m11 = 2a is above 1, so no gap bound holds for
    # E1, and the exhaustive scan finds E1 falling by `drop`, to 2%, within
    # 0.1 of the pair
    system = pc.build_scalar(1.0, pc.NonlinearitySpec.quadratic(a, 0.0, 0.0,
                                                                0.0))
    pair = _zero_pair(system)
    assert system.monotony.entries[0, 0] == 2.0 * a
    rep = pc.nash_check(system, pair)
    assert not rep.ok
    assert (rep.gap_e1, rep.gap_e2) == (math.inf, 0.0)
    scan = brute_nash(system, pair)
    assert not scan.ok
    assert scan.min_e1_delta == pytest.approx((0.5 - a) * 0.5**2, rel=1e-12)
    near = brute_nash(system, pair, grid_radius=0.1)
    assert near.min_e1_delta == pytest.approx(drop, rel=0.02)


def test_nash_check_rejects_a_concave_dirichlet_pair():
    # a >= 5 bends E1 down along the lowest mode of the 31-node interval:
    # the declared m11 is above 1 (1.01 at a = 5), so no gap bound holds
    for a in (5.0, 20.0, 100.0, 1000.0):
        system = pc.build_dirichlet(pc.DirichletSpec(
            dims=1, n_per_dim=31, lengths=(1.0,),
            nonlinearity=pc.NonlinearitySpec.quadratic(a, 0.0, 0.0, 0.0)))
        assert system.monotony.entries[0, 0] > 1.0, a
        rep = pc.nash_check(system, _zero_pair(system))
        assert not rep.ok, a
        assert rep.gap_e1 == math.inf, a


@settings(max_examples=30, derandomize=True, deadline=None)
@given(a_value=st.floats(0.5, 4.0), quadratic=st.booleans(),
       diagonal=st.tuples(st.floats(0.0, 0.95), st.floats(0.0, 0.95)),
       b=st.floats(-1.0, 1.0), g=st.floats(-1.0, 1.0),
       uv=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)))
def test_nash_gaps_bound_the_scanned_gaps(a_value, quadratic, diagonal, b, g,
                                          uv):
    # at any pair: the gaps an exhaustive scan finds lie within the bounds,
    # up to the roundoff of an energy, and on a quadratic, whose curvature
    # is exactly 1 - m, they attain them. The diagonal (m11, m22) is
    # declared as 2 a_N / a and -2 c_N / a by the quadratic, and both
    # entries as eps / a by sincos(eps)
    m11, m22 = diagonal
    system = pc.build_scalar(a_value, (
        pc.NonlinearitySpec.quadratic(0.5 * m11 * a_value, b,
                                      -0.5 * m22 * a_value, g)
        if quadratic else pc.NonlinearitySpec.sincos(m11 * a_value)))
    u, v = (np.array([x]) for x in uv)
    # residuals that the report must not read
    pair = pc.SolutionPair(u_star=system.space.wrap(u),
                           v_star=system.space.wrap(v), residuals=(0.0, 0.0),
                           converged=True, stages=1)
    rep = pc.nash_check(system, pair)
    assert rep.ok
    e1, e2, _ = pc.energies(system, u, v)
    m = system.monotony.entries
    for gap, m_ii, energy, scanned in (
            (rep.gap_e1, m[0, 0], e1, lambda scan: -scan.min_e1_delta),
            (rep.gap_e2, m[1, 1], e2, lambda scan: scan.max_e2_delta)):
        # the partial optimum lies within r / (1 - m) of the pair in the
        # A-norm; the grid reaches twice as far and has it as its 451st
        # point
        r = math.sqrt(2.0 * (1.0 - m_ii) * gap)
        radius = max(2.0 * r / ((1.0 - m_ii) * math.sqrt(a_value)), 1e-9)
        found = scanned(brute_nash(system, pair, grid_radius=radius,
                                      grid_n=601))
        slack = 1e-12 * (1.0 + abs(energy))
        assert found <= gap + slack
        if quadratic:
            assert found == pytest.approx(gap, rel=1e-6, abs=slack)
