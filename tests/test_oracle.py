"""Newton oracle, gradient validation, exhaustive scans."""

import dataclasses

import numpy as np
import pytest

import partialcrit as pc
from partialcrit import oracle
from partialcrit.errors import ConvergenceError


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
    for bad in (0.0, -1e-8):
        with pytest.raises(ValueError):
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
        err = pc.fd_gradient_check(system, u, v, n_dirs=5)
        assert err <= 1e-5, f"{name}: {err}"


def test_brute_nash_confirms_scalar_solutions(bundled, solved):
    for name in ("scalar_linear", "scalar_sincos", "scalar_stiff"):
        pair, _ = solved[name]
        rep = pc.brute_nash(bundled[name], pair, grid_radius=0.5, grid_n=401)
        assert rep.ok, f"{name}: {rep}"
        assert rep.min_e1_delta >= -rep.slack
        assert rep.max_e2_delta <= rep.slack


def test_brute_nash_input_checks(sincos_1d, scalar_linear, solved):
    pair, _ = solved["scalar_linear"]
    with pytest.raises(ValueError):
        pc.brute_nash(sincos_1d, pair)  # dimension too large
    space = scalar_linear.space
    zero = space.wrap(np.zeros(space.dim))
    fake = pc.SolutionPair(u_star=zero, v_star=zero,
                           residuals=(1.0, 1.0), converged=False, stages=0)
    with pytest.raises(ValueError):
        pc.brute_nash(scalar_linear, fake)
    with pytest.raises(ValueError):
        pc.brute_nash(scalar_linear, pair, grid_n=2)


def test_brute_nash_detects_wrong_candidate(scalar_linear):
    # a shifted point is not a saddle: the scan must flag it
    space = scalar_linear.space
    wrong = pc.SolutionPair(
        u_star=space.wrap(np.array([0.9])),
        v_star=space.wrap(np.array([0.4])),
        residuals=(1e-12, 1e-12),  # claimed converged, actually not
        converged=True, stages=1)
    rep = pc.brute_nash(scalar_linear, wrong, grid_radius=1.0, grid_n=201)
    assert not rep.ok


def _zero_pair(system):
    # the zero pair, marked converged with zero residuals
    zero = system.space.wrap(np.zeros(system.space.dim))
    return pc.SolutionPair(u_star=zero, v_star=zero, residuals=(0.0, 0.0),
                           converged=True, stages=1)


@pytest.mark.parametrize("a, margin", [(0.6, -9.9e-4), (1.0, -5.0e-3),
                                       (3.0, -2.5e-2)])
def test_nash_check_rejects_a_concave_partial_functional(a, margin):
    # E1 = (1/2 - a) u^2 has the zero pair as its maximum in u, not its
    # minimum; the probe and the exhaustive scan both say so
    system = pc.build_scalar(1.0, pc.NonlinearitySpec.quadratic(a, 0.0, 0.0,
                                                                0.0))
    pair = _zero_pair(system)
    rep = pc.nash_check(system, pair)
    assert not rep.ok
    assert rep.min_e1_margin == pytest.approx(margin, rel=0.02)
    assert rep.max_e2_margin < 0.0
    scan = pc.brute_nash(system, pair)
    assert not scan.ok
    assert scan.min_e1_delta == pytest.approx((0.5 - a) * 0.5**2, rel=1e-12)


def test_nash_check_rejects_a_concave_dirichlet_pair():
    # a = 1000 bends E1 down along the low modes of the 31-node interval
    system = pc.build_dirichlet(pc.DirichletSpec(
        dims=1, n_per_dim=31, lengths=(1.0,),
        nonlinearity=pc.NonlinearitySpec.quadratic(1000.0, 0.0, 0.0, 0.0)))
    assert not pc.nash_check(system, _zero_pair(system)).ok
