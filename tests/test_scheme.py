"""The alternating scheme: closed forms, trace invariants, certificates."""

import dataclasses
import gc
import weakref

import numpy as np
import pytest

import partialcrit as pc
from partialcrit import scheme
from partialcrit.errors import HypothesisError, SchemeStageError


CLOSED_FORM = np.linalg.solve(np.array([[2.0, -0.2], [0.2, 2.0]]),
                              np.array([1.0, 0.0]))


def test_scalar_closed_form(scalar_linear):
    # stationarity: 2u = 0.2v + 1 and -2v = 0.2u, hence u = 1/2.02
    pair, _ = pc.run_scheme(scalar_linear)
    assert pair.converged
    assert pair.u_star.coeffs[0] == pytest.approx(CLOSED_FORM[0], abs=1e-7)
    assert pair.v_star.coeffs[0] == pytest.approx(CLOSED_FORM[1], abs=1e-7)
    assert CLOSED_FORM[0] == pytest.approx(1.0 / 2.02, abs=1e-15)
    assert CLOSED_FORM[1] == pytest.approx(-1.0 / 20.2, abs=1e-15)


def test_trace_respects_schedule(solved):
    # stage k solves both sides to min(1/k, final_tol), final_tol = 1e-8
    for name, (pair, trace) in solved.items():
        for row in trace.rows:
            t_k = min(1.0 / row.k, 1e-8)
            assert row.r1 <= t_k + 1e-15, f"{name} stage {row.k}"
            assert row.r2 <= t_k + 1e-15, f"{name} stage {row.k}"


def test_trace_energy_identities(solved):
    for name, (pair, trace) in solved.items():
        for row in trace.rows:
            e_from_e1 = row.e1 - 0.5 * row.norm_v**2
            e_from_e2 = row.e2 + 0.5 * row.norm_u**2
            scale = max(1.0, abs(row.e_total))
            assert abs(row.e_total - e_from_e1) <= 1e-9 * scale, name
            assert abs(row.e_total - e_from_e2) <= 1e-9 * scale, name


@pytest.mark.parametrize("name", ["scalar_stiff", "dirichlet_stiff"])
def test_inner_solvers_move_energy_monotonically(bundled, name, rng):
    system = bundled[name]
    space = system.space
    v_fixed = space.wrap(rng.standard_normal(space.dim))
    u0 = space.wrap(rng.standard_normal(space.dim) + 2.0)
    cfg = pc.SchemeConfig()
    u1 = scheme._inner_solve(system, v_fixed, u0, 1e-8, cfg, "u")[0]
    e1_before = pc.energies(system, u0, v_fixed)[0]
    e1_after = pc.energies(system, u1, v_fixed)[0]
    assert e1_after <= e1_before + 1e-10

    u_fixed = space.wrap(rng.standard_normal(space.dim))
    v0 = space.wrap(rng.standard_normal(space.dim) + 2.0)
    v1 = scheme._inner_solve(system, u_fixed, v0, 1e-8, cfg, "v")[0]
    e2_before = pc.energies(system, u_fixed, v0)[1]
    e2_after = pc.energies(system, u_fixed, v1)[1]
    assert e2_after >= e2_before - 1e-10


def test_zero_nonlinearity_converges_immediately():
    system = pc.build_scalar(2.0, pc.NonlinearitySpec.zero())
    pair, trace = pc.run_scheme(system)
    assert pair.converged
    assert pair.stages == 1
    assert pc.norm_a(pair.u_star, system.space) == 0.0
    assert pc.norm_a(pair.v_star, system.space) == 0.0


def test_residuals_vanish_at_solution(solved):
    for name, (pair, _) in solved.items():
        assert max(pair.residuals) <= 1e-8, name


def test_random_initialization_reaches_same_point(scalar_linear):
    base, _ = pc.run_scheme(scalar_linear)
    for seed in range(5):
        cfg = pc.SchemeConfig(random_init=True, seed=seed)
        pair, _ = pc.run_scheme(scalar_linear, cfg)
        assert pair.converged
        du = pc.norm_a(pair.u_star - base.u_star, scalar_linear.space)
        dv = pc.norm_a(pair.v_star - base.v_star, scalar_linear.space)
        assert max(du, dv) <= 1e-6


def test_divergent_matrix_refused():
    system = pc.build_scalar(2.0,
                             pc.NonlinearitySpec.quadratic(0.0, 3.0, 0.0, 0.0))
    assert pc.spectral_radius(system.monotony) >= 1.0
    with pytest.raises(HypothesisError):
        pc.run_scheme(system)
    with pytest.warns(RuntimeWarning):
        pair, _ = pc.run_scheme(
            system, pc.SchemeConfig(override_hypotheses=True))
    assert pair.converged  # fixed point is the origin


def test_inner_budget_failure_carries_stage_and_side(scalar_linear):
    cfg = pc.SchemeConfig(inner_max_iters=1)
    with pytest.raises(SchemeStageError) as err:
        pc.run_scheme(scalar_linear, cfg)
    assert err.value.stage == 1
    assert err.value.side == "u"


def test_line_search_stall_carries_stage_and_side():
    # rho = 3 under override: the pair grows until the u-objective overflows,
    # which the inner solve reports as an overflow
    system = pc.build_scalar(
        1.0, pc.NonlinearitySpec.quadratic(0.0, 3.0, 0.0, 1.0))
    cfg = pc.SchemeConfig(max_outer=1000, override_hypotheses=True)
    with pytest.warns(RuntimeWarning):
        with pytest.raises(SchemeStageError) as err:
            pc.run_scheme(system, cfg)
    assert (err.value.stage, err.value.side) == (163, "u")
    assert str(err.value) == "stage 163: inner u-solve overflowed"


def test_uphill_gradient_stalls_the_line_search():
    # f1 is minus the true u-derivative of F, less 5: the gradient g then
    # points uphill, and no step along -g lowers E1
    quad = pc.make_pointwise(pc.NonlinearitySpec.quadratic(0.2, 0.0, 0.0, 1.0),
                             arg_dim=1)
    table = dataclasses.replace(quad,
                                f1=lambda x, y: -(0.4 * x + 1.0) - 5.0)
    system = pc.build_scalar(2.0, pc.NonlinearitySpec.custom(table))
    with pytest.raises(SchemeStageError) as err:
        pc.run_scheme(system)
    assert (err.value.stage, err.value.side) == (1, "u")
    assert str(err.value) == ("stage 1: inner u-solve stalled in the "
                              "line search")


def test_nonfinite_coupling_gradient_rejected():
    sincos = pc.make_pointwise(pc.NonlinearitySpec.sincos(0.1), arg_dim=1)
    table = dataclasses.replace(sincos,
                                f1=lambda x, y: np.full_like(x, np.nan))
    system = pc.build_scalar(2.0, pc.NonlinearitySpec.custom(table))
    with pytest.raises(ValueError, match="^coefficients must be finite$"):
        pc.run_scheme(system)


def test_scheme_config_validation():
    with pytest.raises(ValueError):
        pc.SchemeConfig(max_outer=0)
    with pytest.raises(ValueError):
        pc.SchemeConfig(final_tol=0.0)
    with pytest.raises(ValueError):
        pc.SchemeConfig(seed=-1)


def test_contraction_certificate_passes_on_runs(solved, bundled):
    for name in ("scalar_linear", "scalar_stiff", "dirichlet_stiff"):
        pair, trace = solved[name]
        for p in (1, 3):
            rep = pc.contraction_certificate(trace, bundled[name].monotony, p=p)
            assert rep.passed, f"{name} p={p}"
            assert rep.full_ok


def test_contraction_certificate_rejects_bad_gap(solved, scalar_linear):
    _, trace = solved["scalar_linear"]
    with pytest.raises(ValueError):
        pc.contraction_certificate(trace, scalar_linear.monotony, p=0)


def test_nash_check_accepts_converged_pair(solved, bundled):
    pair, _ = solved["scalar_stiff"]
    rep = pc.nash_check(bundled["scalar_stiff"], pair)
    assert rep.ok
    assert rep.n_samples == 200


def test_nash_check_rejects_unconverged_pair(scalar_linear):
    space = scalar_linear.space
    fake = pc.SolutionPair(u_star=space.zero(), v_star=space.zero(),
                           residuals=(1.0, 1.0), converged=False, stages=0)
    with pytest.raises(ValueError):
        pc.nash_check(scalar_linear, fake)


def test_certified_run_leaves_no_reference_cycle():
    # the space carries its factorization, so it must be freed as soon as
    # the caller drops the system, without waiting for the cyclic collector
    spec = pc.DirichletSpec(dims=1, n_per_dim=31, lengths=(1.0,),
                            nonlinearity=pc.NonlinearitySpec.sincos(0.1))
    gc.collect()
    gc.disable()
    try:
        system = pc.build_dirichlet(spec)
        pair, trace = pc.run_scheme(system)
        pc.contraction_certificate(trace, system.monotony)
        assert pc.nash_check(system, pair).ok
        space_ref = weakref.ref(system.space)
        del system, pair, trace
        assert space_ref() is None
    finally:
        gc.enable()


def test_growth_params_validation():
    with pytest.raises(ValueError):
        pc.GrowthParams(alpha_upper=0.5, alpha_lower=0.1, c_growth=1.0)
    with pytest.raises(ValueError):
        pc.GrowthParams(alpha_upper=0.3, alpha_lower=0.3, c_growth=1.0)
    with pytest.raises(ValueError):
        pc.GrowthParams(alpha_upper=0.1, alpha_lower=0.1, c_growth=-1.0)
    params = pc.GrowthParams(alpha_upper=0.2, alpha_lower=0.2, c_growth=0.5)
    assert params.alpha_upper == 0.2


def test_exhaustion_reports_not_converged(scalar_stiff):
    cfg = pc.SchemeConfig(max_outer=1, final_tol=1e-12)
    pair, trace = pc.run_scheme(scalar_stiff, cfg)
    assert not pair.converged
    assert pair.stages == 1
    assert max(pair.residuals) > 1e-12
