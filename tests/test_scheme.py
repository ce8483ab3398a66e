"""The alternating scheme: closed forms, trace invariants, certificates."""

import dataclasses
import gc
import json
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import partialcrit as pc
from partialcrit import problems, scheme
from partialcrit.cli import build_problem, scheme_config_from
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


def _check_schedule(system, trace, final_tol, name=""):
    """Assert the gated stage schedule of `run_scheme` on a trace, with the
    gate and the pair residuals recomputed from the iterates; return
    whether the run took the forcing path."""
    def ru(j):
        return pc.norm_a(pc.residual_u(system, trace.iterates_u[j],
                                       trace.iterates_v[j]), system.space)

    forcing = len(trace.rows) > 1 and ru(1) > scheme.FORCING * ru(0)
    for row in trace.rows:
        k, r = row.k, max(row.r1, row.r2)
        where = f"{name} stage {k}"
        assert r <= 1.0 / k, where
        if k == 1 or not forcing:
            assert r <= final_tol, where
        else:
            r_prev = max(ru(k - 1), trace.rows[k - 2].r2)
            assert r <= min(1.0 / k, max(final_tol,
                                         scheme.FORCING * r_prev)), where
    return forcing


def test_trace_respects_schedule(solved, bundled):
    # every stage within the paper's 1/k; final_tol = 1e-8 at stage 1 and on
    # the exact path, the forcing tolerance after a slow first stage
    forced = {name: pair.stages for name, (pair, trace) in solved.items()
              if _check_schedule(bundled[name], trace, 1e-8, name)}
    # solving every stage to final_tol takes 17, 10, 38 and 29 stages; near
    # the stop tolerance a forcing decision can flip with the last bits of
    # the A-solves
    assert forced == {"scalar_stiff": 11, "dirichlet_stiff": 8,
                      "cross_coupled_1d": 18, "stokes_cross_17": 15}


def test_stage_tolerance_never_exceeds_one_over_k():
    # final_tol 0.5 lies above 1/k from stage 3 on, and the forcing path
    # still caps every stage at 1/k, the schedule the certificate's 2/k
    # slack rests on
    system = pc.build_dirichlet(pc.DirichletSpec(
        dims=1, n_per_dim=63, lengths=(1.0,),
        nonlinearity=pc.NonlinearitySpec.quadratic(0.0, 9.5, 0.0, 100.0)))
    cfg = pc.SchemeConfig(max_outer=1000, final_tol=0.5, seed=3,
                          random_init=True)
    pair, trace = pc.run_scheme(system, cfg)
    assert pair.converged and pair.stages == 36
    assert _check_schedule(system, trace, cfg.final_tol)


def test_pair_residual_starts_the_next_u_solve(stokes_17):
    # the u-residual at the pair after a stage is the first gradient of the
    # next u-solve: one eval_Nu a run plus one a stage besides the inner
    # iterations, and eval_N stays 3 a stage plus one an inner iteration
    counts = {"eval_N": 0, "eval_Nu": 0, "eval_Nv": 0}

    def counting(name):
        fn = getattr(stokes_17, name)

        def wrapped(u, v):
            counts[name] += 1
            return fn(u, v)
        return wrapped

    system = dataclasses.replace(
        stokes_17, **{name: counting(name) for name in counts})
    pair, trace = pc.run_scheme(system, pc.SchemeConfig(random_init=True))
    iters_u = sum(row.inner_iters_u for row in trace.rows)
    iters_v = sum(row.inner_iters_v for row in trace.rows)
    assert (pair.stages, iters_u, iters_v) == (2, 7, 9)
    assert counts == {"eval_N": 22, "eval_Nu": 10, "eval_Nv": 11}
    assert counts["eval_Nu"] == 1 + pair.stages + iters_u
    assert counts["eval_N"] == 3 * pair.stages + iters_u + iters_v


def test_trace_energy_identities(solved):
    for name, (pair, trace) in solved.items():
        for row in trace.rows:
            e_from_e1 = row.e1 - 0.5 * row.norm_v**2
            e_from_e2 = row.e2 + 0.5 * row.norm_u**2
            scale = max(1.0, abs(row.e_total))
            assert abs(row.e_total - e_from_e1) <= 1e-9 * scale, name
            assert abs(row.e_total - e_from_e2) <= 1e-9 * scale, name


# squared embedding constant of the 31-node unit interval, so that a cross
# coupling b has spectral radius DIRICHLET_31_EMB_SQ * b
DIRICHLET_31_EMB_SQ = 0.10140260305694186


def _dirichlet_31(nonlinearity):
    return pc.build_dirichlet(pc.DirichletSpec(
        dims=1, n_per_dim=31, lengths=(1.0,), nonlinearity=nonlinearity))


# family -> builder from one parameter: the spectral radius of a cross
# coupling, or the sincos amplitude
_FAMILIES = {
    "dirichlet": lambda rho: _dirichlet_31(pc.NonlinearitySpec.quadratic(
        0.0, rho / DIRICHLET_31_EMB_SQ, 0.0, 1.0)),
    "sincos": lambda eps: _dirichlet_31(pc.NonlinearitySpec.sincos(eps)),
    "scalar": lambda rho: pc.build_scalar(
        2.0, pc.NonlinearitySpec.quadratic(0.0, 2.0 * rho, 0.0, 1.0)),
}

_cases = st.one_of(
    st.tuples(st.just("dirichlet"), st.floats(0.3, 0.97)),
    st.tuples(st.just("sincos"), st.floats(0.01, 5.0)),
    st.tuples(st.just("scalar"), st.floats(0.05, 0.95)),
)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(_cases, st.integers(0, 1000))
@example(("dirichlet", 0.97), 3)
@example(("scalar", 0.95), 0)
def test_gated_schedule_lands_on_the_solution(case, seed):
    family, param = case
    system = _FAMILIES[family](param)
    cfg = pc.SchemeConfig(max_outer=1000, random_init=True, seed=seed)
    pair, trace = pc.run_scheme(system, cfg)
    assert pair.converged
    _check_schedule(system, trace, cfg.final_tol)
    assert pc.contraction_certificate(trace, system.monotony, p=1).passed
    assert pc.nash_check(system, pair).ok
    orc = pc.newton_full(system, tol=1e-8)
    du = pc.norm_a(pair.u_star - orc.u_star, system.space)
    dv = pc.norm_a(pair.v_star - orc.v_star, system.space)
    assert np.hypot(du, dv) <= 10.0 * (cfg.final_tol + 1e-8)


@pytest.mark.parametrize("name", ["scalar_stiff", "dirichlet_stiff"])
def test_inner_solvers_move_energy_monotonically(bundled, name, rng):
    system = bundled[name]
    space = system.space
    v_fixed = rng.standard_normal(space.dim)
    u0 = rng.standard_normal(space.dim) + 2.0
    u1 = scheme._inner_solve(system, system.sample(v_fixed), u0,
                             system.sample(u0), 1e-8, "u")[0]
    e1_before = pc.energies(system, u0, v_fixed)[0]
    e1_after = pc.energies(system, u1, v_fixed)[0]
    assert e1_after <= e1_before + 1e-10

    u_fixed = rng.standard_normal(space.dim)
    v0 = rng.standard_normal(space.dim) + 2.0
    v1 = scheme._inner_solve(system, system.sample(u_fixed), v0,
                             system.sample(v0), 1e-8, "v")[0]
    e2_before = pc.energies(system, u_fixed, v0)[1]
    e2_after = pc.energies(system, u_fixed, v1)[1]
    assert e2_after >= e2_before - 1e-10


@pytest.mark.parametrize("side", ["u", "v"])
def test_an_inner_solve_samples_each_state_once(stokes_17, side,
                                                monkeypatch):
    # the fixed side is sampled once a solve and each tried state once: a
    # state's objective and, once it is accepted, its gradient share one
    # curl. The start is sampled once, and every try evaluates N once
    curls = []
    curl = problems._StokesGrid.curl

    def counting(self, psi):
        curls.append(psi)
        return curl(self, psi)

    monkeypatch.setattr(problems._StokesGrid, "curl", counting)
    evals = []
    system = dataclasses.replace(
        stokes_17, eval_N=lambda a, b: evals.append(1) or stokes_17.eval_N(
            a, b))
    rng = np.random.default_rng(4)
    fixed, moving = rng.standard_normal((2, system.space.dim))
    x, _, iters, _ = scheme._inner_solve(system, system.sample(fixed), moving,
                                         system.sample(moving), 1e-8, side)
    assert iters >= 3
    assert len(curls) == 1 + len(evals)
    assert [np.array_equal(psi, fixed) for psi in curls].count(True) == 1
    assert [np.array_equal(psi, moving) for psi in curls].count(True) == 1
    # the exit state is the last one sampled; its gradient took no curl
    assert curls[-1] is x


def test_a_system_built_without_a_sampler_samples_by_the_identity(
        manufactured_9):
    # the identity is the default sampler: a hand-built system and the
    # manufactured one are passed the vectors themselves
    m = manufactured_9
    hand_built = pc.CoupledSystem(space=m.space, eval_N=m.eval_N,
                                  eval_Nu=m.eval_Nu, eval_Nv=m.eval_Nv,
                                  monotony=m.monotony)
    x = np.ones(m.space.dim)
    assert hand_built.sample(x) is x
    assert m.sample(x) is x


def test_a_run_samples_each_state_once(stokes_17, monkeypatch):
    # the start pair, then each tried state of the inner solves: the
    # energies, the pair residual and the next stage take the exit states
    curls = [0]
    curl = problems._StokesGrid.curl

    def counting(self, psi):
        curls[0] += 1
        return curl(self, psi)

    monkeypatch.setattr(problems._StokesGrid, "curl", counting)
    evals = [0]

    def eval_n(a, b):
        evals[0] += 1
        return stokes_17.eval_N(a, b)

    system = dataclasses.replace(stokes_17, eval_N=eval_n)
    pair, _ = pc.run_scheme(system, pc.SchemeConfig(random_init=True))
    # N runs once at each solve's start and once a stage at the pair
    assert curls[0] == 2 + evals[0] - 3 * pair.stages


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


def test_inner_budget_failure_carries_stage_and_side():
    # a = 0.49 leaves E1 a curvature of 0.02 against a step of 0.9 / 1.98:
    # the u-residual shrinks by under 1% a step and misses 1e-8 in 500
    system = pc.build_scalar(
        1.0, pc.NonlinearitySpec.quadratic(0.49, 0.0, 0.0, 1.0))
    with pytest.raises(SchemeStageError) as err:
        pc.run_scheme(system)
    assert (err.value.stage, err.value.side) == (1, "u")
    assert err.value.iterations == 500
    assert str(err.value) == ("stage 1: inner u-solve did not reach "
                              "tolerance 1e-08 in 500 iterations")


def test_inner_overflow_carries_stage_and_side():
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


def test_contraction_certificate_rejects_bad_gap(solved, scalar_linear):
    _, trace = solved["scalar_linear"]
    with pytest.raises(ValueError):
        pc.contraction_certificate(trace, scalar_linear.monotony, p=0)


@pytest.mark.parametrize("size", [1, 3])
def test_contraction_certificate_needs_a_2_by_2_matrix(solved, size):
    # a 1 by 1 matrix used to raise IndexError, a 3 by 3 one to be read
    # by its top-left corner
    _, trace = solved["scalar_stiff"]
    with pytest.raises(ValueError, match="^the coupling matrix must be 2 by "
                                         "2$"):
        pc.contraction_certificate(trace, pc.MonotonyMatrix(
            0.1 * np.eye(size)))


def test_nash_check_accepts_converged_pair(solved, bundled):
    pair, _ = solved["scalar_stiff"]
    rep = pc.nash_check(bundled["scalar_stiff"], pair)
    assert rep.ok
    # the sample count and radius are module constants, not report fields
    assert [f.name for f in dataclasses.fields(rep)] == [
        "min_e1_margin", "max_e2_margin"]


def test_nash_check_rejects_unconverged_pair(scalar_linear):
    zero = scalar_linear.space.wrap(np.zeros(1))
    fake = pc.SolutionPair(u_star=zero, v_star=zero,
                           residuals=(1.0, 1.0), converged=False, stages=0)
    with pytest.raises(ValueError):
        pc.nash_check(scalar_linear, fake)


# a quadratic system from the entries of its declared matrix: m11 from a,
# m22 from c and the cross entries from b, each over the squared embedding
# constant, with a forcing g
_quadratics = st.tuples(st.sampled_from(["scalar", "dirichlet"]),
                        st.floats(-1.0, 0.95), st.floats(-1.0, 0.95),
                        st.floats(-0.95, 0.95), st.floats(-2.0, 2.0))


def _quadratic_system(space, m11, m22, cross, g):
    emb_sq = 0.5 if space == "scalar" else DIRICHLET_31_EMB_SQ
    spec = pc.NonlinearitySpec.quadratic(
        0.5 * m11 / emb_sq, cross / emb_sq, -0.5 * m22 / emb_sq, g)
    return (pc.build_scalar(2.0, spec) if space == "scalar"
            else _dirichlet_31(spec))


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.one_of(
    _quadratics.map(lambda case: _quadratic_system(*case)),
    st.floats(0.01, 5.0).map(
        lambda eps: _dirichlet_31(pc.NonlinearitySpec.sincos(eps)))))
def test_nash_check_passes_converged_runs(system):
    # with rho < 1 the declared m11 and m22 are below 1, so E1 is convex in
    # u and E2 concave in v, and the first-order bound holds at the limit
    assume(pc.is_convergent_to_zero(system.monotony).rho_ok)
    pair, _ = pc.run_scheme(system, pc.SchemeConfig(max_outer=1000))
    assert pair.converged
    rep = pc.nash_check(system, pair)
    assert rep.ok, rep


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


# refinements of two bundled configs' settings; Stokes stays at n <= 33
MESHES = {"stokes_cross_17": (9, 17, 33),
          "cross_coupled_1d": (15, 31, 63, 127, 255)}


@pytest.mark.parametrize("name", sorted(MESHES))
def test_stage_count_is_mesh_independent(name):
    # the contraction holds in the A-norm, so the coupling radius converges
    # under refinement and the outer stage count does not grow with it
    # (16/14/13 on Stokes and 19/20/19/18/19 on Dirichlet 1D)
    cfg = json.loads((Path(__file__).resolve().parents[1] / "configs"
                      / f"{name}.json").read_text())
    rhos, stages = [], []
    for n in MESHES[name]:
        cfg["problem"]["n_per_dim"] = n
        system = build_problem(cfg)
        pair, _ = pc.run_scheme(system, scheme_config_from(cfg, None))
        assert pair.converged, n
        rhos.append(pc.is_convergent_to_zero(system.monotony).spectral_radius)
        stages.append(pair.stages)
    steps = np.abs(np.diff(rhos))
    # at least halved at each refinement: the radii form a Cauchy sequence
    assert np.all(steps[1:] <= 0.5 * steps[:-1]), rhos
    assert all(abs(k - stages[0]) <= 3 for k in stages), stages


def _records():
    """One of each record that holds arrays, from a Dirichlet n=7 build,
    its solve, its check and its Newton oracle."""
    system = pc.build_dirichlet(pc.DirichletSpec(
        dims=1, n_per_dim=7, lengths=1.0,
        nonlinearity=pc.NonlinearitySpec.sincos(0.1)))
    pair, trace = pc.run_scheme(system)
    report = pc.full_report(system, system.pointwise.growth,
                            pc.SamplerSpec(n_points=100))
    return [system.monotony, pair.u_star, pair, pc.newton_full(system),
            system, system.pointwise, trace, report]


def test_records_holding_arrays_compare_by_identity():
    # two runs give records with equal but distinct arrays, on which a
    # generated __eq__ raises (an array's truth value) and so does a
    # generated __hash__ (an array is unhashable)
    for a, b in zip(_records(), _records()):
        assert type(a) is type(b)
        assert a != b and not a == b, type(a).__name__
        assert len({a, b, a}) == 2, type(a).__name__
