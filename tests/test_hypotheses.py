"""Sampling-based hypothesis checks and scalar diagnostics."""

import dataclasses
import itertools
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import partialcrit as pc
from partialcrit import hypotheses
from partialcrit.errors import IntegrityError
from partialcrit.hypotheses import _INF_BITS, _VERTEX_TOL, _fit_pair

TINY = np.finfo(float).tiny


def test_growth_holds_for_bounded_nonlinearity():
    pw = pc.make_pointwise(pc.NonlinearitySpec.sincos(0.1), arg_dim=1)
    rep = pc.check_growth(pw.F, (0.0, 0.0, 0.1), pc.SamplerSpec())
    assert rep.ok
    assert rep.witness is None
    assert rep.c_hat <= 0.1 + 1e-12


def test_growth_holds_in_two_arguments():
    pw = pc.make_pointwise(pc.NonlinearitySpec.sincos(0.1), arg_dim=2)
    rep = pc.check_growth(pw.F, (0.0, 0.0, 0.2), pc.SamplerSpec(), arg_dim=2)
    assert rep.ok


def test_growth_violation_produces_witness():
    # F = x^2 against a declared upper slope of 0.4: violated on the box
    def F(x, y):
        return np.sum(x * x, axis=1)

    rep = pc.check_growth(F, (0.4, 0.0, 0.0), pc.SamplerSpec(box_radius=3.0))
    assert not rep.ok
    assert rep.witness is not None
    x_w, y_w, f_w = rep.witness
    assert f_w > 0.4 * x_w**2
    assert rep.alpha_upper_hat > 0.4


def test_estimate_monotony_recovers_decoupled_quadratic():
    pw = pc.make_pointwise(
        pc.NonlinearitySpec.quadratic(0.8, 0.0, -0.6, 0.0), arg_dim=1)
    est = pc.estimate_monotony(pw.f1, pw.f2, pc.SamplerSpec(n_points=600))
    e = est.entries
    assert e[0, 0] == pytest.approx(1.6, rel=0.02)
    assert e[1, 1] == pytest.approx(1.2, rel=0.02)
    assert e[0, 1] <= 0.05
    assert e[1, 0] <= 0.05


def test_estimate_monotony_scales_with_embedding():
    pw = pc.make_pointwise(
        pc.NonlinearitySpec.quadratic(0.5, 0.0, -0.5, 0.0), arg_dim=1)
    est1 = pc.estimate_monotony(pw.f1, pw.f2, pc.SamplerSpec())
    est2 = pc.estimate_monotony(pw.f1, pw.f2, pc.SamplerSpec(),
                                embedding_sq=0.25)
    assert np.allclose(0.25 * est1.entries, est2.entries, rtol=1e-12)


def test_pure_cross_coupling_fits_zero_diagonal():
    # every sampled row passes through (0, |b|): the vertex is on an axis
    pw = pc.make_pointwise(
        pc.NonlinearitySpec.quadratic(0.0, 1.0, 0.0, 1.0), arg_dim=1)
    e = pc.estimate_monotony(pw.f1, pw.f2, pc.SamplerSpec()).entries
    assert e[0, 0] == 0.0
    assert e[1, 1] == 0.0
    assert e[0, 1] == pytest.approx(1.0, rel=1e-12)
    assert e[1, 0] == pytest.approx(1.0, rel=1e-12)


def test_estimate_monotony_rejects_a_box_too_small_for_a_slope():
    # every pair of a 1e-13 box is within 1e-12 on both sides; the fit of
    # no pair used to read zero, a coupling matrix that certifies anything
    pw = pc.make_pointwise(
        pc.NonlinearitySpec.quadratic(0.3, 0.5, -0.2, 1.0), arg_dim=1)
    e = pc.estimate_monotony(pw.f1, pw.f2, pc.SamplerSpec()).entries
    assert np.allclose(e, [[0.6, 0.5], [0.5, 0.4]], rtol=1e-9)
    with pytest.raises(ValueError, match="too small to fit a slope"):
        pc.estimate_monotony(pw.f1, pw.f2, pc.SamplerSpec(box_radius=1e-13))


@pytest.mark.parametrize("name", ["f1", "f2"])
def test_estimate_monotony_refuses_a_gradient_of_the_wrong_shape(name):
    # an (m,) gradient against (m, 1) points used to broadcast to (m, m),
    # fitting its coefficient near 2e3 where the table's is below 0.1, so
    # that `full_report` judged a matrix that `run_scheme` never reached
    pw = pc.make_pointwise(pc.NonlinearitySpec.sincos(0.1), arg_dim=1)
    grad = getattr(pw, name)
    flat = dataclasses.replace(pw, **{name: lambda x, y: grad(x, y)[..., 0]})
    message = (f"must return the shape \\(400, 1\\) of its points: {name} "
               f"returned shape \\(400,\\)$")
    with pytest.raises(ValueError, match=message):
        pc.estimate_monotony(flat.f1, flat.f2, pc.SamplerSpec())
    system = pc.build_dirichlet(pc.DirichletSpec(
        dims=1, n_per_dim=15, lengths=(1.0,),
        nonlinearity=pc.NonlinearitySpec.custom(flat)))
    with pytest.raises(ValueError, match=message):
        pc.full_report(system, (0.0, 0.0, 0.1), pc.SamplerSpec())


def test_fit_pair_rejects_row_with_no_coefficient():
    a = np.array([1.0, 0.0])
    b = np.array([0.5, 0.0])
    with pytest.raises(IntegrityError, match="coefficient fit failed"):
        _fit_pair(a, b, np.array([1.0, 2.0]))
    # the same row with a nonpositive right-hand side always holds
    assert _fit_pair(a, b, np.array([1.0, 0.0])) == _fit_pair(
        a[:1], b[:1], np.array([1.0]))


def _vertex_optimum(a, b, r):
    """Least p + q over every vertex of {p, q >= 0, p a_i + q b_i >= r_i}."""
    lines = [*zip(a, b, r), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)]
    best = np.inf
    for (a1, b1, r1), (a2, b2, r2) in itertools.combinations(lines, 2):
        det = a1 * b2 - a2 * b1
        if det == 0.0:
            continue
        p = (r1 * b2 - r2 * b1) / det
        q = (a1 * r2 - a2 * r1) / det
        if p < -1e-12 or q < -1e-12:
            continue
        p, q = max(p, 0.0), max(q, 0.0)
        slack = 1e-9 * (a * p + b * q + np.abs(r)) + TINY * np.maximum(a, b)
        if np.all(a * p + b * q >= r - slack):
            best = min(best, p + q)
    return best


def _assert_fit_optimal(a, b, r):
    p, q = _fit_pair(a, b, r)
    assert p >= 0.0 and q >= 0.0
    # rows may be missed by the rounding slack, and by underflow
    slack = 2e-9 * np.abs(r) + TINY * np.maximum(a, b)
    assert np.all(a * p + b * q >= r - slack)
    assert p + q == pytest.approx(_vertex_optimum(a, b, r), rel=1e-8, abs=1e-300)


# a coefficient is zero or positive; a right-hand side of either sign
_coef = st.one_of(st.just(0.0), st.floats(0.01, 100.0))
_rhs = st.one_of(st.floats(-10.0, 0.0), st.floats(0.01, 10.0))
# a row with a = b = 0 only ever holds with r <= 0
_row = st.tuples(_coef, _coef, _rhs).map(
    lambda t: (t[0], t[1], -abs(t[2])) if t[0] == t[1] == 0.0 else t)
_fit_property = settings(max_examples=60, derandomize=True, deadline=None)


@_fit_property
@given(st.lists(_row, min_size=2, max_size=8))
def test_fit_pair_matches_vertex_enumeration(rows):
    a, b, r = (np.array(col) for col in zip(*rows))
    _assert_fit_optimal(a, b, r)


@_fit_property
@given(st.floats(0.0, 10.0), st.floats(0.0, 10.0),
       st.lists(st.tuples(_coef, _coef).filter(lambda t: t != (0.0, 0.0)),
                min_size=2, max_size=8))
# a vertex far off the diagonal, and one below the float range
@example(1.5, 1e-14, [(0.0, 1.0), (1.0, 0.0)])
@example(5e-324, 1.0, [(1.0, 0.0), (0.0, 1.0)])
def test_fit_pair_on_rows_through_one_vertex(p_star, q_star, coeffs):
    a, b = (np.array(col) for col in zip(*coeffs))
    _assert_fit_optimal(a, b, a * p_star + b * q_star)



def _reference_fit(a_coeff, b_coeff, rhs):
    """`_fit_pair` as it bisected before it stopped early: all 63 steps
    down to adjacent floats, then the finish at the located ray."""
    active = rhs > TINY * np.maximum(a_coeff, b_coeff)
    if not np.any(active):
        return 0.0, 0.0
    r = rhs[active]
    a, b = a_coeff[active] / r, b_coeff[active] / r
    if not np.all((a > 0.0) | (b > 0.0)):
        raise IntegrityError("coefficient fit failed: a row with a positive "
                             "right-hand side has no positive coefficient")
    slope = a - b

    def ray(t):
        return a * t + b if t <= 1.0 else a + b / t

    lo, hi = 0, _INF_BITS
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if slope[np.argmin(ray(np.int64(mid).view(np.float64)))] > 0.0:
            lo = mid
        else:
            hi = mid
    t = np.int64(lo).view(np.float64)
    g = ray(t)
    top = 1.0 / g.min()
    p0, q0 = (t * top, top) if t <= 1.0 else (top, top / t)
    tight = g * top <= 1.0 + _VERTEX_TOL
    at, bt = a[tight], b[tight]
    i, j = np.argmax(slope[tight]), np.argmin(slope[tight])
    with np.errstate(over="ignore", invalid="ignore"):
        det = at[i] * bt[j] - at[j] * bt[i]
        if p0 * at.max() <= _VERTEX_TOL:
            p, q = 0.0, 1.0 / bt[j]
        elif q0 * bt.max() <= _VERTEX_TOL:
            p, q = 1.0 / at[i], 0.0
        elif 0.0 < det < np.inf:
            p, q = (bt[j] - bt[i]) / det, (at[i] - at[j]) / det
        else:
            p, q = p0, q0
        if not (min(p, q) >= 0.0 and np.min(a * p + b * q) >= 1.0 - _VERTEX_TOL):
            p, q = p0, q0
    return float(p), float(q)


def _fit_outcome(fit, a, b, r):
    # the bits of the result, or the error; a warning is an error here, so
    # the warnings of the two fits are compared too
    try:
        p, q = fit(a, b, r)
    except Exception as exc:
        return type(exc), str(exc)
    return p.hex(), q.hex()


_scale = st.integers(-150, 150).map(lambda k: 10.0 ** k)
# a vertex inside the quadrant, or on either axis (p* = 0 is the cross
# coupling's)
_vertex = st.one_of(
    st.tuples(st.floats(1e-3, 1e3), st.floats(1e-3, 1e3)),
    st.tuples(st.just(0.0), st.floats(1e-3, 1e3)),
    st.tuples(st.floats(1e-3, 1e3), st.just(0.0)))
# sampled rows miss their vertex by up to about 6e-10 relative
_jitter = st.one_of(st.just(0.0), st.floats(-1e-9, 1e-9))


@st.composite
def _fit_instances(draw):
    """Rows of either sign and with zero coefficients, or rows through one
    vertex, then the coefficients and the right-hand sides each scaled by
    a power of ten from 1e-150 to 1e150."""
    if draw(st.booleans()):
        rows = draw(st.lists(_row, min_size=2, max_size=12))
        a, b, r = (np.array(col) for col in zip(*rows))
    else:
        p_star, q_star = draw(_vertex)
        rows = draw(st.lists(st.tuples(_coef, _coef, _jitter),
                             min_size=2, max_size=12))
        a, b, e = (np.array(col) for col in zip(*rows))
        r = (a * p_star + b * q_star) * (1.0 + e)
    c, s = draw(_scale), draw(_scale)
    return a * c, b * c, r * s


@settings(max_examples=400, derandomize=True, deadline=None)
@given(_fit_instances())
@example((np.array([0.0, 1.0]), np.array([1.0, 0.0]),
          np.array([1.0, 1e-14])))
def test_fit_pair_equals_the_full_bisection(case):
    assert _fit_outcome(_fit_pair, *case) == _fit_outcome(_reference_fit, *case)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("build, on_axis", [
    (lambda: pc.build_dirichlet(pc.DirichletSpec(
        dims=1, n_per_dim=63, lengths=(1.0,),
        nonlinearity=pc.NonlinearitySpec.quadratic(0.0, 8.0, 0.0, 1.0))),
     True),
    (lambda: pc.build_stokes(pc.StokesSpec(
        n_per_dim=17, lengths=(1.0, 1.0), mu_coeff=1.0,
        nonlinearity=pc.NonlinearitySpec.sincos(0.1))), False),
], ids=["quadratic_b8", "stokes_sincos"])
def test_fit_pair_equals_the_full_bisection_on_sampled_rows(
        monkeypatch, build, on_axis, seed):
    # the cross coupling's vertices lie on an axis, and the bisection stops
    # after a few steps; the Stokes ones lie inside the quadrant
    fits = []

    def recording(a, b, r):
        fits.append((a, b, r))
        return _fit_pair(a, b, r)

    monkeypatch.setattr(hypotheses, "_fit_pair", recording)
    pw = build().pointwise
    pc.estimate_monotony(pw.f1, pw.f2, pc.SamplerSpec(seed=seed),
                         arg_dim=pw.arg_dim)
    assert len(fits) == 2
    for case in fits:
        p, q = fit = _fit_outcome(_fit_pair, *case)
        assert fit == _fit_outcome(_reference_fit, *case)
        assert (0.0 in (float.fromhex(p), float.fromhex(q))) == on_axis

def test_mu_frozen_value_and_boundary():
    assert pc.mu_of(0.2, 0.2) == pytest.approx(0.04 / 0.09, rel=1e-12)
    assert pc.mu_of(0.25, 0.25) == pytest.approx(1.0, rel=1e-12)


def test_mu_threshold_characterization(rng):
    # mu < 1 exactly when the two slopes sum below one half
    for _ in range(200):
        au, al = rng.uniform(0.0, 0.499, 2)
        mu = pc.mu_of(au, al)
        if au + al < 0.5 - 1e-9:
            assert mu < 1.0
        elif au + al > 0.5 + 1e-9:
            assert mu > 1.0


def test_mu_domain_errors():
    with pytest.raises(ValueError):
        pc.mu_of(0.5, 0.1)
    with pytest.raises(ValueError):
        pc.mu_of(-0.01, 0.1)
    with pytest.raises(ValueError):
        pc.mu_of(0.1, 0.7)


def test_ps_beta_frozen_values():
    rep = pc.ps_beta(pc.MonotonyMatrix([[0.3, 0.2], [0.1, 0.4]]))
    assert rep.full == pytest.approx(1.0 - 0.3 - 0.02 / 0.6, rel=1e-12)
    assert rep.full > 0.0


def test_ps_beta_is_exact_within_rounding_of_the_unit_radius():
    # rho rounds to 1, but the minors of I - M are positive; the float
    # formula gives 1 - m11 - m12 m21 / (1 - m22) = 0.0 here
    m = [[0.9643577208942796, 0.6108149501299146],
         [0.021958285093545995, 0.6236927281061517]]
    (m11, m12), (m21, m22) = [[Fraction(x) for x in row] for row in m]
    rep = pc.ps_beta(pc.MonotonyMatrix(m))
    assert rep.full > 0.0
    assert rep.full == float(1 - m11 - m12 * m21 / (1 - m22))


def test_ps_beta_rejects_divergent_matrix():
    with pytest.raises(ValueError):
        pc.ps_beta(pc.MonotonyMatrix([[1.2, 0.0], [0.0, 0.2]]))


def test_ps_beta_full_positive_for_random_convergent(rng):
    count = 0
    while count < 100:
        m = rng.uniform(0.0, 0.9, (2, 2))
        if np.max(np.abs(np.linalg.eigvals(m))) >= 0.999:
            continue
        rep = pc.ps_beta(pc.MonotonyMatrix(m))
        assert rep.full > 0.0
        count += 1


def test_ring_inequality_fails_somewhere(sincos_1d):
    # the strict ring inequality cannot hold on a whole sphere here
    for tau in (0.5, 1.0, 2.0):
        rep = pc.check_mountain_pass_ring(sincos_1d, tau, pc.SamplerSpec())
        assert rep.n_violated > 0, f"tau={tau}"
        assert rep.n_violated < rep.n_samples, f"tau={tau}"
        assert 0.0 < rep.fraction_violated < 1.0


def test_ring_scan_at_a_huge_tau_counts_without_warning():
    # 0.5 * tau * (|u|_A - |v|_A) overflows at tau = 1e308 (a warning is an
    # error here); the overflowed bound keeps its sign, so the count
    # equals that at tau = 1e150
    system = pc.build_dirichlet(pc.DirichletSpec(
        dims=1, n_per_dim=15, lengths=(1.0,),
        nonlinearity=pc.NonlinearitySpec.sincos(0.1)))
    counts = [pc.check_mountain_pass_ring(system, tau,
                                          pc.SamplerSpec()).n_violated
              for tau in (1e150, 1e308)]
    assert counts == [183, 183]



@pytest.mark.parametrize("tau", [0.0, -1.0, np.inf, np.nan])
def test_ring_scan_refuses_a_tau_not_positive_and_finite(sincos_1d, tau):
    # at tau = inf every bound is infinite or NaN, and all 400 samples
    # used to read violated
    with pytest.raises(ValueError, match="^tau must be positive and finite$"):
        pc.check_mountain_pass_ring(sincos_1d, tau, pc.SamplerSpec())

def test_full_report_ready_for_bundled_sincos(sincos_1d):
    rep = pc.full_report(sincos_1d, sincos_1d.pointwise.growth,
                         pc.SamplerSpec())
    assert rep.ready
    assert rep.mu == 0.0
    assert rep.certificate.rho_ok
    assert rep.growth.ok
    assert any("falsification" in n for n in rep.notes)


def test_full_report_fits_mu_without_built_in_growth():
    # the sincos table stripped of its constants: the fitted ones are zero
    sincos = pc.make_pointwise(pc.NonlinearitySpec.sincos(0.1), arg_dim=1)
    table = dataclasses.replace(sincos, growth=None)
    system = pc.build_scalar(2.0, pc.NonlinearitySpec.custom(table))
    assert system.growth is None
    rep = pc.full_report(system, (0.0, 0.0, 0.1), pc.SamplerSpec())
    assert rep.notes[-1] == "mu derived from fitted growth constants"
    assert rep.mu == 0.0
    assert rep.ready


def test_full_report_fitted_growth_can_leave_mu_undefined(scalar_linear):
    # the cross term b u v needs fitted constants far above 1/2
    assert scalar_linear.growth is None
    rep = pc.full_report(scalar_linear, (0.25, 0.25, 1.0), pc.SamplerSpec())
    assert rep.notes[-1] == "fitted growth constants leave mu undefined"
    assert rep.mu is None
    assert not rep.ready


def test_declared_growth_past_the_bound_solves_and_reads_not_ready():
    # growth (6, 0, 1) scaled by c^2 ~ 0.10 on Dirichlet 1D n=15 is an
    # alpha_upper of about 0.61. Growth is sufficient for the scheme, not
    # necessary: the system builds without `GrowthParams`, solves, and its
    # check reads not ready
    sincos = pc.make_pointwise(pc.NonlinearitySpec.sincos(0.1), arg_dim=1)
    table = dataclasses.replace(sincos, growth=(6.0, 0.0, 1.0))
    system = pc.build_dirichlet(pc.DirichletSpec(
        dims=1, n_per_dim=15, lengths=(1.0,),
        nonlinearity=pc.NonlinearitySpec.custom(table)))
    assert system.growth is None
    assert 6.0 * system.embedding_sq > 0.5
    pair, _ = pc.run_scheme(system)
    assert pair.converged
    rep = pc.full_report(system, table.growth, pc.SamplerSpec())
    assert rep.notes[-1] == "declared growth constants leave mu undefined"
    assert rep.mu is None
    assert not rep.ready


def test_full_report_needs_pointwise_data(scalar_linear):
    spec = pc.StokesSpec(n_per_dim=5, lengths=(1.0, 1.0), mu_coeff=1.0)
    system, _ = pc.build_stokes_manufactured(spec)
    with pytest.raises(ValueError):
        pc.full_report(system, (0.0, 0.0, 0.0), pc.SamplerSpec())


def test_sampler_spec_validation():
    with pytest.raises(ValueError):
        pc.SamplerSpec(n_points=0)
    with pytest.raises(ValueError):
        pc.SamplerSpec(box_radius=0.0)
    # the box's width must be a float; the largest radius still samples
    half = 0.5 * sys.float_info.max
    for radius in (np.nextafter(half, np.inf), 10**400):
        with pytest.raises(ValueError, match="below half the float range"):
            pc.SamplerSpec(box_radius=radius)
    assert pc.SamplerSpec(box_radius=half).box_radius == half
    with pytest.warns(RuntimeWarning):
        pc.SamplerSpec(n_points=50)


def test_growth_constant_rejects_negative_declared():
    pw = pc.make_pointwise(pc.NonlinearitySpec.sincos(0.1), arg_dim=1)
    with pytest.raises(ValueError):
        pc.check_growth(pw.F, (-0.1, 0.0, 0.0), pc.SamplerSpec())


@pytest.mark.parametrize("declared", [(np.nan, 0.1, 0.0), (0.0, np.nan, 0.0),
                                      (0.0, 0.1, np.nan)])
def test_growth_constant_rejects_nan_declared(declared):
    # F = 5 x y breaks every finite bound of this form on the box; a NaN
    # constant used to pass the sign check and read as ok
    def F(x, y):
        return 5.0 * np.sum(x * y, axis=1)

    with pytest.raises(ValueError, match="^growth constants must be "
                                         "nonnegative$"):
        pc.check_growth(F, declared, pc.SamplerSpec())


def test_growth_counts_a_nan_value_as_violated():
    # a NaN comparison is false either way round, so a NaN sample used to
    # pass as within the bounds and read ok
    rep = pc.check_growth(lambda x, y: np.full(len(x), np.nan),
                          (0.1, 0.1, 0.1), pc.SamplerSpec())
    assert not rep.ok
    assert rep.witness is not None and np.isnan(rep.witness[-1])
    # the fits read NaN too, where max(0.0, nan) used to fold them to 0.0
    assert np.isnan([rep.alpha_upper_hat, rep.alpha_lower_hat,
                     rep.c_hat]).all()


def test_growth_rejects_squares_beyond_the_float_range():
    # |x|^2 of points near 1e160 overflows: that used to warn, then read
    # every point as violated through 0 * inf
    pw = pc.make_pointwise(pc.NonlinearitySpec.sincos(0.1), arg_dim=1)
    with pytest.raises(ValueError,
                       match="^sampled squares leave the float range$"):
        pc.check_growth(pw.F, (0.0, 0.0, 0.1),
                        pc.SamplerSpec(box_radius=1e160))
    rep = pc.check_growth(pw.F, (0.0, 0.0, 0.1),
                          pc.SamplerSpec(box_radius=1e150))
    assert rep.ok
    assert (rep.alpha_upper_hat, rep.alpha_lower_hat) == (0.0, 0.0)
    assert rep.c_hat == 0.09992708334744424


@pytest.mark.parametrize("value", [np.inf, -np.inf])
def test_growth_counts_an_infinite_value_as_violated(value):
    # the slack 1e-12 max(1, |F|) is infinite there, so an infinite sample
    # used to pass as within the bounds and read ok
    rep = pc.check_growth(lambda x, y: np.full(len(x), value),
                          (0.1, 0.1, 0.1), pc.SamplerSpec())
    assert not rep.ok
    assert rep.witness is not None and rep.witness[-1] == value
    assert rep.c_hat == np.inf
