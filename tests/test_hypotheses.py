"""Sampling-based hypothesis checks and scalar diagnostics."""

import dataclasses
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import partialcrit as pc


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


def _test_declared(pw, sampler=None, scale=1.0, **kw):
    """`estimate_monotony` on the table's own matrix times `scale`."""
    mm = pc.MonotonyMatrix(scale * np.asarray(pw.monotony))
    return pc.estimate_monotony(pw.f1, pw.f2, mm, sampler or pc.SamplerSpec(),
                                arg_dim=pw.arg_dim, **kw)


def test_estimate_monotony_recovers_decoupled_quadratic():
    # the declared diagonal (1.6, 1.2) passes, and 2% less fails on every
    # sample of both rows: the test pins each coefficient from below
    pw = pc.make_pointwise(
        pc.NonlinearitySpec.quadratic(0.8, 0.0, -0.6, 0.0), arg_dim=1)
    assert np.array_equal(pw.monotony, [[1.6, 0.0], [0.0, 1.2]])
    sampler = pc.SamplerSpec(n_points=600)
    rep = _test_declared(pw, sampler)
    assert rep.ok
    assert rep.n_violated == (0, 0) and rep.witness == (None, None)
    assert _test_declared(pw, sampler, scale=0.98).n_violated == (600, 600)


def test_estimate_monotony_scales_with_embedding():
    # the matrix is given in A-norm units: divided by embedding_sq it is
    # the pointwise one, so only the scaled pair passes alike
    pw = pc.make_pointwise(
        pc.NonlinearitySpec.quadratic(0.5, 0.0, -0.5, 0.0), arg_dim=1)
    rep1 = _test_declared(pw)
    assert rep1.ok
    assert _test_declared(pw, scale=0.25, embedding_sq=0.25) == rep1
    assert not _test_declared(pw, scale=0.25).ok
    with pytest.raises(ValueError, match="embedding_sq must be positive"):
        _test_declared(pw, embedding_sq=0.0)


def test_pure_cross_coupling_fits_zero_diagonal():
    # every sampled row passes through (0, |b|): the declared zero
    # diagonal holds, and any less cross weight fails on both rows
    pw = pc.make_pointwise(
        pc.NonlinearitySpec.quadratic(0.0, 1.0, 0.0, 1.0), arg_dim=1)
    assert np.array_equal(pw.monotony, [[0.0, 1.0], [1.0, 0.0]])
    assert _test_declared(pw).ok
    counts = _test_declared(pw, scale=0.99).n_violated
    assert min(counts) > 100


def test_estimate_monotony_rejects_a_box_too_small_for_a_slope():
    # every pair of a 1e-13 box is within 1e-12 on both sides, so no
    # sample could violate a row: a vacuous pass is refused
    pw = pc.make_pointwise(
        pc.NonlinearitySpec.quadratic(0.3, 0.5, -0.2, 1.0), arg_dim=1)
    assert np.allclose(pw.monotony, [[0.6, 0.5], [0.5, 0.4]], rtol=1e-15)
    assert _test_declared(pw).ok
    with pytest.raises(ValueError, match="too small to test a slope"):
        _test_declared(pw, pc.SamplerSpec(box_radius=1e-13))


@pytest.mark.parametrize("name", ["f1", "f2"])
def test_estimate_monotony_refuses_a_gradient_of_the_wrong_shape(name):
    # an (m,) gradient against (m, 1) points used to broadcast to (m, m),
    # reading coefficients near 2e3 where the table's are below 0.1, so
    # that `full_report` judged a coupling that `run_scheme` never reached
    pw = pc.make_pointwise(pc.NonlinearitySpec.sincos(0.1), arg_dim=1)
    grad = getattr(pw, name)
    flat = dataclasses.replace(pw, **{name: lambda x, y: grad(x, y)[..., 0]})
    message = (f"must return the shape \\(400, 1\\) of its points: {name} "
               f"returned shape \\(400,\\)$")
    with pytest.raises(ValueError, match=message):
        _test_declared(flat)
    system = pc.build_dirichlet(pc.DirichletSpec(
        dims=1, n_per_dim=15, lengths=(1.0,),
        nonlinearity=pc.NonlinearitySpec.custom(flat)))
    with pytest.raises(ValueError, match=message):
        pc.full_report(system, (0.0, 0.0, 0.1), pc.SamplerSpec())


def _half_u_row(pw):
    """The table with its u-row declared at half its coefficients."""
    m = np.array(pw.monotony, dtype=float)
    m[0] *= 0.5
    return dataclasses.replace(pw, monotony=m)


def _u_row_excess(table, x, y, xb, yb):
    """By how much each pair's u-row passes the table's declared bound."""
    (m11, m12), _ = table.monotony
    dx = np.linalg.norm(x - xb, axis=-1)
    dy = np.linalg.norm(y - yb, axis=-1)
    lhs = np.sum((table.f1(x, y) - table.f1(xb, yb)) * (x - xb), axis=-1)
    return lhs - (m11 * dx**2 + m12 * dx * dy)


@pytest.mark.parametrize("arg_dim", [1, 2])
def test_the_witness_reproduces_its_excess(arg_dim):
    # the witness of a violated row, evaluated alone, passes the row's
    # bound by the excess it records, the largest of all the samples
    table = _half_u_row(pc.make_pointwise(pc.NonlinearitySpec.sincos(0.1),
                                          arg_dim=arg_dim))
    seen = []

    def f1(x, y):
        seen.append((x, y))
        return table.f1(x, y)

    rep = pc.estimate_monotony(f1, table.f2, pc.MonotonyMatrix(table.monotony),
                               pc.SamplerSpec(), arg_dim=arg_dim)
    assert rep.n_violated[0] > 0 and rep.n_violated[1] == 0
    assert rep.witness[1] is None
    *coords, excess = rep.witness[0]
    points = (np.array([c]) for c in np.split(np.array(coords), 4))
    assert excess > 0.0
    assert _u_row_excess(table, *points)[0] == pytest.approx(excess,
                                                             rel=1e-12)
    (x, y), (xb, yb) = seen
    assert np.max(_u_row_excess(table, x, y, xb, yb)) == pytest.approx(
        excess, rel=1e-12)


def test_a_table_declaring_half_its_slope_reads_not_ready():
    table = _half_u_row(pc.make_pointwise(pc.NonlinearitySpec.sincos(0.1),
                                          arg_dim=1))
    system = pc.build_dirichlet(pc.DirichletSpec(
        dims=1, n_per_dim=15, lengths=(1.0,),
        nonlinearity=pc.NonlinearitySpec.custom(table)))
    rep = pc.full_report(system, (0.0, 0.0, 0.1), pc.SamplerSpec())
    assert rep.monotony_estimate is system.monotony
    assert rep.certificate.rho_ok and rep.growth.ok and rep.mu == 0.0
    assert not rep.coupling.ok and not rep.ready
    count = rep.coupling.n_violated[0]
    assert rep.notes[2:] == (
        f"coupling matrix u-row violated on {count} of 400 samples",)


_BUILT_IN = st.one_of(
    st.just(pc.NonlinearitySpec.zero()),
    st.builds(pc.NonlinearitySpec.quadratic,
              *[st.floats(-10.0, 10.0) | st.just(0.0)] * 4),
    st.builds(pc.NonlinearitySpec.sincos, st.floats(0.0, 100.0)))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_BUILT_IN, st.integers(1, 3), st.integers(0, 2**32 - 1))
# each slack term is needed: the cancellation term alone flags a v-row
# sample of the first example, the relative term alone a u-row sample of
# the second
@example(pc.NonlinearitySpec.quadratic(1.0, 0.3, -0.2, 0.0), 1, 0)
@example(pc.NonlinearitySpec.quadratic(0.0, 0.5, 0.0, 1.0), 1, 30)
# gradients below the float range, whose rounding is absolute: without the
# slack's tiny terms, 6 v-row samples read violated
@example(pc.NonlinearitySpec.quadratic(0.0, 2.225073858507e-311,
                                       -2.225073858507e-311, 0.0), 1, 0)
def test_every_built_in_declared_matrix_passes_its_samples(spec, arg_dim,
                                                           seed):
    rep = _test_declared(pc.make_pointwise(spec, arg_dim),
                         pc.SamplerSpec(seed=seed))
    assert rep.n_violated == (0, 0)


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


def test_an_infinite_growth_constant_is_refused():
    # an infinite constant bounds nothing: with c = inf the growth test
    # read ok and the report ready where c = 0 reads violated, and a table
    # declaring it built
    sincos = pc.make_pointwise(pc.NonlinearitySpec.sincos(0.1), arg_dim=1)

    def build(table):
        return pc.build_dirichlet(pc.DirichletSpec(
            dims=1, n_per_dim=15, lengths=(1.0,),
            nonlinearity=pc.NonlinearitySpec.custom(table)))

    system = build(sincos)
    rep = pc.full_report(system, (0.05, 0.05, 0.0), pc.SamplerSpec())
    assert not rep.growth.ok and not rep.ready
    for declared in ((0.05, 0.05, np.inf), (np.inf, 0.05, 0.0),
                     (0.05, np.inf, 0.0)):
        with pytest.raises(ValueError,
                           match="^growth constants must be finite$"):
            pc.full_report(system, declared, pc.SamplerSpec())
    with pytest.raises(ValueError,
                       match="^c_growth must be nonnegative and finite$"):
        build(dataclasses.replace(sincos, growth=(0.0, 0.0, np.inf)))


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
