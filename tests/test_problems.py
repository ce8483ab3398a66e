"""Problem builders: assembly correctness, refinement, Stokes structure."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import partialcrit as pc
from partialcrit import problems, spaces

import reference


# ------------------------------------------------------------ nonlinearity

def test_pointwise_zero():
    pw = pc.make_pointwise(pc.NonlinearitySpec.zero(), arg_dim=2)
    x = np.ones((5, 2))
    assert np.all(pw.F(x, x) == 0.0)
    assert np.all(pw.f1(x, x) == 0.0)
    assert pw.growth == (0.0, 0.0, 0.0)


def test_pointwise_quadratic_gradients():
    spec = pc.NonlinearitySpec.quadratic(0.3, -0.5, 0.2, 1.1)
    pw = pc.make_pointwise(spec, arg_dim=1)
    x = np.array([[1.0], [2.0]])
    y = np.array([[0.5], [-1.0]])
    f = pw.F(x, y)
    expect = 0.3 * x[:, 0]**2 - 0.5 * x[:, 0] * y[:, 0] + 0.2 * y[:, 0]**2 \
        + 1.1 * x[:, 0]
    assert np.allclose(f, expect)
    assert np.allclose(pw.f1(x, y), 0.6 * x - 0.5 * y + 1.1)
    assert np.allclose(pw.f2(x, y), -0.5 * x + 0.4 * y)
    assert np.allclose(pw.monotony, [[0.6, 0.5], [0.5, 0.0]])


def test_pointwise_sincos_values_and_bounds():
    pw = pc.make_pointwise(pc.NonlinearitySpec.sincos(0.2), arg_dim=2)
    rng = np.random.default_rng(4)
    x = rng.uniform(-3, 3, (50, 2))
    y = rng.uniform(-3, 3, (50, 2))
    f = pw.F(x, y)
    assert np.allclose(f, 0.2 * np.sum(np.sin(x) * np.cos(y), axis=1))
    assert np.max(np.abs(f)) <= 0.4 + 1e-12  # d * eps
    assert pw.growth == (0.0, 0.0, 0.4)
    # gradients against central differences
    h = 1e-6
    for j in range(2):
        dx = np.zeros_like(x)
        dx[:, j] = h
        fd = (pw.F(x + dx, y) - pw.F(x - dx, y)) / (2 * h)
        assert np.allclose(fd, pw.f1(x, y)[:, j], atol=1e-8)


def test_pointwise_custom_dimension_checked():
    pw = pc.make_pointwise(pc.NonlinearitySpec.sincos(0.1), arg_dim=1)
    spec = pc.NonlinearitySpec.custom(pw)
    with pytest.raises(ValueError):
        pc.make_pointwise(spec, arg_dim=2)
    assert pc.make_pointwise(spec, arg_dim=1) is pw


def test_custom_table_must_declare_monotony():
    pw = pc.make_pointwise(pc.NonlinearitySpec.sincos(0.1), arg_dim=1)
    table = dataclasses.replace(pw, monotony=None)
    with pytest.raises(ValueError, match="must declare its monotony"):
        pc.NonlinearitySpec.custom(table)


@pytest.mark.parametrize("growth", [(-0.1, 0.0, 1.0), (np.nan, 0.0, 1.0),
                                    (0.0, 0.0, -1.0)])
def test_a_table_with_negative_or_nan_growth_does_not_build(growth):
    # growth past the bound is left out of a built system; a constant that
    # is negative or NaN is no bound at all and still raises
    pw = pc.make_pointwise(pc.NonlinearitySpec.sincos(0.1), arg_dim=1)
    table = dataclasses.replace(pw, growth=growth)
    with pytest.raises(ValueError, match="must (lie in|be nonnegative)"):
        pc.build_scalar(2.0, pc.NonlinearitySpec.custom(table))


def _summing_table(axis, arg_dim):
    # tanh(x) y summed over `axis`: over the last axis it is a density
    return pc.PointwiseNonlinearity(
        arg_dim=arg_dim,
        F=lambda x, y: np.sum(np.tanh(x) * y, axis=axis),
        f1=lambda x, y: (1.0 - np.tanh(x) ** 2) * y,
        f2=lambda x, y: np.tanh(x),
        monotony=np.array([[0.1, 0.1], [0.1, 0.0]]))


def test_a_table_summing_axis_1_breaks_the_density_contract():
    # a block's points reach the density as (k, m, arg_dim), so a sum over
    # axis 1 adds up the points instead of their components; the shape of
    # its output gives it away before any value is used
    rng = np.random.default_rng(0)
    for arg_dim, build in (
            (1, lambda nl: pc.build_dirichlet(pc.DirichletSpec(
                dims=1, n_per_dim=15, lengths=(1.0,), nonlinearity=nl))),
            (2, lambda nl: pc.build_stokes(pc.StokesSpec(
                n_per_dim=7, lengths=(1.0, 1.0), mu_coeff=1.0,
                nonlinearity=nl)))):
        old, new = (build(pc.NonlinearitySpec.custom(_summing_table(
            axis, arg_dim))) for axis in (1, -1))
        us, vs = rng.standard_normal((2, 4, old.space.dim))
        # on two vectors the two rules read the same points
        assert old.eval_N(us[0], vs[0]) == new.eval_N(us[0], vs[0])
        for a, b in ((us, vs), (us, vs[0]), (us[0], vs)):
            assert new.eval_N(a, b).shape == (4,)
            with pytest.raises(ValueError, match=(
                    "must act on the last axis of point arrays that "
                    "broadcast")):
                old.eval_N(a, b)
        with pytest.raises(ValueError, match="last axis"):
            pc.check_mountain_pass_ring(old, 1.0, pc.SamplerSpec())


def test_a_table_indexing_one_point_a_row_breaks_the_density_contract():
    # under the rule of one (m, arg_dim) point a row, ``x[:, 0]`` was the
    # first argument of every point; on a block's (k, m, 1) points it is
    # each row's first point, (k, 1), which the fixed side's (1, m, 1)
    # points cannot widen to the block's (k, m)
    def table(first):
        return pc.PointwiseNonlinearity(
            arg_dim=1,
            F=lambda x, y: np.tanh(first(x)) * first(y),
            f1=lambda x, y: (1.0 - np.tanh(x) ** 2) * y,
            f2=lambda x, y: np.tanh(x),
            monotony=np.array([[0.1, 0.1], [0.1, 0.0]]))

    old, new = (pc.build_dirichlet(pc.DirichletSpec(
        dims=1, n_per_dim=15, lengths=(1.0,),
        nonlinearity=pc.NonlinearitySpec.custom(table(first))))
        for first in (lambda z: z[:, 0], lambda z: z[..., 0]))
    us, vs = np.random.default_rng(1).standard_normal((2, 4, 15))
    assert old.eval_N(us[0], vs[0]) == new.eval_N(us[0], vs[0])
    for a, b in ((us, vs), (us, vs[0]), (us[0], vs)):
        assert new.eval_N(a, b).tolist() == [
            new.eval_N(x, y) for x, y in zip(*np.broadcast_arrays(a, b))]
        with pytest.raises(ValueError, match=(
                "must act on the last axis of point arrays that "
                "broadcast")):
            old.eval_N(a, b)
    with pytest.raises(ValueError, match="last axis"):
        pc.check_mountain_pass_ring(old, 1.0, pc.SamplerSpec())
    pc.check_mountain_pass_ring(new, 1.0, pc.SamplerSpec())


@pytest.mark.parametrize("arg_dim, name, f1, f2", [
    (1, "f1", lambda x, y: 0.5, None),
    (2, "f1", lambda x, y: 0.5, None),
    (2, "f1", lambda x, y: x[..., 0], None),
    (2, "f1", lambda x, y: x[..., :1], None),
    (2, "f2", None, lambda x, y: y[..., 0]),
], ids=["float-dirichlet", "float-stokes", "m-stokes", "m1-stokes",
        "f2-m-stokes"])
def test_a_gradient_of_the_wrong_shape_raises_a_named_error(arg_dim, name,
                                                            f1, f2):
    # a gradient must return the (m, arg_dim) shape of its points; any
    # other shape is refused before it is lifted, not by a reshape, a
    # transpose or an attribute lookup inside the lift
    sincos = pc.make_pointwise(pc.NonlinearitySpec.sincos(0.1), arg_dim)
    table = dataclasses.replace(sincos, f1=f1 or sincos.f1,
                                f2=f2 or sincos.f2)
    nl = pc.NonlinearitySpec.custom(table)
    system = (pc.build_dirichlet(pc.DirichletSpec(
        dims=1, n_per_dim=15, lengths=(1.0,), nonlinearity=nl))
        if arg_dim == 1 else pc.build_stokes(pc.StokesSpec(
            n_per_dim=7, lengths=(1.0, 1.0), mu_coeff=1.0,
            nonlinearity=nl)))
    m = 15 if arg_dim == 1 else 81
    u, v = np.random.default_rng(3).standard_normal((2, system.space.dim))
    grad = system.eval_Nu if name == "f1" else system.eval_Nv
    message = (f"must return the broadcast shape of its points: {name} "
               f"returned shape .* not \\({m}, {arg_dim}\\)")
    with pytest.raises(ValueError, match=message):
        grad(u, v)
    with pytest.raises(ValueError, match=message):
        grad(system.sample(u), system.sample(v))
    with pytest.raises(ValueError, match=message):
        pc.run_scheme(system, pc.SchemeConfig(random_init=True))


def test_zero_density_returns_the_broadcast_shape():
    pw = pc.make_pointwise(pc.NonlinearitySpec.zero(), arg_dim=2)
    block, vector = np.ones((3, 5, 2)), np.ones((5, 2))
    for x, y in ((block, vector), (vector, block), (block, block)):
        assert pw.F(x, y).shape == (3, 5)
        assert pw.f1(x, y).shape == pw.f2(x, y).shape == (3, 5, 2)


def test_nonlinearity_spec_validation():
    with pytest.raises(ValueError):
        pc.NonlinearitySpec(kind="bogus")
    with pytest.raises(ValueError):
        pc.NonlinearitySpec(kind="custom")
    with pytest.raises(ValueError):
        pc.NonlinearitySpec.sincos(-0.1)
    with pytest.raises(ValueError):
        pc.NonlinearitySpec(kind="sincos", epsilon=-0.1)


# ----------------------------------------------------------------- builders

def test_spec_invariants():
    nl = pc.NonlinearitySpec.zero()
    with pytest.raises(ValueError):
        pc.DirichletSpec(dims=3, n_per_dim=5, lengths=(1, 1, 1), nonlinearity=nl)
    with pytest.raises(ValueError):
        pc.DirichletSpec(dims=1, n_per_dim=2, lengths=(1.0,), nonlinearity=nl)
    with pytest.raises(ValueError):
        pc.DirichletSpec(dims=1, n_per_dim=5, lengths=(-1.0,), nonlinearity=nl)
    with pytest.raises(ValueError):
        pc.DirichletSpec(dims=1, n_per_dim=5, lengths=(1.0,),
                         potential_c=-0.5, nonlinearity=nl)
    with pytest.raises(ValueError):
        pc.StokesSpec(n_per_dim=4, lengths=(1.0, 1.0), mu_coeff=1.0)
    with pytest.raises(ValueError):
        pc.StokesSpec(n_per_dim=7, lengths=(1.0, 1.0), mu_coeff=0.0)
    # values the assembly cannot use are refused by field name
    for c in (math.nan, math.inf):
        with pytest.raises(ValueError, match="^potential_c must be "
                                             "nonnegative and finite$"):
            pc.DirichletSpec(dims=1, n_per_dim=5, lengths=1.0, potential_c=c)
    for mu in (math.nan, math.inf):
        with pytest.raises(ValueError,
                           match="^mu_coeff must be positive and finite$"):
            pc.StokesSpec(n_per_dim=5, lengths=1.0, mu_coeff=mu)
    with pytest.raises(ValueError):
        pc.build_scalar(0.0, nl)
    # one number is the side in every dimension
    assert pc.DirichletSpec(dims=2, n_per_dim=5, lengths=2).lengths == (2.0, 2.0)
    assert pc.StokesSpec(n_per_dim=5, lengths=2, mu_coeff=1.0).lengths == (2.0, 2.0)


# name -> (number of sides, stencil power, the spec of some lengths)
_GRIDS = {
    "dirichlet_1d": (1, 2, lambda lengths: pc.DirichletSpec(
        dims=1, n_per_dim=5, lengths=lengths)),
    "dirichlet_2d": (2, 2, lambda lengths: pc.DirichletSpec(
        dims=2, n_per_dim=5, lengths=lengths)),
    "stokes": (2, 4, lambda lengths: pc.StokesSpec(
        n_per_dim=5, lengths=lengths, mu_coeff=1.0)),
}


@pytest.mark.parametrize("grid", sorted(_GRIDS))
@pytest.mark.parametrize("case", ["scalar", "list", "count", "zero",
                                  "negative", "nan", "inf", "step"])
def test_each_spec_reads_its_sides_by_one_rule(grid, case):
    count, power, spec = _GRIDS[grid]
    if case == "scalar":
        assert spec(2).lengths == (2.0,) * count
        return
    if case == "list":
        lengths = spec([3, 0.5][:count]).lengths
        assert lengths == (3.0, 0.5)[:count]
        assert all(type(side) is float for side in lengths)
        return
    if case == "count":
        lengths = [1.0] * (count + 1)
    else:
        # a refused side goes last in the list, so each side is checked; at
        # 1e100 / 6 the step's square is finite and its fourth power is not
        bad = {"zero": 0.0, "negative": -1.0, "nan": math.nan,
               "inf": math.inf, "step": 1e200 if power == 2 else 1e100}[case]
        lengths = [1.0] * (count - 1) + [bad]
    if case in ("inf", "step"):
        message = (f"lengths give a grid step h with h**{power} or "
                   f"1/h**{power} outside the float range")
    else:
        message = f"lengths must be one positive number or a list of {count}"
    with pytest.raises(ValueError) as refused:
        spec(lengths)
    assert str(refused.value) == message


def test_dirichlet_1d_stiffness_entries():
    spec = pc.DirichletSpec(dims=1, n_per_dim=3, lengths=(1.0,),
                            potential_c=2.0,
                            nonlinearity=pc.NonlinearitySpec.zero())
    system = pc.build_dirichlet(spec)
    h = 0.25
    dense = system.space.operator.matrix.toarray()
    expect = (1.0 / h) * (np.diag([2.0, 2.0, 2.0])
                          + np.diag([-1.0, -1.0], 1)
                          + np.diag([-1.0, -1.0], -1)) + 2.0 * h * np.eye(3)
    assert np.allclose(dense, expect, atol=1e-14)
    assert np.allclose(system.space.mass_weights, h)


def test_dirichlet_2d_matches_kron_assembly():
    spec = pc.DirichletSpec(dims=2, n_per_dim=3, lengths=(1.0, 2.0),
                            nonlinearity=pc.NonlinearitySpec.zero())
    system = pc.build_dirichlet(spec)
    hx, hy = 0.25, 0.5
    d = (1.0 / hx**2) * (np.diag([-2.0] * 3) + np.diag([1.0, 1.0], 1)
                         + np.diag([1.0, 1.0], -1))
    dyy = (1.0 / hy**2) * (np.diag([-2.0] * 3) + np.diag([1.0, 1.0], 1)
                           + np.diag([1.0, 1.0], -1))
    lap = np.kron(np.eye(3), d) + np.kron(dyy, np.eye(3))
    assert np.allclose(system.space.operator.matrix.toarray(), -hx * hy * lap,
                       atol=1e-13)


def _assert_same_operator(space, ref):
    # equal bits: the CSR arrays, then the band factor against the band
    # read through a mirror copy
    a, b = space.operator.matrix, ref.operator.matrix
    assert space.space_id == ref.space_id
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.data.view(np.int64), b.data.view(np.int64))
    assert np.array_equal(space.operator.factor.view(np.int64),
                          reference.band_factor(b).view(np.int64))


@pytest.mark.parametrize("dims", [1, 2])
@pytest.mark.parametrize("n", [3, 4, 15, 63])
def test_dirichlet_operator_is_the_scipy_composition_bit_for_bit(dims, n):
    for lengths in ((1.0, 1.0), (1.3, 0.7)):
        for c in (0.0, 2.5):
            spec = pc.DirichletSpec(dims=dims, n_per_dim=n,
                                    lengths=lengths[:dims], potential_c=c)
            system = pc.build_dirichlet(spec)
            ref = reference.dirichlet_space(spec)
            _assert_same_operator(system.space, ref)
            assert system.embedding_sq == pc.embedding_constant(ref) ** 2


@pytest.mark.parametrize("n", [5, 6, 17, 33])
def test_stokes_operator_is_the_scipy_composition_bit_for_bit(monkeypatch,
                                                               n):
    # at mu = 1e4 the stiffness term sets the last bits of an entry, so
    # the order of its products shows
    specs = [pc.StokesSpec(n_per_dim=n, lengths=lengths, mu_coeff=mu)
             for lengths in ((1.0, 1.0), (1.3, 0.7))
             for mu in (0.93, 1.0, 1.07, 1e4)]
    systems = [pc.build_stokes(spec) for spec in specs]
    # the builder on the composed space computes the reference constant
    monkeypatch.setattr(problems, "_stokes_space", reference.stokes_space)
    for spec, system in zip(specs, systems):
        ref = pc.build_stokes(spec)
        _assert_same_operator(system.space, ref.space)
        assert system.embedding_sq == ref.embedding_sq


@pytest.mark.parametrize("build, spec, kd", [
    (pc.build_stokes, pc.StokesSpec(n_per_dim=49, lengths=(1.0, 1.0),
                                    mu_coeff=1.0), 98),
    (pc.build_dirichlet, pc.DirichletSpec(dims=2, n_per_dim=63,
                                          lengths=(1.0, 1.0)), 63)],
    ids=["stokes_49", "dirichlet_2d_63"])
def test_a_build_peaks_at_a_few_bands(build, spec, kd):
    # no O(dim^2) array: a dense Stokes n=49 operator alone would take
    # 46 MB; the build holds the CSR, the band factor and vectors
    build(dataclasses.replace(spec, n_per_dim=5))  # first-call allocations
    tracemalloc.start()
    try:
        system = build(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    band = (kd + 1) * system.space.dim * 8
    assert system.space.operator.factor.nbytes == band
    assert peak <= 3 * band, peak / band


def test_embedding_refinement_is_second_order():
    # eigenvalue error of the discrete Laplacian scales like h^2
    errs = []
    for n in (15, 31, 63):
        spec = pc.DirichletSpec(dims=1, n_per_dim=n, lengths=(1.0,),
                                nonlinearity=pc.NonlinearitySpec.zero())
        system = pc.build_dirichlet(spec)
        c = pc.embedding_constant(system.space)
        errs.append(abs(c - 1.0 / np.pi))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.5)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.5)


@pytest.mark.parametrize("dims, sizes", [(1, (15, 31, 63, 255)),
                                         (2, (15, 31))])
def test_dirichlet_embedding_matches_the_discrete_eigenvalue(dims, sizes):
    # the first eigenvalue of the second-difference Laplacian on the unit
    # interval is (4/h^2) sin^2(pi h / 2), on the unit square twice that;
    # a Rayleigh quotient of the power iteration underestimates it
    for n in sizes:
        system = pc.build_dirichlet(pc.DirichletSpec(
            dims=dims, n_per_dim=n, lengths=(1.0,) * dims))
        h = 1.0 / (n + 1)
        lam = dims * 4.0 / h**2 * np.sin(0.5 * np.pi * h) ** 2
        assert 0.0 < 1.0 - system.embedding_sq * lam < 1e-8, n


def test_stokes_embedding_tends_to_the_stokes_eigenvalue():
    # mu = 1: 1/c^2 - mu is the discrete first Stokes eigenvalue of the
    # unit square. It falls with n, and its O(h^2) Richardson extrapolation
    # meets the continuum value 52.3447 (5.304 pi^2, the clamped square
    # plate's buckling load)
    lam = {}
    for n in (9, 17, 33, 49, 65):
        system = pc.build_stokes(pc.StokesSpec(
            n_per_dim=n, lengths=(1.0, 1.0), mu_coeff=1.0))
        lam[n] = 1.0 / system.embedding_sq - 1.0
    values = list(lam.values())
    assert all(a > b for a, b in zip(values, values[1:]))
    h_coarse, h_fine = 1.0 / 34, 1.0 / 66
    limit = ((h_coarse**2 * lam[65] - h_fine**2 * lam[33])
             / (h_coarse**2 - h_fine**2))
    assert limit == pytest.approx(52.3447, abs=1e-2)


def test_solution_refinement_on_shared_nodes():
    # nested grids share nodes; differences against the finest level
    # shrink at second order
    solutions = {}
    for n in (15, 31, 63):
        spec = pc.DirichletSpec(dims=1, n_per_dim=n, lengths=(1.0,),
                                nonlinearity=pc.NonlinearitySpec.sincos(0.5))
        pair, _ = pc.run_scheme(pc.build_dirichlet(spec))
        assert pair.converged
        solutions[n] = pair.u_star.coeffs

    # node x_i of the n=15 grid is index 2i+1 on n=31, 4i+3 on n=63
    u15, u31, u63 = solutions[15], solutions[31], solutions[63]
    shared_31 = u31[1::2]
    shared_63 = u63[3::4]
    assert shared_31.shape == u15.shape
    assert shared_63.shape == u15.shape
    e15 = np.max(np.abs(u15 - shared_63))
    e31 = np.max(np.abs(shared_31 - shared_63))
    ratio = e15 / e31
    assert 2.5 <= ratio <= 6.0


def test_scalar_builder_closed_form_residual(scalar_linear):
    # one unknown: A = [[2]], so Nu(u, v) = (0.2 v + 1) / 2
    space = scalar_linear.space
    u = space.wrap(np.array([0.3]))
    v = space.wrap(np.array([-0.2]))
    nu = space.wrap(scalar_linear.eval_Nu(u.coeffs, v.coeffs))
    assert nu.coeffs[0] == pytest.approx((0.2 * -0.2 + 1.0) / 2.0, rel=1e-12)
    nv = space.wrap(scalar_linear.eval_Nv(u.coeffs, v.coeffs))
    assert nv.coeffs[0] == pytest.approx((0.2 * 0.3) / 2.0, rel=1e-12)


# ------------------------------------------------------------------- stokes

def test_stokes_operator_spd_across_viscosities(rng):
    for mu in (0.1, 1.0, 10.0):
        spec = pc.StokesSpec(n_per_dim=7, lengths=(1.0, 1.0), mu_coeff=mu)
        system, _ = reference.build_stokes_manufactured(spec)
        dense = system.space.operator.matrix.toarray()
        assert np.allclose(dense, dense.T, atol=1e-12)
        for _ in range(8):
            x = rng.standard_normal(dense.shape[0])
            assert x @ dense @ x > 0.0


def test_stokes_theta_increases_with_viscosity():
    # theta = 1/c^2, so it grows with mu iff the embedding constant c shrinks
    consts = []
    for mu in (0.1, 1.0, 10.0):
        spec = pc.StokesSpec(n_per_dim=7, lengths=(1.0, 1.0), mu_coeff=mu)
        system, _ = reference.build_stokes_manufactured(spec)
        consts.append(pc.embedding_constant(system.space))
    assert consts[0] > consts[1] > consts[2]


def test_each_builder_runs_the_power_iteration_it_reads(monkeypatch,
                                                        stokes_spec):
    # a Dirichlet coupling reads the mass constant and a Stokes one the
    # velocity constant; the manufactured and scalar systems read neither
    calls = []
    power = spaces.dominant_inverse_eig

    def counted(space, apply_m):
        calls.append(space.space_id)
        return power(space, apply_m)

    monkeypatch.setattr(spaces, "dominant_inverse_eig", counted)
    monkeypatch.setattr(problems, "dominant_inverse_eig", counted)
    builds = {
        "build_dirichlet": (1, lambda: pc.build_dirichlet(pc.DirichletSpec(
            dims=1, n_per_dim=15, lengths=(1.0,),
            nonlinearity=pc.NonlinearitySpec.zero()))),
        "build_stokes": (1, lambda: pc.build_stokes(stokes_spec)),
        "build_stokes_manufactured":
            (0, lambda: reference.build_stokes_manufactured(stokes_spec)),
        "build_scalar":
            (0, lambda: pc.build_scalar(2.0, pc.NonlinearitySpec.zero())),
    }
    for name, (expected, build) in builds.items():
        calls.clear()
        build()
        assert len(calls) == expected, name


def test_velocity_field_is_discretely_divergence_free(stokes_17, stokes_spec,
                                                      solved):
    pair, _ = solved["stokes_17"]
    vx, vy = pc.reconstruct_velocity(pair.u_star, stokes_spec)
    div = pc.discrete_divergence(vx, vy, stokes_spec)
    assert np.max(np.abs(div)) <= 1e-13
    # boundary velocities vanish
    assert np.all(vx[0, :] == 0.0) and np.all(vx[-1, :] == 0.0)
    assert np.all(vy[:, 0] == 0.0) and np.all(vy[:, -1] == 0.0)
    assert np.all(vx[:, 0] == 0.0) and np.all(vy[0, :] == 0.0)


def test_manufactured_stokes_recovers_exact_pair(stokes_spec):
    system, (u_star, v_star) = reference.build_stokes_manufactured(stokes_spec)
    pair, _ = pc.run_scheme(system)
    assert pair.converged
    err_u = pc.norm_a(pair.u_star - u_star, system.space)
    err_v = pc.norm_a(pair.v_star - v_star, system.space)
    assert max(err_u, err_v) <= 1e-6


def test_manufactured_gradients_are_solved_once_at_build(stokes_spec,
                                                        monkeypatch):
    # the gradients of the linear coupling are the same at every pair: two
    # solves at build, none in the scheme or the oracle, and every call
    # returns the same read-only arrays, with the bits of a fresh solve
    calls = []
    solve = reference.solve_a

    def counting(h, space):
        calls.append(1)
        return solve(h, space)

    monkeypatch.setattr(reference, "solve_a", counting)
    system, (u_star, v_star) = reference.build_stokes_manufactured(stokes_spec)
    assert len(calls) == 2
    pair, _ = pc.run_scheme(system)
    assert pair.converged and pc.newton_full(system).converged
    assert len(calls) == 2
    space = system.space
    grad_u = system.eval_Nu(pair.u_star.coeffs, pair.v_star.coeffs)
    grad_v = system.eval_Nv(u_star.coeffs, v_star.coeffs)
    assert grad_u is system.eval_Nu(u_star.coeffs, v_star.coeffs)
    assert not (grad_u.flags.writeable or grad_v.flags.writeable)
    assert grad_u.tobytes() == solve(
        space.operator.apply(u_star.coeffs), space).tobytes()
    assert grad_v.tobytes() == solve(
        -space.operator.apply(v_star.coeffs), space).tobytes()


def test_curl_adjoint_on_a_batch_equals_the_row_calls(stokes_spec):
    # the adjoint identity <curl psi, (a, b)> = <psi, curl_adjoint(a, b)>
    grid = problems._StokesGrid(stokes_spec)
    rng = np.random.default_rng(6)
    for a, b in rng.standard_normal((4, 2, grid.n + 2, grid.n + 2)):
        adjoint = grid.curl_adjoint(a, b)
        assert adjoint.shape == (grid.n * grid.n,)
        psi = rng.standard_normal(grid.n * grid.n)
        vx, vy = grid.curl(psi)
        lhs = np.sum(vx * a) + np.sum(vy * b)
        assert lhs == pytest.approx(np.dot(psi, adjoint), rel=1e-12, abs=1e-9)


def test_velocity_reconstruction_shape_checks(stokes_spec):
    with pytest.raises(ValueError):
        pc.reconstruct_velocity(pc.HVector(np.zeros(10), "short"), stokes_spec)
    with pytest.raises(ValueError):
        pc.discrete_divergence(np.zeros((3, 3)), np.zeros((3, 3)), stokes_spec)


def test_stokes_curl_matches_analytic_gradient(stokes_17, rng):
    # the lifted gradients are exact partial derivatives of eval_N
    space = stokes_17.space
    u = 0.1 * rng.standard_normal(space.dim)
    v = 0.1 * rng.standard_normal(space.dim)
    err = reference.fd_gradient_check(stokes_17, u, v, n_dirs=4)
    assert err <= 1e-6
