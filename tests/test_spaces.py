"""Discrete space layer: solves, lifts, embeddings, validation."""

import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import partialcrit as pc
from partialcrit import spaces
from partialcrit.errors import ConvergenceError, IntegrityError


def _random_spd_space(n, seed, space_id):
    rng = np.random.default_rng(seed)
    r = rng.standard_normal((n, n))
    dense = r.T @ r + n * np.eye(n)
    weights = rng.uniform(0.5, 1.5, n)
    return pc.make_space(sp.csr_matrix(dense), weights, space_id=space_id)


def test_solve_a_matches_dense_lu():
    space = _random_spd_space(12, 3, "lu-oracle")
    dense = space.operator.matrix.toarray()
    rng = np.random.default_rng(7)
    for _ in range(20):
        h = rng.standard_normal(12)
        got = pc.solve_a(h, space)
        ref = np.linalg.solve(dense, h)
        assert np.allclose(got, ref, rtol=1e-8, atol=1e-12)


def test_solve_a_zero_rhs_is_zero():
    space = _random_spd_space(6, 1, "zero-rhs")
    assert np.all(pc.solve_a(np.zeros(6), space) == 0.0)


def test_solve_a_block_keeps_the_checks_of_a_single_solve():
    # a solve and a lift take one (dim,) vector; a block is refused like
    # any other shape
    space = pc.make_space(sp.diags(np.full(4, 1e-3)), np.ones(4), "soft")
    with pytest.raises(ValueError, match="^coefficients must be finite$"):
        pc.solve_a(np.full(4, 1e307), space)  # the solution overflows
    for bad in (np.ones((3, 5)), np.ones(5), np.ones((2, 2, 4)), np.ones(()),
                np.ones((3, 0)), np.ones((3, 4)), np.ones((1, 4))):
        with pytest.raises(ValueError, match="^right-hand side length does "
                                             "not match space dimension$"):
            pc.solve_a(bad, space)
        with pytest.raises(ValueError, match="^pointwise data length does "
                                             "not match space dimension$"):
            pc.riesz_lift(bad, space)


def test_solve_a_rejects_non_spd_operator():
    # indefinite, then singular; make_space does not factor, so the first
    # solve is the one that factors
    for diag in ([2.0, -1.0, 3.0], [2.0, 0.0, 3.0]):
        space = pc.make_space(sp.diags(diag).tocsr(), np.ones(3),
                              space_id="non-spd")
        with pytest.raises(IntegrityError, match="not positive definite"):
            pc.solve_a(np.ones(3), space)
    # the Cholesky reads the upper band only: a lower triangle that does not
    # mirror it, an entry off by one rounding or missing on either side, is
    # refused, not solved as the symmetric matrix of the upper band
    for entries in ([[2.0, 1.0], [0.5, 2.0]], [[2.0, 1.0], [0.0, 2.0]],
                    [[2.0, 0.0], [1.0, 2.0]],
                    [[2.0, 0.1], [np.nextafter(0.1, 1.0), 2.0]]):
        space = pc.make_space(sp.csr_matrix(np.array(entries)), np.ones(2),
                              space_id="asymmetric")
        with pytest.raises(IntegrityError, match="not symmetric"):
            pc.solve_a(np.ones(2), space)


@pytest.mark.parametrize("n", [5, 9])
def test_each_builder_has_its_band(n):
    # the factor holds (kd + 1) * dim floats, kd the natural ordering's
    # half-bandwidth: 1 on a 1D mesh, n on a 2D one, 2n for the Stokes
    # stream function's 13-point stencil, 0 for a scalar
    zero = pc.NonlinearitySpec.zero()
    bands = {
        1: pc.build_dirichlet(pc.DirichletSpec(
            dims=1, n_per_dim=n, lengths=(1.0,), nonlinearity=zero)),
        n: pc.build_dirichlet(pc.DirichletSpec(
            dims=2, n_per_dim=n, lengths=(1.0, 1.0), nonlinearity=zero)),
        2 * n: pc.build_stokes(pc.StokesSpec(
            n_per_dim=n, lengths=(1.0, 1.0), mu_coeff=1.0,
            nonlinearity=pc.NonlinearitySpec.sincos(0.5))),
        0: pc.build_scalar(2.0, zero),
    }
    for kd, system in bands.items():
        space = system.space
        assert space.operator.factor.shape == (kd + 1, space.dim), kd


def test_make_space_factors_once(monkeypatch):
    calls = []
    real_dpbtrf = spaces.dpbtrf

    def counting_dpbtrf(*args, **kwargs):
        calls.append(1)
        return real_dpbtrf(*args, **kwargs)

    monkeypatch.setattr(spaces, "dpbtrf", counting_dpbtrf)
    space = _random_spd_space(15, 4, "factor-once")
    assert len(calls) == 0  # assembly only wraps the matrix
    rng = np.random.default_rng(3)
    pc.solve_a(rng.standard_normal(15), space)
    assert len(calls) == 1
    for _ in range(5):
        pc.solve_a(rng.standard_normal(15), space)
        pc.riesz_lift(rng.standard_normal(15), space)
    assert len(calls) == 1


def test_make_space_does_not_densify(monkeypatch):
    def no_dense(self, *args, **kwargs):
        raise AssertionError("make_space must not densify the matrix")

    monkeypatch.setattr(sp.csr_matrix, "toarray", no_dense)
    monkeypatch.setattr(sp.csr_array, "toarray", no_dense)
    n = 30
    lap = sp.diags([-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)],
                   [-1, 0, 1]).tocsr()
    space = pc.make_space(lap, np.ones(n), space_id="sparse-lap")
    assert space.operator.matrix.nnz == 3 * n - 2


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_make_space_rejects_nonfinite_entries(bad):
    m = sp.diags([1.0, bad, 1.0]).tocsr()
    with pytest.raises(ValueError, match="^operator entries must be finite$"):
        pc.make_space(m, np.ones(3), space_id="nonfinite")


def test_make_space_rejects_a_non_square_matrix():
    with pytest.raises(ValueError, match=r"^operator matrix shape \(3, 4\) "
                                         r"is not square$"):
        pc.make_space(sp.csr_matrix(np.ones((3, 4))), np.ones(3), "wide")


def test_riesz_lift_pairing():
    # (riesz f, x)_A equals the weighted pointwise pairing sum w f x
    space = _random_spd_space(10, 11, "riesz")
    rng = np.random.default_rng(2)
    for _ in range(10):
        f = rng.standard_normal(10)
        x = space.wrap(rng.standard_normal(10))
        lifted = space.wrap(pc.riesz_lift(f, space))
        lhs = pc.inner_a(lifted, x, space)
        rhs = float(np.dot(space.mass_weights, f * x.coeffs))
        assert abs(lhs - rhs) <= 1e-8 * (1.0 + abs(rhs))


def test_inner_product_axioms(rng):
    space = _random_spd_space(9, 13, "axioms")
    for _ in range(25):
        x, y, z = rng.standard_normal((3, 9))
        a, b = rng.standard_normal(2)
        sym = pc.inner_a(x, y, space) - pc.inner_a(y, x, space)
        assert abs(sym) <= 1e-10 * (1 + abs(pc.inner_a(x, y, space)))
        lin = (pc.inner_a(a * x + b * y, z, space)
               - a * pc.inner_a(x, z, space) - b * pc.inner_a(y, z, space))
        assert abs(lin) <= 1e-8
        cs = abs(pc.inner_a(x, y, space))
        assert cs <= pc.norm_a(x, space) * pc.norm_a(y, space) * (1 + 1e-10)


def test_embedding_1d_laplacian_near_continuum():
    # unit interval, first eigenvalue pi^2: constant close to 1/pi
    spec = pc.DirichletSpec(dims=1, n_per_dim=31, lengths=(1.0,),
                            nonlinearity=pc.NonlinearitySpec.zero())
    system = pc.build_dirichlet(spec)
    c = pc.embedding_constant(system.space)
    assert abs(c - 1.0 / np.pi) <= 0.02 / np.pi


def test_embedding_scaled_mass_exact():
    # A = theta W makes the embedding constant exactly 1/sqrt(theta)
    theta = 3.7
    w = np.array([0.4, 1.1, 2.0, 0.7])
    space = pc.make_space(sp.diags(theta * w).tocsr(), w, space_id="theta-mass")
    c = pc.embedding_constant(space)
    assert abs(c - 1.0 / np.sqrt(theta)) <= 1e-6


def test_stokes_velocity_embedding_bounded(stokes_17, stokes_spec):
    # velocity constant obeys 1/sqrt(lambda_1 + mu) with the continuum
    # first Dirichlet eigenvalue of the unit square
    bound = 1.0 / np.sqrt(2.0 * np.pi**2 + stokes_spec.mu_coeff)
    assert np.sqrt(stokes_17.embedding_sq) <= bound


def test_power_iteration_survives_underflowing_iterates():
    # scaling A by 1e280 scales the eigenvalue of A^{-1} W by 1e-280; the
    # iterates then sit below 1e-154, where their euclidean norm underflows
    base = _random_spd_space(6, 4, "unscaled")
    w = base.mass_weights
    scaled = pc.make_space(1e280 * base.operator.matrix, w, space_id="scaled")
    lam = spaces.dominant_inverse_eig(base, lambda x: w * x)
    lam_scaled = spaces.dominant_inverse_eig(scaled, lambda x: w * x)
    assert lam > 0.0
    assert lam_scaled == pytest.approx(1e-280 * lam, rel=1e-6, abs=0.0)


def test_power_iteration_survives_overflowing_iterates():
    # scaling A by 2^-500 and W by 2^500 scales the eigenvalue by 2^1000;
    # the iterates then sit above 1e154, where their euclidean norm
    # overflows while the peak rescaling keeps them finite. The overflow is
    # handled, so it raises no warning (warnings are errors here)
    base = _random_spd_space(6, 4, "unscaled")
    w = base.mass_weights
    scaled = pc.make_space(2.0**-500 * base.operator.matrix, w,
                           space_id="scaled")
    lam = spaces.dominant_inverse_eig(base, lambda x: w * x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lam_scaled = spaces.dominant_inverse_eig(
            scaled, lambda x: 2.0**500 * w * x)
    assert lam_scaled == pytest.approx(2.0**1000 * lam, rel=1e-6, abs=0.0)


def test_power_iteration_stagnation_raises():
    # eigenvalues +-i: the Rayleigh quotient cycles and never settles
    space = pc.make_space(sp.identity(2, format="csr"), np.ones(2),
                          space_id="identity")
    m = np.array([[2.0, 5.0], [-1.0, -2.0]])
    with pytest.raises(ConvergenceError) as err:
        spaces.dominant_inverse_eig(space, lambda x: m @ x)
    assert str(err.value) == "power iteration stagnated after 5000 iterations"
    assert err.value.iterations == 5000


def test_validate_space_rejects_asymmetric():
    bad = sp.csr_matrix(np.array([[2.0, 1.0], [0.0, 2.0]]))
    # assembly does no solve, so it succeeds; the embedding constant's
    # first solve factors the operator, and the factor refuses it
    space = pc.make_space(bad, np.ones(2), space_id="asym")
    with pytest.raises(IntegrityError, match="not symmetric"):
        pc.embedding_constant(space)


def _assert_weak_monotonicity_rejected(s):
    # A = 2 W: every probe's Rayleigh quotient is theta itself, so half the
    # true embedding constant (a theta four times too large) fails them all,
    # at any scale of the forms
    w = s * np.array([0.4, 1.1, 2.0, 0.7])
    space = pc.make_space(sp.diags(2.0 * w).tocsr(), w, space_id="weak-mono")
    true_c = pc.embedding_constant(space)  # probes at the true c itself
    with pytest.raises(IntegrityError, match="strong monotonicity violated"):
        pc.validate_space(space, 0.5 * true_c)


def test_validate_space_rejects_weak_monotonicity():
    _assert_weak_monotonicity_rejected(1.0)


@pytest.mark.parametrize("s", [1e-10, 1e-20])
def test_validate_space_rejects_weak_monotonicity_at_small_scale(s):
    _assert_weak_monotonicity_rejected(s)


def test_hvector_space_mismatch_rejected():
    s1 = _random_spd_space(4, 21, "mismatch-a")
    s2 = _random_spd_space(4, 22, "mismatch-b")
    x = s1.wrap(np.ones(4))
    y = s2.wrap(np.ones(4))
    with pytest.raises(ValueError):
        _ = x - y
    with pytest.raises(ValueError):
        pc.inner_a(x, y, s1)
    with pytest.raises(ValueError):
        pc.norm_a(y, s1)


def test_hvector_rejects_nonfinite():
    space = _random_spd_space(3, 23, "nonfinite")
    with pytest.raises(ValueError):
        space.wrap(np.array([1.0, np.nan, 0.0]))


def test_make_space_rejects_bad_weights():
    m = sp.identity(3, format="csr")
    with pytest.raises(ValueError):
        pc.make_space(m, np.array([1.0, -1.0, 1.0]), space_id="neg-w")


# ------------------------------------------------ HVector difference, wrap

PROP_DIM = 5
PROP_SPACE = _random_spd_space(PROP_DIM, 31, "prop-a")
OTHER_SPACE = _random_spd_space(PROP_DIM, 32, "prop-b")

_finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
_coeffs = arrays(float, PROP_DIM, elements=_finite)
_property = settings(max_examples=100, derandomize=True, deadline=None)


@_property
@given(_coeffs, _coeffs)
def test_hvector_difference_is_the_coefficient_difference(xc, yc):
    # `-` is the one operator of a result; arithmetic is done on arrays
    x, y = PROP_SPACE.wrap(xc), PROP_SPACE.wrap(yc)
    diff = x - y
    assert diff.space_id == PROP_SPACE.space_id
    assert diff.coeffs.tolist() == (xc - yc).tolist()
    for other in (lambda: x + y, lambda: 2.0 * x, lambda: x * 2.0,
                  lambda: -x):
        with pytest.raises(TypeError):
            other()


@_property
@given(_coeffs, st.integers(0, PROP_DIM - 1),
       st.sampled_from([np.nan, np.inf, -np.inf]))
def test_wrap_rejects_nonfinite_entries(xc, index, bad):
    xc[index] = bad
    with pytest.raises(ValueError, match="^coefficients must be finite$"):
        PROP_SPACE.wrap(xc)


@_property
@given(st.integers(0, 3 * PROP_DIM).filter(lambda n: n != PROP_DIM)
       .flatmap(lambda n: arrays(float, n, elements=_finite)))
def test_wrap_rejects_wrong_length(xc):
    with pytest.raises(ValueError, match="length does not match"):
        PROP_SPACE.wrap(xc)


@_property
@given(_coeffs, _coeffs)
def test_check_takes_a_vector_or_a_block_and_wrap_a_vector(xc, yc):
    block = PROP_SPACE.check(np.stack([xc, yc]))
    assert block.tolist() == [PROP_SPACE.check(xc).tolist(),
                              PROP_SPACE.check(yc).tolist()]
    assert PROP_SPACE.wrap(xc).coeffs.tolist() == xc.tolist()
    for bad in (np.stack([xc, yc]), np.stack([[xc]]), xc[0]):
        with pytest.raises(ValueError, match="length does not match"):
            PROP_SPACE.wrap(bad)
    with pytest.raises(ValueError, match="length does not match"):
        PROP_SPACE.check(np.stack([[xc]]))
    yc[-1] = np.nan
    with pytest.raises(ValueError, match="^coefficients must be finite$"):
        PROP_SPACE.check(np.stack([xc, yc]))


@_property
@given(_coeffs, _coeffs)
def test_cross_space_operations_rejected(xc, yc):
    x, y = PROP_SPACE.wrap(xc), OTHER_SPACE.wrap(yc)
    with pytest.raises(ValueError, match="space mismatch"):
        _ = x - y
    with pytest.raises(ValueError, match="belongs to"):
        pc.inner_a(x, y, PROP_SPACE)
    with pytest.raises(ValueError, match="belongs to"):
        pc.inner_a(x, x, OTHER_SPACE)
    with pytest.raises(ValueError, match="belongs to"):
        pc.norm_a(x, OTHER_SPACE)
    with pytest.raises(ValueError, match="belongs to"):
        pc.norm_a(y, PROP_SPACE)


@pytest.mark.parametrize("width", range(1, 13))
def test_row_sums_equal_np_sum_bit_for_bit(width):
    # the densities' point axes are narrow, where numpy adds in order too;
    # from 8 columns on numpy sums pairwise, and so does `_row_sums`
    rng = np.random.default_rng(width)
    z = (rng.standard_normal((200, width))
         * 10.0 ** rng.uniform(-300.0, 300.0, (200, width)))
    z[rng.random(z.shape) < 0.2] = -0.0
    z[:3] = -0.0  # a row of negative zeros sums to +0.0
    z[3, 0], z[4, -1], z[5, 0] = np.inf, -np.inf, np.nan
    with np.errstate(over="ignore", invalid="ignore"):
        for block in (z, np.asfortranarray(z)):
            assert (spaces._row_sums(block).tobytes()
                    == np.sum(z, axis=1).tobytes())
        # the last axis of a stack of blocks, as the densities see a block
        stack = z.reshape(4, 50, width)
        assert (spaces._row_sums(stack).tobytes()
                == np.sum(z, axis=1).reshape(4, 50).tobytes())


# ------------------------------------------------ the operator product


def _same_bits(got, ref):
    return (got.dtype == ref.dtype and got.shape == ref.shape
            and got.tobytes() == ref.tobytes())


def _apply_cases(matrix, x, block):
    """(argument, reference) pairs: a vector, the transposed block that
    `norm_a` passes, strided views of both, and integer input."""
    cases = [x, block.T, np.repeat(x, 2)[::2], block[::-1].T[:, ::2],
             np.rint(8.0 * x).astype(np.int64),
             np.rint(8.0 * block.T).astype(np.int32)]
    return [(z, matrix @ z) for z in cases]


def test_apply_is_the_matrix_product_on_every_bundled_space(bundled):
    rng = np.random.default_rng(9)
    for system in bundled.values():
        op, dim = system.space.operator, system.space.dim
        x, block = rng.standard_normal(dim), rng.standard_normal((5, dim))
        for z, ref in _apply_cases(op.matrix, x, block):
            assert _same_bits(op.apply(z), ref)


@st.composite
def _sparse_spd(draw):
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    r = sp.random(n, n, density=draw(st.floats(0.05, 1.0)), random_state=rng,
                  format="csr")
    return (r.T @ r + sp.identity(n)).tocsr()


@_property
@given(_sparse_spd(), st.integers(1, 6), st.data())
def test_apply_is_the_matrix_product_bit_for_bit(matrix, k, data):
    op = pc.make_space(matrix, np.ones(matrix.shape[0]), "apply").operator
    n = op.matrix.shape[0]
    x = data.draw(arrays(float, n, elements=_finite))
    block = data.draw(arrays(float, (k, n), elements=_finite))
    for z, ref in _apply_cases(op.matrix, x, block):
        assert _same_bits(op.apply(z), ref)


def test_apply_rejects_a_wrong_length():
    op = _random_spd_space(4, 5, "length").operator
    for bad in (np.ones(5), np.ones((3, 2)), np.ones((4, 2, 1)), np.float64(1)):
        with pytest.raises(ValueError, match="does not match operator"):
            op.apply(bad)


def test_the_forms_reach_the_operator_product(monkeypatch):
    # the benchmark's tracer counts matvecs by wrapping SpdOperator.apply;
    # a form that multiplied by the matrix another way would count none
    calls = []
    apply = spaces.SpdOperator.apply

    def counted(self, x):
        calls.append(x.shape)
        return apply(self, x)

    monkeypatch.setattr(spaces.SpdOperator, "apply", counted)
    space = _random_spd_space(6, 8, "reach")
    x = np.ones(6)
    c = pc.embedding_constant(space)
    forms = {
        "norm_a": lambda: pc.norm_a(x, space),
        "norm_a block": lambda: pc.norm_a(np.ones((3, 6)), space),
        "inner_a": lambda: pc.inner_a(x, x, space),
        "dominant_inverse_eig": lambda: spaces.dominant_inverse_eig(
            space, lambda y: y),
        "validate_space": lambda: pc.validate_space(space, c),
    }
    for name, form in forms.items():
        calls.clear()
        form()
        assert calls, name


# ------------------------------------------------ the band Cholesky solve


def _banded(n, kd, seed, scale):
    """A diagonally dominant symmetric matrix with half-bandwidth exactly
    kd, every band entry nonzero, times `scale`."""
    rng = np.random.default_rng(seed)
    dense = np.zeros((n, n))
    for d in range(1, kd + 1):
        off = rng.uniform(0.1, 1.0, n - d) * rng.choice([-1.0, 1.0], n - d)
        dense += np.diag(off, d) + np.diag(off, -d)
    dense += np.diag(np.abs(dense).sum(axis=1) + rng.uniform(0.5, 2.0, n))
    return scale * dense


@st.composite
def _banded_spd(draw):
    # scaled toward either end of the float range, or not at all
    n = draw(st.integers(1, 40))
    kd = draw(st.integers(0, n - 1))
    return _banded(n, kd, draw(st.integers(0, 2**32 - 1)),
                   draw(st.sampled_from([1.0, 1e280, 1e-280]))), kd


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_banded_spd(), st.integers(1, 4), st.integers(0, 2**32 - 1))
# dpbtrf takes its blocked path, which calls the BLAS-3 routines, only
# above kd = 64 (LAPACK's ilaenv block size for it)
@example((_banded(100, 80, 0, 1.0), 80), 3, 1)
def test_band_solve_matches_a_dense_solve(case, k, seed):
    dense, kd = case
    n = dense.shape[0]
    space = pc.make_space(sp.csr_matrix(dense), np.ones(n), "band")
    assert space.operator.factor.shape == (kd + 1, n)
    for b in np.random.default_rng(seed).standard_normal((k, n)):
        ref = np.linalg.solve(dense, b)
        assert np.allclose(pc.solve_a(b, space), ref, rtol=1e-8,
                           atol=1e-12 * float(np.max(np.abs(ref))))
