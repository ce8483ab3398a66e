"""Discrete space layer: solves, lifts, embeddings, validation."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
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
        got = pc.solve_a(h, space).coeffs
        ref = np.linalg.solve(dense, h)
        assert np.allclose(got, ref, rtol=1e-8, atol=1e-12)


def test_solve_a_zero_rhs_is_zero():
    space = _random_spd_space(6, 1, "zero-rhs")
    assert np.all(pc.solve_a(np.zeros(6), space).coeffs == 0.0)


def test_solve_a_rows_equals_solve_a_row_by_row(bundled):
    rng = np.random.default_rng(4)
    for space in (_random_spd_space(12, 3, "rows"), bundled["sincos_1d"].space,
                  bundled["stokes_17"].space):
        h = rng.standard_normal((5, space.dim))
        h[2] = -0.0  # a zero row is solved to +0.0, as `solve_a` returns it
        got = spaces.solve_a_rows(h, space)
        assert got.shape == h.shape
        assert np.all(got[2] == 0.0) and not np.any(np.signbit(got[2]))
        for row, b in zip(got, h):
            assert row.tolist() == pc.solve_a(b, space).coeffs.tolist()


def test_solve_a_rows_keeps_the_checks_of_solve_a():
    space = pc.make_space(sp.diags(np.full(4, 1e-3)), np.ones(4), "soft")
    h = np.ones((3, 4))
    h[1] = 1e307  # the solution overflows
    with pytest.raises(ValueError) as single:
        pc.solve_a(h[1], space)
    with pytest.raises(ValueError) as block:
        spaces.solve_a_rows(h, space)
    assert str(block.value) == str(single.value) == (
        "coefficients must be finite")
    for bad in (np.ones((3, 5)), np.ones(4), np.ones((2, 2, 4))):
        with pytest.raises(ValueError, match="^right-hand side length does "
                                             "not match space dimension$"):
            spaces.solve_a_rows(bad, space)


def test_solve_a_rejects_non_spd_operator():
    # indefinite, then singular; make_space does not factor, so the first
    # solve is the one that factors
    for diag in ([2.0, -1.0, 3.0], [2.0, 0.0, 3.0]):
        space = pc.make_space(sp.diags(diag).tocsr(), np.ones(3),
                              space_id="non-spd")
        with pytest.raises(IntegrityError):
            pc.solve_a(np.ones(3), space)


def test_make_space_factors_once(monkeypatch):
    calls = []
    real_splu = spaces.splu

    def counting_splu(*args, **kwargs):
        calls.append(1)
        return real_splu(*args, **kwargs)

    monkeypatch.setattr(spaces, "splu", counting_splu)
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


def test_riesz_lift_pairing():
    # (riesz f, x)_A equals the weighted pointwise pairing sum w f x
    space = _random_spd_space(10, 11, "riesz")
    rng = np.random.default_rng(2)
    for _ in range(10):
        f = rng.standard_normal(10)
        x = space.wrap(rng.standard_normal(10))
        lifted = pc.riesz_lift(f, space)
        lhs = pc.inner_a(lifted, x, space)
        rhs = float(np.dot(space.mass_weights, f * x.coeffs))
        assert abs(lhs - rhs) <= 1e-8 * (1.0 + abs(rhs))


def test_inner_product_axioms(rng):
    space = _random_spd_space(9, 13, "axioms")
    for _ in range(25):
        x = space.wrap(rng.standard_normal(9))
        y = space.wrap(rng.standard_normal(9))
        z = space.wrap(rng.standard_normal(9))
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
    # assembly does no solve, so it succeeds; the symmetry probe fails
    space = pc.make_space(bad, np.ones(2), space_id="asym")
    with pytest.raises(IntegrityError):
        pc.validate_space(space)


def test_validate_space_rejects_weak_monotonicity(monkeypatch):
    # A = 2 W: every probe's Rayleigh quotient is theta itself, so half the
    # true embedding constant (a theta four times too large) fails them all
    w = np.array([0.4, 1.1, 2.0, 0.7])
    space = pc.make_space(sp.diags(2.0 * w).tocsr(), w, space_id="weak-mono")
    pc.validate_space(space)
    true_c = pc.embedding_constant(space)
    monkeypatch.setattr(spaces, "embedding_constant", lambda s: 0.5 * true_c)
    with pytest.raises(IntegrityError, match="strong monotonicity violated"):
        pc.validate_space(space)


def test_hvector_space_mismatch_rejected():
    s1 = _random_spd_space(4, 21, "mismatch-a")
    s2 = _random_spd_space(4, 22, "mismatch-b")
    x = s1.wrap(np.ones(4))
    y = s2.wrap(np.ones(4))
    with pytest.raises(ValueError):
        _ = x + y
    with pytest.raises(ValueError):
        pc.inner_a(x, y, s1)


def test_hvector_rejects_nonfinite():
    space = _random_spd_space(3, 23, "nonfinite")
    with pytest.raises(ValueError):
        space.wrap(np.array([1.0, np.nan, 0.0]))


def test_make_space_rejects_bad_weights():
    m = sp.identity(3, format="csr")
    with pytest.raises(ValueError):
        pc.make_space(m, np.array([1.0, -1.0, 1.0]), space_id="neg-w")


# ------------------------------------------------ HVector arithmetic, wrap

PROP_DIM = 5
PROP_SPACE = _random_spd_space(PROP_DIM, 31, "prop-a")
OTHER_SPACE = _random_spd_space(PROP_DIM, 32, "prop-b")
EPS = np.finfo(float).eps
TINY = np.finfo(float).tiny  # covers rounding among subnormals

_finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
_coeffs = arrays(float, PROP_DIM, elements=_finite)
_property = settings(max_examples=100, derandomize=True, deadline=None)


@_property
@given(_coeffs, _coeffs, st.floats(-1e3, 1e3))
def test_hvector_arithmetic_is_linear(xc, yc, a):
    x, y = PROP_SPACE.wrap(xc), PROP_SPACE.wrap(yc)
    size = np.abs(xc) + np.abs(yc)
    assert np.all(np.abs(((x + y) - y).coeffs - xc) <= 4 * EPS * size + TINY)
    lin = (a * (x + y)).coeffs - (a * x + y * a).coeffs
    assert np.all(np.abs(lin) <= 4 * EPS * abs(a) * size + TINY)
    for result in (x + y, x - y, a * x, x * a, -x):
        assert result.space_id == PROP_SPACE.space_id


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
def test_cross_space_operations_rejected(xc, yc):
    x, y = PROP_SPACE.wrap(xc), OTHER_SPACE.wrap(yc)
    with pytest.raises(ValueError, match="space mismatch"):
        _ = x + y
    with pytest.raises(ValueError, match="space mismatch"):
        _ = x - y
    with pytest.raises(ValueError, match="belongs to"):
        pc.inner_a(x, y, PROP_SPACE)
    with pytest.raises(ValueError, match="belongs to"):
        pc.inner_a(x, x, OTHER_SPACE)
