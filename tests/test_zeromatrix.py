"""Spectral radius, convergence certificates, Neumann series, dominance."""

import dataclasses
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import partialcrit as pc
from partialcrit.errors import IntegrityError
from partialcrit.zeromatrix import _balance


def test_spectral_radius_frozen_example():
    # characteristic roots of [[.3,.2],[.1,.4]] are 0.5 and 0.2
    assert pc.spectral_radius([[0.3, 0.2], [0.1, 0.4]]) == pytest.approx(
        0.5, abs=1e-10)


def test_spectral_radius_triangular_and_trivial():
    assert pc.spectral_radius([[0.5, 0.3], [0.0, 0.2]]) == pytest.approx(
        0.5, abs=1e-10)
    assert pc.spectral_radius(np.eye(2)) == pytest.approx(1.0, abs=1e-10)
    assert pc.spectral_radius(np.zeros((2, 2))) == pytest.approx(0.0, abs=1e-12)


def test_spectral_radius_larger_matrix():
    rng = np.random.default_rng(5)
    raw = rng.uniform(0.0, 1.0, (4, 4))
    rho = float(np.max(np.abs(np.linalg.eigvals(raw))))
    scaled = 0.7 * raw / rho
    assert pc.spectral_radius(scaled) == pytest.approx(0.7, abs=1e-6)


_CROSS = np.array([[0.3, 0.2], [0.1, 0.4]])


@pytest.mark.parametrize("m", [
    # a monotony matrix the sampler fitted on the Stokes system
    np.array([[0.00088, 0.00142], [0.00106, 0.00096]]),
    # cross coupling [[0, B], [B, 0]]: two peripheral eigenvalues +-rho
    np.block([[np.zeros((2, 2)), _CROSS], [_CROSS, np.zeros((2, 2))]]),
], ids=["fitted_stokes", "cross_coupled"])
def test_spectral_radius_is_the_eigenvalue_modulus(m):
    # the radius is max |lambda| itself, not a shifted approximation
    ref = float(np.max(np.abs(np.linalg.eigvals(m))))
    assert pc.spectral_radius(m) == pytest.approx(ref, rel=1e-12, abs=0.0)


def test_spectral_radius_rejects_eigensolve_outside_bracket(monkeypatch):
    eig = np.linalg.eig

    def shifted(a):
        lam, vecs = eig(a)
        return lam + 1e-3, vecs

    monkeypatch.setattr(np.linalg, "eig", shifted)
    with pytest.raises(IntegrityError, match="Collatz-Wielandt"):
        pc.spectral_radius([[0.3, 0.2], [0.1, 0.4]])
    with pytest.raises(IntegrityError):
        pc.is_convergent_to_zero([[0.3, 0.2], [0.1, 0.4]])


def test_spectral_radius_monotone_in_entries(rng):
    for _ in range(50):
        m = rng.uniform(0.0, 1.0, (2, 2))
        bump = rng.uniform(0.0, 0.5, (2, 2))
        assert (pc.spectral_radius(m)
                <= pc.spectral_radius(m + bump) + 1e-9)


def test_certificate_three_way_equivalence(rng):
    checked = 0
    for _ in range(1000):
        m = rng.uniform(0.0, 1.5, (2, 2))
        rho = float(np.max(np.abs(np.linalg.eigvals(m))))
        if abs(rho - 1.0) <= 1e-3:
            continue  # too close to the boundary for a float reference
        cert = pc.is_convergent_to_zero(m)
        assert cert.rho_ok == (rho < 1.0)
        assert cert.convergent == cert.rho_ok
        checked += 1
    assert checked > 900


def test_neumann_inverse_frozen_example():
    inv = pc.neumann_inverse([[0.3, 0.2], [0.1, 0.4]])
    assert np.allclose(inv, [[1.5, 0.5], [0.25, 1.75]], atol=1e-9)
    assert np.all(inv >= -1e-12)


@pytest.mark.parametrize("rho", [0.999, 0.99999, 1.0 - 1e-7])
def test_neumann_inverse_near_unit_radius(rho):
    # the validation series must not raise on valid matrices close to the
    # boundary, where a term-by-term sum would need ~1/(1 - rho) terms
    rng = np.random.default_rng(17)
    base = rng.uniform(0.1, 1.0, (3, 3))
    m = base * (rho / np.max(np.abs(np.linalg.eigvals(base))))
    inv = pc.neumann_inverse(m)
    assert np.allclose(inv, np.linalg.inv(np.eye(3) - m), rtol=1e-8, atol=0.0)


def test_neumann_inverse_rejects_divergent():
    with pytest.raises(ValueError):
        pc.neumann_inverse([[1.2, 0.0], [0.0, 0.3]])


def test_monotony_matrix_validation():
    with pytest.raises(ValueError):
        pc.MonotonyMatrix(np.array([[0.1, -0.2], [0.0, 0.1]]))
    with pytest.raises(ValueError):
        pc.MonotonyMatrix(np.ones((2, 3)))
    with pytest.raises(ValueError):
        pc.MonotonyMatrix(np.ones((9, 9)))
    with pytest.raises(ValueError):
        pc.MonotonyMatrix(np.array([[np.inf, 0.0], [0.0, 0.1]]))



def test_monotony_matrix_holds_a_read_only_copy():
    a = np.array([[0.2, 0.1], [0.1, 0.2]])
    m = pc.MonotonyMatrix(a)
    a[0, 0] = -5.0
    assert m.entries[0, 0] == 0.2
    assert pc.is_convergent_to_zero(m).convergent
    with pytest.raises(ValueError, match="read-only"):
        m.entries[0, 0] = 5.0


def _count_radii(monkeypatch):
    # the certificate reaches the module's spectral_radius, as the
    # benchmark's tracer binds it
    calls = []
    radius = pc.zeromatrix.spectral_radius

    def counted(m):
        calls.append(m)
        return radius(m)

    monkeypatch.setattr(pc.zeromatrix, "spectral_radius", counted)
    return calls


def test_a_matrix_is_certified_once(monkeypatch):
    calls = _count_radii(monkeypatch)
    m = pc.MonotonyMatrix([[0.3, 0.2], [0.1, 0.4]])
    first = pc.is_convergent_to_zero(m)
    assert pc.is_convergent_to_zero(m) is first
    assert len(calls) == 1
    # an array is certified afresh on each call
    pc.is_convergent_to_zero([[0.3, 0.2], [0.1, 0.4]])
    assert len(calls) == 2


def test_the_check_certifies_its_estimate_once(monkeypatch, sincos_1d):
    calls = _count_radii(monkeypatch)
    rep = pc.full_report(sincos_1d, sincos_1d.pointwise.growth,
                         pc.SamplerSpec())
    pc.ps_beta(rep.monotony_estimate)
    assert len(calls) == 1


def test_a_radius_past_the_float_range_raises_on_every_call(monkeypatch):
    calls = _count_radii(monkeypatch)
    m = pc.MonotonyMatrix([[1e308, 1e308], [1e308, 1e308]])
    for _ in range(2):
        with pytest.raises(ValueError, match="spectral radius leaves the "
                                             "float range"):
            pc.is_convergent_to_zero(m)
    assert len(calls) == 2

def test_verify_dominance_exact_recursion(rng):
    m = np.array([[0.3, 0.2], [0.1, 0.4]])
    steps = 30
    xs = np.empty((steps, 2))
    ys = np.zeros((steps, 2))
    xs[0] = rng.uniform(0.5, 1.0, 2)
    for k in range(1, steps):
        ys[k] = rng.uniform(0.0, 0.1, 2)
        xs[k] = m @ xs[k - 1] + ys[k]
    rep = pc.verify_dominance(xs, ys, m, slack=1e-14)
    assert rep.dominance_ok
    assert rep.first_violation is None
    assert rep.max_violation <= 1e-14


def test_verify_dominance_flags_violation():
    m = np.array([[0.3, 0.2], [0.1, 0.4]])
    xs = np.array([[1.0, 1.0], [0.5, 0.5], [0.9, 0.1]])
    ys = np.zeros((3, 2))
    rep = pc.verify_dominance(xs, ys, m)
    assert not rep.dominance_ok
    assert rep.first_violation == 2
    assert rep.max_violation > 0.0


def test_verify_dominance_tail_threshold():
    m = np.array([[0.5, 0.0], [0.0, 0.5]])
    steps = 40
    xs = np.empty((steps, 2))
    xs[0] = 1.0
    for k in range(1, steps):
        xs[k] = m @ xs[k - 1]
    ys = np.zeros((steps, 2))
    rep = pc.verify_dominance(xs, ys, m, tail_threshold=1e-6)
    assert rep.tail_ok
    assert rep.tail_sup <= 1e-6


def test_verify_dominance_input_checks():
    m = np.array([[0.3, 0.2], [0.1, 0.4]])
    with pytest.raises(ValueError):
        pc.verify_dominance(np.ones((1, 2)), np.ones((1, 2)), m)
    with pytest.raises(ValueError):
        pc.verify_dominance(-np.ones((3, 2)), np.ones((3, 2)), m)
    with pytest.raises(ValueError):
        pc.verify_dominance(np.ones((3, 3)), np.ones((3, 3)), m)


def test_verify_dominance_takes_an_overflowing_bound_as_dominated():
    # M x overflows to +inf, which dominates the finite next step: its
    # margin is -inf, reported with no overflow warning
    xs = np.array([[1e308, 1e308], [1.0, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = pc.verify_dominance(xs, np.zeros((2, 2)), 2.0 * np.eye(2))
    assert rep.dominance_ok and rep.first_violation is None
    assert rep.max_violation == -np.inf
    assert rep.tail_sup == 1.0


@pytest.mark.parametrize("xs, ys, slack", [
    # a NaN step and an all-inf column used to read as dominated, and a
    # NaN slack hid the violation of test_verify_dominance_flags_violation
    ([[1.0, 1.0], [np.nan, 5.0], [9.0, 9.0]], np.zeros((3, 2)), 0.0),
    ([[1.0, np.inf], [1.0, np.inf], [1.0, np.inf]], np.zeros((3, 2)), 0.0),
    ([[1.0, 1.0], [0.5, 0.5], [0.9, 0.1]], np.zeros((3, 2)), np.nan),
    ([[1.0, 1.0], [0.5, 0.5], [0.9, 0.1]], [[0.0, 0.0], [0.0, np.inf],
                                            [0.0, 0.0]], 0.0),
    ([[1.0, 1.0], [0.5, 0.5], [0.9, 0.1]], np.zeros((3, 2)), np.inf),
])
def test_verify_dominance_rejects_nonfinite_input(xs, ys, slack):
    m = np.array([[0.3, 0.2], [0.1, 0.4]])
    with pytest.raises(ValueError, match="^dominance sequences and slack "
                                         "must be finite$"):
        pc.verify_dominance(xs, ys, m, slack=slack)


def _dominance_by_rows(xs, ys, m, slack, tail_threshold):
    # the per-row formulation: a max over each step's row, and the tail
    # bound read from the norms of every step
    xs, ys, a = (np.asarray(v, dtype=float) for v in (xs, ys, m))
    margins = np.max(xs[1:] - (xs[:-1] @ a.T + ys[1:] + slack), axis=1)
    violating = np.flatnonzero(margins > 0.0)
    norms = np.max(np.abs(xs), axis=1)
    tail_len = max(1, int(math.ceil(len(norms) * 0.25)))
    tail_sup = float(np.max(norms[-tail_len:]))
    return pc.DominanceReport(
        dominance_ok=violating.size == 0,
        first_violation=int(violating[0]) + 1 if violating.size else None,
        max_violation=float(np.max(margins)),
        tail_sup=tail_sup,
        tail_ok=None if tail_threshold is None else bool(tail_sup <= tail_threshold),
    )


def _bits(report):
    # each field with its type, a float by its bits, so that -0.0 != 0.0
    return [(type(v), np.float64(v).tobytes() if isinstance(v, float) else v)
            for v in dataclasses.astuple(report)]


# ties, both zeros, and entries near 1e300, where ``M x + y`` overflows and
# a step's margin reads -inf
_STEP_ENTRIES = [0.0, -0.0, 0.25, 0.5, 1.0, 3.0, 1e300, 1.7e308]
_MATRIX_ENTRIES = [0.0, -0.0, 0.25, 0.5, 1.0, 2.0, 1e10]


@st.composite
def _trajectories(draw):
    n, steps = draw(st.integers(1, 8)), draw(st.integers(2, 600))
    pick = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).choice
    a = pick(draw(st.lists(st.sampled_from(_MATRIX_ENTRIES), min_size=1,
                           max_size=4)), size=(n, n))
    # steps of signed zeros alone tie every margin at zero, so the sign of
    # max_violation is down to which zero each step's maximum keeps
    pool = [0.0, -0.0] if draw(st.booleans()) else draw(st.lists(
        st.sampled_from(_STEP_ENTRIES) | st.floats(0.0, 1e301), min_size=1,
        max_size=6))
    xs, ys = pick(pool, size=(steps, n)), pick(pool, size=(steps, n))
    if draw(st.booleans()):
        # the recursion itself, so that every margin ties at zero
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(1, steps):
                xs[k] = xs[k - 1] @ a.T + ys[k]
        xs[~np.isfinite(xs)] = 1e300
    if draw(st.booleans()):
        # the largest entry on the first step of the tail, where a tail one
        # step short shows
        xs[-math.ceil(steps / 4), 0] = 1.75e308
    slack = draw(st.sampled_from([0.0, -0.0, 1e-15, -1e-15, 1e300]))
    tail_threshold = draw(st.sampled_from([None, 0.0, 1.0, 1e300]))
    return xs, ys, a, slack, tail_threshold


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_trajectories())
def test_verify_dominance_equals_the_per_row_maxima(case):
    xs, ys, a, slack, tail_threshold = case
    got = pc.verify_dominance(xs, ys, a, slack=slack,
                              tail_threshold=tail_threshold)
    with np.errstate(over="ignore"):
        ref = _dominance_by_rows(*case)
    assert _bits(got) == _bits(ref)


def test_certificate_fields_on_divergent_matrix():
    cert = pc.is_convergent_to_zero([[1.5, 0.0], [0.0, 0.2]])
    assert not cert.convergent
    assert cert.spectral_radius == pytest.approx(1.5, abs=1e-8)
    assert not cert.rho_ok


def test_integrity_guard_is_exercised_via_consistency():
    # near-boundary radii still produce a definite, consistent verdict
    for rho in (0.999, 1.001):
        m = np.array([[rho, 0.0], [0.0, 0.1]])
        cert = pc.is_convergent_to_zero(m)
        assert cert.rho_ok == (rho < 1.0)
        assert isinstance(cert, pc.ConvergenceCertificate)


def test_spectral_radius_outside_the_float_range_is_bad_input():
    with pytest.raises(ValueError, match="^spectral radius leaves the float "
                                         "range$"):
        pc.spectral_radius([[1e308, 1e308], [1e308, 1e308]])


@pytest.mark.parametrize("m", [
    [[0.5, 1e308], [0.0, 0.5]],
    [[1e-320, 1e308], [0.0, 0.9]],
], ids=["rho_0.5", "rho_0.9"])
def test_certificate_with_overflowing_inverse_is_bad_input(m):
    # rho < 1, but (I - M)^-1 holds 4e308 and 1e309
    assert pc.spectral_radius(m) < 1.0
    assert pc.is_convergent_to_zero(m).convergent
    with pytest.raises(ValueError, match=r"^\(I - M\)\^-1 leaves the float "
                                         "range$"):
        pc.neumann_inverse(m)


def test_spectral_radius_of_badly_scaled_matrices():
    # eigenvalues 0.45 +- sqrt(0.2025 + 1e8); the power-of-two balancing
    # evens out the off-diagonal pair before the eigensolve
    assert pc.spectral_radius([[1e-300, 1e308], [1e-300, 0.9]]) == (
        pytest.approx(0.45 + math.sqrt(0.2025 + 1e8), rel=1e-12))
    assert pc.spectral_radius([[0.0, 1e-300], [1e300, 0.0]]) == (
        pytest.approx(1.0, rel=1e-12))
    # eigenvalues 0.7 and 0: the off-diagonal product is 0.1
    cert = pc.is_convergent_to_zero([[0.5, 1e-300], [1e299, 0.2]])
    assert cert.spectral_radius == pytest.approx(0.7, rel=1e-12)
    assert cert.rho_ok


def test_spectral_radius_bracket_may_leave_the_float_range():
    # a dominant eigenvector with a component near 1e-301: its
    # Collatz-Wielandt ratio overflows, with no warning; the radius comes
    # from the cycle 0 -> 4 -> 0 of product q * 1e300
    q = 0.319206676
    m = np.array([[0, 0, q, 0, 1e300], [q, 0, 0, 0, 0], [0, 0, 0, 0, q],
                  [q, 0, 0, 0, q], [q, q, 0, q, 0]])
    assert pc.spectral_radius(m) == pytest.approx(math.sqrt(q * 1e300),
                                                  rel=1e-12)


def test_balancing_leaves_even_matrices_alone(rng):
    # symmetric, or rows and columns within a factor of 2: the eigensolve
    # sees the input itself
    for m in (_CROSS, rng.random((5, 5))):
        assert np.array_equal(_balance(m + m.T), m + m.T)
    assert np.array_equal(_balance(_CROSS), _CROSS)


def test_spectral_radius_integrity_error_type_exists():
    assert issubclass(IntegrityError, RuntimeError)


@st.composite
def _nonnegative_matrices(draw):
    n = draw(st.integers(1, 8))
    entry = st.floats(0.0, 2.0, allow_nan=False, allow_infinity=False)
    pattern = draw(st.sampled_from(
        ["dense", "diagonal", "upper", "lower", "rank_one", "zero_row"]))
    if pattern == "rank_one":
        u = np.array(draw(st.lists(entry, min_size=n, max_size=n)))
        w = np.array(draw(st.lists(entry, min_size=n, max_size=n)))
        return np.outer(u, w)
    m = np.array(draw(st.lists(entry, min_size=n * n, max_size=n * n)))
    m = m.reshape(n, n)
    if pattern == "diagonal":
        return np.diag(np.diag(m))
    if pattern == "upper":
        return np.triu(m)
    if pattern == "lower":
        return np.tril(m)
    if pattern == "zero_row":
        m[draw(st.integers(0, n - 1))] = 0.0
    return m


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_nonnegative_matrices())
def test_certificates_agree_off_the_unit_band(m):
    ref = float(np.max(np.abs(np.linalg.eigvals(m))))
    assume(abs(ref - 1.0) > 1e-3)
    rho = pc.spectral_radius(m)
    assert abs(rho - ref) <= 1e-12 * ref + 1e-15
    cert = pc.is_convergent_to_zero(m)
    assert cert.rho_ok == (ref < 1.0)


_RADII = st.one_of(
    st.floats(0.0, 0.99),
    st.floats(-1e-3, 1e-3).map(lambda d: 1.0 + d),
    st.floats(1.01, 4.0),
)


def _minors_positive(m):
    # reference: Gaussian elimination in Fractions, every leading
    # principal minor of I - M positive
    a = [[Fraction(int(i == j)) - Fraction(x) for j, x in enumerate(row)]
         for i, row in enumerate(np.asarray(m).tolist())]
    for k, pivot_row in enumerate(a):
        if pivot_row[k] <= 0:
            return False
        for row in a[k + 1:]:
            f = row[k] / pivot_row[k]
            row[k:] = [x - f * y for x, y in zip(row[k:], pivot_row[k:])]
    return True


@pytest.mark.parametrize("m, convergent", [
    # rho = 1 - 2^-40 lies in (1 - 1e-9, 1), where the float radius alone
    # cannot tell
    (np.diag([1.0 - 2.0 ** -40, 0.1]), True),
    ([[0.5, 0.5], [0.5, 0.5]], False),  # rho = 1 exactly
    ([[1.0, 0.0], [0.0, 0.0]], False),
], ids=["band", "rho_1_dense", "rho_1_diagonal"])
def test_verdict_is_exact_at_the_unit_radius(m, convergent):
    assert pc.is_convergent_to_zero(m).convergent == convergent
    if not convergent:
        with pytest.raises(ValueError, match="^matrix is not convergent"):
            pc.neumann_inverse(m)


@pytest.mark.parametrize("m", [
    # exactly convergent, but the float solve returns an all-negative
    # inverse near -1e17, or meets a zero pivot
    [[0.8776642926579782, 0.7464554969217999],
     [0.07279168791186937, 0.5558471295701013]],
    [[0.36668991677357926, 0.34234132370869863],
     [1.2580478044464147, 0.3199512181001695]],
], ids=["negative_inverse", "zero_pivot"])
def test_neumann_inverse_refuses_what_floats_cannot_resolve(m):
    assert _minors_positive(m)
    assert pc.is_convergent_to_zero(m).convergent
    with pytest.raises(ValueError, match="^I - M is singular to working "
                                         "precision$"):
        pc.neumann_inverse(m)


@st.composite
def _scaled_matrices(draw):
    # scaled to a drawn radius: below one, within 1e-3 of it, or above,
    # unless the radius is too small to scale from within the float range;
    # some then get an entry hundreds of decades from the rest
    m = draw(_nonnegative_matrices())
    ref = float(np.max(np.abs(np.linalg.eigvals(m))))
    if ref > 1e-300:
        m = m * (draw(_RADII) / ref)
    extreme = draw(st.sampled_from([None, 5e-324, 1e300]))
    if extreme is not None:
        m[0, -1] = extreme
    return m


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_scaled_matrices())
def test_verdict_equals_the_exact_minors(m):
    ref = _minors_positive(m)
    assert pc.is_convergent_to_zero(m).convergent == ref
    if ref:
        try:
            inv = pc.neumann_inverse(m)
        except ValueError as exc:
            assert str(exc) in ("(I - M)^-1 leaves the float range",
                                "I - M is singular to working precision")
        else:
            assert np.all(np.isfinite(inv)) and np.all(np.diag(inv) > 0.0)
    else:
        with pytest.raises(ValueError, match="^matrix is not convergent"):
            pc.neumann_inverse(m)
