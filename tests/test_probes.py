"""Block evaluation of the probes, bit for bit against per-sample loops.

The A-norm and ``eval_N`` take a ``(dim,)`` vector or a ``(k, dim)`` row
block; a block equals the vector calls row by row.
`check_mountain_pass_ring` and `contraction_certificate` draw and
evaluate their samples as row blocks; the partial energies take one pair
of vectors, and `brute_nash` calls them one grid point at a time. The
references below are the per-sample loops: one A-norm and one ``eval_N``
per sample, stage or grid point. They draw the n uniforms first and then,
one sample at a time, its u and its v direction from `random_unit_rows`:
the ring scan's samples depend on the seed and the count only, not on the
block size, which the tests set through ``scheme.PROBE_BYTES``. Every
comparison is ``==`` on floats. The grid scan reduces with numpy's min
and max, so a NaN energy at any grid point fails it; the references fold
finite values only. `nash_check` evaluates no block: it samples the pair
once and takes the two gradients there.
"""

import dataclasses
import hashlib
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

import partialcrit as pc
from partialcrit import problems, scheme
from partialcrit.errors import IntegrityError
from partialcrit.spaces import random_unit_rows

from reference import _laplacian_1d, brute_nash, BruteScanReport

DIGESTS = Path(__file__).resolve().parent / "data" / "digests.txt"


def _ref_samples(sys, rng, n):
    # the probes' draws: all n uniforms, then two directions a sample, u
    # first, one sample at a time
    for x in rng.random(n).tolist():
        d_u, d_v = random_unit_rows(sys.space, rng, 2)
        yield x, d_u, d_v


def _ref_ring(sys, tau, sampler):
    rng = np.random.default_rng(sampler.seed)
    zero = np.zeros(sys.space.dim)
    n_zero = float(sys.eval_N(zero, zero))
    violated = 0
    for split, d_u, d_v in _ref_samples(sys, rng, sampler.n_points):
        nu = split * tau
        nv = (1.0 - split) * tau
        u = nu * d_u
        v = nv * d_v
        lhs = float(sys.eval_N(u, v)) - n_zero
        if not (lhs < 0.5 * tau * (nu - nv)):
            violated += 1
    return pc.RingReport(tau=float(tau), n_samples=sampler.n_points,
                         n_violated=violated)


def _set_rows(monkeypatch, system, rows):
    # a byte budget that gives `system` blocks of `rows` rows
    monkeypatch.setattr(scheme, "PROBE_BYTES", 16 * system.space.dim * rows)


def _stokes(n):
    return pc.build_stokes(pc.StokesSpec(
        n_per_dim=n, lengths=(1.0, 1.0), mu_coeff=1.0,
        nonlinearity=pc.NonlinearitySpec.sincos(0.3)))


# a space whose entries are the smallest subnormal: unscaled, the form of
# about one drawn row in seven underflows to zero, and the others keep only
# a few significant bits
_TINY = pc.make_space(sp.diags([5e-324, 5e-324]), np.ones(2), "tiny")


@pytest.fixture(scope="module")
def spaces(bundled):
    return [bundled["scalar_linear"].space, bundled["sincos_1d"].space,
            bundled["sincos_2d"].space, bundled["stokes_17"].space, _TINY]


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


def test_block_norms_equal_norm_a(spaces):
    # a 9-row block, one with a zero row and a 1-row block
    rng = np.random.default_rng(5)
    for space in spaces:
        rows = rng.standard_normal((9, space.dim)) * 10.0 ** rng.uniform(
            -3, 3, (9, 1))
        with_zero = rows[:3].copy()
        with_zero[1] = 0.0
        for block in (rows, with_zero, rows[:1]):
            ref = [pc.norm_a(x, space) for x in block]
            assert all(type(x) is float for x in ref)
            got = pc.norm_a(block, space)
            assert np.array_equal(_bits(got), _bits(ref)), space.space_id


# the numpy identity that makes a block's A-norms and ``eval_N`` values
# equal the vector calls: np.vecdot reduces each row with the BLAS ddot
# that np.dot calls on one pair. A numpy or BLAS upgrade that breaks it
# fails here.
@settings(max_examples=60, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 12),
       width=st.integers(1, 2600), scale=st.sampled_from([1e-5, 1.0, 1e5]))
def test_vecdot_rows_equal_np_dot(seed, k, width, scale):
    # C-contiguous rows, a row against one vector and a column-strided view
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((k, width)) * scale
    b = rng.standard_normal((k, width))
    strided = rng.standard_normal((k, 2 * width))[:, ::2]
    for x, y in ((a, b), (a, b[0]), (strided, a)):
        ref = [np.dot(p, r) for p, r in zip(*np.broadcast_arrays(x, y))]
        assert np.array_equal(_bits(np.vecdot(x, y)), _bits(ref))


def test_energies_on_a_block_raise(bundled):
    # the energies take one pair of ``(dim,)`` vectors: a block on either
    # side, one row included, raises instead of giving row values
    for name, system in bundled.items():
        x, block = np.zeros(system.space.dim), np.zeros((3, system.space.dim))
        for u, v in ((block, x), (x, block), (block, block), (block[:1], x)):
            with pytest.raises(ValueError, match="^energies take two vectors"):
                pc.energies(system, u, v)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 9))
def test_block_draws_are_unit_and_reproducible(spaces, seed, k):
    for space in spaces:
        dirs = random_unit_rows(space, np.random.default_rng(seed), k)
        assert type(dirs) is np.ndarray
        assert dirs.shape == (k, space.dim)
        norms = pc.norm_a(dirs, space)
        assert np.all(np.abs(norms - 1.0) <= 1e-12), space.space_id
        again = random_unit_rows(space, np.random.default_rng(seed), k)
        assert np.array_equal(_bits(dirs), _bits(again))


@pytest.mark.parametrize("units, uniform", [(1, False), (2, True)])
def test_block_draws_equal_sequential_random_unit(spaces, units, uniform):
    # a block of 7 samples of `units` rows each is 7 * units single draws,
    # which keeps the scheme's random start and lets the probes draw a block
    # at a time; with uniforms drawn first, as `_probe_blocks` does, the
    # rows follow them in the stream
    for space in spaces:
        for seed in range(4):
            block_rng = np.random.default_rng(seed)
            ref_rng = np.random.default_rng(seed)
            draws = block_rng.random(7) if uniform else None
            dirs = random_unit_rows(space, block_rng, units * 7)
            ref_draws = [ref_rng.random() for _ in range(7 if uniform else 0)]
            ref = [random_unit_rows(space, ref_rng, 1)[0]
                   for _ in range(units * 7)]
            if uniform:
                assert np.array_equal(_bits(draws), _bits(ref_draws))
            assert np.array_equal(_bits(dirs), _bits(ref)), space.space_id
            # both streams end in the same state
            assert block_rng.random() == ref_rng.random()


def test_row_scale_keeps_the_bits_of_draws_in_range(spaces):
    # scaling by a power of two is exact: where the forms of the raw rows
    # are normal, the directions are those of the unscaled formula
    assert any(space.operator.row_scale != 1.0 for space in spaces)
    for space in (s for s in spaces if s is not _TINY):
        for seed in range(4):
            raw = np.random.default_rng(seed).standard_normal((9, space.dim))
            ref = raw * (1.0 / pc.norm_a(raw, space))[:, None]
            dirs = random_unit_rows(space, np.random.default_rng(seed), 9)
            assert np.array_equal(_bits(dirs), _bits(ref)), space.space_id


@pytest.mark.parametrize("matrix", [
    sp.diags([1e308] * 3), sp.diags([1e-300] * 3), _TINY.operator.matrix,
    -1e300 * _laplacian_1d(15, 1.0 / 16)],
    ids=["1e308", "1e-300", "subnormal", "laplacian_1e300"])
def test_draws_are_unit_at_the_ends_of_the_float_range(matrix):
    # unscaled, the forms on diag(1e308) overflow (zero directions) and
    # those on the subnormal space fall out of the normal range (norms off
    # by up to 50%, or zero); the other two take large scales either way,
    # one with negative entries
    space = pc.make_space(matrix, np.ones(matrix.shape[0]), "extreme")
    dirs = random_unit_rows(space, np.random.default_rng(0), 200)
    assert np.all(np.abs(pc.norm_a(dirs, space) - 1.0) <= 1e-12)


def test_negative_forms_raise_instead_of_redrawing():
    # and so do zero forms
    for matrix in (sp.diags([-1.0, -1.0]), sp.csr_matrix((2, 2))):
        space = pc.make_space(matrix, np.ones(2), "not_positive")
        with pytest.raises(IntegrityError, match="not positive definite"):
            random_unit_rows(space, np.random.default_rng(0), 4)


def _rows_systems(bundled, custom_1d, manufactured_9):
    return {
        "dirichlet_1d": bundled["cross_coupled_1d"],
        "dirichlet_2d": bundled["sincos_2d"],
        "stokes": bundled["stokes_17"],
        "stokes_quadratic": bundled["stokes_cross_17"],
        "scalar": bundled["scalar_sincos"],
        "custom": custom_1d,
        "manufactured": manufactured_9,
    }


@pytest.mark.parametrize("name", ["eval_N"])
def test_blocks_equal_the_single_calls(bundled, custom_1d, manufactured_9,
                                       name):
    # block/block, block/vector and vector/block against one call a row
    rng = np.random.default_rng(2)
    for label, system in _rows_systems(bundled, custom_1d,
                                       manufactured_9).items():
        fn = getattr(system, name)
        us = rng.standard_normal((6, system.space.dim))
        vs = rng.standard_normal((6, system.space.dim))
        for a, b in ((us, vs), (us, vs[0]), (us[0], vs)):
            ref = [fn(x, y) for x, y in zip(*np.broadcast_arrays(a, b))]
            assert all(type(x) is float for x in ref), label
            assert fn(a, b).tolist() == ref, label


def test_fixed_side_is_sampled_once_a_probe(stokes_17, solved, monkeypatch):
    # `nash_check` samples the pair once, u and then v, and both gradients
    # take those two states: the curl runs on two vectors and on no block
    rows = []
    curl = problems._StokesGrid.curl

    def counting(self, psi):
        rows.append(1 if psi.ndim == 1 else len(psi))
        return curl(self, psi)

    monkeypatch.setattr(problems._StokesGrid, "curl", counting)
    pc.nash_check(stokes_17, solved["stokes_17"][0])
    assert rows == [1, 1]


def test_density_sees_the_fixed_side_once_a_block(stokes_spec):
    # the sincos density of stokes_17 as a custom table that records the
    # shapes of the points it is given: a block's as (k, m, 2), the fixed
    # vector's as (1, m, 2), so its sines and cosines run once a block
    shapes = []
    sincos = pc.make_pointwise(stokes_spec.nonlinearity, arg_dim=2)

    def recording(x, y):
        shapes.append((x.shape, y.shape))
        return sincos.F(x, y)

    table = dataclasses.replace(sincos, F=recording)
    system = pc.build_stokes(dataclasses.replace(
        stokes_spec, nonlinearity=pc.NonlinearitySpec.custom(table)))
    built = pc.build_stokes(stokes_spec)
    x = np.random.default_rng(3).standard_normal((6, system.space.dim))
    for u, v in ((x[:5], x[5]), (x[5], x[:5])):
        assert system.eval_N(u, v).tolist() == built.eval_N(u, v).tolist()
    m = (stokes_spec.n_per_dim + 2) ** 2
    assert shapes == [((5, m, 2), (1, m, 2)), ((1, m, 2), (5, m, 2))]


def test_probe_samples_do_not_depend_on_the_block_size(bundled, monkeypatch):
    # one row a block, an uneven split, the budget's and one block for all
    sampler = pc.SamplerSpec(n_points=150, seed=4)
    for name, system in bundled.items():
        reports = []
        for rows in (1, 7, scheme._probe_rows(system.space),
                     sampler.n_points):
            _set_rows(monkeypatch, system, rows)
            reports.append(pc.check_mountain_pass_ring(system, 2.0, sampler))
            monkeypatch.undo()
        assert all(r == reports[0] for r in reports), name


def test_ring_scan_equals_per_sample_reference(bundled):
    sampler = pc.SamplerSpec(n_points=150, seed=4)
    for name, system in bundled.items():
        for tau in (0.5, 2.0):
            assert (pc.check_mountain_pass_ring(system, tau, sampler)
                    == _ref_ring(system, tau, sampler)), name


def _ref_contraction(trace, m, p):
    # one pair of A-norms a stage, then the dominance check
    us, vs = trace.iterates_u, trace.iterates_v
    if len(us) - 1 - p < 1:
        return pc.ContractionReport(p=p, n_checks=0, max_margin=0.0,
                                    passed=True)
    xs = np.asarray([(pc.norm_a(us[k + p] - us[k], trace.space),
                      pc.norm_a(vs[k + p] - vs[k], trace.space))
                     for k in range(len(us) - p)])
    e = m.entries
    b_now = np.array([[e[0, 0], 0.0], [e[1, 0], e[1, 1]]])
    ys = np.zeros_like(xs)
    for k in range(1, len(xs)):
        ys[k] = b_now @ xs[k] + 2.0 / k
    report = pc.verify_dominance(
        xs, ys, pc.MonotonyMatrix(np.array([[0.0, e[0, 1]], [0.0, 0.0]])),
        slack=1e-12)
    return pc.ContractionReport(p=p, n_checks=len(xs) - 1,
                                max_margin=float(report.max_violation),
                                passed=bool(report.dominance_ok))


def test_contraction_certificate_equals_per_stage_reference(bundled, solved):
    assert max(len(trace.rows) for _, trace in solved.values()) >= 14
    for name, system in bundled.items():
        _, trace = solved[name]
        for p in (1, 2, 3):
            assert (pc.contraction_certificate(trace, system.monotony, p)
                    == _ref_contraction(trace, system.monotony, p)), name


def test_contraction_certificate_rounds_as_the_per_stage_reference():
    # random iterates against a full coupling matrix: there the v row's
    # products round apart unless the block takes them as 2 by 2 products
    # stage by stage, as ``b_now @ xs[k]`` does
    space = pc.make_space(sp.identity(3, format="csr"), np.ones(3), "id3")
    rng = np.random.default_rng(11)
    for _ in range(20):
        trace = pc.SchemeTrace(space=space,
                               iterates_u=list(rng.standard_normal((30, 3))),
                               iterates_v=list(rng.standard_normal((30, 3))))
        m = pc.MonotonyMatrix(rng.uniform(0.0, 1.0, (2, 2)))
        for p in (1, 2):
            assert (pc.contraction_certificate(trace, m, p)
                    == _ref_contraction(trace, m, p))


def _ref_brute(sys, pair, grid_radius, grid_n):
    # one pair of energies a grid point, folded by the builtin min and max
    u, v = pair.u_star.coeffs, pair.v_star.coeffs
    line = np.linspace(-grid_radius, grid_radius, grid_n)
    grid = ([np.array([x]) for x in line] if sys.space.dim == 1
            else [np.array([x, y]) for y in line for x in line])
    e1_star, e2_star, _ = pc.energies(sys, u, v)
    min_e1, max_e2 = np.inf, -np.inf
    for off in grid:
        min_e1 = min(min_e1, pc.energies(sys, u + off, v)[0] - e1_star)
        max_e2 = max(max_e2, pc.energies(sys, u, v + off)[1] - e2_star)
    return BruteScanReport(
        slack=2.0 * grid_radius * max(pair.residuals) + 1e-12,
        min_e1_delta=float(min_e1), max_e2_delta=float(max_e2))


def _plane():
    # a hand-built system of dimension 2, for the two-dimensional scan
    space = pc.make_space(sp.diags([2.0, 3.0]), np.ones(2), "plane")
    return pc.CoupledSystem(
        space=space,
        eval_N=lambda u, v: 0.3 * np.sum(np.sin(u) * np.cos(v), axis=-1),
        eval_Nu=lambda u, v: pc.solve_a(0.3 * np.cos(u) * np.cos(v), space),
        eval_Nv=lambda u, v: pc.solve_a(-0.3 * np.sin(u) * np.sin(v), space),
        monotony=pc.MonotonyMatrix(np.full((2, 2), 0.15)))


# sha256 of the `_plane` results below, taken with numpy 2.4.6 and scipy
# 1.17.1 once exact-path stages took the fixed-point step 1
PLANE_DIGEST = ("bd254b4b1b13cfdd2ec30e741adde392"
                "a8b7a7688466734a722047eb5ca43b13")


def test_a_hand_built_system_is_passed_its_arrays():
    # a system built without a sampler samples by the identity, so it sees
    # coefficient arrays only; the digest pins what the scheme and both
    # Newton paths give on it (the Newton parts unchanged since before any
    # system had a sampler)
    plane = _plane()
    x = np.ones(2)
    assert plane.sample(x) is x
    seen = []

    def recording(fn):
        def wrapped(u, v):
            seen.append((type(u), type(v)))
            return fn(u, v)
        return wrapped

    plane = dataclasses.replace(plane, **{
        name: recording(getattr(plane, name))
        for name in ("eval_N", "eval_Nu", "eval_Nv")})
    pair, trace = pc.run_scheme(plane, pc.SchemeConfig(random_init=True,
                                                       seed=3))
    orc = pc.newton_full(plane)
    dense = pc.newton_full(plane, jacobian_free=False)
    nash = pc.nash_check(plane, pair)
    assert seen and set(seen) == {(np.ndarray, np.ndarray)}
    # the gaps from the residuals at the pair, which are the recorded ones,
    # and the diagonal entries 0.15
    assert nash == pc.NashReport(*(r * r / (2.0 * (1.0 - 0.15))
                                   for r in pair.residuals))
    versions = (DIGESTS.read_text(encoding="utf-8").splitlines()[1]
                .split())
    if versions != ["#", "numpy", np.__version__, "scipy", scipy.__version__]:
        pytest.skip("the digest was taken with other numpy and scipy versions")
    out = repr((pair.u_star.coeffs.tolist(), pair.v_star.coeffs.tolist(),
                pair.residuals, pair.stages, trace.csv_rows(),
                orc.u_star.coeffs.tolist(), orc.v_star.coeffs.tolist(),
                orc.residual_norm, orc.iterations,
                dense.u_star.coeffs.tolist(), dense.v_star.coeffs.tolist(),
                dense.iterations))
    assert hashlib.sha256(out.encode()).hexdigest() == PLANE_DIGEST


def _shifted(pair, shift):
    # a pair moved off the solution, so that the extremes of the scan fall
    # on other grid points than the centre
    space_id = pair.u_star.space_id
    return dataclasses.replace(
        pair, u_star=pc.HVector(pair.u_star.coeffs + shift[0], space_id),
        v_star=pc.HVector(pair.v_star.coeffs + shift[1], space_id))


def test_brute_nash_equals_per_point_reference(bundled, solved):
    # shifted candidates move the extremes off the centre; the plane scans
    # a 2-D grid
    cases = [(name, bundled[name], solved[name][0])
             for name in ("scalar_linear", "scalar_sincos", "scalar_stiff")]
    plane = _plane()
    cases.append(("plane", plane, pc.run_scheme(plane)[0]))
    rng = np.random.default_rng(9)
    for name, system, pair in cases:
        grid_n = 201 if system.space.dim == 1 else 31
        shifts = rng.uniform(-0.4, 0.4, (3, 2, system.space.dim))
        for candidate in [pair] + [_shifted(pair, s) for s in shifts]:
            for radius in (0.5, 2.0):
                assert (brute_nash(system, candidate, radius, grid_n)
                        == _ref_brute(system, candidate, radius, grid_n)), name


def _nan_at(system, u_point, v_point):
    # `system` whose ``eval_N`` is NaN where u is `u_point` or v `v_point`
    def eval_N(u, v):
        if np.array_equal(u, u_point) or np.array_equal(v, v_point):
            return np.nan
        return system.eval_N(u, v)

    return dataclasses.replace(system, eval_N=eval_N)


def test_nan_energies_fail_the_grid_scan(bundled, solved):
    # one NaN grid point a side, the first, an inner or the last: a fold
    # that passes over NaN would judge the scan by the other points
    system, pair = bundled["scalar_linear"], solved["scalar_linear"][0]
    u, v = pair.u_star.coeffs, pair.v_star.coeffs
    line = np.linspace(-0.5, 0.5, 401)  # the scan's default grid
    assert brute_nash(system, pair).ok
    for j in (0, 137, 400):
        report = brute_nash(_nan_at(system, u + line[j], v + line[j]),
                               pair)
        assert not report.ok, j
        assert np.isnan(report.min_e1_delta)
        assert np.isnan(report.max_e2_delta)


def test_probe_rows_follow_the_byte_budget(bundled):
    # 128 KB for a sample's two drawn directions: 130 rows on Dirichlet 1D
    # n=63, a few on Stokes, whose unknowns are the n^2 interior nodes
    rows = [scheme._probe_rows(system.space) for system in (
        bundled["cross_coupled_1d"], bundled["scalar_linear"],
        bundled["stokes_17"], _stokes(33), _stokes(49))]
    assert rows[0] == 130
    assert rows[1] >= pc.SamplerSpec().n_points
    assert rows[2:] == [28, 7, 3]


def test_probe_blocks_fit_the_byte_budget(bundled):
    # every block's directions fit the budget, unless a single row does not
    n = pc.SamplerSpec().n_points
    for system in [*bundled.values(), _stokes(33), _stokes(49)]:
        dim = system.space.dim
        sizes = [len(x) for x, _, _ in scheme._probe_blocks(system.space, 0,
                                                             n)]
        assert sum(sizes) == n, system.label
        assert all(16 * k * dim <= scheme.PROBE_BYTES or k == 1
                   for k in sizes), system.label


@pytest.fixture(scope="module")
def stokes_49():
    return _stokes(49)


def test_blocks_on_stokes_49_equal_the_reference(stokes_49):
    # 3 rows a block: the samples end in a block of 1
    sampler = pc.SamplerSpec(n_points=100)
    assert (pc.check_mountain_pass_ring(stokes_49, 1.0, sampler)
            == _ref_ring(stokes_49, 1.0, sampler))


def _peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_probe_blocks_stay_within_four_megabytes(stokes_49):
    # the 800 directions of 400 samples alone take 15 MB here
    assert _peak_bytes(pc.check_mountain_pass_ring, stokes_49, 1.0,
                       pc.SamplerSpec(n_points=400)) <= 4e6
