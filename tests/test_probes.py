"""Block evaluation of the probes, bit for bit against per-sample loops.

`nash_check` and `check_mountain_pass_ring` draw and evaluate their samples
as ``(k, dim)`` row blocks. The references below are the per-sample loops
they replace: one `random_unit` draw, one A-norm and one ``eval_N`` per
sample. Every comparison is ``==`` on floats.
"""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

import partialcrit as pc
from partialcrit import scheme
from partialcrit.spaces import norms_a, random_unit_rows


def _ref_unit(space, rng):
    while True:
        raw = space.wrap(rng.standard_normal(space.dim))
        n = pc.norm_a(raw, space)
        if n != 0.0:
            return raw * (1.0 / n)


def _ref_e1(sys, u, v):
    return 0.5 * pc.norm_a(u, sys.space) ** 2 - float(sys.eval_N(u, v))


def _ref_e2(sys, u, v):
    return -0.5 * pc.norm_a(v, sys.space) ** 2 - float(sys.eval_N(u, v))


def _ref_nash(sys, pair, seed=0):
    space = sys.space
    rng = np.random.default_rng(seed)
    u, v = pair.u_star, pair.v_star
    delta = 0.5 * scheme.NASH_RADIUS
    curvature = 1e-6
    e1_base = _ref_e1(sys, u, v)
    e2_base = _ref_e2(sys, u, v)
    for _ in range(8):
        d = _ref_unit(space, rng)
        c1 = abs(_ref_e1(sys, u + delta * d, v) - 2.0 * e1_base
                 + _ref_e1(sys, u - delta * d, v)) / delta**2
        c2 = abs(_ref_e2(sys, u, v + delta * d) - 2.0 * e2_base
                 + _ref_e2(sys, u, v - delta * d)) / delta**2
        curvature = max(curvature, c1, c2)
    grad_level = max(pair.residuals)
    min_e1_margin = np.inf
    max_e2_margin = -np.inf
    for _ in range(scheme.NASH_SAMPLES):
        s = scheme.NASH_RADIUS * (1.0 - rng.random())
        bound = grad_level * s + curvature * s**2
        d_u = _ref_unit(space, rng)
        d_v = _ref_unit(space, rng)
        de1 = _ref_e1(sys, u + s * d_u, v) - e1_base
        de2 = _ref_e2(sys, u, v + s * d_v) - e2_base
        min_e1_margin = min(min_e1_margin, de1 + bound)
        max_e2_margin = max(max_e2_margin, de2 - bound)
    return pc.NashReport(curvature=float(curvature),
                         min_e1_margin=float(min_e1_margin),
                         max_e2_margin=float(max_e2_margin))


def _ref_ring(sys, tau, sampler):
    space = sys.space
    rng = np.random.default_rng(sampler.seed)
    zero = space.zero()
    n_zero = float(sys.eval_N(zero, zero))
    violated = 0
    for _ in range(sampler.n_points):
        split = rng.random()
        nu = split * tau
        nv = (1.0 - split) * tau
        u = nu * _ref_unit(space, rng)
        v = nv * _ref_unit(space, rng)
        lhs = float(sys.eval_N(u, v)) - n_zero
        if not (lhs < 0.5 * tau * (nu - nv)):
            violated += 1
    return pc.RingReport(tau=float(tau), n_samples=sampler.n_points,
                         n_violated=violated)


def _stokes(n):
    return pc.build_stokes(pc.StokesSpec(
        n_per_dim=n, lengths=(1.0, 1.0), mu_coeff=1.0,
        nonlinearity=pc.NonlinearitySpec.sincos(0.3)))


# a space whose forms underflow to zero for about half the draws, so
# `random_unit` redraws often
_TINY = pc.make_space(sp.diags([5e-324, 5e-324]), np.ones(2), "tiny")


@pytest.fixture(scope="module")
def spaces(bundled):
    return [bundled["scalar_linear"].space, bundled["sincos_1d"].space,
            bundled["sincos_2d"].space, bundled["stokes_17"].space, _TINY]


def test_block_norms_equal_norm_a(spaces):
    rng = np.random.default_rng(5)
    for space in spaces:
        rows = rng.standard_normal((9, space.dim)) * 10.0 ** rng.uniform(
            -3, 3, (9, 1))
        ref = [pc.norm_a(pc.HVector(x, space.space_id), space) for x in rows]
        assert norms_a(rows, space).tolist() == ref, space.space_id


@pytest.mark.parametrize("units, uniform", [(1, False), (2, True)])
def test_block_draws_equal_sequential_random_unit(spaces, units, uniform):
    for space in spaces:
        for seed in range(4):
            block_rng = np.random.default_rng(seed)
            ref_rng = np.random.default_rng(seed)
            draws, dirs = random_unit_rows(space, block_rng, 7, units,
                                           uniform)
            for i in range(7):
                if uniform:
                    assert draws[i] == ref_rng.random()
                for j in range(units):
                    ref = _ref_unit(space, ref_rng).coeffs
                    assert np.array_equal(dirs[j, i], ref), space.space_id
            # both streams end in the same state
            assert block_rng.random() == ref_rng.random()


def test_random_unit_keeps_its_contract():
    rng = np.random.default_rng(0)
    ref_rng = np.random.default_rng(0)
    for _ in range(20):
        d = pc.spaces.random_unit(_TINY, rng)
        assert np.array_equal(d.coeffs, _ref_unit(_TINY, ref_rng).coeffs)
        assert pc.norm_a(d, _TINY) != 0.0


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


def test_eval_n_rows_equals_eval_n(bundled, custom_1d, manufactured_9):
    rng = np.random.default_rng(2)
    for name, system in _rows_systems(bundled, custom_1d,
                                      manufactured_9).items():
        space = system.space
        us = rng.standard_normal((6, space.dim))
        vs = rng.standard_normal((6, space.dim))
        ref = [float(system.eval_N(space.wrap(a), space.wrap(b)))
               for a, b in zip(us, vs)]
        assert system.eval_N_rows(us, vs).tolist() == ref, name
        # a fixed side passed as a broadcast view, as the probes pass it
        fixed = np.broadcast_to(vs[0], us.shape)
        ref = [float(system.eval_N(space.wrap(a), space.wrap(vs[0])))
               for a in us]
        assert system.eval_N_rows(us, fixed).tolist() == ref, name


def test_row_energies_equal_e1_and_e2(bundled):
    # Python squares a float with pow(), which rounds differently from a
    # product on about one value in a thousand: many rows catch it
    system = bundled["scalar_sincos"]
    space = system.space
    rows = np.random.default_rng(8).standard_normal((4000, 1))
    u, v = space.wrap([0.3]), space.wrap([-0.2])
    assert scheme._e1_rows(system, rows, v).tolist() == [
        _ref_e1(system, space.wrap(x), v) for x in rows]
    assert scheme._e2_rows(system, u, rows).tolist() == [
        _ref_e2(system, u, space.wrap(x)) for x in rows]


def test_nash_check_equals_per_sample_reference(bundled, solved):
    for name, system in bundled.items():
        pair, _ = solved[name]
        for seed in (0, 3):
            assert (pc.nash_check(system, pair, seed=seed)
                    == _ref_nash(system, pair, seed=seed)), name


def test_ring_scan_equals_per_sample_reference(bundled):
    sampler = pc.SamplerSpec(n_points=150, seed=4)
    for name, system in bundled.items():
        for tau in (0.5, 2.0):
            assert (pc.check_mountain_pass_ring(system, tau, sampler)
                    == _ref_ring(system, tau, sampler)), name


def test_probe_rows_follow_the_byte_budget(bundled):
    # 128 KB for the larger of a row's pointwise values and its two drawn
    # directions: 130 rows on Dirichlet 1D n=63, a few on Stokes
    assert bundled["cross_coupled_1d"].probe_rows == 130
    assert bundled["scalar_linear"].probe_rows >= scheme.NASH_SAMPLES
    assert bundled["stokes_17"].probe_rows == 22
    assert _stokes(33).probe_rows == 6
    assert _stokes(49).probe_rows == 3


@pytest.fixture(scope="module")
def stokes_49():
    system = _stokes(49)
    pair, _ = pc.run_scheme(system)
    return system, pair


def test_blocks_on_stokes_49_equal_the_reference(stokes_49):
    # 3 rows a block: the curvature probe splits 3 + 3 + 2, the samples
    # end in a block of 2
    system, pair = stokes_49
    assert pc.nash_check(system, pair) == _ref_nash(system, pair)
    sampler = pc.SamplerSpec(n_points=100)
    assert (pc.check_mountain_pass_ring(system, 1.0, sampler)
            == _ref_ring(system, 1.0, sampler))


def _peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_probe_blocks_stay_within_four_megabytes(stokes_49):
    # holding all 200 rows at once peaks near 57 MB here
    system, pair = stokes_49
    assert _peak_bytes(pc.nash_check, system, pair) <= 4e6
    assert _peak_bytes(pc.check_mountain_pass_ring, system, 1.0,
                       pc.SamplerSpec(n_points=400)) <= 4e6
