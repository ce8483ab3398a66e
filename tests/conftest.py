"""Shared fixtures: the bundled systems and their converged runs.

Session scope keeps the expensive builds (Stokes especially) to one per
test run; solved pairs are cached alongside so cross-check tests do not
re-solve.
"""

import json
from pathlib import Path

import numpy as np
import pytest

import partialcrit as pc
from partialcrit.cli import build_problem, scheme_config_from

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _from_config(name):
    """A bundled config's system and scheme settings, read as the CLI reads
    them."""
    cfg = json.loads((CONFIGS / f"{name}.json").read_text())
    return build_problem(cfg), scheme_config_from(cfg, None)


@pytest.fixture(scope="session")
def scalar_linear():
    # one unknown per side, operator [[2]]; closed form available
    return pc.build_scalar(2.0, pc.NonlinearitySpec.quadratic(0.0, 0.2, 0.0, 1.0))


@pytest.fixture(scope="session")
def scalar_sincos():
    return pc.build_scalar(2.0, pc.NonlinearitySpec.sincos(0.1))


@pytest.fixture(scope="session")
def scalar_stiff():
    # stronger coupling: several outer stages needed, still convergent
    return pc.build_scalar(2.0, pc.NonlinearitySpec.quadratic(0.0, 1.2, 0.0, 1.0))


@pytest.fixture(scope="session")
def sincos_1d():
    spec = pc.DirichletSpec(dims=1, n_per_dim=31, lengths=(1.0,),
                            nonlinearity=pc.NonlinearitySpec.sincos(0.1))
    return pc.build_dirichlet(spec)


@pytest.fixture(scope="session")
def dirichlet_stiff():
    spec = pc.DirichletSpec(dims=1, n_per_dim=31, lengths=(1.0,),
                            nonlinearity=pc.NonlinearitySpec.quadratic(
                                0.0, 4.0, 0.0, 1.0))
    return pc.build_dirichlet(spec)


@pytest.fixture(scope="session")
def sincos_2d():
    spec = pc.DirichletSpec(dims=2, n_per_dim=17, lengths=(1.0, 1.0),
                            nonlinearity=pc.NonlinearitySpec.sincos(0.1))
    return pc.build_dirichlet(spec)


@pytest.fixture(scope="session")
def stokes_spec():
    return pc.StokesSpec(n_per_dim=17, lengths=(1.0, 1.0), mu_coeff=1.0,
                         nonlinearity=pc.NonlinearitySpec.sincos(0.1))


@pytest.fixture(scope="session")
def stokes_17(stokes_spec):
    return pc.build_stokes(stokes_spec)


@pytest.fixture(scope="session")
def cross_coupled_1d():
    # quadratic cross coupling b=8 from a random start: a live v side
    return _from_config("cross_coupled_1d")


@pytest.fixture(scope="session")
def stokes_cross_17():
    # Stokes on the grid of stokes_spec, quadratic b=46: 15 stages, live v side
    return _from_config("stokes_cross_17")


@pytest.fixture(scope="session")
def custom_1d():
    # a user-supplied pointwise table on Dirichlet 1D n=15
    table = pc.PointwiseNonlinearity(
        arg_dim=1,
        F=lambda x, y: np.sum(np.tanh(x) * y + 0.1 * x ** 3, axis=-1),
        f1=lambda x, y: (1.0 - np.tanh(x) ** 2) * y + 0.3 * x ** 2,
        f2=lambda x, y: np.tanh(x),
        monotony=np.array([[0.1, 0.1], [0.1, 0.0]]))
    return pc.build_dirichlet(pc.DirichletSpec(
        dims=1, n_per_dim=15, lengths=(1.0,),
        nonlinearity=pc.NonlinearitySpec.custom(table)))


@pytest.fixture(scope="session")
def manufactured_9():
    # the manufactured Stokes system on n=9 (its exact pair is dropped)
    return pc.build_stokes_manufactured(
        pc.StokesSpec(n_per_dim=9, lengths=(1.0, 1.0), mu_coeff=1.0))[0]


@pytest.fixture(scope="session")
def bundled(scalar_linear, scalar_sincos, scalar_stiff, sincos_1d,
            dirichlet_stiff, sincos_2d, stokes_17, cross_coupled_1d,
            stokes_cross_17):
    return {
        "scalar_linear": scalar_linear,
        "scalar_sincos": scalar_sincos,
        "scalar_stiff": scalar_stiff,
        "sincos_1d": sincos_1d,
        "dirichlet_stiff": dirichlet_stiff,
        "sincos_2d": sincos_2d,
        "stokes_17": stokes_17,
        "cross_coupled_1d": cross_coupled_1d[0],
        "stokes_cross_17": stokes_cross_17[0],
    }


@pytest.fixture(scope="session")
def solved(bundled, cross_coupled_1d, stokes_cross_17):
    # the configs' own scheme settings; the other systems use the defaults
    schemes = {"cross_coupled_1d": cross_coupled_1d[1],
               "stokes_cross_17": stokes_cross_17[1]}
    out = {}
    for name, system in bundled.items():
        pair, trace = pc.run_scheme(system, schemes.get(name))
        assert pair.converged, f"bundled system {name} did not converge"
        out[name] = (pair, trace)
    return out


@pytest.fixture()
def rng():
    return np.random.default_rng(0)
