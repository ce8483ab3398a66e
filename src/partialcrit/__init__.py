"""Alternating minimization/maximization solver for coupled variational
systems, built on two partial energies that share a coupling term.

The public surface:

* `spaces`: discrete spaces with an SPD operator inner product.
* `zeromatrix`: convergence-to-zero certificates and the componentwise
  dominance lemma for nonnegative matrices.
* `scheme`: the alternating two-level iteration, its trace, and the
  post-run contraction and equilibrium checks.
* `hypotheses`: sample-based verification of the structural assumptions.
* `problems`: ready-made Dirichlet, Stokes stream-function, and scalar
  demo systems.
* `oracle`: independent Newton, finite-difference, and exhaustive-scan
  cross-checks.
* `cli`: the `partialcrit` command line front end.

The surface is lazy (PEP 562): ``import partialcrit`` loads neither numpy
nor scipy. A submodule is imported the first time it, or a name it
exports, is asked for. Exported names are looked up in their submodule on
every access and never stored here, so a binding swapped in a submodule
(by a tracer or a test patch) is what the package returns. `__version__`
is read from the installed metadata once, on first access.
"""

import importlib

# submodule -> the names the package re-exports from it
_EXPORTS = {
    "errors": ("ConvergenceError", "HypothesisError", "IntegrityError",
               "SchemeStageError"),
    "spaces": ("DiscreteSpace", "HVector", "SpdOperator", "make_space",
               "solve_a", "riesz_lift", "inner_a", "norm_a",
               "embedding_constant", "validate_space"),
    "zeromatrix": ("MonotonyMatrix", "ConvergenceCertificate",
                   "DominanceReport", "spectral_radius",
                   "is_convergent_to_zero", "neumann_inverse",
                   "verify_dominance"),
    "scheme": ("GrowthParams", "SchemeConfig", "CoupledSystem", "SchemeTrace",
               "TraceRow", "SolutionPair", "ContractionReport", "NashReport",
               "run_scheme", "residual_u", "residual_v", "energies",
               "contraction_certificate", "nash_check"),
    "hypotheses": ("SamplerSpec", "GrowthReport", "RingReport",
                   "CouplingReport", "PsBeta", "HypothesisReport",
                   "check_growth", "estimate_monotony", "mu_of",
                   "check_mountain_pass_ring", "ps_beta", "full_report"),
    "problems": ("NonlinearitySpec", "PointwiseNonlinearity",
                 "make_pointwise", "DirichletSpec", "StokesSpec",
                 "build_dirichlet", "build_stokes", "build_scalar",
                 "build_stokes_manufactured", "reconstruct_velocity",
                 "discrete_divergence"),
    "oracle": ("OracleResult", "BruteScanReport", "newton_full",
               "fd_gradient_check", "brute_nash"),
}
_SUBMODULES = frozenset(_EXPORTS) | {"cli"}
_HOMES = {name: module for module, names in _EXPORTS.items()
          for name in names}

__all__ = [*_HOMES, "__version__"]


def __getattr__(name: str):
    if name == "__version__":
        from importlib import metadata
        try:
            version = metadata.version("partialcrit")
        except metadata.PackageNotFoundError:  # running from a checkout
            version = "0.1.0"
        globals()["__version__"] = version
        return version
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOMES:
        module = importlib.import_module(f"{__name__}.{_HOMES[name]}")
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | _SUBMODULES | set(__all__))
