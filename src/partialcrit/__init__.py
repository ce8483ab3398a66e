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
"""

import importlib.metadata

from .errors import (ConvergenceError, HypothesisError, IntegrityError,
                     SchemeStageError)
from .hypotheses import (GrowthReport, HypothesisReport, PsBeta, RingReport,
                         SamplerSpec, check_growth, check_mountain_pass_ring,
                         estimate_monotony, full_report, mu_of, ps_beta)
from .oracle import (BruteScanReport, OracleResult, brute_nash,
                     fd_gradient_check, newton_full)
from .problems import (DirichletSpec, NonlinearitySpec, PointwiseNonlinearity,
                       StokesSpec, build_dirichlet, build_scalar,
                       build_stokes, build_stokes_manufactured,
                       discrete_divergence, make_pointwise,
                       reconstruct_velocity)
from .scheme import (ContractionReport, CoupledSystem, GrowthParams,
                     NashReport, SchemeConfig, SchemeTrace, SolutionPair,
                     TraceRow, contraction_certificate, energies,
                     nash_check, residual_u, residual_v, run_scheme)
from .spaces import (DiscreteSpace, HVector, SpdOperator, embedding_constant,
                     inner_a, make_space, norm_a, riesz_lift, solve_a,
                     validate_space)
from .zeromatrix import (ConvergenceCertificate, DominanceReport,
                         MonotonyMatrix, is_convergent_to_zero,
                         neumann_inverse, spectral_radius, verify_dominance)

try:
    __version__ = importlib.metadata.version("partialcrit")
except importlib.metadata.PackageNotFoundError:  # running from a checkout
    __version__ = "0.1.0"

__all__ = [
    "ConvergenceError", "HypothesisError", "IntegrityError",
    "SchemeStageError",
    "DiscreteSpace", "HVector", "SpdOperator", "make_space", "solve_a",
    "riesz_lift", "inner_a", "norm_a", "embedding_constant",
    "validate_space",
    "MonotonyMatrix", "ConvergenceCertificate", "DominanceReport",
    "spectral_radius", "is_convergent_to_zero", "neumann_inverse",
    "verify_dominance",
    "GrowthParams", "SchemeConfig", "CoupledSystem", "SchemeTrace",
    "TraceRow", "SolutionPair", "ContractionReport", "NashReport",
    "run_scheme", "residual_u", "residual_v", "energies",
    "contraction_certificate", "nash_check",
    "SamplerSpec", "GrowthReport", "RingReport", "PsBeta",
    "HypothesisReport", "check_growth", "estimate_monotony", "mu_of",
    "check_mountain_pass_ring", "ps_beta", "full_report",
    "NonlinearitySpec", "PointwiseNonlinearity", "make_pointwise",
    "DirichletSpec", "StokesSpec", "build_dirichlet", "build_stokes",
    "build_scalar", "build_stokes_manufactured", "reconstruct_velocity",
    "discrete_divergence",
    "OracleResult", "BruteScanReport", "newton_full", "fd_gradient_check",
    "brute_nash",
    "__version__",
]
