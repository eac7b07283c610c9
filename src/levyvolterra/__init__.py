"""Stochastic convolutions for linear Volterra equations driven by Levy noise.

The package solves the scalar resolvent equation for memory kernels, lifts
it to a diagonal resolvent family on a truncated eigenbasis, samples
Levy paths with exact jump bookkeeping on reproducible counter-based
streams, computes the stochastic convolution by tagged Stieltjes sums and
by summation by parts, and verifies the resulting law (Levy triplet and
characteristic functional) against Monte Carlo evidence.
"""

__version__ = "0.1.0"

from .characterization import (
    CovarianceCheck,
    EcfReport,
    EcfRow,
    PredictedTriplet,
    build_panel,
    ecf_comparison,
    empirical_cf,
    gaussian_covariance_check,
    predicted_log_cf,
    predicted_triplet,
    terminal_values,
)
from .convolution import (
    ConvolutionPath,
    TagRule,
    convolve_at,
    functional_projection_check,
    mild_solution,
    parts_convolution,
    stieltjes_convolution,
)
from .grid import TimeGrid
from .kernels import (
    KernelSpec,
    PropertyReport,
    certify_resolvent_properties,
    closed_form_exponential_resolvent,
    eval_kernel,
    solve_scalar_resolvent,
)
from .levy import (
    DiscreteMixture,
    GaussianJumps,
    JumpPart,
    LevyTriplet,
    PointMass,
    SamplePath,
    sample_path,
)
from .spectral import (
    ResidualProfile,
    ResolventFamily,
    SpectralModel,
    build_resolvent_family,
    build_spectral_model,
    identity_resolvent_family,
    resolvent_equation_residual,
)
from .verification import (
    ConvergenceStudy,
    StudyConfig,
    bounded_A_identity_residual,
    convergence_study,
    fit_order,
    weak_solution_residual,
)
