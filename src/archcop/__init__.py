"""Archimedean copula construction, validity auditing, and sampling toolkit."""

from ._backend import KERNEL_BACKEND
from .copula import cdf, density, partial_u
from .diagnostics import (
    TauEstimate,
    ValidityReport,
    grid_validity_report,
    kendall_tau_closed,
    kendall_tau_mc,
    kendall_tau_quadrature,
    singularity_limit,
)
from .families import (
    F1,
    F2,
    F3,
    FAMILIES,
    GUMBEL,
    INDEPENDENCE,
    ConditionReport,
    DomainError,
    check_generator_conditions,
    check_param,
    generator_ratio,
    phi,
    phi_double_prime,
    phi_prime,
    psi,
    psi_double_prime,
    psi_prime,
)
from .numerics import ConvergenceError, QuadratureResult, adaptive_quad
from .sampling import (
    SampleBatch,
    frailty_pdf,
    mbur_pdf,
    sample_conditional,
    sample_frailty,
    sample_frailty_copula,
)

__version__ = "0.1.0"

__all__ = [
    "KERNEL_BACKEND",
    "FAMILIES",
    "F1",
    "F2",
    "F3",
    "GUMBEL",
    "INDEPENDENCE",
    "DomainError",
    "ConvergenceError",
    "ConditionReport",
    "QuadratureResult",
    "SampleBatch",
    "TauEstimate",
    "ValidityReport",
    "adaptive_quad",
    "cdf",
    "check_generator_conditions",
    "check_param",
    "density",
    "frailty_pdf",
    "generator_ratio",
    "grid_validity_report",
    "kendall_tau_closed",
    "kendall_tau_mc",
    "kendall_tau_quadrature",
    "mbur_pdf",
    "partial_u",
    "phi",
    "phi_double_prime",
    "phi_prime",
    "psi",
    "psi_double_prime",
    "psi_prime",
    "sample_conditional",
    "sample_frailty",
    "sample_frailty_copula",
    "singularity_limit",
]
