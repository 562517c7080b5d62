"""Archimedean copula construction, validity auditing, and sampling toolkit."""

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
    ConvergenceError,
    DomainError,
    check_generator_conditions,
    check_param,
    phi,
    phi_double_prime,
    phi_prime,
    psi,
    psi_double_prime,
    psi_prime,
)
from .sampling import SampleBatch, sample_conditional, sample_frailty_copula

__version__ = "0.1.0"

__all__ = [
    "FAMILIES",
    "F1",
    "F2",
    "F3",
    "GUMBEL",
    "INDEPENDENCE",
    "DomainError",
    "ConvergenceError",
    "ConditionReport",
    "SampleBatch",
    "TauEstimate",
    "ValidityReport",
    "cdf",
    "check_generator_conditions",
    "check_param",
    "density",
    "grid_validity_report",
    "kendall_tau_closed",
    "kendall_tau_mc",
    "kendall_tau_quadrature",
    "partial_u",
    "phi",
    "phi_double_prime",
    "phi_prime",
    "psi",
    "psi_double_prime",
    "psi_prime",
    "sample_conditional",
    "sample_frailty_copula",
    "singularity_limit",
]
