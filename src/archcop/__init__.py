"""Archimedean copula construction, validity auditing, and sampling toolkit.

Importing the package loads none of its modules: each name of ``__all__``
is imported from its module on first access (PEP 562), so a process
loads and compiles only the modules it uses.
"""

import importlib

__version__ = "0.1.0"

_HOME = {name: module for module, names in {
    "copula": "cdf density partial_u",
    "diagnostics": "TauEstimate ValidityReport grid_validity_report kendall_tau_closed "
                   "kendall_tau_mc kendall_tau_quadrature singularity_limit",
    "families": "F1 F2 F3 FAMILIES GUMBEL INDEPENDENCE ConditionReport ConvergenceError "
                "DomainError check_generator_conditions check_param phi phi_double_prime "
                "phi_prime psi psi_double_prime psi_prime",
    "sampling": "SampleBatch sample_conditional sample_frailty_copula",
}.items() for name in names.split()}

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


def __getattr__(name):
    """Import a name of ``__all__`` from its module and keep it here.  Any
    other name raises AttributeError, so ``from archcop import copula``
    imports the submodule."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module("." + _HOME[name], __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
