"""Validity audits and Kendall tau estimation.

Each copula is audited against the defining conditions (groundedness,
uniform margins, 2-increasingness) on a lattice, probed for a singular
component via the generator-ratio limit, and its Kendall tau is computed
by three mutually independent routes: closed form, adaptive quadrature of
the generator ratio, and the exact concordance statistic on Monte Carlo
samples with its Hoeffding standard error, from Knight's merge (``_backend``).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING

import numpy as np

from ._backend import concordance_diff
from .copula import _lattice_cdf
from .families import BLOCK, TABLE, ConvergenceError, DomainError, check_param, generator

if TYPE_CHECKING:
    from .generators import ConditionReport

# Tolerances used by the lattice audit.
BOUNDARY_TOL = 1e-12
MARGIN_TOL = 1e-12
CELL_VOLUME_TOL = -1e-12
SINGULARITY_TOL = 1e-8


@dataclass
class TauEstimate:
    tau: float
    method: str  # closed_form | quadrature | monte_carlo
    error_bound: float
    n: int | None = None
    note: str = ""

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


@dataclass
class ValidityReport:
    family: str
    alpha: float | None
    grid_n: int
    boundary_max_abs_err: float
    margin_max_abs_err: float
    min_cell_volume: float
    singularity_probes: list[tuple[float, float]]
    generator_conditions: ConditionReport
    passed: dict[str, bool]
    tolerances: dict[str, float]

    @property
    def all_passed(self) -> bool:
        return all(self.passed.values())

    def to_json(self) -> str:
        doc = {**asdict(self), "generator_conditions": self.generator_conditions.to_dict(),
               "all_passed": self.all_passed}
        return json.dumps(doc, sort_keys=True)


def grid_validity_report(family: str, param: float | None, grid_n: int = 100) -> ValidityReport:
    """Audit C on the uniform (grid_n+1)^2 lattice over the closed square.

    The lattice is evaluated in strips of k + 1 rows, about 2 * ``BLOCK``
    values and at least two rows each, so memory grows with grid_n at
    most as one row does; each coordinate's generator term is computed
    once, for all strips.  Consecutive strips share a row, so each cell
    lies in exactly one strip; the maxima and minima folded across strips
    are those of the whole lattice.
    """
    from .families import check_generator_conditions  # loads ``generators``

    gen = generator(family, param)
    if grid_n < 3:
        raise DomainError("grid_n must be >= 3")
    g = np.linspace(0.0, 1.0, grid_n + 1)
    terms = gen.axis(g[1:-1])
    k = max(1, 2 * BLOCK // (grid_n + 1))
    column_0, column_n, vols = [], [], []
    for i in range(0, grid_n, k):
        C = _lattice_cdf(gen, g, terms, i, i + k + 1)
        if i == 0:
            row_0 = np.abs(C[0]).max()
        column_0.append(np.abs(C[:, 0]).max())
        column_n.append(np.abs(C[:, -1] - g[i:i + k + 1]).max())
        vols.append((C[1:, 1:] - C[1:, :-1] - C[:-1, 1:] + C[:-1, :-1]).min())
    # np.max and np.min, unlike the builtins, keep a NaN from any strip
    boundary = max(float(row_0), float(np.max(column_0)))
    margin = max(float(np.abs(C[-1] - g).max()), float(np.max(column_n)))
    min_vol = float(np.min(vols))
    probe_u = 10.0 ** -np.arange(3, 10)
    probes = [(float(x), float(gen.ratio(x))) for x in probe_u]
    conditions = check_generator_conditions(family, param, 64)
    limit = singularity_limit(family, param)
    passed = {
        "grounded": boundary <= BOUNDARY_TOL,
        "margins": margin <= MARGIN_TOL,
        "two_increasing": min_vol >= CELL_VOLUME_TOL,
        "no_singular_part": abs(limit) <= SINGULARITY_TOL,
        "generator_conditions": conditions.all_passed,
    }
    tolerances = {
        "grounded": BOUNDARY_TOL,
        "margins": MARGIN_TOL,
        "two_increasing": CELL_VOLUME_TOL,
        "no_singular_part": SINGULARITY_TOL,
    }
    return ValidityReport(
        family=family,
        alpha=param,
        grid_n=grid_n,
        boundary_max_abs_err=boundary,
        margin_max_abs_err=margin,
        min_cell_volume=min_vol,
        singularity_probes=probes,
        generator_conditions=conditions,
        passed=passed,
        tolerances=tolerances,
    )


def singularity_limit(family: str, param: float | None) -> float:
    """Estimate lim_{u->0} phi(u)/phi'(u) by the ratio at u = 1e-12.

    A copula generated by phi carries a singular component iff this limit
    is nonzero.
    """
    return float(generator(family, param).ratio(1e-12))


def kendall_tau_closed(family: str, param: float | None) -> TauEstimate:
    """Closed-form Kendall tau per family."""
    p = check_param(family, param)
    row = TABLE[family]
    return TauEstimate(tau=row.tau(p), method="closed_form",
                       error_bound=row.tau_error, note=row.tau_note)


def kendall_tau_quadrature(
    family: str, param: float | None, abs_tol: float = 1e-9
) -> TauEstimate:
    """Kendall tau from tau = 1 + 4 * int_0^1 phi(u)/phi'(u) du."""
    from .numerics import adaptive_quad  # here, so that only this function loads it

    gen = generator(family, param)
    if abs_tol < 1e-12:
        raise DomainError("abs_tol must be >= 1e-12")
    # the panel nodes never touch 0 or 1, so the unchecked ratio applies
    res = adaptive_quad(gen.ratio, 0.0, 1.0, abs_tol)
    if not res.converged:
        raise ConvergenceError(
            f"tau quadrature did not converge (best estimate {1 + 4 * res.value})"
        )
    return TauEstimate(
        tau=1.0 + 4.0 * res.value,
        method="quadrature",
        error_bound=4.0 * res.abs_error_estimate,
    )


def kendall_tau_mc(pairs: np.ndarray) -> TauEstimate:
    """Exact concordance statistic (tau-a) with its Hoeffding standard error.

    ``pairs`` is an (n, 2) array of at least 2 finite values.  One O(n log n)
    merge gives each pair's concordance c_i with the other n - 1; tau is
    sum(c_i)/(n(n-1)), and the standard error 2 * sd(c_i/(n-1)) / sqrt(n).
    """
    arr = np.asarray(pairs, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise DomainError("pairs must be an (n, 2) array")
    if not np.isfinite(arr).all():
        raise DomainError("pairs must be finite (found NaN or infinity)")
    n = arr.shape[0]
    if n < 2:
        raise DomainError("need n >= 2 pairs")
    c = concordance_diff(arr[:, 0], arr[:, 1])
    return TauEstimate(
        tau=(int(c.sum()) // 2) / (n * (n - 1) / 2.0), method="monte_carlo",
        error_bound=float(2.0 * np.std(c / (n - 1), ddof=1) / np.sqrt(n)), n=n,
        note="Hoeffding standard error from per-point concordance counts",
    )
