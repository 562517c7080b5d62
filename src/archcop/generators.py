"""phi, psi and their derivatives for one family, and the audit of phi's
conditions.  Each function checks the family, parameter and points once,
answers z in {0, 1} and t in {0, inf} by exact branches, and calls the
family's generator kind on interior points.  Only the commands that print
or audit the generator load this module."""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .families import DomainError, _points, _ret, generator


def _derivative(direct, log_form, z):
    """phi' or phi'': the kind's ``direct`` form where it is within 5e-13 of
    sign*exp(mag) from its ``log_form`` (whose own error is below 3.5e-13),
    else sign*exp(mag).  A product in the direct form can leave the double
    range, or lose digits in a subnormal, where the value does not."""
    with np.errstate(all="ignore"):
        out = direct(z)
        sign, mag = log_form(z)
        ref = sign * np.exp(mag)
        far = ~(np.abs(out - ref) <= 5e-13 * np.abs(ref))
    out[far] = ref[far]
    return out


def phi(family: str, param: float | None, z):
    """Generator value phi(z) in [0, inf]; phi(1) = 0 and phi(0) = +inf."""
    g = generator(family, param)
    zz, scalar = _points(z, "z", "[0,1]")
    return _ret(np.piecewise(zz, [zz == 0.0, zz == 1.0], [np.inf, 0.0, g.phi]), scalar)


def phi_prime(family: str, param: float | None, z):
    """First derivative of the generator; strictly negative on (0,1)."""
    g = generator(family, param)
    zz, scalar = _points(z, "z", "(0,1)")
    return _ret(_derivative(g.phi_prime, g.log_phi_prime, zz), scalar)


def phi_double_prime(family: str, param: float | None, z):
    """Second derivative of the generator; strictly positive on (0,1)."""
    g = generator(family, param)
    zz, scalar = _points(z, "z", "(0,1)")
    return _ret(_derivative(g.phi_double_prime, g.log_phi_double_prime, zz), scalar)


def psi(family: str, param: float | None, t):
    """Inverse generator psi(t) in [0,1]; psi(0) = 1 and psi(inf) = 0."""
    g = generator(family, param)
    tt, scalar = _points(t, "t", "[0,inf]")
    return _ret(np.piecewise(tt, [tt == 0.0, np.isinf(tt)], [1.0, 0.0, g.psi]), scalar)


def _t_strict(family, g, t):
    tt, scalar = _points(t, "t", "[0,inf]")
    if g.singular_at_zero() and (tt == 0.0).any():
        raise DomainError(f"t=0 is singular for family {family!r} at this parameter")
    return tt, scalar


def psi_prime(family: str, param: float | None, t):
    """First derivative of the inverse generator; negative on (0, inf)."""
    g = generator(family, param)
    tt, scalar = _t_strict(family, g, t)
    return _ret(np.piecewise(tt, [np.isinf(tt)], [0.0, g.psi_prime]), scalar)


def psi_double_prime(family: str, param: float | None, t):
    """Second derivative of the inverse generator; positive on (0, inf)."""
    g = generator(family, param)
    tt, scalar = _t_strict(family, g, t)
    return _ret(np.piecewise(tt, [np.isinf(tt)], [0.0, g.psi_double_prime]), scalar)


def generator_ratio(family: str, param: float | None, z):
    """phi(z)/phi'(z) in a cancellation-free form; defined as 0 at z=0.

    The direct quotient overflows or loses all precision for extreme
    exponents (e.g. f2 at small alpha); each kind's simplified form is
    algebraically identical and stable over the whole open interval.
    """
    g = generator(family, param)
    zz, scalar = _points(z, "z", "[0,1)")
    return _ret(np.piecewise(zz, [zz == 0.0], [0.0, g.ratio]), scalar)


@dataclass
class ConditionReport:
    """Pointwise audit of the sufficient generator conditions."""

    family: str
    param: float | None
    probe_count: int
    zero_at_one: bool
    strictly_decreasing: bool
    convex: bool
    diverges_at_zero: bool
    worst_phi_prime: tuple[float, float]  # (z, largest phi' seen)
    worst_phi_double_prime: tuple[float, float]  # (z, smallest phi'' seen)

    @property
    def all_passed(self) -> bool:
        return all((self.zero_at_one, self.strictly_decreasing, self.convex, self.diverges_at_zero))

    def to_dict(self) -> dict:
        return {**asdict(self), "all_passed": self.all_passed}


def _argmax_signed(sign, log_mag) -> int:
    """Index of the largest sign * exp(log_mag), without forming it."""
    key = np.where(sign == 0.0, 0.0, sign * log_mag)
    order = np.lexsort((-np.arange(sign.size), key, sign))  # first of ties
    return int(order[-1])


def check_generator_conditions(family: str, param: float | None,
                               probe_count: int = 64) -> ConditionReport:
    """Audit phi for the sufficient generator conditions.

    Probes ``probe_count`` log-spaced points in (0,1) (biased toward the
    singular endpoint at 0) and checks phi' < 0 and phi'' > 0 pointwise,
    phi(1) = 0 exactly, and divergence toward 0 via
    phi(1e-12) > 10*phi(0.5).  Signs and the divergence test use the
    kind's log-magnitude forms, which cannot underflow where phi' or
    phi'' themselves round to zero; the worst values are reported as
    (z, value).
    """
    g = generator(family, param)
    if probe_count < 3:
        raise DomainError("probe_count must be >= 3")
    probes = np.geomspace(1e-12, 1.0 - 1e-3, probe_count)
    with np.errstate(over="ignore"):  # as p nears the double limit, the logs are inf
        s1, l1 = g.log_phi_prime(probes)
        s2, l2 = g.log_phi_double_prime(probes)
        diverges = g.log_phi(1e-12) > np.log(10.0) + g.log_phi(0.5)
    z1 = float(probes[_argmax_signed(s1, l1)])
    z2 = float(probes[_argmax_signed(-s2, l2)])
    return ConditionReport(
        family=family, param=param, probe_count=probe_count,
        zero_at_one=phi(family, param, 1.0) == 0.0, strictly_decreasing=bool(np.all(s1 < 0.0)),
        convex=bool(np.all(s2 > 0.0)), diverges_at_zero=bool(diverges),
        worst_phi_prime=(z1, phi_prime(family, param, z1)),
        worst_phi_double_prime=(z2, phi_double_prime(family, param, z2)))
