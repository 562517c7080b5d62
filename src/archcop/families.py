"""Generators and inverse generators for the supported copula families.

Each family is one row of ``TABLE``: its parameter's name and domain, the
kind of generator it is, the map from the parameter to that kind's
coefficients, and its closed-form Kendall tau.  There are two kinds.

``LogPower(c, p)``
    phi(z) = (c*(-ln z))**p with c > 0 and p >= 1.  Four families are this
    kind: ``f1`` (c = alpha, p = 1/alpha), ``f2`` (c = 1, p = 1/alpha**2),
    ``gumbel`` (c = 1, p = theta) and ``independence`` (c = p = 1).  The
    scale c cancels in every composition, which is why ``f1(alpha)`` is
    the Gumbel copula with theta = 1/alpha.
``Frailty(alpha)``
    phi(z) = (alpha/2)*(sqrt(1 + 24/z) - 5), alpha > 0: family ``f3``.
    Its inverse psi(t) = 6*alpha**2 / ((t + 2*alpha)*(t + 3*alpha)) is the
    Laplace transform of a hypoexponential frailty law with rates 2*alpha
    and 3*alpha.

All public functions accept floats or numpy arrays and are pure.  They
validate the family, parameter and points once, handle the boundary
values (z in {0, 1}, t in {0, inf}) by exact branches so no logarithm of
zero is ever evaluated, and then call the kind's formula on interior
points.  The kind's methods are those unchecked formulas.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable, NamedTuple

import numpy as np

F1 = "f1"
F2 = "f2"
F3 = "f3"
GUMBEL = "gumbel"
INDEPENDENCE = "independence"

# Kendall tau of the frailty-generated family: 1 + 4*I with
# I = int_0^1 (5-s)*s*u^2/12 du, s = sqrt(1+24/u), evaluated to 16 digits
# with high-precision quadrature.  Independent of alpha.
F3_TAU = 0.2030890090900434


class DomainError(ValueError):
    """An argument lies outside the documented domain."""


class LogPower(NamedTuple):
    """phi(z) = (c*x)**p with x = -ln z; interior points only.

    ``log_phi`` is ln phi, and ``log_phi_prime``/``log_phi_double_prime``
    are (sign, ln|value|) of phi' and phi''; these neither under- nor
    overflow where the values themselves do.
    """

    c: float
    p: float

    def phi(self, z):
        return (self.c * -np.log(z)) ** self.p

    def phi_prime(self, z):
        c, p = self
        return -p * c * (c * -np.log(z)) ** (p - 1.0) / z

    def phi_double_prime(self, z):
        c, p = self
        x = -np.log(z)
        return p * c * c * (c * x) ** (p - 2.0) * (p - 1.0 + x) / (z * z)

    def log_phi(self, z):
        return self.p * np.log(self.c * -np.log(z))

    def log_phi_prime(self, z):
        c, p = self
        lz = np.log(z)
        mag = np.log(abs(p * c)) + (p - 1.0) * np.log(-c * lz) - lz
        return np.full_like(z, -np.sign(p * c)), mag

    def log_phi_double_prime(self, z):
        c, p = self
        lz = np.log(z)
        mag = np.log(abs(p * c * c)) + (p - 2.0) * np.log(-c * lz) - 2.0 * lz
        return np.sign(p) * np.sign(p - 1.0 - lz), mag + np.log(np.abs(p - 1.0 - lz))

    def psi(self, t):
        return np.exp(-(t ** (1.0 / self.p)) / self.c)

    def psi_prime(self, t):
        r = 1.0 / self.p
        return -(r / self.c) * t ** (r - 1.0) * np.exp(-(t**r) / self.c)

    def psi_double_prime(self, t):
        c, r = self.c, 1.0 / self.p
        e = np.exp(-(t**r) / c)
        out = (r / c) ** 2 * t ** (2.0 * r - 2.0) * e
        if r != 1.0:  # at r = 1 the second term vanishes, also at t = 0
            out = out + (r / c) * (1.0 - r) * t ** (r - 2.0) * e
        return out

    def singular_at_zero(self) -> bool:
        return self.p > 1.0  # psi' holds t**(1/p - 1)

    def ratio(self, z):
        return z * np.log(z) / self.p


class Frailty(NamedTuple):
    """phi(z) = (a/2)*(sqrt(1 + 24/z) - 5) of family f3; interior points only."""

    a: float

    def phi(self, z):
        return 0.5 * self.a * (np.sqrt(1.0 + 24.0 / z) - 5.0)

    def phi_prime(self, z):
        return -6.0 * self.a / (z * z * np.sqrt(1.0 + 24.0 / z))

    def phi_double_prime(self, z):
        a = self.a
        s = np.sqrt(1.0 + 24.0 / z)
        z2 = z * z
        return 12.0 * a / (z2 * z * s) - 72.0 * a / (z2 * z2 * s * s * s)

    def log_phi(self, z):
        return np.log(0.5 * self.a) + np.log(np.sqrt(1.0 + 24.0 / z) - 5.0)

    def log_phi_prime(self, z):
        a = self.a
        mag = np.log(6.0 * abs(a)) - 2.0 * np.log(z) - 0.5 * np.log1p(24.0 / z)
        return np.full_like(z, -np.sign(a)), mag

    def log_phi_double_prime(self, z):
        # phi'' = 12a (z + 18) / (z**3 s (z + 24)), s = sqrt(1 + 24/z)
        a = self.a
        mag = (np.log(12.0 * abs(a)) + np.log(np.abs(z + 18.0)) - 3.0 * np.log(z)
               - 0.5 * np.log1p(24.0 / z) - np.log(z + 24.0))
        return np.sign(a) * np.sign(z + 18.0), mag

    def psi(self, t):
        a = self.a
        return 6.0 * a * a / ((t + 2.0 * a) * (t + 3.0 * a))

    def psi_prime(self, t):
        a = self.a
        q = (t + 2.0 * a) * (t + 3.0 * a)
        return -6.0 * a * a * (2.0 * t + 5.0 * a) / (q * q)

    def psi_double_prime(self, t):
        a = self.a
        q = (t + 2.0 * a) * (t + 3.0 * a)
        d = 2.0 * t + 5.0 * a
        return 12.0 * a * a * (d * d - q) / (q * q * q)

    def singular_at_zero(self) -> bool:
        return False

    def ratio(self, z):
        s = np.sqrt(1.0 + 24.0 / z)
        return (5.0 - s) * s * z * z / 12.0


class Family(NamedTuple):
    """One family: its parameter, its generator kind and its Kendall tau."""

    param: str | None  # name of the parameter; None if it takes none
    domain: str  # the parameter's interval, as error messages print it
    admits: Callable[[float], bool]
    kind: type
    coeffs: Callable[[float | None], tuple]  # parameter -> kind's coefficients
    tau: Callable[[float | None], float]
    tau_note: str
    tau_error: float = 0.0


_UNIT = lambda a: 0.0 < a <= 1.0  # noqa: E731

TABLE = {
    F1: Family("alpha", "(0,1]", _UNIT, LogPower, lambda a: (a, 1.0 / a),
               lambda a: 1.0 - a, "tau = 1 - alpha"),
    F2: Family("alpha", "(0,1]", _UNIT, LogPower, lambda a: (1.0, 1.0 / (a * a)),
               lambda a: 1.0 - a * a,
               "tau = 1 - alpha^2, confirmed by quadrature of the generator "
               "ratio and by the Gumbel reduction; the originally stated "
               "1 - 2*alpha^2 does not match the tau integral (errata)"),
    F3: Family("alpha", "(0,inf)", lambda a: a > 0.0, Frailty, lambda a: (a,),
               lambda a: F3_TAU,
               "alpha-free constant 1 + 4*I, I = -0.19922777...; originally "
               "rounded to 0.20332, and the alternative statements "
               "1 - 2*alpha^2 and 0.32 do not match the tau integral (errata)",
               tau_error=1e-15),
    GUMBEL: Family("theta", "[1,inf)", lambda t: t >= 1.0, LogPower, lambda t: (1.0, t),
                   lambda t: 1.0 - 1.0 / t, "tau = 1 - 1/theta"),
    INDEPENDENCE: Family(None, "", lambda _: True, LogPower, lambda _: (1.0, 1.0),
                         lambda _: 0.0, "independence"),
}

FAMILIES = tuple(TABLE)


def check_param(family: str, param: float | None) -> float | None:
    """Validate the dependence parameter for ``family`` and return it.

    Raises
    ------
    DomainError
        If the family tag is unknown or the parameter is outside the
        family's admissible range.
    """
    row = TABLE.get(family)
    if row is None:
        raise DomainError(f"unknown family {family!r}; expected one of {FAMILIES}")
    if row.param is None:
        if param is not None:
            raise DomainError(f"{family} takes no parameter")
        return None
    if param is None or not np.isfinite(param):
        raise DomainError(f"family {family!r} requires a finite parameter")
    p = float(param)
    if not row.admits(p):
        raise DomainError(f"{row.param} out of domain {row.domain} for family {family!r}")
    return p


def generator(family: str, param: float | None):
    """The family's kind bound to its coefficients, after validating both."""
    p = check_param(family, param)
    row = TABLE[family]
    return row.kind(*row.coeffs(p))


def _unit(x, name, *, open_interval=False):
    """Coerce to float array in [0,1] (or (0,1)); return (array, was_scalar)."""
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    a = np.atleast_1d(arr)
    bad = ~((a >= 0.0) & (a <= 1.0))
    if open_interval:
        bad |= (a == 0.0) | (a == 1.0)
    if bad.any():
        interval = "(0,1)" if open_interval else "[0,1]"
        raise DomainError(f"{name} out of domain {interval}")
    return a.copy(), scalar


def _nonneg(x, name):
    """Coerce to float array in [0, inf]; +inf allowed."""
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    a = np.atleast_1d(arr)
    if (~(a >= 0.0)).any():
        raise DomainError(f"{name} out of domain [0,inf]")
    return a.copy(), scalar


def _ret(out, scalar):
    return float(out[0]) if scalar else out


def psi_closed(g, tt):
    """psi on an array in [0,inf], with psi(0) = 1 and psi(inf) = 0 exact."""
    out = np.empty_like(tt)
    out[tt == 0.0] = 1.0
    out[np.isinf(tt)] = 0.0
    m = (tt > 0.0) & np.isfinite(tt)
    if m.any():
        out[m] = g.psi(tt[m])
    return out


def zero_at_inf(fn, tt):
    """``fn`` (psi' or psi'') on an array in [0,inf], 0 at inf."""
    out = np.zeros_like(tt)
    m = np.isfinite(tt)
    out[m] = fn(tt[m])
    return out


def phi(family: str, param: float | None, z):
    """Generator value phi(z) in [0, inf]; phi(1) = 0 and phi(0) = +inf."""
    g = generator(family, param)
    zz, scalar = _unit(z, "z")
    out = np.empty_like(zz)
    out[zz == 0.0] = np.inf
    out[zz == 1.0] = 0.0
    m = (zz > 0.0) & (zz < 1.0)
    if m.any():
        out[m] = g.phi(zz[m])
    return _ret(out, scalar)


def phi_prime(family: str, param: float | None, z):
    """First derivative of the generator; strictly negative on (0,1)."""
    g = generator(family, param)
    zz, scalar = _unit(z, "z", open_interval=True)
    return _ret(g.phi_prime(zz), scalar)


def phi_double_prime(family: str, param: float | None, z):
    """Second derivative of the generator; strictly positive on (0,1)."""
    g = generator(family, param)
    zz, scalar = _unit(z, "z", open_interval=True)
    return _ret(g.phi_double_prime(zz), scalar)


def psi(family: str, param: float | None, t):
    """Inverse generator psi(t) in [0,1]; psi(0) = 1 and psi(inf) = 0."""
    g = generator(family, param)
    tt, scalar = _nonneg(t, "t")
    return _ret(psi_closed(g, tt), scalar)


def _t_strict(family, g, t):
    tt, scalar = _nonneg(t, "t")
    if g.singular_at_zero() and (tt == 0.0).any():
        raise DomainError(f"t=0 is singular for family {family!r} at this parameter")
    return tt, scalar


def psi_prime(family: str, param: float | None, t):
    """First derivative of the inverse generator; negative on (0, inf)."""
    g = generator(family, param)
    tt, scalar = _t_strict(family, g, t)
    return _ret(zero_at_inf(g.psi_prime, tt), scalar)


def psi_double_prime(family: str, param: float | None, t):
    """Second derivative of the inverse generator; positive on (0, inf)."""
    g = generator(family, param)
    tt, scalar = _t_strict(family, g, t)
    return _ret(zero_at_inf(g.psi_double_prime, tt), scalar)


def generator_ratio(family: str, param: float | None, z):
    """phi(z)/phi'(z) in a cancellation-free form; defined as 0 at z=0.

    The direct quotient overflows or loses all precision for extreme
    exponents (e.g. f2 at small alpha); each kind's simplified form is
    algebraically identical and stable over the whole open interval.
    """
    g = generator(family, param)
    zz, scalar = _unit(z, "z")
    if (zz == 1.0).any():
        raise DomainError("z out of domain [0,1)")
    out = np.zeros_like(zz)
    m = zz > 0.0
    out[m] = g.ratio(zz[m])
    return _ret(out, scalar)


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
        return all((self.zero_at_one, self.strictly_decreasing, self.convex,
                    self.diverges_at_zero))

    def to_dict(self) -> dict:
        return {**asdict(self), "all_passed": self.all_passed}


def _argmax_signed(sign, log_mag) -> int:
    """Index of the largest sign * exp(log_mag), without forming it."""
    key = np.where(sign == 0.0, 0.0, sign * log_mag)
    order = np.lexsort((-np.arange(sign.size), key, sign))  # first of ties
    return int(order[-1])


def check_generator_conditions(
    family: str, param: float | None, probe_count: int = 64
) -> ConditionReport:
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
    s1, l1 = g.log_phi_prime(probes)
    s2, l2 = g.log_phi_double_prime(probes)
    i1 = _argmax_signed(s1, l1)
    i2 = _argmax_signed(-s2, l2)
    return ConditionReport(
        family=family,
        param=param,
        probe_count=probe_count,
        zero_at_one=phi(family, param, 1.0) == 0.0,
        strictly_decreasing=bool(np.all(s1 < 0.0)),
        convex=bool(np.all(s2 > 0.0)),
        diverges_at_zero=bool(g.log_phi(1e-12) > np.log(10.0) + g.log_phi(0.5)),
        worst_phi_prime=(float(probes[i1]), float(g.phi_prime(probes[i1]))),
        worst_phi_double_prime=(float(probes[i2]), float(g.phi_double_prime(probes[i2]))),
    )
