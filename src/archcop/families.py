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
    and 3*alpha.  Since phi is alpha times its value at alpha = 1 and
    psi(t) is psi at alpha = 1 of t/alpha, the copula does not depend on
    alpha.

Each kind is the only code that knows its formulas: the generator and its
inverse with their derivatives, and the compositions of the copula built
from them, C(u, v) = psi(phi(u) + phi(v)), dC/du = psi'(...) * phi'(u) and
c(u, v) = psi''(...) * phi'(u) * phi'(v), with the conditional inverse
that solves dC/du(u, v) = q for v.

The kind's methods are unchecked formulas for interior points.  The public
phi, psi and their derivatives, and the audit of the generator conditions,
live in ``generators``, which only the commands that call them load; their
names still resolve here (``__getattr__``).
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

F1 = "f1"
F2 = "f2"
F3 = "f3"
GUMBEL = "gumbel"
INDEPENDENCE = "independence"

# Rows of the working set: the samplers draw, map and write this many pairs
# at a time, the generator grid this many points, tau's stdin reader parses
# this many lines at a time, and the lattice audit takes strips of about
# twice this many values.
BLOCK = 4096

# Kendall tau of the frailty-generated family: 1 + 4*I with
# I = int_0^1 (5-s)*s*u^2/12 du, s = sqrt(1+24/u), evaluated to 16 digits
# with high-precision quadrature.  Independent of alpha.
F3_TAU = 0.2030890090900434


class DomainError(ValueError):
    """An argument lies outside the documented domain."""


class ConvergenceError(RuntimeError):
    """A numerical routine failed to reach its requested tolerance."""


# Newton steps per conditional inversion; only a backstop, since the
# monotone stopping test ends every solve (in at most 12 steps on a grid of
# u and q over [1e-15, 1 - 1e-15] for f1, gumbel and f3).
_NEWTON_CAP = 100


def _monotone_newton(f, z, direction: float):
    """Newton's method on every entry of ``z`` at once.

    ``f`` returns (value, slope) of an equation whose Newton steps move
    each entry monotonically toward its root, in ``direction`` (+1 or -1)
    from the start ``z``.  The iteration stops once no entry moves that
    way any more: rounding, not a tolerance, ends it.
    """
    for _ in range(_NEWTON_CAP):
        value, slope = f(z)
        nxt = z - value / slope
        moved = direction * (nxt - z) > 0.0
        if not moved.any():
            return z
        z = np.where(moved, nxt, z)
    raise ConvergenceError(f"conditional inversion did not converge in {_NEWTON_CAP} Newton steps")


class LogPower(NamedTuple):
    """phi(z) = (c*x)**p with x = -ln z; interior points only.

    ``log_phi`` is ln phi, and ``log_phi_prime``/``log_phi_double_prime``
    are (sign, ln|value|) of phi' and phi''; these neither under- nor
    overflow where the values themselves do.

    The compositions are the Gumbel closed forms in log space: with
    x = -ln u, y = -ln v, big = max(x, y), r = min(x, y)/big and
    w = big*(1 + r**p)**(1/p),

        C(u, v) = exp(-w)
        dC/du   = exp(x - w) * (x/w)**(p-1)
        c(u, v) = exp(x + y - w) * ((x/w)*(y/w))**(p-1) * (1 + (p-1)/w)

    which stay finite where phi itself under- or overflows double precision
    (the density takes its first two factors as one exp of summed logs).
    The scale c cancels in all three.

    ``conditional_v`` solves dC/du(u, v) = exp(-L) for v: delta = ln(w/x)
    >= 0 solves x*expm1(delta) + (p-1)*delta = L, a convex increasing
    function; then ln y = ln x + delta + ln(-expm1(-p*delta))/p.
    """

    c: float
    p: float

    def phi(self, z):
        with np.errstate(over="ignore"):  # past the double range phi is inf
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

    def _psi_logs(self, t):
        """ln((r/c)*t**(r-1)), t**r/c and 1 - r = (p-1)/p, r = 1/p: psi' and
        psi'' are exps of summed logs, as their factors can leave the double
        range where they do not, and (p-1)/p does not cancel as p -> 1."""
        c, p = self
        a, q = -np.log(p * c), (p - 1.0) / p
        if q != 0.0:  # else (r - 1)*ln t is 0, also at t = 0
            a = a - q * np.log(t)
        return a, t ** (1.0 / p) / c, q

    def psi_prime(self, t):
        a, e, _ = self._psi_logs(t)
        with np.errstate(over="ignore"):  # near t = 0 psi' is past the double range
            return -np.exp(a - e)

    def psi_double_prime(self, t):
        a, e, q = self._psi_logs(t)
        with np.errstate(over="ignore"):  # near t = 0 psi'' is past the double range
            out = np.exp(2.0 * a - e)  # (r/c)**2 * t**(2r-2) * exp(-t**r/c)
            if q != 0.0:  # at r = 1 the second term vanishes, also at t = 0
                out = out + np.exp(a - e + np.log(q) - np.log(t))
        return out

    def singular_at_zero(self) -> bool:
        return self.p > 1.0  # psi' holds t**(1/p - 1)

    def ratio(self, z):
        return z * np.log(z) / self.p

    def _w(self, u, v):
        """x, y and w = (x**p + y**p)**(1/p), factored by the larger term,
        which keeps the sum finite where x**p or y**p leaves the double
        range."""
        x = -np.log(u)
        y = -np.log(v)
        big = np.maximum(x, y)
        r = np.minimum(x, y) / big
        return x, y, big * np.exp(np.log1p(r**self.p) / self.p)

    def cdf(self, u, v):
        return np.exp(-self._w(u, v)[2])

    def partial_u(self, u, v):
        x, _, w = self._w(u, v)
        return np.exp(x - w) * (x / w) ** (self.p - 1.0)

    def density(self, u, v):
        p = self.p
        x, y, w = self._w(u, v)
        # one exp of the summed logs, as its two factors can leave the double range
        with np.errstate(over="ignore"):  # c itself is past the double range
            return np.exp(x + y - w + (p - 1.0) * np.log((x / w) * (y / w))) * (1.0 + (p - 1.0) / w)

    def conditional_v(self, u, L):
        """v with dC/du(u, v) = exp(-L).

        Newton steps on the convex increasing x*expm1(d) + (p-1)*d - L fall
        monotonically from the upper bound min(log1p(L/x), L/(p-1)), which
        is the root itself at p = 1.
        """
        p = self.p
        x = -np.log(u)
        d = np.log1p(L / x)
        if p > 1.0:
            d = np.minimum(d, L / (p - 1.0))

        def residual(d):
            e = np.expm1(d)
            return x * e + (p - 1.0) * d - L, x * (e + 1.0) + (p - 1.0)

        d = _monotone_newton(residual, d, -1.0)
        return np.exp(-np.exp(np.log(x) + d + np.log(-np.expm1(-p * d)) / p))


def _frailty_s(z):
    """s = sqrt(1 + 24/z) on (0, 1), also where 24/z overflows: below
    1e-300, 1 + z/24 rounds to 1 and s is sqrt(24)/sqrt(z)."""
    return np.where(z < 1e-300, np.sqrt(24.0) / np.sqrt(z),
                    np.sqrt(1.0 + 24.0 / np.maximum(z, 1e-300)))


def _frailty_half_s_minus_5(z):
    """(s - 5)/2 = 12(1 - z)/(z(s + 5)) on (0, 1), s = ``_frailty_s(z)``:
    the direct difference cancels as z -> 1, this form does not."""
    return 12.0 * (1.0 - z) / (z * (_frailty_s(z) + 5.0))


class Frailty(NamedTuple):
    """phi(z) = (a/2)*(sqrt(1 + 24/z) - 5) of family f3; interior points only.

    The copula does not depend on a, so every composition is taken at
    a = 1 and never reads ``self.a``: the cdf composes psi(phi(u) + phi(v))
    at a = 1, and dC/du and the density are closed forms in
    s = sqrt(1 + 24/z) (``_frailty_s``) and S = s_u + s_v,

        dC/du   = (S-5)/s_u * [(s_u-1)/(S-6) * (s_u+1)/(S-4)]**2
        c(u, v) = (3(S-5)**2 + 1)/48 * [(s_u**2-1)(s_v**2-1)]**2
                  / (((S-6)(S-4))**3 * s_u * s_v)

    evaluated as products of ratios of order one, so they stay finite
    where psi'(t) and phi'(u) under- and overflow (u near 0).  The frailty
    sampler draws at a = 1 too.  The generator's formulas read a, in one
    form each that is correct for every z in (0, 1); where 6a or 12a
    overflows, the public phi' and phi'' take the log forms.

    ``conditional_v`` solves dC/du(u, v) = exp(-L) for d = phi(v) >= 0 at
    a = 1: 2*log1p(4d(s+d)/(24/u)) - log1p(2d/s) = L with s = s_u, a
    concave increasing function (its left side is -ln dC/du); then
    v = psi(d) = 6/((d+2)(d+3)).
    """

    a: float

    # a times (s - 5)/2, as 0.5*a rounds to 0 at the smallest subnormal a,
    # with s - 5 = 24(1 - z)/(z(s + 5)): the difference s - 5 cancels as
    # z -> 1, where 1 - z is exact
    def phi(self, z):
        with np.errstate(over="ignore"):  # past the double range phi is inf
            return self.a * _frailty_half_s_minus_5(z)

    # phi' = -6a/(z**2 s) and phi'' = 12a(z + 18)/(z**3 s (z + 24)), with
    # z divided out one factor at a time: z*s = sqrt(z*z + 24z) stays a
    # normal double where z*z does not, and each step only grows, so a
    # step overflows only when the value does.
    def phi_prime(self, z):
        return -6.0 * self.a / (z * _frailty_s(z)) / z

    def phi_double_prime(self, z):
        return 12.0 * self.a / (z * _frailty_s(z)) * ((z + 18.0) / (z + 24.0)) / z / z

    def log_phi(self, z):
        return np.log(self.a) + np.log(_frailty_half_s_minus_5(z))

    def log_phi_prime(self, z):
        a = self.a
        mag = np.log(6.0 * abs(a)) - 2.0 * np.log(z) - np.log(_frailty_s(z))
        return np.full_like(z, -np.sign(a)), mag

    def log_phi_double_prime(self, z):
        a = self.a
        mag = (np.log(12.0 * abs(a)) + np.log(np.abs(z + 18.0)) - 3.0 * np.log(z)
               - np.log(_frailty_s(z)) - np.log(z + 24.0))
        return np.sign(a) * np.sign(z + 18.0), mag

    # psi in s = t/a, so that no power of a is formed: 6a**2 and
    # (t + 2a)(t + 3a) under- and overflow at extreme a.  Its derivatives
    # are products of A = a/(t + 2a) and B = a/(t + 3a), each at most 1/2,
    # and of 1/(t + 2a) and 1/(t + 3a), grouped so that no partial product
    # leaves the double range while the result is a normal double:
    # psi' = -6*A/(t + 3a)*(2 + A)*B and
    # psi'' = 12*(A/(t + 3a))*(B/(t + 2a))*(3 + A*B), whose two middle
    # factors are each about the square root of psi''/36.
    def psi(self, t):
        with np.errstate(over="ignore"):
            s = t / self.a
            q = (s + 2.0) * (s + 3.0)
        out = 6.0 / q
        # past s = 1.3e154 q overflows while psi = 6/s**2 is still a double
        # (and 0 where s itself overflows)
        far = np.isinf(q)
        out[far] = 6.0 / s[far] / s[far]
        return out

    def psi_prime(self, t):
        a = self.a
        ra = a / (t + 2.0 * a)
        return -6.0 * ra / (t + 3.0 * a) * (2.0 + ra) * (a / (t + 3.0 * a))

    def psi_double_prime(self, t):
        a = self.a
        ra = a / (t + 2.0 * a)
        rb = a / (t + 3.0 * a)
        return 12.0 * (ra / (t + 3.0 * a)) * (rb / (t + 2.0 * a)) * (3.0 + ra * rb)

    def singular_at_zero(self) -> bool:
        return False

    def ratio(self, z):
        # (5 - s)*s*z*z/12 = -2(1 - z)*s*z/(s + 5), which neither cancels
        # nor leaves the double range: s*z = sqrt(z*z + 24z) is below 5
        s = _frailty_s(z)
        return -2.0 * (1.0 - z) * (s * z) / (s + 5.0)

    def cdf(self, u, v):
        one = Frailty(1.0)
        return one.psi(one.phi(u) + one.phi(v))

    def partial_u(self, u, v):
        su = _frailty_s(u)
        ss = su + _frailty_s(v)
        au = (su - 1.0) / (ss - 6.0)
        bu = (su + 1.0) / (ss - 4.0)
        return (ss - 5.0) / su * au * bu * (au * bu)

    def density(self, u, v):
        su, sv = _frailty_s(u), _frailty_s(v)
        ss = su + sv
        # (3(S-5)**2 + 1)/((S-6)(S-4)) = 3 + 4/((S-6)(S-4)), and
        # (s**2 - 1)/s = s - 1/s; each group below, and each partial
        # product in it, lies between min(s_u, s_v)**2/S and min(s_u, s_v)
        head = (3.0 + 4.0 / (ss - 6.0) / (ss - 4.0)) / 48.0
        gu = (sv - 1.0) / (ss - 6.0) * (su - 1.0 / su) * ((sv + 1.0) / (ss - 4.0))
        gv = (su - 1.0) / (ss - 6.0) * (sv - 1.0 / sv) * ((su + 1.0) / (ss - 4.0))
        with np.errstate(over="ignore"):  # c itself is past the double range
            return head * gu * gv

    def conditional_v(self, u, L):
        """v with dC/du(u, v) = exp(-L), solved at a = 1.

        Newton steps on the concave increasing residual in d = phi(v) rise
        monotonically from d = 0.  The residual is -(L + ln dC/du) in
        closed form, in d itself: phi(u) + d, whose rounding would swamp a
        small d, is never formed.
        """
        k = 24.0 / u
        s = _frailty_s(u)

        def residual(d):
            e = 4.0 * d * (s + d)
            return (2.0 * np.log1p(e / k) - np.log1p(2.0 * d / s) - L,
                    8.0 * (s + 2.0 * d) / (k + e) - 2.0 / (s + 2.0 * d))

        d = _monotone_newton(residual, np.zeros_like(u), 1.0)
        return 6.0 / ((d + 2.0) * (d + 3.0))


class Family(NamedTuple):
    """One family: its parameter, its generator kind and its Kendall tau."""

    param: str | None  # name of the parameter; None if it takes none
    domain: str  # the parameter's interval, as ``_inside`` reads it and errors print it
    kind: type
    coeffs: Callable[[float | None], tuple]  # parameter -> kind's coefficients
    tau: Callable[[float | None], float]
    tau_note: str
    tau_error: float = 0.0


TABLE = {
    F1: Family("alpha", "(0,1]", LogPower, lambda a: (a, 1.0 / a),
               lambda a: 1.0 - a, "tau = 1 - alpha"),
    F2: Family("alpha", "(0,1]", LogPower, lambda a: (1.0, 1.0 / (a * a)),
               lambda a: 1.0 - a * a,
               "tau = 1 - alpha^2, confirmed by quadrature of the generator "
               "ratio and by the Gumbel reduction; the originally stated "
               "1 - 2*alpha^2 does not match the tau integral (errata)"),
    F3: Family("alpha", "(0,inf)", Frailty, lambda a: (a,),
               lambda a: F3_TAU,
               "alpha-free constant 1 + 4*I, I = -0.19922777...; originally "
               "rounded to 0.20332, and the alternative statements "
               "1 - 2*alpha^2 and 0.32 do not match the tau integral (errata)",
               tau_error=1e-15),
    GUMBEL: Family("theta", "[1,inf)", LogPower, lambda t: (1.0, t),
                   lambda t: 1.0 - 1.0 / t, "tau = 1 - 1/theta"),
    INDEPENDENCE: Family(None, "", LogPower, lambda _: (1.0, 1.0),
                         lambda _: 0.0, "independence"),
}

FAMILIES = tuple(TABLE)


def _inside(a, domain: str):
    """Whether ``a``, a float or an array of them, lies in the interval that
    ``domain`` writes: two ends, such as ``0`` or ``inf``, between brackets
    that say whether each end is in it, as in ``"(0,1]"``.  NaN is in none."""
    lo, hi = map(float, domain[1:-1].split(","))
    above = a > lo if domain[0] == "(" else a >= lo
    below = a < hi if domain[-1] == ")" else a <= hi
    return above & below


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
    if not _inside(p, row.domain):
        raise DomainError(f"{row.param} out of domain {row.domain} for family {family!r}")
    return p


def generator(family: str, param: float | None):
    """The family's kind bound to its coefficients, after validating both."""
    p = check_param(family, param)
    row = TABLE[family]
    return row.kind(*row.coeffs(p))


def _points(x, name: str, domain: str):
    """Coerce to a float array with every point in ``domain``; return
    (array, was_scalar)."""
    arr = np.asarray(x, dtype=float)
    a = np.atleast_1d(arr)
    if not _inside(a, domain).all():
        raise DomainError(f"{name} out of domain {domain}")
    return a, arr.ndim == 0


def _ret(out, scalar):
    return float(out[0]) if scalar else out


_MOVED = ("phi phi_prime phi_double_prime psi psi_prime psi_double_prime generator_ratio "
          "_derivative _t_strict ConditionReport _argmax_signed check_generator_conditions").split()


def __getattr__(name):
    """A name of ``_MOVED``, imported from ``generators`` on first use and kept (PEP 562)."""
    if name not in _MOVED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import generators

    value = globals()[name] = getattr(generators, name)
    return value
