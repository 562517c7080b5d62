"""Independent oracles used by the test suite.

These deliberately avoid the production code paths they check: the
reduced f3 form is hand-derived algebra, the finite-difference helpers
differentiate the CDF directly, and the Gumbel references evaluate the
closed form directly rather than through the generator composition.
"""

import mpmath
import numpy as np

from archcop.copula import _broadcast_unit
from archcop.families import DomainError, _ret


def f3_reduced_cdf(u, v):
    """Parameter-free closed form of the frailty family CDF.

    24 / ((s_u + s_v - 6)(s_u + s_v - 4)) with s_x = sqrt(1 + 24/x);
    the dependence parameter cancels algebraically.
    """
    su = np.sqrt(1.0 + 24.0 / u)
    sv = np.sqrt(1.0 + 24.0 / v)
    s = su + sv
    return 24.0 / ((s - 6.0) * (s - 4.0))


def central_first(f, x, h=1e-6):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def central_second(f, x, h=5e-4):
    # h balances O(h^2) truncation against eps/h^2 cancellation noise
    return (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)


def concordance_diff_bruteforce(x, y):
    """(#concordant - #discordant) over all i < j pairs, ties counting 0,
    by comparing every pair: the O(n^2) definition, in exact integers."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    total = 0
    for i in range(x.size - 1):
        signs = np.sign(x[i + 1 :] - x[i]) * np.sign(y[i + 1 :] - y[i])
        total += int(signs.sum())
    return total


def central_mixed_second(f, u: float, v: float, h: float) -> float:
    """Mixed second difference (d2/dudv) of f at (u, v) with step h.

    The 2x2 stencil must stay strictly inside the open unit square.
    """
    if not (0.0 < u - h and u + h < 1.0 and 0.0 < v - h and v + h < 1.0):
        raise DomainError("finite-difference stencil leaves (0,1)^2")
    return (
        f(u + h, v + h) - f(u + h, v - h) - f(u - h, v + h) + f(u - h, v - h)
    ) / (4.0 * h * h)


def reference_gumbel_cdf(theta: float, u, v):
    """Gumbel copula exp(-[(-ln u)^theta + (-ln v)^theta]^(1/theta)).

    Independent oracle: evaluated directly, not through the generic
    generator path, so it can cross-check ``cdf``.
    """
    if theta is None or not theta >= 1.0:
        raise DomainError("theta out of domain [1,inf) for family 'gumbel'")
    uu, vv, scalar = _broadcast_unit(u, v)
    out = np.empty_like(uu)
    zero = (uu == 0.0) | (vv == 0.0)
    out[zero] = 0.0
    uedge = (vv == 1.0) & ~zero
    out[uedge] = uu[uedge]
    vedge = (uu == 1.0) & ~zero & ~uedge
    out[vedge] = vv[vedge]
    m = ~(zero | uedge | vedge)
    if m.any():
        a = (-np.log(uu[m])) ** theta
        b = (-np.log(vv[m])) ** theta
        out[m] = np.exp(-((a + b) ** (1.0 / theta)))
    return _ret(out, scalar)


def gumbel_mp(theta, u, v):
    """(C, dC/du, c) of the Gumbel copula at (u, v), to 50 digits.

    The textbook closed forms in S = x^theta + y^theta, x = -ln u,
    y = -ln v, evaluated in mpmath on the exact double inputs, with none
    of the production code's factoring of the larger term:
    C = exp(-S^(1/theta)), dC/du = C/u * x^(theta-1) * S^(1/theta - 1),
    c = C/(u v) * (x y)^(theta-1) * S^(2/theta - 2) * (1 + (theta-1) S^(-1/theta)).
    """
    with mpmath.workdps(50):
        t, u, v = mpmath.mpf(theta), mpmath.mpf(u), mpmath.mpf(v)
        x, y = -mpmath.log(u), -mpmath.log(v)
        s = x**t + y**t
        c = mpmath.exp(-(s ** (1 / t)))
        du = c / u * x ** (t - 1) * s ** (1 / t - 1)
        pdf = c / (u * v) * (x * y) ** (t - 1) * s ** (2 / t - 2) * (1 + (t - 1) * s ** (-1 / t))
        return c, du, pdf
