"""Joint CDF, conditional partial derivative, and density of each family.

All three quantities come from the generator identity

    C(u, v) = psi(phi(u) + phi(v))
    dC/du   = psi'(phi(u) + phi(v)) * phi'(u)
    c(u, v) = psi''(phi(u) + phi(v)) * phi'(u) * phi'(v)

with exact short-circuit branches on the boundary of the unit square.
``f3``'s copula does not depend on alpha, so it is composed at alpha = 1:
its cdf exactly so, and dC/du and the density in closed form in
s = sqrt(1 + 24/z) and S = s_u + s_v,

    dC/du   = (S-5)/s_u * [(s_u-1)/(S-6) * (s_u+1)/(S-4)]**2
    c(u, v) = (3(S-5)**2 + 1)/48 * [(s_u**2-1)(s_v**2-1)]**2
              / (((S-6)(S-4))**3 * s_u * s_v)

evaluated as products of ratios of order one, so they stay finite where
psi'(t) and phi'(u) under- and overflow (u below about 1e-150).

``f1``, ``f2``, ``gumbel`` and ``independence`` share the log-power kind
phi = (c*(-ln z))**p, whose compositions are the Gumbel closed forms in
log space: with x = -ln u, y = -ln v, big = max(x, y),
r = min(x, y)/big and w = big*(1 + r**p)**(1/p),

    C(u, v) = exp(-w)
    dC/du   = exp(x - w) * (x/w)**(p-1)
    c(u, v) = exp(x + y - w) * ((x/w)*(y/w))**(p-1) * (1 + (p-1)/w)

which stay finite where phi itself under- or overflows double precision
(the density takes its first two factors as one exp of summed logs).
"""

from __future__ import annotations

import numpy as np

from .families import Frailty, LogPower, _frailty_s, _ret, _unit, generator, psi_closed


def _kind(family: str, param: float | None):
    """The family's validated generator; ``f3``'s at alpha = 1, because
    its copula does not depend on alpha and alpha = 1 needs no scaling."""
    g = generator(family, param)
    return g if isinstance(g, LogPower) else Frailty(1.0)


def _broadcast_unit(u, v, *, open_u=False, open_v=False):
    uu, su = _unit(u, "u", open_interval=open_u)
    vv, sv = _unit(v, "v", open_interval=open_v)
    uu, vv = np.broadcast_arrays(uu, vv)
    return uu, vv, su and sv


def _log_power_w(p: float, uu, vv):
    """x, y and w = (x^p + y^p)^(1/p), factored by the larger term.

    The generator scale c cancels in the compositions, and factoring out
    the larger of x and y keeps the sum finite for exponents where
    (-c ln z)^p itself under- or overflows double precision.
    """
    x = -np.log(uu)
    y = -np.log(vv)
    big = np.maximum(x, y)
    r = np.minimum(x, y) / big
    return x, y, big * np.exp(np.log1p(r**p) / p)


def cdf(family: str, param: float | None, u, v):
    """Copula value C(u, v); symmetric in its arguments.

    Grounded and uniform-margin boundaries are exact branches: C is 0
    whenever a coordinate is 0, and equals the other coordinate whenever
    a coordinate is 1.
    """
    g = _kind(family, param)
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
        a, b = uu[m], vv[m]
        if isinstance(g, LogPower):
            out[m] = np.exp(-_log_power_w(g.p, a, b)[2])
        else:
            out[m] = psi_closed(g, g.phi(a) + g.phi(b))
    return _ret(out, scalar)


def partial_u(family: str, param: float | None, u, v):
    """Conditional distribution dC/du = P(V <= v | U = u), for u in (0,1).

    Equals 0 at v=0 and 1 at v=1 (exact branches); clipped to [0,1]
    against sub-ulp rounding excursions.
    """
    g = _kind(family, param)
    uu, vv, scalar = _broadcast_unit(u, v, open_u=True)
    out = np.empty_like(uu)
    lo = vv == 0.0
    hi = vv == 1.0
    out[lo] = 0.0
    out[hi] = 1.0
    m = ~(lo | hi)
    if m.any():
        a, b = uu[m], vv[m]
        if isinstance(g, LogPower):
            x, _, w = _log_power_w(g.p, a, b)
            out[m] = np.exp(x - w) * (x / w) ** (g.p - 1.0)
        else:
            su = _frailty_s(a)
            ss = su + _frailty_s(b)
            au = (su - 1.0) / (ss - 6.0)
            bu = (su + 1.0) / (ss - 4.0)
            out[m] = (ss - 5.0) / su * au * bu * (au * bu)
    np.clip(out, 0.0, 1.0, out=out)
    return _ret(out, scalar)


def density(family: str, param: float | None, u, v):
    """Copula density c(u, v) at an interior point; non-negative."""
    g = _kind(family, param)
    uu, vv, scalar = _broadcast_unit(u, v, open_u=True, open_v=True)
    if isinstance(g, LogPower):
        p = g.p
        x, y, w = _log_power_w(p, uu, vv)
        # one exp of the summed logs: the factors exp(x + y - w) and
        # ((x/w)*(y/w))**(p-1) can over- and underflow where c does not
        out = np.exp(x + y - w + (p - 1.0) * np.log((x / w) * (y / w))) * (1.0 + (p - 1.0) / w)
    else:
        su, sv = _frailty_s(uu), _frailty_s(vv)
        ss = su + sv
        # (3(S-5)**2 + 1)/((S-6)(S-4)) = 3 + 4/((S-6)(S-4)), and
        # (s**2 - 1)/s = s - 1/s; each group below, and each partial
        # product in it, lies between min(s_u, s_v)**2/S and min(s_u, s_v)
        head = (3.0 + 4.0 / (ss - 6.0) / (ss - 4.0)) / 48.0
        gu = (sv - 1.0) / (ss - 6.0) * (su - 1.0 / su) * ((sv + 1.0) / (ss - 4.0))
        gv = (su - 1.0) / (ss - 6.0) * (sv - 1.0 / sv) * ((su + 1.0) / (ss - 4.0))
        out = head * gu * gv
    return _ret(out, scalar)
