"""Joint CDF, conditional partial derivative, and density of each family.

All three quantities come from the generator identity

    C(u, v) = psi(phi(u) + phi(v))
    dC/du   = psi'(phi(u) + phi(v)) * phi'(u)
    c(u, v) = psi''(phi(u) + phi(v)) * phi'(u) * phi'(v)

This module validates the arguments and answers on the edge of the unit
square by one exact rule, C(u, v) = min(u, v), which is what a grounded
copula with uniform margins is there.  The family's generator kind (see
``families``) evaluates each composition on interior points, in forms
that stay finite where phi, psi and their derivatives leave the double
range.
"""

from __future__ import annotations

import numpy as np

from .families import _points, _ret, generator


def _broadcast_unit(u, v, u_domain="[0,1]", v_domain="[0,1]"):
    uu, su = _points(u, "u", u_domain)
    vv, sv = _points(v, "v", v_domain)
    uu, vv = np.broadcast_arrays(uu, vv)
    return uu, vv, su and sv


def _cdf(g, uu, vv):
    """``cdf`` at checked points of one shape, by the kind ``g`` inside."""
    out = np.minimum(uu, vv)
    out += 0.0  # -0.0 prints as 0.0
    m = (0.0 < uu) & (uu < 1.0) & (0.0 < vv) & (vv < 1.0)
    out[m] = g.cdf(uu[m], vv[m])
    return out


def cdf(family: str, param: float | None, u, v):
    """Copula value C(u, v); symmetric in its arguments.

    On the edge of the unit square C(u, v) = min(u, v) exactly: C is
    grounded (0 where a coordinate is 0) and has uniform margins (the
    other coordinate where one is 1).
    """
    g = generator(family, param)
    uu, vv, scalar = _broadcast_unit(u, v)
    return _ret(_cdf(g, uu, vv), scalar)


def partial_u(family: str, param: float | None, u, v):
    """Conditional distribution dC/du = P(V <= v | U = u), for u in (0,1).

    Equals v exactly where v is 0 or 1; clipped to [0,1] against sub-ulp
    rounding excursions.
    """
    g = generator(family, param)
    uu, vv, scalar = _broadcast_unit(u, v, "(0,1)")
    out = vv + 0.0  # a copy, with -0.0 as 0.0
    m = (0.0 < vv) & (vv < 1.0)
    out[m] = g.partial_u(uu[m], vv[m])
    np.clip(out, 0.0, 1.0, out=out)
    return _ret(out, scalar)


def density(family: str, param: float | None, u, v):
    """Copula density c(u, v) at an interior point; non-negative."""
    g = generator(family, param)
    uu, vv, scalar = _broadcast_unit(u, v, "(0,1)", "(0,1)")
    return _ret(g.density(uu, vv), scalar)
