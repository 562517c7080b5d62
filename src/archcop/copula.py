"""Joint CDF, conditional partial derivative, and density of each family.

All three quantities come from the generator identity

    C(u, v) = psi(phi(u) + phi(v))
    dC/du   = psi'(phi(u) + phi(v)) * phi'(u)
    c(u, v) = psi''(phi(u) + phi(v)) * phi'(u) * phi'(v)

This module validates the arguments and answers on the boundary of the
unit square by exact branches.  The family's generator kind (see
``families``) evaluates each composition on interior points, in forms
that stay finite where phi, psi and their derivatives leave the double
range.
"""

from __future__ import annotations

import numpy as np

from .families import _ret, _unit, generator


def _broadcast_unit(u, v, *, open_u=False, open_v=False):
    uu, su = _unit(u, "u", open_interval=open_u)
    vv, sv = _unit(v, "v", open_interval=open_v)
    uu, vv = np.broadcast_arrays(uu, vv)
    return uu, vv, su and sv


def cdf(family: str, param: float | None, u, v):
    """Copula value C(u, v); symmetric in its arguments.

    Grounded and uniform-margin boundaries are exact branches: C is 0
    whenever a coordinate is 0, and equals the other coordinate whenever
    a coordinate is 1.
    """
    g = generator(family, param)
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
        out[m] = g.cdf(uu[m], vv[m])
    return _ret(out, scalar)


def partial_u(family: str, param: float | None, u, v):
    """Conditional distribution dC/du = P(V <= v | U = u), for u in (0,1).

    Equals 0 at v=0 and 1 at v=1 (exact branches); clipped to [0,1]
    against sub-ulp rounding excursions.
    """
    g = generator(family, param)
    uu, vv, scalar = _broadcast_unit(u, v, open_u=True)
    out = np.empty_like(uu)
    lo = vv == 0.0
    hi = vv == 1.0
    out[lo] = 0.0
    out[hi] = 1.0
    m = ~(lo | hi)
    if m.any():
        out[m] = g.partial_u(uu[m], vv[m])
    np.clip(out, 0.0, 1.0, out=out)
    return _ret(out, scalar)


def density(family: str, param: float | None, u, v):
    """Copula density c(u, v) at an interior point; non-negative."""
    g = generator(family, param)
    uu, vv, scalar = _broadcast_unit(u, v, open_u=True, open_v=True)
    return _ret(g.density(uu, vv), scalar)
