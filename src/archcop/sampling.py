"""Copula-distributed pair generation.

Two independent constructions are provided: conditional-distribution
inversion, which works for every family, and exact frailty sampling for
the ``f3`` family (the frailty variable is a sum of two independent
exponentials with rates 2*alpha and 3*alpha, whose Laplace transform is
exactly that family's inverse generator).

Conditional inversion solves dC/du(u, v) = q for v.  Each generator kind
turns that into one monotone equation in log space, with x = -ln u and
L = -ln q, which Newton's method solves for all pairs at once:

``LogPower(c, p)``
    With y = -ln v and w = (x**p + y**p)**(1/p), delta = ln(w/x) >= 0
    solves x*expm1(delta) + (p-1)*delta = L, a convex increasing
    function; then ln y = ln x + delta + ln(-expm1(-p*delta))/p.  The
    scale c cancels.
``Frailty``
    d = phi(v) >= 0 at alpha = 1 solves
    2*log1p(4d(s+d)/(24/u)) - log1p(2d/s) = L with s = sqrt(1 + 24/u), a
    concave increasing function (its left side is -ln dC/du); then
    v = psi(d) = 6/((d+2)(d+3)).  The copula does not depend on alpha.

Randomness comes from the counter-based Philox 4x64 bit generator keyed
by the user seed; every pair consumes a fixed-width slot of the stream,
so a batch is reproducible byte-for-byte from (family, alpha, n, seed,
method) and independent of any internal evaluation order.  Exponential
draws use inverse-CDF (-log1p(-U)) for cross-platform reproducibility.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import csvtext
from .families import DomainError, F3, LogPower, check_param, generator, psi
from .numerics import ConvergenceError

_EPS = 1e-15
# Newton steps per inversion; only a backstop, since the monotone stopping
# test ends every solve (in at most 12 steps on a grid of u and q over
# [1e-15, 1 - 1e-15] for f1, gumbel and f3).
_NEWTON_CAP = 100

CONDITIONAL = "conditional"
FRAILTY = "frailty"


@dataclass
class SampleBatch:
    pairs: np.ndarray  # (n, 2), every coordinate strictly inside (0,1)
    family: str
    alpha: float | None
    seed: int
    method: str

    def to_csv(self, out=None) -> str | None:
        """The pairs as CSV text (see ``csvtext``) under a ``u,v`` header:
        written to the text stream ``out`` block by block, or returned
        whole when there is no ``out``."""
        text = csvtext.table("u,v", self.pairs[:, 0], self.pairs[:, 1])
        if out is None:
            return "".join(text)
        out.writelines(text)
        return None


def _rng(seed: int) -> np.random.Generator:
    if not 0 <= seed < 2**128:
        raise DomainError("seed out of domain [0, 2**128)")
    return np.random.Generator(np.random.Philox(key=int(seed)))


def mbur_pdf(y, alpha: float):
    """Density of the unit-interval base law: (6/a^2)(1 - y^(1/a^2)) y^(2/a^2 - 1)."""
    if not alpha > 0.0:
        raise DomainError("alpha out of domain (0,inf)")
    yy = np.asarray(y, dtype=float)
    if ((yy <= 0.0) | (yy >= 1.0)).any():
        raise DomainError("y out of domain (0,1)")
    b = 1.0 / (alpha * alpha)
    out = 6.0 * b * (1.0 - yy**b) * yy ** (2.0 * b - 1.0)
    return float(out) if np.isscalar(y) else out


def frailty_pdf(w, alpha: float):
    """Frailty density 6a(1 - e^(-aw)) e^(-2aw) on (0, inf).

    This is the image of ``mbur_pdf`` under w = -ln(y)/a^3 and equals the
    hypoexponential density with rates 2a and 3a.
    """
    if not alpha > 0.0:
        raise DomainError("alpha out of domain (0,inf)")
    ww = np.asarray(w, dtype=float)
    if (ww <= 0.0).any():
        raise DomainError("w out of domain (0,inf)")
    out = 6.0 * alpha * (1.0 - np.exp(-alpha * ww)) * np.exp(-2.0 * alpha * ww)
    return float(out) if np.isscalar(w) else out


def sample_frailty(alpha: float, rng: np.random.Generator, size=None):
    """Draw the frailty variable: E1/(2a) + E2/(3a), E_i unit exponentials.

    The Laplace transform of this law is 6a^2/((t+2a)(t+3a)), i.e. the
    ``f3`` inverse generator, which is what makes frailty sampling exact.
    """
    if not alpha > 0.0:
        raise DomainError("alpha out of domain (0,inf)")
    n = 1 if size is None else int(size)
    u = rng.random((n, 2))
    e = -np.log1p(-u)
    gamma = e[:, 0] / (2.0 * alpha) + e[:, 1] / (3.0 * alpha)
    return float(gamma[0]) if size is None else gamma


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


def _log_power_v(p: float, u, L):
    """v with dC/du(u, v) = exp(-L) for the log-power kind of exponent p.

    Newton steps on the convex increasing x*expm1(d) + (p-1)*d - L fall
    monotonically from the upper bound min(log1p(L/x), L/(p-1)), which is
    the root itself at p = 1.
    """
    x = -np.log(u)
    d = np.log1p(L / x)
    if p > 1.0:
        d = np.minimum(d, L / (p - 1.0))

    def residual(d):
        e = np.expm1(d)
        return x * e + (p - 1.0) * d - L, x * (e + 1.0) + (p - 1.0)

    d = _monotone_newton(residual, d, -1.0)
    return np.exp(-np.exp(np.log(x) + d + np.log(-np.expm1(-p * d)) / p))


def _frailty_v(u, L):
    """v with dC/du(u, v) = exp(-L) for ``f3``, solved at alpha = 1.

    Newton steps on the concave increasing residual in d = phi(v) rise
    monotonically from d = 0.  The residual is -(L + ln dC/du) in closed
    form, in d itself: phi(u) + d, whose rounding would swamp a small d,
    is never formed.
    """
    k = 24.0 / u
    s = np.sqrt(1.0 + k)

    def residual(d):
        e = 4.0 * d * (s + d)
        return (2.0 * np.log1p(e / k) - np.log1p(2.0 * d / s) - L,
                8.0 * (s + 2.0 * d) / (k + e) - 2.0 / (s + 2.0 * d))

    d = _monotone_newton(residual, np.zeros_like(u), 1.0)
    return 6.0 / ((d + 2.0) * (d + 3.0))


def _conditional_v(g, u, q):
    """v in (0, 1) with dC/du(u, v) = q, for the validated kind ``g`` and
    u, q in [1e-15, 1 - 1e-15]."""
    L = -np.log(q)
    return _log_power_v(g.p, u, L) if isinstance(g, LogPower) else _frailty_v(u, L)


def sample_conditional(family: str, param: float | None, n: int, seed: int) -> SampleBatch:
    """Sample n pairs by conditional inversion: u ~ U(0,1) and q ~ U(0,1),
    both clipped to [1e-15, 1 - 1e-15], then v solves dC/du(u, v) = q
    by the generator kind's Newton iteration (see the module docstring).

    Raises ``ConvergenceError`` if the iteration does not settle within
    its step cap.
    """
    g = generator(family, param)
    if n < 1:
        raise DomainError("n must be >= 1")
    rng = _rng(seed)
    draws = rng.random((n, 2))
    u = np.clip(draws[:, 0], _EPS, 1.0 - _EPS)
    v = _conditional_v(g, u, np.clip(draws[:, 1], _EPS, 1.0 - _EPS))
    v = np.clip(v, _EPS, 1.0 - _EPS)
    return SampleBatch(
        pairs=np.column_stack([u, v]),
        family=family,
        alpha=param,
        seed=int(seed),
        method=CONDITIONAL,
    )


def sample_frailty_copula(alpha: float, n: int, seed: int) -> SampleBatch:
    """Sample n pairs from the ``f3`` family by the frailty construction:
    draw gamma, then (psi(E1/gamma), psi(E2/gamma)) with fresh unit
    exponentials E1, E2."""
    check_param(F3, alpha)
    if n < 1:
        raise DomainError("n must be >= 1")
    rng = _rng(seed)
    draws = rng.random((n, 4))
    e = -np.log1p(-draws)
    gamma = e[:, 0] / (2.0 * alpha) + e[:, 1] / (3.0 * alpha)
    u = psi(F3, alpha, e[:, 2] / gamma)
    v = psi(F3, alpha, e[:, 3] / gamma)
    pairs = np.clip(np.column_stack([u, v]), _EPS, 1.0 - _EPS)
    return SampleBatch(
        pairs=pairs, family=F3, alpha=float(alpha), seed=int(seed), method=FRAILTY
    )
