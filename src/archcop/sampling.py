"""Copula-distributed pair generation.

Two independent constructions are provided: conditional-distribution
inversion, which works for every family, and exact frailty sampling for
the ``f3`` family (the frailty variable is a sum of two independent
exponentials with rates 2*alpha and 3*alpha, whose Laplace transform is
exactly that family's inverse generator).

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
from .copula import partial_u
from .families import DomainError, F3, check_param, psi
from .numerics import bisect_monotone_batch

_EPS = 1e-15
_INV_TOL = 1e-10

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


def sample_conditional(family: str, param: float | None, n: int, seed: int) -> SampleBatch:
    """Sample n pairs by conditional inversion: u ~ U(0,1), then solve
    dC/du(u, v) = p for v with vectorised bisection (tolerance 1e-10)."""
    check_param(family, param)
    if n < 1:
        raise DomainError("n must be >= 1")
    rng = _rng(seed)
    draws = rng.random((n, 2))
    u = np.clip(draws[:, 0], _EPS, 1.0 - _EPS)
    targets = np.clip(draws[:, 1], _EPS, 1.0 - _EPS)
    v = bisect_monotone_batch(
        lambda vv: partial_u(family, param, u, vv), targets, 0.0, 1.0, _INV_TOL
    )
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
