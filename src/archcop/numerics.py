"""Shared numerical primitives with explicit tolerance contracts.

Adaptive Gauss-Kronrod quadrature and monotone bisection.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .families import DomainError


class ConvergenceError(RuntimeError):
    """A numerical routine failed to reach its requested tolerance."""


class BracketError(ValueError):
    """The root bracket does not contain the target value."""


@dataclass
class QuadratureResult:
    value: float
    abs_error_estimate: float
    evaluations: int
    converged: bool


@dataclass
class RootResult:
    root: float
    residual: float
    iterations: int
    converged: bool


# 15-point Kronrod extension of 7-point Gauss (positive half, centre last).
_XGK = np.array(
    [
        0.991455371120812639206854697526329,
        0.949107912342758524526189684047851,
        0.864864423359769072789712788640926,
        0.741531185599394439863864773280788,
        0.586087235467691130294144838258730,
        0.405845151377397166906606412076961,
        0.207784955007898467600689403773245,
        0.0,
    ]
)
_WGK = np.array(
    [
        0.022935322010529224963732008058970,
        0.063092092629978553290700663189204,
        0.104790010322250183839876322541518,
        0.140653259715525918745189590510238,
        0.169004726639267902826583426598550,
        0.190350578064785409913256402421014,
        0.204432940075298892414161999234649,
        0.209482141084727828012999174891714,
    ]
)
# 7-point Gauss weights, aligned with the odd Kronrod nodes + centre.
_WG = np.array(
    [
        0.129484966168869693270611432679082,
        0.279705391489276667901467771423780,
        0.381830050505118944950369775488975,
        0.417959183673469387755102040816327,
    ]
)

_FULL_X = np.concatenate([-_XGK[:-1], _XGK[::-1]])  # 15 ascending nodes
_FULL_WK = np.concatenate([_WGK[:-1], _WGK[::-1]])
_FULL_WG = np.zeros(15)
_FULL_WG[1:14:2] = np.concatenate([_WG[:-1], _WG[::-1][:4]])


def _gk15(f: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    """One Gauss-Kronrod 7-15 panel; returns (kronrod value, |K-G|)."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    fv = np.array([f(c + h * x) for x in _FULL_X])
    k = h * float(_FULL_WK @ fv)
    g = h * float(_FULL_WG @ fv)
    return k, abs(k - g)


def adaptive_quad(
    f: Callable[[float], float],
    a: float,
    b: float,
    abs_tol: float,
    max_evals: int = 1_000_000,
) -> QuadratureResult:
    """Integrate f over [a, b] by adaptive bisection of GK7-15 panels.

    The caller must supply finite one-sided limit values at singular
    endpoints; interior panel nodes never touch a or b.  On failure the
    best estimate is returned with ``converged=False``.
    """
    if not a < b:
        raise DomainError("require a < b")
    val, err = _gk15(f, a, b)
    evals = 15
    # max-heap on panel error; sequence number keeps ordering deterministic
    heap = [(-err, 0, a, b, val, err)]
    seq = 1
    while True:
        total_err = sum(item[5] for item in heap)
        if total_err <= abs_tol or evals + 30 > max_evals:
            break
        _, _, lo, hi, _, worst = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        v1, e1 = _gk15(f, lo, mid)
        v2, e2 = _gk15(f, mid, hi)
        evals += 30
        heapq.heappush(heap, (-e1, seq, lo, mid, v1, e1))
        heapq.heappush(heap, (-e2, seq + 1, mid, hi, v2, e2))
        seq += 2
        if worst == 0.0:  # cannot improve further
            break
    value = sum(item[4] for item in heap)
    total_err = sum(item[5] for item in heap)
    return QuadratureResult(
        value=value,
        abs_error_estimate=total_err,
        evaluations=evals,
        converged=total_err <= abs_tol,
    )


def bisect_monotone(
    g: Callable[[float], float],
    target: float,
    lo: float,
    hi: float,
    abs_tol: float,
    max_iter: int = 200,
) -> RootResult:
    """Solve g(x) = target for non-decreasing g on [lo, hi] by bisection.

    Halves the bracket every iteration; stops once the bracket width or
    the residual drops below ``abs_tol``.
    """
    if not lo < hi:
        raise DomainError("require lo < hi")
    glo = g(lo)
    ghi = g(hi)
    if not (glo <= target <= ghi):
        raise BracketError(
            f"target {target} outside bracket values [{glo}, {ghi}]"
        )
    iters = 0
    resid = np.inf
    mid = 0.5 * (lo + hi)
    while iters < max_iter:
        mid = 0.5 * (lo + hi)
        gm = g(mid)
        iters += 1
        resid = gm - target
        if abs(resid) <= abs_tol:
            # mid itself meets the residual contract; keep it as the root
            return RootResult(root=mid, residual=resid, iterations=iters,
                              converged=True)
        if gm < target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= abs_tol:
            break
    root = 0.5 * (lo + hi)
    converged = hi - lo <= abs_tol
    return RootResult(root=root, residual=g(root) - target, iterations=iters, converged=converged)


def bisect_monotone_batch(
    g: Callable[[np.ndarray], np.ndarray],
    targets: np.ndarray,
    lo: float,
    hi: float,
    abs_tol: float,
    max_iter: int = 200,
) -> np.ndarray:
    """Vectorised bisection: solve g(x_i) = targets_i elementwise.

    Same halving schedule as ``bisect_monotone``, applied to the whole
    batch at once; terminates when every bracket is narrower than
    ``abs_tol``.
    """
    t = np.asarray(targets, dtype=float)
    los = np.full_like(t, lo)
    his = np.full_like(t, hi)
    for _ in range(max_iter):
        mid = 0.5 * (los + his)
        up = g(mid) < t
        los = np.where(up, mid, los)
        his = np.where(up, his, mid)
        if float((his - los).max()) <= abs_tol:
            return 0.5 * (los + his)
    raise ConvergenceError("bisection batch did not converge")
