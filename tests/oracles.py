"""Independent oracles used by the test suite.

These deliberately avoid the production code paths they check: the
reduced f3 form is hand-derived algebra, the finite-difference helpers
differentiate the CDF directly, the Gumbel references evaluate the
closed form directly rather than through the generator composition, the
f3 references compose the generator in mpmath rather than use the closed
forms in s = sqrt(1 + 24/z), the conditional root bisects dC/du in v
rather than solve the sampler's log-space equations, and the CSV
references format element by element, without ``csvtext``.  The frailty
law's densities and its draw check the ``f3`` frailty construction from
outside the sampler.  The whole-lattice audit and the whole-batch
samplers do at once what the library does a strip or a block at a time,
and the stdin reader parses every line before it checks any pair.
"""

import io

import mpmath
import numpy as np

from archcop import cdf, density, phi
from archcop.diagnostics import (BOUNDARY_TOL, CELL_VOLUME_TOL, MARGIN_TOL, SINGULARITY_TOL,
                                 ValidityReport, singularity_limit)
from archcop.families import DomainError, Frailty, check_generator_conditions, generator


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


def concordance_counts_bruteforce(x, y):
    """Each pair's c_i = sum_j sign(x_i - x_j) * sign(y_i - y_j), ties
    counting 0, by comparing it with every pair: O(n^2), exact integers."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return np.array([int((np.sign(x[i] - x) * np.sign(y[i] - y)).sum())
                     for i in range(x.size)], dtype=np.int64)


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
    uu, vv = (np.atleast_1d(np.asarray(x, dtype=float)) for x in (u, v))
    for name, x in (("u", uu), ("v", vv)):
        if not np.all((0.0 <= x) & (x <= 1.0)):
            raise DomainError(f"{name} out of domain [0,1]")
    scalar = np.ndim(u) == 0 and np.ndim(v) == 0
    uu, vv = np.broadcast_arrays(uu, vv)
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
    return float(out[0]) if scalar else out


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


def log_power_theta(family, param):
    """The Gumbel theta of a log-power family: f1 1/alpha, f2 1/alpha**2."""
    return {"f1": lambda a: 1.0 / a, "f2": lambda a: 1.0 / (a * a),
            "gumbel": float, "independence": lambda _: 1.0}[family](param)


def f3_mp(u, v):
    """(dC/du, c) of the f3 copula at (u, v), to 50 digits.

    The generator composition psi'(t)*phi'(u) and psi''(t)*phi'(u)*phi'(v),
    t = phi(u) + phi(v), at alpha = 1 and in mpmath on the exact double
    inputs, with none of the production code's closed forms in
    s = sqrt(1 + 24/z).
    """
    with mpmath.workdps(50):
        u, v = mpmath.mpf(u), mpmath.mpf(v)
        t = sum((mpmath.sqrt(1 + 24 / z) - 5) / 2 for z in (u, v))
        q = (t + 2) * (t + 3)
        dphi_u, dphi_v = (-6 / (z * z * mpmath.sqrt(1 + 24 / z)) for z in (u, v))
        return -6 * (2 * t + 5) / q**2 * dphi_u, 12 * ((2 * t + 5) ** 2 - q) / q**3 * dphi_u * dphi_v


def frailty_psi_derivatives_mp(a, t):
    """(psi'(t), psi''(t)) of the f3 inverse generator
    psi(t) = 6a**2/q, q = (t + 2a)(t + 3a), to 50 digits: the quotient
    rule's -6a**2 q'/q**2 and 6a**2 (2q'**2 - q q'')/q**3 with q' = 2t + 5a
    and q'' = 2, unfactored."""
    with mpmath.workdps(50):
        a, t = mpmath.mpf(a), mpmath.mpf(t)
        q = (t + 2 * a) * (t + 3 * a)
        dq = 2 * t + 5 * a
        return -6 * a * a * dq / q**2, 6 * a * a * (2 * dq * dq - 2 * q) / q**3


def frailty_phi_mp(a, z):
    """(phi, phi', phi'') of the f3 generator at z, to 50 digits: the
    textbook a/2*(s - 5), -6a/(z**2 s) and 12a/(z**3 s) - 72a/(z**4 s**3),
    s = sqrt(1 + 24/z), in mpmath on the exact double inputs."""
    with mpmath.workdps(50):
        a, z = mpmath.mpf(a), mpmath.mpf(z)
        s = mpmath.sqrt(1 + 24 / z)
        return a / 2 * (s - 5), -6 * a / (z**2 * s), 12 * a / (z**3 * s) - 72 * a / (z**4 * s**3)


def log_power_phi_mp(c, p, z):
    """(phi', phi'') of the log-power generator (c*x)**p, x = -ln z, at z,
    to 50 digits: the textbook -p*c*(c*x)**(p-1)/z and
    p*c**2*(c*x)**(p-2)*(p - 1 + x)/z**2 in mpmath on the exact double
    inputs, with none of the production code's log forms."""
    with mpmath.workdps(50):
        c, p, z = mpmath.mpf(c), mpmath.mpf(p), mpmath.mpf(z)
        x = -mpmath.log(z)
        return (-p * c * (c * x) ** (p - 1) / z,
                p * c * c * (c * x) ** (p - 2) * (p - 1 + x) / z**2)


def log_power_psi_mp(c, p, t):
    """(psi', psi'') of the log-power inverse generator exp(-t**r/c),
    r = 1/p, at t, to 50 digits: the textbook -(r/c)*t**(r-1)*E and
    (r/c)**2*t**(2r-2)*E + (r/c)*(1-r)*t**(r-2)*E, E = exp(-t**r/c), in
    mpmath on the exact double inputs, with none of the production code's
    log forms."""
    with mpmath.workdps(50):
        c, p, t = mpmath.mpf(c), mpmath.mpf(p), mpmath.mpf(t)
        r = 1 / p
        e = mpmath.exp(-(t**r) / c)
        return (-(r / c) * t ** (r - 1) * e,
                (r / c) ** 2 * t ** (2 * r - 2) * e + (r / c) * (1 - r) * t ** (r - 2) * e)


def frailty_psi_mp(a, t):
    """psi(t) = 6a**2/((t + 2a)(t + 3a)) of f3, to 50 digits."""
    with mpmath.workdps(50):
        a, t = mpmath.mpf(a), mpmath.mpf(t)
        return 6 * a * a / ((t + 2 * a) * (t + 3 * a))


def f3_cdf_mp(u, v):
    """C(u, v) of f3, psi(phi(u) + phi(v)) at alpha = 1, to 50 digits."""
    with mpmath.workdps(50):
        t = sum((mpmath.sqrt(1 + 24 / mpmath.mpf(z)) - 5) / 2 for z in (u, v))
        return 6 / ((t + 2) * (t + 3))


def frailty_ratio_mp(z):
    """phi(z)/phi'(z) of the f3 generator, to 50 digits: the quotient of
    the textbook forms of ``frailty_phi_mp`` at alpha = 1."""
    phi_z, dphi, _ = frailty_phi_mp(1, z)
    with mpmath.workdps(50):
        return phi_z / dphi


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


def conditional_root_mp(family, param, u, q):
    """The v in (0, 1) with dC/du(u, v) = q, to 50 digits.

    Bisects v itself over [0, 1] for 64 steps (to 5e-20), evaluating
    dC/du by the textbook forms of ``gumbel_mp`` and ``f3_mp`` rather than
    by the equation the sampler solves.
    """
    if family == "f3":
        du = lambda v: f3_mp(u, v)[0]  # noqa: E731
    else:
        theta = log_power_theta(family, param)
        du = lambda v: gumbel_mp(theta, u, v)[1]  # noqa: E731
    with mpmath.workdps(50):
        lo, hi = mpmath.mpf(0), mpmath.mpf(1)
        for _ in range(64):
            mid = (lo + hi) / 2
            if du(mid) < q:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2


def grid_csv_loops(family, param, what: str, n: int) -> str:
    """Reference text of ``archcop grid``: one ``float(x)!r`` per element
    and the rows joined at the end, with none of ``csvtext``'s blocks,
    labels or ``tolist()``."""
    lines = []
    if what == "generator":
        z = (np.arange(n) + 0.5) / n
        lines.append("z,phi")
        for zi, fi in zip(z.tolist(), phi(family, param, z).tolist()):
            lines.append(f"{zi!r},{fi!r}")
    else:
        if what == "cdf":
            pts = np.linspace(0.0, 1.0, n + 1)
            fn = cdf
        else:
            pts = (np.arange(n) + 0.5) / n
            fn = density
        lines.append("u,v,value")
        for u in pts:
            vals = fn(family, param, np.full(pts.shape, u), pts)
            for v, w in zip(pts, np.atleast_1d(vals)):
                lines.append(f"{float(u)!r},{float(v)!r},{float(w)!r}")
    return "\n".join(lines) + "\n"


def pairs_csv_loop(pairs) -> str:
    """Reference text of ``SampleBatch.to_csv``: one ``float(x)!r`` per
    element, in a loop over the rows of ``pairs``."""
    lines = ["u,v\n"]
    for u, v in pairs:
        lines.append(f"{float(u)!r},{float(v)!r}\n")
    return "".join(lines)


class LineCountingStream(io.StringIO):
    """A text stream that records how many lines each write carried."""

    def __init__(self):
        super().__init__()
        self.lines = []

    def write(self, text):
        self.lines.append(text.count("\n"))
        return super().write(text)


def grid_validity_report_whole(family, param, grid_n: int) -> ValidityReport:
    """Reference of ``grid_validity_report``: C on the whole (grid_n+1)^2
    lattice in one array, its edges and cell volumes read from it."""
    gen = generator(family, param)
    g = np.linspace(0.0, 1.0, grid_n + 1)
    C = cdf(family, param, g[:, None], g)
    boundary = max(float(np.abs(C[0, :]).max()), float(np.abs(C[:, 0]).max()))
    margin = max(float(np.abs(C[-1, :] - g).max()), float(np.abs(C[:, -1] - g).max()))
    vol = C[1:, 1:] - C[1:, :-1] - C[:-1, 1:] + C[:-1, :-1]
    min_vol = float(vol.min())
    probes = [(float(x), float(gen.ratio(x))) for x in 10.0 ** -np.arange(3, 10)]
    conditions = check_generator_conditions(family, param, 64)
    passed = {
        "grounded": boundary <= BOUNDARY_TOL,
        "margins": margin <= MARGIN_TOL,
        "two_increasing": min_vol >= CELL_VOLUME_TOL,
        "no_singular_part": abs(singularity_limit(family, param)) <= SINGULARITY_TOL,
        "generator_conditions": conditions.all_passed,
    }
    tolerances = {"grounded": BOUNDARY_TOL, "margins": MARGIN_TOL,
                  "two_increasing": CELL_VOLUME_TOL, "no_singular_part": SINGULARITY_TOL}
    return ValidityReport(family, param, grid_n, boundary, margin, min_vol, probes,
                          conditions, passed, tolerances)


def _philox(n: int, width: int, seed: int) -> np.ndarray:
    """The first n * width draws of numpy's Philox stream for ``seed``: the
    reference for the samplers' own Philox4x64-10."""
    return np.random.Generator(np.random.Philox(key=seed)).random((n, width))


def sample_conditional_whole(family, param, n: int, seed: int) -> np.ndarray:
    """Reference pairs of ``sample_conditional``: all n draws at once and
    one Newton solve over all of them."""
    draws = _philox(n, 2, seed)
    u = np.clip(draws[:, 0], 1e-15, 1.0 - 1e-15)
    L = -np.log(np.clip(draws[:, 1], 1e-15, 1.0 - 1e-15))
    v = np.clip(generator(family, param).conditional_v(u, L), 1e-15, 1.0 - 1e-15)
    return np.column_stack([u, v])


def sample_frailty_copula_whole(n: int, seed: int) -> np.ndarray:
    """Reference pairs of ``sample_frailty_copula``: all n draws at once."""
    e = -np.log1p(-_philox(n, 4, seed))
    gamma = e[:, 0] / 2.0 + e[:, 1] / 3.0
    psi = Frailty(1.0).psi
    return np.clip(np.column_stack([psi(e[:, 2] / gamma), psi(e[:, 3] / gamma)]),
                   1e-15, 1.0 - 1e-15)


def read_pairs_loop(stream) -> np.ndarray:
    """Reference of ``cli._read_pairs``: every line parsed into a list of
    tuples, then one array and one range check over all of them."""
    rows = []
    numbers = []  # the input line of each row
    for number, line in enumerate(stream, 1):
        line = line.strip()
        if not line or line.startswith("u,"):
            continue
        try:
            u, v = line.split(",")
            rows.append((float(u), float(v)))
        except ValueError:
            raise DomainError(
                f"line {number}: expected two comma-separated numbers, got {line!r}"
            ) from None
        numbers.append(number)
    if not rows:
        raise DomainError("no pairs on standard input")
    pairs = np.asarray(rows)
    outside = np.flatnonzero(~((pairs >= 0.0) & (pairs <= 1.0)).all(axis=1))
    if outside.size:
        k = int(outside[0])
        raise DomainError(f"line {numbers[k]}: pair {rows[k]} is outside [0, 1]")
    return pairs
