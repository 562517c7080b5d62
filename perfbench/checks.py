"""Reference values and output checkers for the archcop CLI benchmark.

Nothing here imports archcop.  Every reference is either a closed form
written out from the published formulas (the Gumbel reduction of f1 and
f2, the alpha-free reduced form of f3, u*v for independence), a
hand-derived derivative of one, an mpmath integral, or the benchmark's
own exact concordance count.  Each checker returns a list of problems;
an empty list means the output passed.

Tolerances, and where they come from:

* CDF values: absolute error at most ``CDF_ABS_TOL`` = 2**-43 (about
  1.1e-13, 512 ulps of 1.0).  Both sides evaluate a handful of
  logarithms, powers and square roots, each within a few ulps, so
  honest results differ by a few 1e-16; a result off by 1e-9 fails.
* Densities, generator values: relative error at most ``REL_TOL`` = 1e-11.
  The powers (-ln u)**theta amplify the relative error of ln u by theta
  (at most 1/0.6**2, about 2.8, in these workloads) and the rest adds a
  few ulps; on the 1000^2 pdf lattice the largest error seen is 7e-15.
* Quadrature tau: the program integrates to an absolute tolerance of
  1e-9, so tau = 1 + 4*I may be off by 4e-9 (``QUAD_TAU_TOL``).
* MC tau: the estimate must equal the exact tau-a of the very same pairs,
  an integer ratio that both sides round once, so they must agree to one
  ulp (``MC_TAU_ULPS``).
* Samples: each margin must pass a one-sample KS test against U(0,1) at
  significance ``KS_ALPHA`` = 1e-9, and the sample tau must lie within
  ``TAU_SIGMAS`` = 6 estimated standard errors of the closed form (a
  two-sided normal tail of 2e-9).  A sampler that is right fails either
  test about once in 1e9 tests.
"""

from __future__ import annotations

import functools
import json
import math

import numpy as np

CDF_ABS_TOL = 2.0**-43
REL_TOL = 1e-11
QUAD_TAU_TOL = 4e-9
MC_TAU_ULPS = 1
KS_ALPHA = 1e-9
TAU_SIGMAS = 6.0
AUDIT_TOL = 1e-12  # the audit's own pass thresholds, as documented


# ---------------------------------------------------------------- parsing


def parse_csv(data: bytes, header: str, ncols: int) -> np.ndarray:
    """Parse the CLI's CSV output into an (rows, ncols) float array."""
    text = data.decode("ascii")
    first, _, body = text.partition("\n")
    if first != header:
        raise ValueError(f"header {first!r} != {header!r}")
    if not text.endswith("\n"):
        raise ValueError("output does not end with a newline")
    values = np.array(body.replace(",", "\n").split(), dtype=float)
    if values.size % ncols or values.size // ncols != body.count("\n"):
        raise ValueError("ragged CSV rows")
    return values.reshape(-1, ncols)


def parse_json(data: bytes) -> dict:
    lines = data.decode("ascii").splitlines()
    if len(lines) != 1:
        raise ValueError(f"expected one JSON line, got {len(lines)}")
    return json.loads(lines[0])


# ------------------------------------------------------------- references


def gumbel_theta(family: str, param) -> float | None:
    """The Gumbel parameter a log-power family reduces to (None for f3)."""
    if family == "f1":
        return 1.0 / param
    if family == "f2":
        return 1.0 / (param * param)
    if family == "gumbel":
        return float(param)
    if family == "independence":
        return 1.0
    return None


def _log_gumbel_sum(theta, x, y):
    """ln(x**theta + y**theta) for x, y > 0 without over- or underflow."""
    return np.logaddexp(theta * np.log(x), theta * np.log(y))


def reference_cdf(family: str, param, u, v) -> np.ndarray:
    """C(u, v) on the closed unit square from the family's closed form."""
    u, v = np.broadcast_arrays(np.asarray(u, float), np.asarray(v, float))
    if family == "f3":
        # 24/((s-6)(s-4)), s = sqrt(1+24/u) + sqrt(1+24/v); s = inf on an
        # axis gives 0, and u = 1 makes s_u = 5 so the form reduces to v.
        with np.errstate(divide="ignore"):
            s = np.sqrt(1.0 + 24.0 / u) + np.sqrt(1.0 + 24.0 / v)
        return 24.0 / ((s - 6.0) * (s - 4.0))
    if family == "independence":
        return u * v
    theta = gumbel_theta(family, param)
    out = np.empty(u.shape)
    zero = (u == 0.0) | (v == 0.0)
    out[zero] = 0.0
    one_u = (u == 1.0) & ~zero
    one_v = (v == 1.0) & ~zero & ~one_u
    out[one_u] = v[one_u]
    out[one_v] = u[one_v]
    m = ~(zero | one_u | one_v)
    x, y = -np.log(u[m]), -np.log(v[m])
    out[m] = np.exp(-np.exp(_log_gumbel_sum(theta, x, y) / theta))
    return out


def reference_pdf(family: str, param, u, v) -> np.ndarray:
    """Copula density c(u, v) on the open unit square.

    Gumbel (and f1, f2 through it):
        c = C/(uv) * (xy)**(theta-1) * A**(1/theta-2) * (A**(1/theta) + theta - 1)
    with x = -ln u, y = -ln v, A = x**theta + y**theta, taken in logs.

    f3: C = g(S) with g(S) = 24/((S-6)(S-4)) = 12/(S-6) - 12/(S-4) and
    S = a(u) + a(v), a(z) = sqrt(1+24/z), a'(z) = -12/(z**2 a(z)); so
    c = g''(S) a'(u) a'(v) with
    g''(S) = 24((S-6)**-3 - (S-4)**-3)
           = 48((S-4)**2 + (S-4)(S-6) + (S-6)**2) / ((S-6)**3 (S-4)**3).
    """
    u, v = np.broadcast_arrays(np.asarray(u, float), np.asarray(v, float))
    if family == "f3":
        au = np.sqrt(1.0 + 24.0 / u)
        av = np.sqrt(1.0 + 24.0 / v)
        s = au + av
        p, q = s - 4.0, s - 6.0
        g2 = 48.0 * (p * p + p * q + q * q) / (q**3 * p**3)
        return g2 * 144.0 / (u * u * au * v * v * av)
    theta = gumbel_theta(family, param)
    if theta == 1.0:
        return np.ones(u.shape)
    x, y = -np.log(u), -np.log(v)
    log_a = _log_gumbel_sum(theta, x, y)
    a_root = np.exp(log_a / theta)
    log_c = (
        -a_root
        - np.log(u)
        - np.log(v)
        + (theta - 1.0) * (np.log(x) + np.log(y))
        + (1.0 / theta - 2.0) * log_a
        + np.log(a_root + theta - 1.0)
    )
    return np.exp(log_c)


def reference_phi(family: str, param, z) -> np.ndarray:
    """Generator phi(z) on (0, 1) from the published formulas."""
    z = np.asarray(z, float)
    if family == "f1":
        return (-param * np.log(z)) ** (1.0 / param)
    if family == "f2":
        return (-np.log(z)) ** (1.0 / (param * param))
    if family == "f3":
        return 0.5 * param * (np.sqrt(1.0 + 24.0 / z) - 5.0)
    if family == "gumbel":
        return (-np.log(z)) ** param
    return -np.log(z)


@functools.lru_cache(maxsize=None)
def f3_tau() -> float:
    """tau = 1 + 4 * int_0^1 (5-s) s u**2 / 12 du, s = sqrt(1+24/u), by mpmath."""
    import mpmath

    def integrand(u):
        s = mpmath.sqrt(1 + 24 / u)
        return (5 - s) * s * u**2 / 12

    with mpmath.workdps(40):
        return float(1 + 4 * mpmath.quad(integrand, [0, 1]))


def reference_tau(family: str, param) -> float:
    if family == "f1":
        return 1.0 - param
    if family == "f2":
        return 1.0 - param * param
    if family == "gumbel":
        return 1.0 - 1.0 / param
    if family == "f3":
        return f3_tau()
    return 0.0


# --------------------------------------------------- exact concordance


def _earlier_counts(keys: np.ndarray) -> np.ndarray:
    """For each i, the number of j < i with keys[j] <= keys[i]; keys are
    integers in [0, n).

    Bottom-up merge: at width w, every element of the right half of a
    2w-block counts the left-half elements of its block below it; over
    all widths each pair j < i is counted exactly once.
    """
    n = keys.size
    idx = np.arange(n)
    counts = np.zeros(n, dtype=np.int64)
    w = 1
    while w < n:
        block = idx // (2 * w)
        right = (idx // w) % 2 == 1
        left_keys = np.sort(block[~right] * n + keys[~right])
        rb = block[right]
        hi = np.searchsorted(left_keys, rb * n + keys[right], side="right")
        lo = np.searchsorted(left_keys, rb * n, side="left")
        counts[right] += hi - lo
        w *= 2
    return counts


def _dense_ranks(x: np.ndarray) -> np.ndarray:
    return np.unique(x, return_inverse=True)[1].astype(np.int64)


def _pairs_in_runs(starts: np.ndarray) -> int:
    """Tied pairs in a sorted sequence, given where each run of ties starts."""
    lengths = np.diff(np.append(np.flatnonzero(starts), starts.size))
    return int((lengths * (lengths - 1) // 2).sum())


def concordance(x, y) -> tuple[int, float]:
    """Exact (#concordant - #discordant) over i < j, ties counting 0, and
    the Hoeffding standard error of the tau estimate it gives.

    Knight (1966): sort by (x, y), count the inversions ("swaps") of y,
    then C - D = n0 - n1 - n2 + n3 - 2*swaps with n0 = n(n-1)/2 and
    n1, n2, n3 the pairs tied in x, in y and in both.

    The same counts give, for continuous data, the per-point statistic
    c_i = sum_j sign(x_j - x_i) sign(y_j - y_i) = 2(LL_i + UU_i) - (n-1),
    LL_i (UU_i) being the points below-left (above-right) of point i, and
    SE = 2 std(c_i/(n-1)) / sqrt(n).
    """
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    n = x.size
    order = np.lexsort((y, x))
    xs, ys = x[order], y[order]
    ry = _dense_ranks(y)[order]
    below = _earlier_counts(ry)  # j < i with y_j <= y_i
    pos = np.arange(n)
    swaps = int((pos - below).sum())
    new_x = np.r_[True, xs[1:] != xs[:-1]]
    new_y = np.r_[True, ys[1:] != ys[:-1]]
    y_sorted = np.sort(y)
    n1 = _pairs_in_runs(new_x)
    n2 = _pairs_in_runs(np.r_[True, y_sorted[1:] != y_sorted[:-1]])
    n3 = _pairs_in_runs(new_x | new_y)
    diff = n * (n - 1) // 2 - n1 - n2 + n3 - 2 * swaps
    upper_right = (n - 1 - pos) - (ry - below)
    c = 2.0 * (below + upper_right) - (n - 1)
    se = float(2.0 * np.std(c / (n - 1), ddof=1) / math.sqrt(n))
    return diff, se


def tau_a(x, y) -> float:
    n = len(x)
    return concordance(x, y)[0] / (n * (n - 1) / 2.0)


def ks_uniform_pvalue(x) -> float:
    from scipy import stats

    return float(stats.kstest(np.asarray(x, float), "uniform").pvalue)


# --------------------------------------------------------------- checkers


def check_pairs(data: bytes, family: str, param, n: int) -> tuple[list[str], np.ndarray | None]:
    """A ``sample`` output: n rows inside (0,1)^2, uniform margins, and a
    sample tau within TAU_SIGMAS standard errors of the closed form."""
    try:
        pairs = parse_csv(data, "u,v", 2)
    except ValueError as exc:
        return [f"pairs: {exc}"], None
    problems = []
    if pairs.shape[0] != n:
        problems.append(f"pairs: {pairs.shape[0]} rows, expected {n}")
    if not ((pairs > 0.0) & (pairs < 1.0)).all():
        problems.append("pairs: a coordinate outside (0,1)")
        return problems, pairs
    for k, name in enumerate("uv"):
        p = ks_uniform_pvalue(pairs[:, k])
        if p < KS_ALPHA:
            problems.append(f"pairs: {name} margin KS p={p:.3g} < {KS_ALPHA:g}")
    diff, se = concordance(pairs[:, 0], pairs[:, 1])
    tau = diff / (n * (n - 1) / 2.0)
    ref = reference_tau(family, param)
    if not abs(tau - ref) <= TAU_SIGMAS * se:
        problems.append(
            f"pairs: sample tau {tau:.6f} is {abs(tau - ref) / se:.1f} SE from {ref:.6f}"
        )
    return problems, pairs


def check_tau_mc(data: bytes, pairs: np.ndarray) -> list[str]:
    """``tau --method mc`` must report the exact tau-a of the pairs it read."""
    try:
        rec = parse_json(data)
    except ValueError as exc:
        return [f"tau mc: {exc}"]
    problems = []
    n = pairs.shape[0]
    exact = tau_a(pairs[:, 0], pairs[:, 1])
    tau = rec.get("tau")
    if not isinstance(tau, float) or abs(tau - exact) > MC_TAU_ULPS * math.ulp(exact):
        problems.append(f"tau mc: {tau!r} != exact tau-a {exact!r}")
    if rec.get("n") != n:
        problems.append(f"tau mc: n={rec.get('n')!r}, read {n} pairs")
    if rec.get("method") != "monte_carlo":
        problems.append(f"tau mc: method {rec.get('method')!r}")
    se = rec.get("error_bound")
    if not (isinstance(se, float) and math.isfinite(se) and se > 0.0):
        problems.append(f"tau mc: error_bound {se!r} is not a positive number")
    return problems


def check_pipe(piped: bytes, stdout: bytes, family: str, param, n: int) -> list[str]:
    """``sample | tau --method mc``: the pairs on the pipe and the tau of them."""
    problems, pairs = check_pairs(piped, family, param, n)
    if pairs is not None and pairs.shape[0] == n:
        problems += check_tau_mc(stdout, pairs)
    return problems


def check_sample_file(data: bytes, family: str, param, n: int) -> list[str]:
    return check_pairs(data, family, param, n)[0]


def check_tau_quadrature(data: bytes, family: str, param) -> list[str]:
    try:
        rec = parse_json(data)
    except ValueError as exc:
        return [f"tau quadrature: {exc}"]
    ref = reference_tau(family, param)
    tau = rec.get("tau")
    if not isinstance(tau, float) or not abs(tau - ref) <= QUAD_TAU_TOL:
        return [f"tau quadrature: {tau!r} differs from {ref!r} by more than {QUAD_TAU_TOL:g}"]
    return []


def _cdf_error(family, param, u, v, c) -> float:
    return float(np.max(np.abs(c - reference_cdf(family, param, u, v))))


def _rel_error(got, ref) -> float:
    return float(np.max(np.abs(got - ref) / np.abs(ref)))


def check_eval(data: bytes, family: str, param, u: float, v: float) -> list[str]:
    """``eval`` at an interior point prints C=... and c=... ."""
    lines = data.decode("ascii").splitlines()
    fields = dict(line.split("=", 1) for line in lines if "=" in line)
    if sorted(fields) != ["C", "c"] or len(lines) != 2:
        return [f"eval: unexpected output {lines!r}"]
    problems = []
    err = _cdf_error(family, param, u, v, float(fields["C"]))
    if not err <= CDF_ABS_TOL:
        problems.append(f"eval: C off by {err:.3g}")
    rel = _rel_error(float(fields["c"]), reference_pdf(family, param, u, v))
    if not rel <= REL_TOL:
        problems.append(f"eval: c off by a relative {rel:.3g}")
    return problems


def check_cdf_grid(data: bytes, family: str, param, grid_n: int) -> list[str]:
    """``grid --what cdf``: the (n+1)**2 lattice over the closed square."""
    try:
        rows = parse_csv(data, "u,v,value", 3)
    except ValueError as exc:
        return [f"cdf grid: {exc}"]
    g = np.arange(grid_n + 1) / grid_n
    if rows.shape[0] != g.size**2:
        return [f"cdf grid: {rows.shape[0]} rows, expected {g.size ** 2}"]
    u, v = np.repeat(g, g.size), np.tile(g, g.size)
    problems = []
    if np.max(np.abs(rows[:, 0] - u)) > 1e-15 or np.max(np.abs(rows[:, 1] - v)) > 1e-15:
        problems.append("cdf grid: points are not the uniform lattice")
    err = _cdf_error(family, param, rows[:, 0], rows[:, 1], rows[:, 2])
    if not err <= CDF_ABS_TOL:
        problems.append(f"cdf grid: max |C - reference| = {err:.3g}")
    return problems


def check_pdf_grid(data: bytes, family: str, param, grid_n: int) -> list[str]:
    """``grid --what pdf``: the n**2 cell midpoints."""
    try:
        rows = parse_csv(data, "u,v,value", 3)
    except ValueError as exc:
        return [f"pdf grid: {exc}"]
    g = (np.arange(grid_n) + 0.5) / grid_n
    if rows.shape[0] != g.size**2:
        return [f"pdf grid: {rows.shape[0]} rows, expected {g.size ** 2}"]
    u, v = np.repeat(g, g.size), np.tile(g, g.size)
    problems = []
    if np.max(np.abs(rows[:, 0] - u)) > 1e-15 or np.max(np.abs(rows[:, 1] - v)) > 1e-15:
        problems.append("pdf grid: points are not the cell midpoints")
    rel = _rel_error(rows[:, 2], reference_pdf(family, param, rows[:, 0], rows[:, 1]))
    if not rel <= REL_TOL:
        problems.append(f"pdf grid: max relative error {rel:.3g}")
    return problems


def check_generator_grid(data: bytes, family: str, param, grid_n: int) -> list[str]:
    """``grid --what generator``: phi at midpoints, which must also be
    positive, strictly decreasing and convex (positive second differences)."""
    try:
        rows = parse_csv(data, "z,phi", 2)
    except ValueError as exc:
        return [f"generator grid: {exc}"]
    z = (np.arange(grid_n) + 0.5) / grid_n
    if rows.shape[0] != z.size:
        return [f"generator grid: {rows.shape[0]} rows, expected {z.size}"]
    problems = []
    if np.max(np.abs(rows[:, 0] - z)) > 1e-15:
        problems.append("generator grid: points are not the midpoints")
    phi = rows[:, 1]
    rel = _rel_error(phi, reference_phi(family, param, rows[:, 0]))
    if not rel <= REL_TOL:
        problems.append(f"generator grid: max relative error {rel:.3g}")
    if not ((phi > 0).all() and (np.diff(phi) < 0).all()):
        problems.append("generator grid: phi is not positive and strictly decreasing")
    # The midpoint grid is uniform, so phi'' > 0 shows as positive second
    # differences; their rounding error is a few ulps of phi itself.
    d2 = phi[:-2] - 2.0 * phi[1:-1] + phi[2:]
    if not (d2 > -8.0 * np.spacing(phi[:-2])).all():
        problems.append("generator grid: phi is not convex")
    return problems


def check_audit(data: bytes, family: str, param, grid_n: int) -> list[str]:
    """``check``: the report must pass, and its lattice figures must match
    the same figures computed from the reference CDF."""
    try:
        rep = parse_json(data)
    except ValueError as exc:
        return [f"audit: {exc}"]
    problems = []
    if rep.get("family") != family or rep.get("grid_n") != grid_n:
        problems.append("audit: report names another family or grid")
    if rep.get("all_passed") is not True or not all(rep.get("passed", {}).values()):
        problems.append(f"audit: not all passed: {rep.get('passed')!r}")
    g = np.linspace(0.0, 1.0, grid_n + 1)
    c = reference_cdf(family, param, g[:, None], g[None, :])
    expected = {
        "boundary_max_abs_err": max(np.abs(c[0]).max(), np.abs(c[:, 0]).max()),
        "margin_max_abs_err": max(np.abs(c[-1] - g).max(), np.abs(c[:, -1] - g).max()),
        "min_cell_volume": (c[1:, 1:] - c[1:, :-1] - c[:-1, 1:] + c[:-1, :-1]).min(),
    }
    for key, ref in expected.items():
        got = rep.get(key)
        # each figure is a sum of at most four CDF values
        if not isinstance(got, float) or not abs(got - ref) <= 4 * CDF_ABS_TOL:
            problems.append(f"audit: {key} {got!r}, reference {float(ref)!r}")
    if not rep.get("min_cell_volume", -1.0) >= -AUDIT_TOL:
        problems.append("audit: a lattice cell has negative volume")
    return problems


# ------------------------------------------------------------------ server

CHECKERS = {
    f.__name__: f
    for f in (check_pipe, check_sample_file, check_tau_quadrature, check_eval,
              check_cdf_grid, check_pdf_grid, check_generator_grid, check_audit)
}


def serve(stdin, stdout) -> None:
    """Answer check requests, one JSON object per line:
    {"fn": name, "paths": [output files], "kwargs": {...}} -> {"problems": [...]}.

    The benchmark runs the checks in this separate process so that its
    own memory stays small: a child's max RSS as reported by wait4 starts
    from the RSS of the process that spawned it.
    """
    for line in stdin:
        req = json.loads(line)
        data = []
        for path in req["paths"]:
            with open(path, "rb") as fh:
                data.append(fh.read())
        try:
            problems = CHECKERS[req["fn"]](*data, **req["kwargs"])
        except Exception as exc:  # a checker crash is a failed check, not a crash
            problems = [f"{req['fn']} raised {exc!r}"]
        stdout.write(json.dumps({"problems": problems}) + "\n")
        stdout.flush()


if __name__ == "__main__":
    import sys

    serve(sys.stdin, sys.stdout)
