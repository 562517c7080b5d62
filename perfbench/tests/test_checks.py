"""Tests of the benchmark's own references and checkers.

The references are checked against brute force (the O(n^2) concordance
count) and against mpmath at 50 digits; each checker must accept output
made independently of archcop (closed forms, exact frailty samplers
written here) and reject the same output corrupted slightly.

Run: python3 -m pytest perfbench/tests
"""

import json
import math

import mpmath
import numpy as np
import pytest

import checks

FAMILIES = [("f1", 0.4), ("f2", 0.6), ("f3", 2.0), ("gumbel", 2.5), ("independence", None)]


# ------------------------------------------------------------ mpmath oracles


def mp_phi(family, param, z):
    z = mpmath.mpf(z)
    if family == "f1":
        return (-param * mpmath.log(z)) ** (1 / mpmath.mpf(param))
    if family == "f2":
        return (-mpmath.log(z)) ** (1 / mpmath.mpf(param) ** 2)
    if family == "f3":
        return param * (mpmath.sqrt(1 + 24 / z) - 5) / 2
    if family == "gumbel":
        return (-mpmath.log(z)) ** param
    return -mpmath.log(z)


def mp_psi(family, param, t):
    if family == "f1":
        return mpmath.exp(-(t ** mpmath.mpf(param)) / param)
    if family == "f2":
        return mpmath.exp(-(t ** (mpmath.mpf(param) ** 2)))
    if family == "f3":
        a = mpmath.mpf(param)
        return 6 * a**2 / ((t + 2 * a) * (t + 3 * a))
    if family == "gumbel":
        return mpmath.exp(-(t ** (1 / mpmath.mpf(param))))
    return mpmath.exp(-t)


def mp_cdf(family, param, u, v):
    return mp_psi(family, param, mp_phi(family, param, u) + mp_phi(family, param, v))


POINTS = [(0.3, 0.7), (0.05, 0.9), (0.5, 0.5), (0.93, 0.12), (0.01, 0.02), (0.999, 0.4)]


@pytest.mark.parametrize("family,param", FAMILIES)
def test_reference_cdf_matches_mpmath(family, param):
    with mpmath.workdps(50):
        for u, v in POINTS:
            ref = float(mp_cdf(family, param, u, v))
            assert checks.reference_cdf(family, param, u, v) == pytest.approx(ref, abs=4e-16)


@pytest.mark.parametrize("family,param", FAMILIES)
def test_reference_cdf_boundary(family, param):
    g = np.array([0.0, 0.25, 1.0])
    c = checks.reference_cdf(family, param, g[:, None], g[None, :])
    assert (c[0] == 0).all() and (c[:, 0] == 0).all()
    assert np.allclose(c[-1], g, atol=1e-16) and np.allclose(c[:, -1], g, atol=1e-16)


@pytest.mark.parametrize("family,param", FAMILIES)
def test_reference_pdf_matches_mpmath_mixed_derivative(family, param):
    with mpmath.workdps(50):
        for u, v in POINTS[:4]:
            ref = mpmath.diff(lambda x, y: mp_cdf(family, param, x, y), (u, v), (1, 1))
            got = checks.reference_pdf(family, param, u, v)
            assert got == pytest.approx(float(ref), rel=1e-13)


@pytest.mark.parametrize("family,param", FAMILIES)
def test_reference_phi_matches_mpmath(family, param):
    with mpmath.workdps(50):
        for z in (1e-6, 0.2, 0.5, 0.99):
            assert checks.reference_phi(family, param, z) == pytest.approx(
                float(mp_phi(family, param, z)), rel=1e-14)


def test_f3_tau_by_a_second_quadrature():
    # tau = 1 + 4 int_0^1 phi/phi' du; with phi from mp_phi and phi' by
    # mpmath.diff, on a Gauss-Legendre rule rather than tanh-sinh.
    with mpmath.workdps(30):
        ratio = lambda u: mp_phi("f3", 1.0, u) / mpmath.diff(lambda z: mp_phi("f3", 1.0, z), u)
        tau = 1 + 4 * mpmath.quad(ratio, [0, 0.01, 1], method="gauss-legendre")
    assert checks.f3_tau() == pytest.approx(float(tau), abs=1e-15)


@pytest.mark.parametrize("family,param,tau", [
    ("f1", 0.4, 0.6), ("f2", 0.6, 0.64), ("gumbel", 2.5, 0.6), ("independence", None, 0.0)])
def test_reference_tau_by_quadrature(family, param, tau):
    with mpmath.workdps(30):
        ratio = lambda u: mp_phi(family, param, u) / mpmath.diff(lambda z: mp_phi(family, param, z), u)
        assert float(1 + 4 * mpmath.quad(ratio, [0, 1])) == pytest.approx(tau, abs=1e-14)
    assert checks.reference_tau(family, param) == pytest.approx(tau, abs=1e-16)


# ------------------------------------------------------------ concordance


def brute_concordance(x, y):
    n = len(x)
    return sum(
        int(np.sign(x[i] - x[j]) * np.sign(y[i] - y[j]))
        for i in range(n) for j in range(i + 1, n)
    )


@pytest.mark.parametrize("n", [2, 3, 10, 63, 64, 65, 200])
@pytest.mark.parametrize("ties", [False, True])
def test_concordance_matches_brute_force(n, ties):
    rng = np.random.default_rng(n)
    x, y = rng.random(n), rng.random(n)
    if ties:
        x, y = np.round(x * 6) / 6, np.round(y * 5) / 5
        x[: n // 3] = y[: n // 3]  # some pairs tied in both
    assert checks.concordance(x, y)[0] == brute_concordance(x, y)


def test_standard_error_under_independence():
    rng = np.random.default_rng(3)
    n = 4000
    se = checks.concordance(rng.random(n), rng.random(n))[1]
    # Var(tau) = 2(2n+5) / (9n(n-1)) for independent continuous margins
    assert se == pytest.approx(math.sqrt(2 * (2 * n + 5) / (9 * n * (n - 1))), rel=0.05)


# ------------------------------------------------------------ samplers made here


def gumbel_pairs(theta, n, seed):
    """Marshall-Olkin: positive-stable frailty by Kanter's representation."""
    rng = np.random.default_rng(seed)
    a = 1.0 / theta
    w = rng.uniform(0, np.pi, n)
    e = rng.exponential(size=n)
    if a == 1.0:
        frailty = np.ones(n)
    else:
        frailty = (np.sin(a * w) / np.sin(w) ** (1 / a)) * (np.sin((1 - a) * w) / e) ** ((1 - a) / a)
    t = rng.exponential(size=(n, 2)) / frailty[:, None]
    return np.exp(-(t**a))


def f3_pairs(alpha, n, seed):
    rng = np.random.default_rng(seed)
    frailty = rng.exponential(size=n) / (2 * alpha) + rng.exponential(size=n) / (3 * alpha)
    t = rng.exponential(size=(n, 2)) / frailty[:, None]
    return 6 * alpha**2 / ((t + 2 * alpha) * (t + 3 * alpha))


def pairs_csv(pairs):
    return ("u,v\n" + "".join(f"{u!r},{v!r}\n" for u, v in pairs.tolist())).encode()


def sample(family, param, n, seed):
    if family == "f3":
        return f3_pairs(param, n, seed)
    return gumbel_pairs(checks.gumbel_theta(family, param), n, seed)


@pytest.mark.parametrize("family,param", FAMILIES)
def test_check_pairs_accepts_exact_samples(family, param):
    for seed in range(3):
        problems, _ = checks.check_pairs(pairs_csv(sample(family, param, 5000, seed)), family, param, 5000)
        assert problems == []


def test_check_pairs_rejects_non_uniform_margin():
    pairs = gumbel_pairs(2.0, 10_000, 1)
    pairs[:, 1] = pairs[:, 1] ** 1.2
    problems, _ = checks.check_pairs(pairs_csv(pairs), "gumbel", 2.0, 10_000)
    assert any("v margin KS" in p for p in problems)


def test_check_pairs_rejects_an_atom_in_a_margin():
    # The shape of a stuck inversion: many rows with the same v.
    pairs = gumbel_pairs(2.0, 10_000, 2)
    pairs[pairs[:, 0] > 0.9, 1] = 0.92591853
    problems, _ = checks.check_pairs(pairs_csv(pairs), "gumbel", 2.0, 10_000)
    assert any("v margin KS" in p for p in problems)


def test_check_pairs_rejects_wrong_dependence():
    pairs = gumbel_pairs(2.0, 10_000, 3)  # tau 0.5
    problems, _ = checks.check_pairs(pairs_csv(pairs), "gumbel", 2.2, 10_000)  # tau 0.545
    assert any("SE from" in p for p in problems)


def test_check_pairs_rejects_count_range_and_format():
    pairs = gumbel_pairs(2.0, 1000, 4)
    assert checks.check_pairs(pairs_csv(pairs), "gumbel", 2.0, 999)[0]
    pairs[0, 0] = 1.0
    assert checks.check_pairs(pairs_csv(pairs), "gumbel", 2.0, 1000)[0]
    assert checks.check_pairs(b"x,y\n0.5,0.5\n", "gumbel", 2.0, 1)[0]
    assert checks.check_pairs(b"u,v\n0.5\n0.5,0.5\n", "gumbel", 2.0, 2)[0]


def tau_mc_json(tau, n, se=0.01):
    return json.dumps({"error_bound": se, "method": "monte_carlo", "n": n,
                       "note": "", "tau": tau}).encode()


def test_check_tau_mc_requires_the_exact_statistic():
    n = 1200
    pairs = f3_pairs(1.0, n, 5)
    exact = brute_concordance(pairs[:, 0], pairs[:, 1]) / (n * (n - 1) / 2.0)
    assert checks.check_tau_mc(tau_mc_json(exact, n), pairs) == []
    assert checks.check_tau_mc(tau_mc_json(exact + 1e-6, n), pairs)
    assert checks.check_tau_mc(tau_mc_json(exact, n - 1), pairs)
    assert checks.check_tau_mc(tau_mc_json(exact, n, se=float("nan")), pairs)


def test_check_pipe_checks_both_ends():
    pairs = f3_pairs(1.0, 2000, 6)
    exact = checks.concordance(pairs[:, 0], pairs[:, 1])[0] / (2000 * 1999 / 2.0)
    assert checks.check_pipe(pairs_csv(pairs), tau_mc_json(exact, 2000), "f3", 1.0, 2000) == []
    assert checks.check_pipe(pairs_csv(pairs), tau_mc_json(exact - 1e-6, 2000), "f3", 1.0, 2000)


# ------------------------------------------------------------ lattice outputs


def grid_csv(u, v, values):
    rows = "".join(f"{a!r},{b!r},{c!r}\n" for a, b, c in zip(u.tolist(), v.tolist(), values.tolist()))
    return ("u,v,value\n" + rows).encode()


def lattice(n, midpoints):
    g = (np.arange(n) + 0.5) / n if midpoints else np.linspace(0.0, 1.0, n + 1)
    return np.repeat(g, g.size), np.tile(g, g.size)


@pytest.mark.parametrize("family,param", FAMILIES)
def test_cdf_grid_accepts_reference_and_rejects_1e9(family, param):
    u, v = lattice(40, midpoints=False)
    c = checks.reference_cdf(family, param, u, v)
    assert checks.check_cdf_grid(grid_csv(u, v, c), family, param, 40) == []
    c[700] += 1e-9
    assert checks.check_cdf_grid(grid_csv(u, v, c), family, param, 40)


def test_cdf_grid_accepts_generator_composition():
    # psi(phi(u) + phi(v)) evaluated directly, a different route from the reference
    u, v = lattice(20, midpoints=False)
    with mpmath.workdps(30):
        c = np.array([float(mp_cdf("f3", 2.0, a, b)) if a * b > 0 else 0.0 for a, b in zip(u, v)])
    assert checks.check_cdf_grid(grid_csv(u, v, c), "f3", 2.0, 20) == []


def test_cdf_grid_rejects_wrong_lattice_and_count():
    u, v = lattice(10, midpoints=False)
    c = checks.reference_cdf("f1", 0.5, u, v)
    assert checks.check_cdf_grid(grid_csv(u, v, c), "f1", 0.5, 11)
    assert checks.check_cdf_grid(grid_csv(u[::-1], v, c), "f1", 0.5, 10)


@pytest.mark.parametrize("family,param", FAMILIES)
def test_pdf_grid_accepts_reference_and_rejects_relative_1e9(family, param):
    u, v = lattice(30, midpoints=True)
    c = checks.reference_pdf(family, param, u, v)
    assert checks.check_pdf_grid(grid_csv(u, v, c), family, param, 30) == []
    c[123] *= 1 + 1e-9
    assert checks.check_pdf_grid(grid_csv(u, v, c), family, param, 30)


def generator_csv(z, phi):
    return ("z,phi\n" + "".join(f"{a!r},{b!r}\n" for a, b in zip(z.tolist(), phi.tolist()))).encode()


@pytest.mark.parametrize("family,param", FAMILIES)
def test_generator_grid(family, param):
    n = 5000
    z = (np.arange(n) + 0.5) / n
    phi = checks.reference_phi(family, param, z)
    assert checks.check_generator_grid(generator_csv(z, phi), family, param, n) == []
    bad = phi.copy()
    bad[2500] *= 1 + 1e-9
    assert checks.check_generator_grid(generator_csv(z, bad), family, param, n)


def test_generator_grid_rejects_non_convex():
    n = 1000
    z = (np.arange(n) + 0.5) / n
    phi = 1.0 - z  # decreasing but linear, and not this family's generator
    problems = checks.check_generator_grid(generator_csv(z, phi), "independence", None, n)
    assert any("relative error" in p for p in problems)
    concave = 1.0 - z**2
    assert any("convex" in p for p in checks.check_generator_grid(generator_csv(z, concave), "f1", 0.5, n))


@pytest.mark.parametrize("family,param", FAMILIES)
def test_eval(family, param):
    u, v = 0.37, 0.81
    c = float(checks.reference_cdf(family, param, u, v))
    d = float(checks.reference_pdf(family, param, u, v))
    assert checks.check_eval(f"C={c!r}\nc={d!r}\n".encode(), family, param, u, v) == []
    assert checks.check_eval(f"C={c + 1e-9!r}\nc={d!r}\n".encode(), family, param, u, v)
    assert checks.check_eval(f"C={c!r}\nc={d * (1 + 1e-9)!r}\n".encode(), family, param, u, v)
    assert checks.check_eval(f"C={c!r}\n".encode(), family, param, u, v)


@pytest.mark.parametrize("family,param", FAMILIES)
def test_tau_quadrature(family, param):
    tau = checks.reference_tau(family, param)
    rec = lambda t: json.dumps({"tau": t, "method": "quadrature", "error_bound": 1e-10}).encode()
    assert checks.check_tau_quadrature(rec(tau + 1e-9), family, param) == []
    assert checks.check_tau_quadrature(rec(tau + 1e-6), family, param)
    assert checks.check_tau_quadrature(rec(tau - 1e-6), family, param)


def audit_json(family, param, grid_n, **override):
    g = np.linspace(0.0, 1.0, grid_n + 1)
    c = checks.reference_cdf(family, param, g[:, None], g[None, :])
    rep = {
        "family": family, "alpha": param, "grid_n": grid_n, "all_passed": True,
        "passed": {"grounded": True, "margins": True, "two_increasing": True,
                   "no_singular_part": True, "generator_conditions": True},
        "boundary_max_abs_err": float(max(np.abs(c[0]).max(), np.abs(c[:, 0]).max())),
        "margin_max_abs_err": float(max(np.abs(c[-1] - g).max(), np.abs(c[:, -1] - g).max())),
        "min_cell_volume": float((c[1:, 1:] - c[1:, :-1] - c[:-1, 1:] + c[:-1, :-1]).min()),
    }
    rep.update(override)
    return json.dumps(rep).encode()


def test_audit():
    assert checks.check_audit(audit_json("f1", 0.3, 50), "f1", 0.3, 50) == []
    good = json.loads(audit_json("f1", 0.3, 50))
    assert checks.check_audit(audit_json("f1", 0.3, 50, all_passed=False), "f1", 0.3, 50)
    assert checks.check_audit(
        audit_json("f1", 0.3, 50, min_cell_volume=good["min_cell_volume"] + 1e-9), "f1", 0.3, 50)
    assert checks.check_audit(audit_json("f1", 0.3, 50), "f1", 0.3, 60)
