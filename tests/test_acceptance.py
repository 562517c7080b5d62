"""Acceptance gate: one test per release criterion.

Each test prints a single ``[criterion NN] name: PASS``/``FAIL`` line in
addition to asserting, so ``pytest -s tests/test_acceptance.py`` doubles
as a human-readable release report.
"""

import math
import subprocess
import sys

import numpy as np
from scipy import integrate

import archcop as ac
from oracles import central_mixed_second, frailty_pdf, reference_gumbel_cdf, sample_frailty

GRID101 = np.linspace(0.0, 1.0, 101)
INTERIOR = np.linspace(0.02, 0.98, 51)
AUDIT_MATRIX = ([("f1", a) for a in (0.1, 0.4, 0.6, 1.0)]
                + [("f2", a) for a in (0.1, 0.4, 0.6, 1.0)]
                + [("f3", a) for a in (0.1, 1.0, 10.0)])


def _report(num: int, name: str, ok: bool) -> None:
    print(f"\n[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num}: {name}"


def test_01_product_copula_limit():
    U, V = np.meshgrid(GRID101, GRID101)
    err = max(
        float(np.max(np.abs(ac.cdf("f1", 1.0, U, V) - U * V))),
        float(np.max(np.abs(ac.cdf("f2", 1.0, U, V) - U * V))),
        float(np.max(np.abs(ac.cdf("independence", None, U, V) - U * V))),
    )
    _report(1, "boundary-parameter copulas reduce to the product copula <= 1e-12",
            err <= 1e-12)


def test_02_reference_equivalences():
    U, V = np.meshgrid(INTERIOR, INTERIOR)
    err = 0.0
    for alpha in (0.1, 0.4, 0.6, 1.0):
        err = max(err, float(np.max(np.abs(
            ac.cdf("f1", alpha, U, V) - reference_gumbel_cdf(1.0 / alpha, U, V)))))
        err = max(err, float(np.max(np.abs(
            ac.cdf("f2", alpha, U, V) - ac.cdf("f1", alpha * alpha, U, V)))))
    _report(2, "log-power family matches the reference form and its square-law "
               "sibling <= 1e-12", err <= 1e-12)


def test_03_f1_tau_quadrature_and_mc():
    ok = True
    for alpha in (0.1, 0.25, 0.5, 0.75, 1.0):
        q = ac.kendall_tau_quadrature("f1", alpha, 1e-9)
        ok = ok and abs(q.tau - (1.0 - alpha)) <= 1e-6
    mc = ac.kendall_tau_mc(ac.sample_conditional("f1", 0.5, 20_000, 7).pairs)
    ok = ok and abs(mc.tau - 0.5) <= 3.0 * mc.error_bound
    _report(3, "f1 tau: quadrature <= 1e-6 of 1-alpha and MC within 3 SE", ok)


def test_04_f3_tau_three_ways():
    ok = abs(ac.kendall_tau_quadrature("f3", 1.0, 1e-8).tau - 0.20332) <= 1e-3
    for pairs in (ac.sample_frailty_copula(1.0, 20_000, 11).pairs,
                  ac.sample_conditional("f3", 1.0, 20_000, 12).pairs):
        est = ac.kendall_tau_mc(pairs)
        ok = ok and abs(est.tau - 0.2033) <= 3.0 * est.error_bound + 1e-3
    _report(4, "f3 tau: quadrature within 1e-3 of 0.20332 and both samplers "
               "within 3 SE", ok)


def test_05_f2_tau_square_law():
    ok = all(abs(ac.kendall_tau_quadrature("f2", a, 1e-9).tau - (1.0 - a * a)) <= 1e-6
             for a in (0.1, 0.5, 1.0))
    _report(5, "f2 tau equals 1 - alpha^2 <= 1e-6 (quadrature)", ok)


def test_06_validity_audit_matrix():
    ok = all(ac.grid_validity_report(fam, a, 100).all_passed
             for fam, a in AUDIT_MATRIX)
    _report(6, "validity audit (grounded, margins, 2-increasing, generator "
               "conditions) passes on a 100x100 lattice for every family", ok)


def test_07_no_singular_part():
    worst = max(abs(ac.singularity_limit(fam, a)) for fam, a in AUDIT_MATRIX)
    _report(7, "generator-ratio limit at the origin vanishes <= 1e-8", worst <= 1e-8)


def test_08_f3_alpha_invariance():
    U, V = np.meshgrid(INTERIOR, INTERIOR)
    base_c = ac.cdf("f3", 0.1, U, V)
    base_d = ac.density("f3", 0.1, U, V)
    err_c = max(float(np.max(np.abs(ac.cdf("f3", a, U, V) - base_c)))
                for a in (0.6, 1.0, 10.0))
    err_d = max(float(np.max(np.abs(ac.density("f3", a, U, V) - base_d)))
                for a in (0.6, 1.0, 10.0))
    _report(8, "f3 is parameter-free: cdf <= 1e-12, density <= 1e-9 across alpha",
            err_c <= 1e-12 and err_d <= 1e-9)


def test_09_density_consistency_and_mass():
    ok = True
    rng = np.random.default_rng(1234)
    for family, param in [("f1", 0.6), ("f2", 0.8), ("f3", 1.0),
                          ("gumbel", 2.0), ("independence", None)]:
        for u, v in rng.uniform(0.05, 0.95, size=(100, 2)):
            fd = central_mixed_second(
                lambda a, b: ac.cdf(family, param, a, b), u, v, 1e-4)
            dens = ac.density(family, param, u, v)
            ok = ok and abs(dens - fd) <= 1e-3 * abs(dens)
    x, w = np.polynomial.legendre.leggauss(64)
    nodes, wts = 0.5 * (x + 1.0), 0.5 * w
    U, V = np.meshgrid(nodes, nodes)
    W = wts[:, None] * wts[None, :]
    for family, param in [("f1", 0.4), ("f1", 1.0), ("f2", 0.6), ("f2", 1.0),
                          ("f3", 1.0), ("gumbel", 2.0), ("independence", None)]:
        total = float((W * ac.density(family, param, U, V)).sum())
        ok = ok and abs(total - 1.0) <= 1e-3
    _report(9, "density matches a mixed second difference (rel 1e-3) and "
               "integrates to 1 within 1e-3", ok)


def test_10_frailty_construction():
    norm, _ = integrate.quad(lambda w: frailty_pdf(w, 1.0), 0.0, np.inf)
    ok = abs(norm - 1.0) <= 1e-8
    rng = np.random.Generator(np.random.Philox(key=77))
    g = sample_frailty(1.0, rng, size=100_000)
    for t in (0.5, 1.0, 2.0):
        emp = np.exp(-t * g)
        se = emp.std(ddof=1) / math.sqrt(emp.size)
        ok = ok and abs(emp.mean() - ac.psi("f3", 1.0, t)) <= 3.0 * se
    pairs = ac.sample_frailty_copula(1.0, 100_000, 11).pairs
    p_hat = float(((pairs[:, 0] <= 0.5) & (pairs[:, 1] <= 0.5)).mean())
    se = math.sqrt(0.3 * 0.7 / pairs.shape[0])
    ok = ok and abs(p_hat - 0.3) <= 3.0 * se
    _report(10, "frailty density normalizes (1e-8), empirical Laplace transform "
                "matches the inverse generator, ecdf(0.5,0.5) hits 0.3, all "
                "within 3 SE", ok)


def test_11_cli_determinism():
    cli = [sys.executable, "-m", "archcop.cli"]
    ok = True
    for args in (
        ["sample", "--family", "f3", "--alpha", "1", "--n", "500", "--seed", "42",
         "--method", "frailty"],
        ["sample", "--family", "f1", "--alpha", "0.5", "--n", "500", "--seed", "9"],
        ["check", "--family", "f2", "--alpha", "0.6", "--grid-n", "40"],
        ["tau", "--family", "f3", "--alpha", "2", "--method", "quadrature"],
    ):
        a = subprocess.run(cli + args, capture_output=True, check=True).stdout
        b = subprocess.run(cli + args, capture_output=True, check=True).stdout
        ok = ok and a == b and len(a) > 0
    _report(11, "CLI output is byte-identical across repeated seeded invocations",
            ok)
