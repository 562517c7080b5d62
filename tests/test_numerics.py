"""Quadrature, bisection, and finite-difference primitives."""

import math

import numpy as np
import pytest

import archcop as ac
from oracles import central_mixed_second


class TestAdaptiveQuad:
    def test_linear(self):
        res = ac.adaptive_quad(lambda u: u, 0.0, 1.0, 1e-10)
        assert res.converged
        assert res.value == pytest.approx(0.5, abs=1e-10)

    def test_u_log_u(self):
        res = ac.adaptive_quad(lambda u: 0.0 if u == 0.0 else u * math.log(u),
                               0.0, 1.0, 1e-10)
        assert res.converged
        assert res.value == pytest.approx(-0.25, abs=1e-9)

    def test_frailty_tau_integrand(self):
        def f(u):
            if u == 0.0:
                return 0.0
            s = math.sqrt(1.0 + 24.0 / u)
            return (5.0 - s) * s * u * u / 12.0

        res = ac.adaptive_quad(f, 0.0, 1.0, 1e-8)
        assert res.converged
        # frozen from 30-digit quadrature of the same integrand
        assert res.value == pytest.approx(-0.199227747727489, abs=1e-7)
        # the commonly quoted rounded constant is only 1e-3 accurate
        assert res.value == pytest.approx(-0.19917, abs=1e-3)

    def test_polynomial_exactness(self):
        # single GK15 panel integrates polynomials up to degree 22 exactly
        for deg in (5, 13, 22):
            res = ac.adaptive_quad(lambda u, d=deg: (d + 1) * u**d, 0.0, 1.0, 1e-9)
            assert abs(res.value - 1.0) <= 1e-12

    def test_error_estimate_bounds_true_error(self):
        res = ac.adaptive_quad(lambda u: math.exp(u), 0.0, 1.0, 1e-11)
        assert res.converged
        assert abs(res.value - (math.e - 1.0)) <= 1e-11
        assert res.abs_error_estimate <= 1e-11

    def test_reports_nonconvergence(self):
        # integrable singularity with an absurd tolerance exhausts the budget
        res = ac.adaptive_quad(lambda u: 0.0 if u == 0.0 else u**-0.9,
                               0.0, 1.0, 1e-14, max_evals=2000)
        assert not res.converged
        assert res.evaluations <= 2000

    def test_rejects_bad_interval(self):
        with pytest.raises(ac.DomainError):
            ac.adaptive_quad(lambda u: u, 1.0, 0.0, 1e-8)


class TestBisectMonotone:
    def test_square(self):
        res = ac.bisect_monotone(lambda v: v * v, 0.25, 0.0, 1.0, 1e-12)
        assert res.converged
        assert res.root == pytest.approx(0.5, abs=1e-11)

    def test_identity(self):
        res = ac.bisect_monotone(lambda v: v, 0.999, 0.0, 1.0, 1e-12)
        assert res.root == pytest.approx(0.999, abs=1e-11)

    def test_conditional_inversion(self):
        g = lambda v: ac.partial_u("f1", 0.5, 0.3, v)
        res = ac.bisect_monotone(g, 0.5, 0.0, 1.0, 1e-10)
        assert abs(g(res.root) - 0.5) <= 1e-9

    def test_iteration_bound(self):
        res = ac.bisect_monotone(lambda v: v**3, 0.2, 0.0, 1.0, 1e-10)
        assert res.iterations <= math.ceil(math.log2(1.0 / 1e-10)) + 2

    def test_bracket_violation(self):
        with pytest.raises(ac.BracketError):
            ac.bisect_monotone(lambda v: v, 2.0, 0.0, 1.0, 1e-10)

    def test_batch_matches_scalar(self):
        targets = np.linspace(0.05, 0.95, 11)
        roots = ac.bisect_monotone_batch(lambda v: v * v, targets, 0.0, 1.0, 1e-12)
        assert np.max(np.abs(roots - np.sqrt(targets))) <= 1e-11


class TestCentralMixedSecond:
    def test_bilinear(self):
        assert central_mixed_second(lambda u, v: u * v, 0.3, 0.8, 1e-4) == \
            pytest.approx(1.0, abs=1e-6)

    def test_quadratic(self):
        assert central_mixed_second(lambda u, v: u * u * v, 0.5, 0.5, 1e-4) == \
            pytest.approx(1.0, abs=1e-5)

    def test_matches_density(self):
        fd = central_mixed_second(lambda u, v: ac.cdf("f3", 1.0, u, v),
                                     0.5, 0.5, 1e-4)
        assert fd == pytest.approx(1.0755918367346939, rel=1e-3)

    def test_second_order_convergence(self):
        f = lambda u, v: math.sin(3 * u) * math.exp(2 * v)
        exact = 3 * math.cos(3 * 0.4) * 2 * math.exp(2 * 0.6)
        e1 = abs(central_mixed_second(f, 0.4, 0.6, 2e-3) - exact)
        e2 = abs(central_mixed_second(f, 0.4, 0.6, 1e-3) - exact)
        assert e1 / e2 >= 3.5

    def test_stencil_domain(self):
        with pytest.raises(ac.DomainError):
            central_mixed_second(lambda u, v: u * v, 1e-5, 0.5, 1e-4)
