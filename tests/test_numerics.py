"""Quadrature, batch bisection, and finite-difference primitives."""

import math

import numpy as np
import pytest

import archcop as ac
from archcop.numerics import adaptive_quad, bisect_monotone_batch
from oracles import central_mixed_second


class TestAdaptiveQuad:
    def test_linear(self):
        res = adaptive_quad(lambda u: u, 0.0, 1.0, 1e-10)
        assert res.converged
        assert res.value == pytest.approx(0.5, abs=1e-10)

    def test_u_log_u(self):
        res = adaptive_quad(lambda u: u * np.log(u), 0.0, 1.0, 1e-10)
        assert res.converged
        assert res.value == pytest.approx(-0.25, abs=1e-9)

    def test_frailty_tau_integrand(self):
        def f(u):
            s = np.sqrt(1.0 + 24.0 / u)
            return (5.0 - s) * s * u * u / 12.0

        res = adaptive_quad(f, 0.0, 1.0, 1e-8)
        assert res.converged
        # frozen from 30-digit quadrature of the same integrand
        assert res.value == pytest.approx(-0.199227747727489, abs=1e-7)
        # the commonly quoted rounded constant is only 1e-3 accurate
        assert res.value == pytest.approx(-0.19917, abs=1e-3)

    def test_polynomial_exactness(self):
        # single GK15 panel integrates polynomials up to degree 22 exactly
        for deg in (5, 13, 22):
            res = adaptive_quad(lambda u, d=deg: (d + 1) * u**d, 0.0, 1.0, 1e-9)
            assert abs(res.value - 1.0) <= 1e-12

    def test_error_estimate_bounds_true_error(self):
        res = adaptive_quad(np.exp, 0.0, 1.0, 1e-11)
        assert res.converged
        assert abs(res.value - (math.e - 1.0)) <= 1e-11
        assert res.abs_error_estimate <= 1e-11

    def test_reports_nonconvergence(self):
        # integrable singularity with an absurd tolerance exhausts the budget
        res = adaptive_quad(lambda u: u**-0.9, 0.0, 1.0, 1e-14, max_evals=2000)
        assert not res.converged
        assert res.evaluations <= 2000

    def test_one_call_per_panel(self):
        # each panel passes its 15 nodes, none an endpoint, in one call
        calls = []

        def f(u):
            calls.append(u)
            return np.sqrt(u)

        res = adaptive_quad(f, 0.0, 1.0, 1e-10)
        assert res.converged and len(calls) > 1
        assert all(u.shape == (15,) and (0.0 < u).all() and (u < 1.0).all() for u in calls)
        assert res.evaluations == 15 * len(calls)

    def test_rejects_bad_interval(self):
        with pytest.raises(ac.DomainError):
            adaptive_quad(lambda u: u, 1.0, 0.0, 1e-8)


class TestBisectMonotone:
    def test_batch_matches_scalar(self):
        targets = np.linspace(0.05, 0.95, 11)
        roots = bisect_monotone_batch(lambda v: v * v, targets, 0.0, 1.0, 1e-12)
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
