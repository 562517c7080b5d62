"""Joint CDF, conditional, and density contracts."""

import math

import numpy as np
import pytest

import archcop as ac
from oracles import central_mixed_second, f3_reduced_cdf, reference_gumbel_cdf

INTERIOR = np.linspace(0.02, 0.98, 51)


class TestCdfExamples:
    def test_product_copula(self):
        assert ac.cdf("f1", 1.0, 0.3, 0.7) == pytest.approx(0.21, rel=1e-14)

    def test_f3_alpha_free_point(self):
        for alpha in (0.2, 1.0, 5.0):
            assert ac.cdf("f3", alpha, 0.5, 0.5) == pytest.approx(0.3, rel=1e-13)

    def test_margin_shortcut(self):
        assert ac.cdf("f2", 0.7, 1.0, 0.42) == 0.42
        assert ac.cdf("f2", 0.7, 0.42, 1.0) == 0.42

    def test_grounded_shortcut(self):
        assert ac.cdf("f1", 0.5, 0.0, 0.9) == 0.0
        assert ac.cdf("f1", 0.5, 0.9, 0.0) == 0.0

    def test_corner(self):
        assert ac.cdf("f3", 2.0, 1.0, 1.0) == 1.0


class TestPartialU:
    def test_product_copula(self):
        assert ac.partial_u("f1", 1.0, 0.4, 0.7) == pytest.approx(0.7, rel=1e-13)

    def test_v_boundaries(self):
        assert ac.partial_u("f1", 0.5, 0.4, 1.0) == 1.0
        assert ac.partial_u("f1", 0.5, 0.4, 0.0) == 0.0

    def test_u_endpoint_rejected(self):
        with pytest.raises(ac.DomainError):
            ac.partial_u("f1", 0.5, 0.0, 0.5)
        with pytest.raises(ac.DomainError):
            ac.partial_u("f1", 0.5, 1.0, 0.5)

    def test_matches_finite_difference(self):
        h = 1e-6
        for family, param in [("f1", 0.6), ("f2", 0.8), ("f3", 1.0)]:
            for u, v in [(0.5, 0.5), (0.2, 0.7), (0.85, 0.3)]:
                fd = (ac.cdf(family, param, u + h, v)
                      - ac.cdf(family, param, u - h, v)) / (2 * h)
                assert ac.partial_u(family, param, u, v) == pytest.approx(fd, rel=1e-5)

    def test_monotone_in_v(self):
        v = np.linspace(0.0, 1.0, 101)
        for family, param in [("f1", 0.4), ("f2", 0.6), ("f3", 2.0)]:
            vals = ac.partial_u(family, param, np.full(v.shape, 0.37), v)
            assert np.all(np.diff(vals) >= -1e-12)
            assert np.all((vals >= 0.0) & (vals <= 1.0))


class TestDensity:
    def test_product_density(self):
        assert ac.density("f1", 1.0, 0.2, 0.9) == pytest.approx(1.0, rel=1e-13)

    def test_f3_point(self):
        assert ac.density("f3", 1.0, 0.5, 0.5) == pytest.approx(1.0755918367346939,
                                                                rel=1e-12)

    def test_boundary_rejected(self):
        with pytest.raises(ac.DomainError):
            ac.density("f1", 0.5, 0.0, 0.5)
        with pytest.raises(ac.DomainError):
            ac.density("f1", 0.5, 0.5, 1.0)

    def test_symmetric_and_nonnegative(self):
        pts = np.linspace(0.05, 0.95, 19)
        for family, param in [("f1", 0.4), ("f2", 0.6), ("f3", 1.0), ("gumbel", 2.0)]:
            U, V = np.meshgrid(pts, pts)
            c = ac.density(family, param, U, V)
            assert np.all(c >= 0.0)
            # symmetric up to multiplication-order rounding in the triple product
            assert np.max(np.abs(c - c.T)) <= 4.0 * np.finfo(float).eps * np.max(c)

    def test_matches_mixed_finite_difference(self):
        rng = np.random.default_rng(1234)
        for family, param in [("f1", 0.6), ("f2", 0.8), ("f3", 1.0),
                              ("gumbel", 2.0), ("independence", None)]:
            pts = rng.uniform(0.05, 0.95, size=(100, 2))
            for u, v in pts:
                fd = central_mixed_second(
                    lambda a, b: ac.cdf(family, param, a, b), u, v, 1e-4)
                assert ac.density(family, param, u, v) == pytest.approx(fd, rel=1e-3)


class TestReferenceGumbel:
    def test_product_case(self):
        assert reference_gumbel_cdf(1.0, 0.3, 0.7) == pytest.approx(0.21, rel=1e-14)

    def test_theta2_point(self):
        expected = math.exp(-math.sqrt(2.0) * math.log(2.0))
        assert reference_gumbel_cdf(2.0, 0.5, 0.5) == pytest.approx(expected,
                                                                       rel=1e-14)

    def test_rejects_theta_below_one(self):
        with pytest.raises(ac.DomainError):
            reference_gumbel_cdf(0.5, 0.5, 0.5)

    @pytest.mark.parametrize("alpha", [0.1, 0.4, 0.6, 1.0])
    def test_f1_equivalence(self, alpha):
        U, V = np.meshgrid(INTERIOR, INTERIOR)
        mine = ac.cdf("f1", alpha, U, V)
        ref = reference_gumbel_cdf(1.0 / alpha, U, V)
        assert np.max(np.abs(mine - ref)) <= 1e-12


class TestCrossFamilyIdentities:
    def test_exchangeability_exact(self):
        U, V = np.meshgrid(INTERIOR, INTERIOR)
        for family, param in [("f1", 0.3), ("f2", 0.7), ("f3", 4.0)]:
            C = ac.cdf(family, param, U, V)
            assert np.array_equal(C, C.T)

    @pytest.mark.parametrize("alpha", [0.4, 0.6, 1.0])
    def test_f2_equals_f1_squared_param(self, alpha):
        U, V = np.meshgrid(INTERIOR, INTERIOR)
        assert np.max(np.abs(ac.cdf("f2", alpha, U, V)
                             - ac.cdf("f1", alpha * alpha, U, V))) <= 1e-12

    def test_f3_alpha_invariance(self):
        U, V = np.meshgrid(INTERIOR, INTERIOR)
        base_c = ac.cdf("f3", 0.1, U, V)
        base_d = ac.density("f3", 0.1, U, V)
        for alpha in (0.6, 1.0, 10.0):
            assert np.max(np.abs(ac.cdf("f3", alpha, U, V) - base_c)) <= 1e-12
            assert np.max(np.abs(ac.density("f3", alpha, U, V) - base_d)) <= 1e-9

    def test_f3_matches_reduced_form(self):
        U, V = np.meshgrid(INTERIOR, INTERIOR)
        for alpha in (0.1, 1.0, 10.0):
            assert np.max(np.abs(ac.cdf("f3", alpha, U, V)
                                 - f3_reduced_cdf(U, V))) <= 1e-12

    def test_frechet_bounds(self):
        g = np.linspace(0.0, 1.0, 101)
        U, V = np.meshgrid(g, g)
        lower = np.maximum(U + V - 1.0, 0.0)
        upper = np.minimum(U, V)
        for family, param in [("f1", 0.1), ("f1", 0.6), ("f2", 0.4),
                              ("f3", 1.0), ("gumbel", 3.0), ("independence", None)]:
            C = ac.cdf(family, param, U, V)
            assert np.all(C >= lower - 1e-12)
            assert np.all(C <= upper + 1e-12)


def test_density_normalizes_gauss_legendre():
    x, w = np.polynomial.legendre.leggauss(64)
    nodes = 0.5 * (x + 1.0)
    wts = 0.5 * w
    U, V = np.meshgrid(nodes, nodes)
    W = wts[:, None] * wts[None, :]
    # f1 alpha=0.1 is excluded: its near-singular corner needs more than
    # 64 nodes to reach 1e-3 (verified to converge with finer rules).
    for family, param in [("f1", 0.4), ("f1", 0.6), ("f1", 1.0),
                          ("f2", 0.6), ("f2", 0.8), ("f2", 1.0),
                          ("f3", 0.1), ("f3", 1.0), ("f3", 10.0),
                          ("gumbel", 2.0), ("independence", None)]:
        total = float((W * ac.density(family, param, U, V)).sum())
        assert total == pytest.approx(1.0, abs=1e-3)
