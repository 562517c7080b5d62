"""Joint CDF, conditional, and density contracts."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import archcop as ac
from archcop.copula import _lattice_cdf
from archcop.families import generator
from oracles import central_mixed_second, f3_mp, f3_reduced_cdf, reference_gumbel_cdf
from test_families import ALL_CASES
from test_log_power import log_uniform

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


class TestTailDependence:
    """The tail dependence coefficients from ``cdf``: f3's lower
    lambda_L = lim C(u, u)/u = 1/4, as psi(t) ~ 6/t**2, and the log-power
    kind's upper lambda_U = lim (1 - 2u + C(u, u))/(1 - u) = 2 - 2**(1/p)."""

    def test_f3_lower(self):
        u = 1e-100
        assert abs(ac.cdf("f3", 1.0, u, u) / u - 0.25) <= 1e-12

    def test_gumbel_upper(self):
        u = 1.0 - 1e-6
        lam = (1.0 - 2.0 * u + ac.cdf("gumbel", 2.0, u, u)) / (1.0 - u)
        assert abs(lam - (2.0 - math.sqrt(2.0))) <= 1e-5


class TestF3ClosedForms:
    """f3's dC/du and density in s = sqrt(1 + 24/z), against the 50-digit
    generator composition."""

    @given(alpha=st.floats(min_value=1e-300, max_value=1e300),
           u=st.floats(min_value=1e-300, max_value=1.0, exclude_max=True),
           v=st.floats(min_value=1e-300, max_value=1.0, exclude_max=True))
    @settings(max_examples=300, deadline=None)
    def test_match_composition(self, alpha, u, v):
        du, pdf = ac.partial_u("f3", alpha, u, v), ac.density("f3", alpha, u, v)
        assert math.isfinite(du) and math.isfinite(pdf)
        for got, exact in zip((du, pdf), f3_mp(u, v)):
            exact = float(exact)
            if exact >= np.finfo(float).tiny:
                assert abs(got - exact) <= 4e-15 * exact
            else:
                assert 0.0 <= got <= 2.0 * np.finfo(float).tiny

    def test_density_past_the_double_range_is_quiet(self):
        # c is about 1e309 here: the final product overflows to inf, its
        # rounded value, without a numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ac.density("f3", 1.0, 1e-310, 1e-310) == math.inf

    @pytest.mark.parametrize("a", [1e-300, 0.1, 1.0, 10.0, 1e300])
    def test_kind_ignores_alpha(self, a):
        # the f3 copula does not depend on alpha, so its kind composes at
        # alpha = 1 for every alpha: the same bits, not just close values
        rng = np.random.Generator(np.random.Philox(key=5))
        u, v = rng.random((2, 10_000)) * (1.0 - 2e-15) + 1e-15
        L = -np.log(rng.random(10_000) * (1.0 - 2e-15) + 1e-15)
        g, one = generator("f3", a), generator("f3", 1.0)
        for name in ("cdf", "partial_u", "density"):
            got = getattr(g, name)(g.axis(u), g.axis(v))
            assert np.array_equal(got, getattr(one, name)(one.axis(u), one.axis(v))), name
        assert np.array_equal(g.conditional_v(u, L), one.conditional_v(u, L))

    @pytest.mark.parametrize("u", [1e-310, 1e-300, 1e-200, 1e-160])
    def test_tiny_u(self, u):
        # psi'(t) * phi'(u) gave NaN or 0 here: t overflows psi's q*q and
        # u*u underflows in phi'
        assert ac.partial_u("f3", 1.0, u, 0.5) == 1.0
        exact = float(f3_mp(u, 0.5)[1])
        assert ac.density("f3", 1.0, u, 0.5) == pytest.approx(exact, rel=4e-15, abs=0.0)


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


@pytest.mark.parametrize("family,param", [("f1", 0.4), ("f3", 2.0)])
def test_inputs_unchanged_and_not_shared(family, param):
    u = np.linspace(0.05, 0.95, 7)
    v = u[::-1].copy()
    t = np.array([0.0, 0.5, 3.0, np.inf])
    calls = [(ac.cdf, (u, v)), (ac.partial_u, (u, v)), (ac.density, (u, v)),
             (ac.cdf, (0.3, v)), (ac.phi, (u,)), (ac.psi, (t,))]
    for fn, args in calls:
        before = [np.copy(a) for a in args]
        result = fn(family, param, *args)
        for a, b in zip(args, before):
            assert np.array_equal(a, b)
            assert not np.shares_memory(result, a)


@pytest.mark.parametrize("family,param", ALL_CASES)
def test_edge_is_min_on_mixed_arrays(family, param):
    """On the edge of the unit square C(u, v) is min(u, v) and dC/du is v,
    bit for bit and +0.0 for a zero, in arrays that mix edge and interior
    points in either argument order; every point gets what it gets alone,
    a (2, 3) array keeps its shape and an empty one stays empty."""
    points = np.array([0.0, -0.0, 1.0, 1e-310, 0.3, 0.7])
    x, y = (a.ravel() for a in np.meshgrid(points, points))
    in_x = (0.0 < x) & (x < 1.0)
    in_y = (0.0 < y) & (y < 1.0)
    for fn, u, v, edge_value in [
        (ac.cdf, x, y, np.minimum(x, y)),
        (ac.cdf, y, x, np.minimum(y, x)),
        (ac.partial_u, x[in_x], y[in_x], y[in_x]),  # u in (0, 1) only
        (ac.partial_u, y[in_y], x[in_y], x[in_y]),
    ]:
        got = fn(family, param, u, v)
        edge = (np.minimum(u, v) <= 0.0) | (np.maximum(u, v) >= 1.0)
        assert got[edge].tobytes() == (edge_value[edge] + 0.0).tobytes()
        one_by_one = np.array([fn(family, param, a, b) for a, b in zip(u, v)])
        assert got.tobytes() == one_by_one.tobytes()
        square = fn(family, param, u[-6:].reshape(2, 3), v[-6:].reshape(2, 3))
        assert square.shape == (2, 3) and square.tobytes() == got[-6:].tobytes()
        assert fn(family, param, np.array([]), np.array([])).shape == (0,)


def bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)  # -0.0 and each NaN count


@given(case=st.one_of(
           st.tuples(st.sampled_from(["f1", "f2"]),
                     st.one_of(log_uniform(1e-3, 1.0), st.floats(1e-3, 1.0))),
           st.tuples(st.just("gumbel"), st.one_of(log_uniform(1.0, 1e300), st.floats(1.0, 1e3))),
           st.tuples(st.just("f3"), st.one_of(log_uniform(5e-324, 1.7e308),
                                              st.floats(5e-324, 1e3))),
           st.just(("independence", None))),
       n=st.sampled_from([2, 3, 4, 7, 50]))
@settings(max_examples=150, deadline=None)
def test_lattice_rows_are_cdf_and_density_bitwise(case, n):
    """The rows that the grid and the audit compose from each coordinate's
    axis term once, one at a time and in strips, hold the bits ``cdf`` and
    ``density`` give point by point."""
    family, param = case
    g = generator(family, param)
    pts = np.linspace(0.0, 1.0, n + 1)
    terms = g.axis(pts[1:-1])
    want = bits([ac.cdf(family, param, u, pts) for u in pts])
    rows = [_lattice_cdf(g, pts, terms, i, i + 1)[0] for i in range(n + 1)]
    assert np.array_equal(bits(rows), want)
    for k in (2, 3, n + 1):  # strips of k rows, the last one shorter or whole
        strips = [_lattice_cdf(g, pts, terms, i, i + k) for i in range(0, n + 1, k)]
        assert np.array_equal(bits(np.concatenate(strips)), want)
    mid = (np.arange(n) + 0.5) / n
    terms = g.axis(mid)
    rows = [g.density(terms[..., i : i + 1], terms) for i in range(n)]
    assert np.array_equal(bits(rows), bits([ac.density(family, param, u, mid) for u in mid]))
