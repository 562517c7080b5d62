"""The log-power kind over its whole parameter domain.

``f1``, ``f2``, ``gumbel`` and ``independence`` share phi = (c*(-ln z))**p,
and their compositions are the Gumbel copula with theta = p.  These tests
cover alpha down to 1e-3 (p up to 1e3 for f1 and 1e6 for f2) and theta up
to 1e3, where phi itself under- or overflows double precision.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

import archcop as ac
from archcop.families import LogPower, generator
from oracles import gumbel_mp, log_power_psi_mp, log_power_theta

EPS = np.finfo(float).eps

alphas = st.floats(min_value=1e-3, max_value=1.0)
cases = st.one_of(
    st.tuples(st.just("f1"), alphas),
    st.tuples(st.just("f2"), alphas),
    st.tuples(st.just("gumbel"), st.floats(min_value=1.0, max_value=1e3)),
)
# 1e-300 keeps the density representable at the largest p (f2, alpha=1e-3)
points = st.floats(min_value=1e-300, max_value=1.0, exclude_max=True)


def tolerance(p, u, v):
    """Relative error allowed against the 50-digit closed form.

    Each composition is exp of a sum of logs.  A double sum carries an
    absolute error of about eps times the size of its terms, which
    becomes a relative error of the exp: the terms are x, y, w (below
    x + y) and, for partial_u and the density, (p - 1)*|ln(x/w)| and
    (p - 1)*|ln(y/w)|, with w close to max(x, y).  The powers r**p and
    (x/w)**(p-1) likewise turn a rounding of r or x/w into p of them.
    Sampling 20,000 points over this domain gave at most 1.9 times this
    bound before the factor 8.
    """
    x, y = -math.log(u), -math.log(v)
    big = max(x, y)
    logs = abs(math.log(x / big)) + abs(math.log(y / big))
    return 8.0 * EPS * (1.0 + x + y + p * (1.0 + logs))


def agrees(got, exact, rtol):
    # below 1e-290 a double result may be subnormal or flushed to 0
    return abs(got - float(exact)) <= rtol * abs(float(exact)) + 1e-290


@given(case=cases, u=points, v=points)
@settings(max_examples=300, deadline=None)
def test_compositions_match_closed_form(case, u, v):
    family, param = case
    p = log_power_theta(family, param)
    c = ac.cdf(family, param, u, v)
    du = ac.partial_u(family, param, u, v)
    pdf = ac.density(family, param, u, v)
    assert all(math.isfinite(val) for val in (c, du, pdf))
    assert 0.0 <= du <= 1.0
    assert pdf >= 0.0
    exact = gumbel_mp(p, u, v)
    rtol = tolerance(p, u, v)
    assert agrees(c, exact[0], rtol)
    assert agrees(du, exact[1], rtol)
    assert agrees(pdf, exact[2], rtol)


def log_uniform(lo, hi):
    return st.floats(min_value=math.log(lo), max_value=math.log(hi)).map(
        lambda x: min(max(math.exp(x), lo), hi))


@given(case=st.one_of(st.tuples(st.sampled_from(["f1", "f2"]), log_uniform(1e-3, 1.0)),
                      st.tuples(st.just("gumbel"), log_uniform(1.0, 1e3))),
       t=st.one_of(log_uniform(5e-324, 1e3), st.floats(min_value=5e-324, max_value=1e3)))
@example(case=("f1", 1e-3), t=1e-200)
@example(case=("f1", 1e-3), t=1e-127)
@example(case=("f1", 0.0011759377044943836), t=1.051218367982332e-49)
@settings(max_examples=300, deadline=None)
def test_psi_derivatives_match_closed_form(case, t):
    """psi' and psi'' to 1e-12 wherever the value is a normal double,
    where t**(r-1), t**(2r-2) or exp(-t**r/c) alone may overflow, underflow
    or be subnormal; a RuntimeWarning fails the test (pyproject.toml)."""
    family, param = case
    g = generator(family, param)
    for fn, exact in zip((ac.psi_prime, ac.psi_double_prime), log_power_psi_mp(g.c, g.p, t)):
        if not np.finfo(float).tiny <= abs(exact) <= np.finfo(float).max:
            continue
        got = fn(family, param, t)
        assert abs(got - float(exact)) <= 1e-12 * abs(float(exact))


@pytest.mark.parametrize("family,param", [("f1", 1e-3), ("f1", 5e-3), ("f1", 0.01),
                                          ("gumbel", 100.0), ("gumbel", 1000.0),
                                          ("f3", 1e-300), ("f3", 1e300)])
def test_conditional_sampler_at_strong_dependence(family, param):
    n = 20_000
    pairs = ac.sample_conditional(family, param, n, seed=11).pairs
    assert np.unique(pairs[:, 1]).size == n
    for margin in pairs.T:
        assert stats.kstest(margin, "uniform").pvalue > 1e-9
    est = ac.kendall_tau_mc(pairs)
    closed = ac.kendall_tau_closed(family, param).tau
    assert abs(est.tau - closed) <= 6.0 * est.error_bound


@pytest.mark.parametrize("family,param", [("f2", 0.05), ("f1", 0.004), ("f1", 0.005),
                                          ("f1", 1e-3), ("f2", 1e-3), ("gumbel", 1e3)])
def test_generator_conditions_hold_where_derivatives_underflow(family, param):
    report = ac.check_generator_conditions(family, param, 64)
    assert report.all_passed
    assert ac.grid_validity_report(family, param, 20).all_passed


def test_audit_fails_on_one_wrong_signed_second_derivative(monkeypatch):
    probes = np.geomspace(1e-12, 1.0 - 1e-3, 64)
    bad_z = probes[40]
    honest = LogPower.log_phi_double_prime

    def flipped(self, z):
        sign, mag = honest(self, z)
        return np.where(z == bad_z, -sign, sign), mag

    monkeypatch.setattr(LogPower, "log_phi_double_prime", flipped)
    report = ac.check_generator_conditions("f1", 0.5, 64)
    assert report.strictly_decreasing
    assert not report.convex
    assert not report.all_passed
    assert report.worst_phi_double_prime[0] == bad_z


@pytest.mark.parametrize("family,param", [("f1", 0.3), ("f2", 0.6), ("f3", 0.1),
                                          ("f3", 10.0), ("gumbel", 4.0),
                                          ("independence", None)])
def test_log_forms_match_derivatives(family, param):
    g = generator(family, param)
    z = np.geomspace(1e-12, 1.0 - 1e-3, 64)
    for value, (sign, mag) in [(g.phi_prime(z), g.log_phi_prime(z)),
                               (g.phi_double_prime(z), g.log_phi_double_prime(z))]:
        assert np.array_equal(sign, np.sign(value))
        assert np.allclose(mag, np.log(np.abs(value)), rtol=1e-12, atol=1e-12)
    assert np.allclose(g.log_phi(z), np.log(g.phi(z)), rtol=1e-12, atol=1e-12)
