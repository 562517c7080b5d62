"""Generator and inverse-generator contracts for all five families."""

import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import archcop as ac
from archcop.families import generator, generator_ratio
from oracles import (central_first, central_second, f3_cdf_mp, frailty_phi_mp, log_power_phi_mp,
                     frailty_psi_derivatives_mp, frailty_psi_mp, frailty_ratio_mp)

ALL_CASES = [
    ("f1", 0.1), ("f1", 0.4), ("f1", 0.6), ("f1", 1.0),
    ("f2", 0.1), ("f2", 0.4), ("f2", 0.6), ("f2", 1.0),
    ("f3", 0.1), ("f3", 1.0), ("f3", 10.0),
    ("gumbel", 1.0), ("gumbel", 2.0), ("gumbel", 5.0),
    ("independence", None),
]


class TestPhiExamples:
    def test_boundary_one(self):
        assert ac.phi("f1", 1.0, 1.0) == 0.0

    def test_f1_closed_point(self):
        # (-0.5 * ln(e^-1))**2 = 0.25
        assert ac.phi("f1", 0.5, math.exp(-1)) == pytest.approx(0.25, rel=1e-14)

    def test_f3_closed_point(self):
        # (alpha/2) * (-5 + sqrt(49)) = alpha
        assert ac.phi("f3", 2.0, 0.5) == pytest.approx(2.0, rel=1e-14)

    def test_boundary_zero_is_inf(self):
        assert ac.phi("f2", 1.0, 0.0) == math.inf
        assert ac.phi("f3", 3.0, 0.0) == math.inf

    def test_rejects_outside_unit(self):
        with pytest.raises(ac.DomainError):
            ac.phi("f1", 0.5, 1.5)
        with pytest.raises(ac.DomainError):
            ac.phi("f1", 0.5, -0.1)

    def test_rejects_bad_params(self):
        for fam, bad in [("f1", 1.5), ("f1", 0.0), ("f2", -1.0), ("f3", 0.0),
                         ("gumbel", 0.5)]:
            with pytest.raises(ac.DomainError):
                ac.phi(fam, bad, 0.5)
        with pytest.raises(ac.DomainError):
            ac.phi("independence", 1.0, 0.5)
        with pytest.raises(ac.DomainError):
            ac.phi("nope", 1.0, 0.5)


class TestDerivativeExamples:
    def test_f1_alpha1_prime(self):
        assert ac.phi_prime("f1", 1.0, 0.5) == pytest.approx(-2.0, rel=1e-14)

    def test_f3_prime(self):
        assert ac.phi_prime("f3", 2.0, 0.5) == pytest.approx(-48.0 / 7.0, rel=1e-14)

    def test_f2_alpha1_prime(self):
        assert ac.phi_prime("f2", 1.0, 0.25) == pytest.approx(-4.0, rel=1e-14)

    def test_f1_alpha1_double(self):
        assert ac.phi_double_prime("f1", 1.0, 0.5) == pytest.approx(4.0, rel=1e-14)

    def test_endpoint_rejection(self):
        for fn in (ac.phi_prime, ac.phi_double_prime):
            with pytest.raises(ac.DomainError):
                fn("f1", 0.5, 0.0)
            with pytest.raises(ac.DomainError):
                fn("f1", 0.5, 1.0)


class TestPsiExamples:
    def test_psi_at_zero(self):
        for fam, p in ALL_CASES:
            assert ac.psi(fam, p, 0.0) == 1.0

    def test_psi_at_inf(self):
        for fam, p in ALL_CASES:
            assert ac.psi(fam, p, math.inf) == 0.0

    def test_f1_value(self):
        assert ac.psi("f1", 0.5, 0.5) == pytest.approx(math.exp(-2 * math.sqrt(0.5)),
                                                       rel=1e-14)

    def test_f3_rational(self):
        assert ac.psi("f3", 2.0, 4.0) == pytest.approx(0.3, rel=1e-14)

    def test_f3_psi_derivatives(self):
        assert ac.psi_prime("f3", 2.0, 4.0) == pytest.approx(-432.0 / 6400.0, rel=1e-13)
        assert ac.psi_double_prime("f3", 2.0, 4.0) == pytest.approx(
            11712.0 / 512000.0, rel=1e-13)

    def test_f1_alpha1_psi_derivatives(self):
        e = math.exp(-0.7)
        assert ac.psi_prime("f1", 1.0, 0.7) == pytest.approx(-e, rel=1e-14)
        assert ac.psi_double_prime("f1", 1.0, 0.7) == pytest.approx(e, rel=1e-14)

    def test_singular_t_zero_rejected(self):
        with pytest.raises(ac.DomainError):
            ac.psi_prime("f1", 0.5, 0.0)
        # non-singular cases are fine at t=0
        assert ac.psi_prime("f3", 1.0, 0.0) == pytest.approx(-5.0 / 6.0, rel=1e-13)
        assert ac.psi_prime("f1", 1.0, 0.0) == -1.0


TINY = np.finfo(float).tiny  # smallest normal double


def check_f3_psi_derivatives(a, t):
    """psi' and psi'' of f3 at (a, t) are correct wherever their true value
    is a normal double; where it overflows (psi'' near t = a = 1e-300)
    there is none to check."""
    for fn, exact in zip((ac.psi_prime, ac.psi_double_prime),
                         frailty_psi_derivatives_mp(a, t)):
        exact = float(exact)
        if math.isinf(exact):
            continue
        got = fn("f3", a, t)
        assert math.isfinite(got)
        if abs(exact) >= TINY:
            assert abs(got - exact) <= 4e-15 * abs(exact)
        else:
            assert abs(got) <= 2.0 * TINY


@given(a=st.floats(min_value=1e-300, max_value=1e300),
       t=st.floats(min_value=1e-300, max_value=1e300))
@settings(max_examples=300, deadline=None)
def test_f3_psi_derivatives_match_mpmath(a, t):
    check_f3_psi_derivatives(a, t)


@pytest.mark.parametrize("a,t", [
    (1e-300, 1e-140),  # psi' = -1.2e-179: (t/a)**4 overflows
    (1e-250, 1e-50),  # psi'' = 3.6e-299: a**2/(t + 3a)**3 underflows
    (1e-258, 1e-198),  # psi'' = 3.6e277: a/(t + 3a)**3 overflows
])
def test_f3_psi_derivatives_at_extreme_ratios(a, t):
    check_f3_psi_derivatives(a, t)


def close_or_overflowed(got, exact, rtol):
    """``got`` is the double nearest ``exact`` to ``rtol``, or the
    infinity of its sign where ``exact`` is past the double range."""
    if abs(exact) > np.finfo(float).max:
        return got == math.copysign(math.inf, exact)
    return math.isfinite(got) and abs(got - exact) <= rtol * abs(exact)


@given(a=st.floats(min_value=1e-3, max_value=1e3),
       z=st.one_of(st.floats(min_value=5e-324, max_value=1e-300),
                   st.floats(min_value=1e-300, max_value=1.0, exclude_max=True)))
@settings(max_examples=400, deadline=None)
def test_f3_generator_matches_mpmath(a, z):
    phi_mp, prime_mp, double_mp = (float(v) for v in frailty_phi_mp(a, z))
    assert abs(ac.phi("f3", a, z) - phi_mp) <= 1e-14 * phi_mp
    assert close_or_overflowed(ac.phi_prime("f3", a, z), prime_mp, 1e-14)
    assert close_or_overflowed(ac.phi_double_prime("f3", a, z), double_mp, 1e-14)
    # a subnormal ratio keeps only its absolute precision
    ratio = float(frailty_ratio_mp(z))
    assert abs(generator_ratio("f3", a, z) - ratio) <= 1e-14 * abs(ratio) + 5e-324


@given(a=st.floats(min_value=1e-3, max_value=1e3),
       z=st.one_of(st.integers(1, 2**52).map(lambda k: 1.0 - k * 2.0**-53),
                   st.floats(min_value=-16.0, max_value=-0.31).map(lambda e: 1.0 - 10.0**e)))
@settings(max_examples=300, deadline=None)
def test_f3_generator_near_one_matches_mpmath(a, z):
    # s - 5 cancels as z -> 1, where s -> 5; phi, its log and the ratio
    # keep their relative precision there
    phi_mp = frailty_phi_mp(a, z)[0]
    assert abs(ac.phi("f3", a, z) - phi_mp) <= 1e-14 * phi_mp
    ratio = frailty_ratio_mp(z)
    assert abs(generator_ratio("f3", a, z) - ratio) <= 1e-14 * abs(ratio)
    log_a, log_rest = math.log(a), float(mpmath.log(phi_mp / a))
    got = generator("f3", a).log_phi(np.array([z]))[0]
    assert abs(got - mpmath.log(phi_mp)) <= 1e-15 * (1.0 + abs(log_a) + abs(log_rest))


@pytest.mark.parametrize("z", [1e-310, 5e-324, 1e-200, 1e-100])
def test_f3_generator_at_tiny_z(z):
    assert ac.phi("f3", 1.0, z) == pytest.approx(float(frailty_phi_mp(1.0, z)[0]), rel=1e-14)
    assert ac.phi_prime("f3", 1e-300, z) == pytest.approx(
        float(frailty_phi_mp(1e-300, z)[1]), rel=1e-14)
    assert ac.cdf("f3", 1.0, z, 0.5) == pytest.approx(float(f3_cdf_mp(z, 0.5)), rel=1e-13)
    # a subnormal ratio keeps only its absolute precision
    ratio = float(frailty_ratio_mp(z))
    assert abs(generator_ratio("f3", 1.0, z) - ratio) <= 1e-14 * abs(ratio) + 5e-324


@pytest.mark.parametrize("z", [0.125, 0.375, 0.625, 0.875, 1e-10, 1e-200, 1e-310])
def test_f3_generator_at_the_smallest_alpha(z):
    # phi = a*(s - 5)/2, where a/2 alone rounds to 0 at a = 5e-324
    want = float(frailty_phi_mp(5e-324, z)[0])
    assert ac.phi("f3", 5e-324, z) == pytest.approx(want, rel=1e-14, abs=5e-324)


@pytest.mark.parametrize("a,t", [(1e-300, 1e300), (1.0, 1e155), (1.0, 1e200), (2.0, 1e308)])
def test_f3_psi_past_the_double_range(a, t):
    # t/a or (t/a + 2)(t/a + 3) overflows, while psi is 0 or a small double
    assert ac.psi("f3", a, t) == pytest.approx(float(frailty_psi_mp(a, t)), rel=1e-15)


def powers(base, lo, hi):
    """base**e for e uniform in [lo, hi]: every exponent range is drawn."""
    return st.floats(min_value=lo, max_value=hi).map(lambda e: base**e)


# z in (0, 1) by decade as well as by hypothesis's own choice of floats
log_power_z = st.one_of(st.floats(min_value=1e-300, max_value=1.0, exclude_max=True),
                        powers(10.0, -300.0, 0.0).filter(lambda z: z < 1.0))
derivative_cases = st.one_of(
    st.tuples(st.sampled_from(["f1", "f2"]),
              st.one_of(st.floats(min_value=1e-3, max_value=1.0), powers(10.0, -3.0, 0.0)),
              log_power_z),
    st.tuples(st.just("gumbel"),
              st.one_of(st.floats(min_value=1.0, max_value=1e3), powers(10.0, 0.0, 3.0)),
              log_power_z),
    st.tuples(st.just("f3"), powers(10.0, -300.0, 300.0),
              st.one_of(st.floats(min_value=5e-324, max_value=1.0, exclude_max=True),
                        powers(2.0, -1074.0, 0.0).filter(lambda z: z < 1.0))),
)


@given(case=derivative_cases)
@settings(max_examples=400, deadline=None)
def test_generator_derivatives_match_mpmath(case):
    """phi' and phi'' are correct wherever their true value is a normal
    double, and past the normal range are 0 or subnormal, or infinite,
    with the true value's sign; no warning is raised."""
    family, param, z = case
    if family == "f3":
        exact, rtol = frailty_phi_mp(param, z)[1:], 1e-12
    else:
        g = generator(family, param)
        exact = log_power_phi_mp(g.c, g.p, z)
        # -ln z is rounded once, and the power (c*x)**(p - 1) turns that
        # rounding into p - 1 of them (p = 1e6 for f2 at alpha = 1e-3)
        rtol = 1e-12 + 2.0 * g.p * np.finfo(float).eps
    for fn, want in zip((ac.phi_prime, ac.phi_double_prime), exact):
        got = fn(family, param, z)
        if abs(want) > np.finfo(float).max:
            assert got == math.copysign(math.inf, want)
        elif abs(want) < TINY:
            assert abs(got) < TINY and math.copysign(1.0, got) == mpmath.sign(want)
        else:
            assert abs(got - float(want)) <= rtol * abs(float(want))


@pytest.mark.parametrize("family,param", ALL_CASES)
def test_exact_branches_on_mixed_arrays(family, param):
    """Each function answers an array holding its edge points bit for bit
    as it answers them one at a time, keeps a 2-D shape and maps an empty
    array to an empty one."""
    at_zero = [] if generator(family, param).singular_at_zero() else [0.0]
    for fn, points in [
        (ac.phi, [0.0, -0.0, 1e-310, 0.3, 1.0]),
        (ac.psi, [0.0, 1e-300, 2.0, math.inf]),
        (ac.psi_prime, [*at_zero, 1e-300, 2.0, math.inf]),
        # at t = 1e-300, psi'' of the log-power kind with p > 1 overflows with a warning
        (ac.psi_double_prime, [*at_zero, 1e-100, 2.0, math.inf]),
        (generator_ratio, [0.0, 1e-310, 0.5]),
    ]:
        got = fn(family, param, np.array(points))
        one_by_one = np.array([fn(family, param, x) for x in points])
        assert got.tobytes() == one_by_one.tobytes()
        square = np.resize(np.array(points), (2, 3))
        assert fn(family, param, square).tobytes() == np.resize(one_by_one, (2, 3)).tobytes()
        assert fn(family, param, np.array([])).shape == (0,)


@pytest.mark.parametrize("family,param", ALL_CASES)
def test_round_trip_grid(family, param):
    # upper cap 1 - 1e-3: closer to 1 the f2 alpha=0.1 generator value
    # (-ln z)^100 drops below the smallest subnormal double
    z = np.concatenate([
        np.geomspace(1e-9, 0.5, 60),
        np.linspace(0.5, 1.0 - 1e-3, 60),
    ])
    back = ac.psi(family, param, np.atleast_1d(ac.phi(family, param, z)))
    assert np.max(np.abs(back - z)) <= 1e-12


@pytest.mark.parametrize("family,param", ALL_CASES)
def test_phi_derivative_consistency(family, param):
    z = np.linspace(0.02, 0.98, 100)
    for zi in z:
        fd1 = central_first(lambda x: ac.phi(family, param, x), zi)
        assert ac.phi_prime(family, param, zi) == pytest.approx(fd1, rel=1e-5)
        # small step: phi'''' blows up near z=0, so truncation dominates here
        fd2 = central_second(lambda x: ac.phi(family, param, x), zi, h=1e-5)
        assert ac.phi_double_prime(family, param, zi) == pytest.approx(fd2, rel=1e-4)


@pytest.mark.parametrize("family,param", ALL_CASES)
def test_psi_derivative_consistency(family, param):
    t = np.geomspace(0.05, 20.0, 100)
    for ti in t:
        fd1 = central_first(lambda x: ac.psi(family, param, x), ti)
        assert ac.psi_prime(family, param, ti) == pytest.approx(fd1, rel=1e-5, abs=1e-9)
        fd2 = central_second(lambda x: ac.psi(family, param, x), ti)
        assert ac.psi_double_prime(family, param, ti) == pytest.approx(
            fd2, rel=1e-4, abs=1e-7)


@pytest.mark.parametrize("family,param", ALL_CASES)
def test_monotone_convex_probes(family, param):
    z = np.geomspace(1e-10, 1 - 1e-3, 200)
    assert np.all(np.atleast_1d(ac.phi_prime(family, param, z)) < 0)
    assert np.all(np.atleast_1d(ac.phi_double_prime(family, param, z)) > 0)
    t = np.geomspace(1e-6, 50.0, 200)
    assert np.all(np.atleast_1d(ac.psi_prime(family, param, t)) < 0)
    assert np.all(np.atleast_1d(ac.psi_double_prime(family, param, t)) > 0)


# alpha below 0.1 gives f2 exponents past 100, where phi overflows double
# precision for small z; the admissible test range keeps everything finite.
@given(
    alpha=st.floats(min_value=0.1, max_value=1.0),
    z=st.floats(min_value=1e-9, max_value=1.0 - 1e-3),
)
@settings(max_examples=200, deadline=None)
def test_round_trip_property(alpha, z):
    for family in ("f1", "f2", "f3"):
        assert ac.psi(family, alpha, ac.phi(family, alpha, z)) == pytest.approx(
            z, abs=1e-12)


@given(
    alpha=st.floats(min_value=0.1, max_value=1.0),
    z=st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
)
@settings(max_examples=200, deadline=None)
def test_f1_f2_generator_scaling(alpha, z):
    # phi_f1(z; a) = a**(1/a) * phi_f2(z; sqrt(a)): same copula up to scale
    lhs = ac.phi("f1", alpha, z)
    rhs = alpha ** (1.0 / alpha) * ac.phi("f2", math.sqrt(alpha), z)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_generator_ratio_matches_quotient():
    z = np.geomspace(1e-6, 1 - 1e-3, 50)
    for family, param in ALL_CASES:
        direct = np.atleast_1d(ac.phi(family, param, z)) / np.atleast_1d(
            ac.phi_prime(family, param, z))
        stable = np.atleast_1d(generator_ratio(family, param, z))
        assert np.max(np.abs(direct - stable) / np.abs(direct)) < 1e-10


class TestConditionReport:
    def test_f1_passes(self):
        assert ac.check_generator_conditions("f1", 0.6, 64).all_passed

    def test_f2_alpha1_passes(self):
        assert ac.check_generator_conditions("f2", 1.0, 64).all_passed

    def test_all_families_pass(self):
        for family, param in ALL_CASES:
            assert ac.check_generator_conditions(family, param, 64).all_passed

    def test_rejects_bad_alpha(self):
        with pytest.raises(ac.DomainError):
            ac.check_generator_conditions("f1", 1.5, 64)

    def test_rejects_small_probe_count(self):
        with pytest.raises(ac.DomainError):
            ac.check_generator_conditions("f1", 0.5, 2)

    def test_kind_nonzero_at_one_fails(self, monkeypatch):
        """phi(1) = 0 is read from the kind, not from the public phi's exact
        branch at z = 1, so a kind that misses it fails the audit."""
        from archcop.families import LogPower

        phi = LogPower.phi
        monkeypatch.setattr(LogPower, "phi", lambda self, z: phi(self, z) + 1e-300)
        report = ac.check_generator_conditions("gumbel", 2.0, 64)
        assert report.zero_at_one is False
        assert report.all_passed is False
        assert json.loads(json.dumps(report.to_dict()))["zero_at_one"] is False


# The domains as the documentation states them, written out here rather than
# read from archcop: (low end, low end in it, high end, high end in it, text).
UNIT = (0.0, True, 1.0, True, "[0,1]")
OPEN_UNIT = (0.0, False, 1.0, False, "(0,1)")
HALF_OPEN_UNIT = (0.0, True, 1.0, False, "[0,1)")
T_RANGE = (0.0, True, math.inf, True, "[0,inf]")
POINT_DOMAINS = [  # (function, argument, its interval, a point inside it)
    (ac.phi, "z", UNIT, 0.5),
    (ac.phi_prime, "z", OPEN_UNIT, 0.5),
    (ac.phi_double_prime, "z", OPEN_UNIT, 0.5),
    (ac.psi, "t", T_RANGE, 1.0),
    (ac.psi_prime, "t", T_RANGE, 1.0),
    (ac.psi_double_prime, "t", T_RANGE, 1.0),
    (generator_ratio, "z", HALF_OPEN_UNIT, 0.5),
    (ac.cdf, "u", UNIT, 0.5),
    (ac.cdf, "v", UNIT, 0.5),
    (ac.partial_u, "u", OPEN_UNIT, 0.5),
    (ac.partial_u, "v", UNIT, 0.5),
    (ac.density, "u", OPEN_UNIT, 0.5),
    (ac.density, "v", OPEN_UNIT, 0.5),
]
PARAM_DOMAINS = {  # family -> (parameter, its interval)
    "f1": ("alpha", (0.0, False, 1.0, True, "(0,1]")),
    "f2": ("alpha", (0.0, False, 1.0, True, "(0,1]")),
    "f3": ("alpha", (0.0, False, math.inf, False, "(0,inf)")),
    "gumbel": ("theta", (1.0, True, math.inf, False, "[1,inf)")),
}
# psi' and psi'' are singular at t = 0 where the log-power exponent p > 1
POINT_CASES = [("f1", 1.0), ("f1", 0.4), ("f2", 1.0), ("f2", 0.6), ("f2", 1e-3), ("f3", 2.0),
               ("gumbel", 1.0), ("gumbel", 5.0), ("independence", None)]
SINGULAR_AT_ZERO = {("f1", 0.4), ("f2", 0.6), ("f2", 1e-3), ("gumbel", 5.0)}


def probes(domain):
    """Each end of ``domain``, the doubles just inside and just beyond it,
    NaN, +-inf and -0.0."""
    lo, _, hi, _, _ = domain
    near = [lo, np.nextafter(lo, -math.inf), np.nextafter(lo, math.inf),
            hi, np.nextafter(hi, math.inf), np.nextafter(hi, -math.inf)]
    return sorted({float(x) for x in near} | {-math.inf, math.inf, -0.0}) + [math.nan]


def inside(x, domain):
    lo, lo_in, hi, hi_in, _ = domain
    return lo < x < hi or (x == lo and lo_in) or (x == hi and hi_in)


def call(fn, name, value, other, family, param):
    if name in ("u", "v"):
        u, v = (value, other) if name == "u" else (other, value)
        return fn(family, param, u, v)
    return fn(family, param, value)


def domain_error_text(fn, *args):
    with pytest.raises(ac.DomainError) as exc:
        fn(*args)
    return str(exc.value)


@pytest.mark.parametrize("family,param", POINT_CASES)
@pytest.mark.parametrize("fn,name,domain,mid", POINT_DOMAINS,
                         ids=[f"{fn.__name__}-{name}" for fn, name, _, _ in POINT_DOMAINS])
def test_point_domains(fn, name, domain, mid, family, param):
    for x in probes(domain):
        arr = np.array([[mid, x], [x, mid]])
        singular = (name == "t" and x == 0.0 and fn is not ac.psi
                    and (family, param) in SINGULAR_AT_ZERO)
        if singular:
            text = f"t=0 is singular for family {family!r} at this parameter"
        elif not inside(x, domain):
            text = f"{name} out of domain {domain[4]}"
        else:
            out = call(fn, name, x, mid, family, param)
            assert type(out) is float, (x, out)
            out = call(fn, name, arr, mid, family, param)
            assert isinstance(out, np.ndarray) and out.shape == (2, 2), (x, out)
            continue
        for value in (x, arr):
            got = domain_error_text(call, fn, name, value, mid, family, param)
            assert got == text, (x, got)


@pytest.mark.parametrize("family", PARAM_DOMAINS)
def test_param_domains(family):
    name, domain = PARAM_DOMAINS[family]
    for a in probes(domain):
        if not math.isfinite(a):
            text = f"family {family!r} requires a finite parameter"
        elif not inside(a, domain):
            text = f"{name} out of domain {domain[4]} for family {family!r}"
        else:
            assert ac.check_param(family, a) == a
            continue
        assert domain_error_text(ac.check_param, family, a) == text, a
        for fn, arg, _, mid in POINT_DOMAINS:
            assert domain_error_text(call, fn, arg, mid, 0.5, family, a) == text, (fn, a)


def test_independence_takes_no_parameter():
    assert ac.check_param("independence", None) is None
    for a in (0.5, 1.0, math.nan, math.inf):
        text = "independence takes no parameter"
        assert domain_error_text(ac.check_param, "independence", a) == text
        for fn, arg, _, mid in POINT_DOMAINS:
            assert domain_error_text(call, fn, arg, mid, 0.5, "independence", a) == text
