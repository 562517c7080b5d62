"""Frailty machinery and the two pair samplers."""

import math
import os
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import integrate, stats

import archcop as ac
from archcop import cli, copula, families, numerics, sampling
from archcop.families import BLOCK, generator
from oracles import (LineCountingStream, _philox, conditional_root_mp, frailty_pdf, mbur_pdf,
                     pairs_csv_loop, sample_conditional_whole, sample_frailty,
                     sample_frailty_copula_whole)
from test_families import ALL_CASES


class TestMburPdf:
    def test_vanishes_at_one(self):
        assert mbur_pdf(1.0 - 1e-12, 1.0) == pytest.approx(0.0, abs=1e-9)

    def test_alpha1_point(self):
        # 6 * (1 - y) * y at y = 0.25
        assert mbur_pdf(0.25, 1.0) == pytest.approx(1.125, rel=1e-14)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_normalizes(self, alpha):
        val, _ = integrate.quad(lambda y: mbur_pdf(y, alpha), 0.0, 1.0)
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_domain(self):
        with pytest.raises(ac.DomainError):
            mbur_pdf(0.0, 1.0)
        with pytest.raises(ac.DomainError):
            mbur_pdf(0.5, -1.0)


class TestFrailtyPdf:
    def test_vanishes_at_origin(self):
        assert frailty_pdf(1e-12, 2.0) == pytest.approx(0.0, abs=1e-9)

    def test_alpha1_point(self):
        expected = 6.0 * (1.0 - np.exp(-1.0)) * np.exp(-2.0)
        assert frailty_pdf(1.0, 1.0) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_normalizes(self, alpha):
        val, _ = integrate.quad(lambda w: frailty_pdf(w, alpha), 0.0, np.inf)
        assert val == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_change_of_variables_identity(self, alpha):
        # image of the unit-interval density under w = -ln(y)/alpha^3
        w = np.geomspace(0.01, 5.0, 50) / alpha
        a3 = alpha**3
        y = np.exp(-a3 * w)
        expected = mbur_pdf(y, alpha) * a3 * y
        got = frailty_pdf(w, alpha)
        assert np.max(np.abs(got - expected) / expected) <= 1e-10


class TestFrailtyDraws:
    def test_mean(self):
        rng = np.random.Generator(np.random.Philox(key=99))
        g = sample_frailty(1.0, rng, size=100_000)
        se = g.std(ddof=1) / np.sqrt(g.size)
        assert abs(g.mean() - 5.0 / 6.0) <= 3.0 * se

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_empirical_laplace_transform(self, t):
        rng = np.random.Generator(np.random.Philox(key=77))
        g = sample_frailty(1.0, rng, size=100_000)
        emp = np.exp(-t * g)
        se = emp.std(ddof=1) / np.sqrt(emp.size)
        assert abs(emp.mean() - ac.psi("f3", 1.0, t)) <= 3.0 * se

    def test_histogram_matches_pdf(self):
        alpha = 1.0
        rng = np.random.Generator(np.random.Philox(key=13))
        g = sample_frailty(alpha, rng, size=100_000)
        edges = np.linspace(0.0, 4.0, 33)
        cdf = lambda w: 1.0 - 3.0 * np.exp(-2 * alpha * w) + 2.0 * np.exp(-3 * alpha * w)
        probs = np.diff(cdf(edges))
        probs = np.append(probs, 1.0 - cdf(edges[-1]))
        counts = np.append(np.histogram(g, bins=edges)[0],
                           np.count_nonzero(g > edges[-1]))
        chi2 = float(((counts - g.size * probs) ** 2 / (g.size * probs)).sum())
        p = stats.chi2.sf(chi2, df=len(probs) - 1)
        assert p > 0.001

    def test_scalar_draw(self):
        rng = np.random.Generator(np.random.Philox(key=1))
        assert sample_frailty(2.0, rng) > 0.0


class TestConditionalSampler:
    def test_independence_tau(self):
        batch = ac.sample_conditional("independence", None, 10_000, 42)
        est = ac.kendall_tau_mc(batch.pairs)
        assert abs(est.tau) <= 3.0 * est.error_bound

    def test_f1_tau(self):
        est = ac.kendall_tau_mc(ac.sample_conditional("f1", 0.5, 20_000, 7).pairs)
        assert abs(est.tau - 0.5) <= 3.0 * est.error_bound

    def test_f3_tau(self):
        est = ac.kendall_tau_mc(ac.sample_conditional("f3", 1.0, 20_000, 7).pairs)
        assert abs(est.tau - 0.2033) <= 3.0 * est.error_bound + 1e-3

    def test_deterministic(self):
        a = ac.sample_conditional("f2", 0.6, 500, 123)
        b = ac.sample_conditional("f2", 0.6, 500, 123)
        assert np.array_equal(a.pairs, b.pairs)
        assert a.to_csv() == b.to_csv()

    def test_coordinates_strictly_interior(self):
        batch = ac.sample_conditional("f1", 0.3, 2000, 9)
        assert np.all((batch.pairs > 0.0) & (batch.pairs < 1.0))

    @pytest.mark.parametrize("family,param,seed", [
        ("f1", 0.5, 21), ("f2", 0.8, 22), ("f3", 1.0, 23), ("independence", None, 24),
    ])
    def test_marginal_uniformity_ks(self, family, param, seed):
        pairs = ac.sample_conditional(family, param, 10_000, seed).pairs
        crit = 1.9495 / np.sqrt(pairs.shape[0])  # 0.001 asymptotic critical value
        for col in (0, 1):
            d = stats.kstest(pairs[:, col], "uniform").statistic
            assert d < crit


def conditional_v(family, param, u, q):
    """The sampler's v for one (u, q)."""
    v = generator(family, param).conditional_v(np.array([u]), -np.log(np.array([q])))
    return float(v[0])


class TestConditionalInversion:
    """Newton inversion of dC/du(u, v) = q for v, per generator kind."""

    alphas = st.floats(min_value=1e-3, max_value=1.0)
    cases = st.one_of(
        st.tuples(st.just("f1"), alphas),
        st.tuples(st.just("f2"), alphas),
        st.tuples(st.just("gumbel"), st.floats(min_value=1.0, max_value=1e3)),
        st.tuples(st.just("f3"), st.floats(min_value=1e-300, max_value=1e300)),
    )
    unit = st.floats(min_value=1e-15, max_value=1.0 - 1e-15)

    @given(case=cases, u=unit, q=unit)
    @settings(max_examples=200, deadline=None)
    def test_matches_mpmath_root(self, case, u, q):
        family, param = case
        v = conditional_v(family, param, u, q)
        assert math.isfinite(v) and 0.0 <= v <= 1.0
        assert abs(v - float(conditional_root_mp(family, param, u, q))) <= 1e-14

    def test_near_one_regression(self):
        # Bisection over dC/du gave 0.3108 here: dC/du rounds to 1 over a
        # range of v wider than its tolerance once q is within 1e-15 of 1.
        v = conditional_v("f1", 1e-3, 0.3, 1.0 - 1e-15)
        assert v == pytest.approx(0.31251656016799345, abs=1e-14)

    @pytest.mark.parametrize("family,param", [
        ("f1", 0.5), ("f1", 0.01), ("f1", 1e-3), ("f2", 0.8), ("f2", 0.05), ("f2", 1e-3),
        ("gumbel", 4.0), ("gumbel", 1e3), ("independence", None), ("f3", 1.0), ("f3", 2.0),
    ])
    def test_agrees_with_bisection(self, family, param):
        # Reference: the former sampler, bisection over partial_u to 1e-10
        # on the same seeded draws.
        n, seed = 100_000, 11
        v = ac.sample_conditional(family, param, n, seed).pairs[:, 1]
        draws = _philox(n, 2, seed)
        u = np.clip(draws[:, 0], 1e-15, 1.0 - 1e-15)
        q = np.clip(draws[:, 1], 1e-15, 1.0 - 1e-15)
        ref = numerics.bisect_monotone_batch(
            lambda vv: ac.partial_u(family, param, u, vv), q, 0.0, 1.0, 1e-10)
        assert np.max(np.abs(v - np.clip(ref, 1e-15, 1.0 - 1e-15))) <= 1e-10
        assert np.unique(v).size == n

    def test_uses_neither_partial_u_nor_bisection(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the sampler must not call this")

        monkeypatch.setattr(copula, "partial_u", forbidden)
        monkeypatch.setattr(ac, "partial_u", forbidden)
        monkeypatch.setattr(numerics, "bisect_monotone_batch", forbidden)
        for family, param in [("f1", 0.5), ("f2", 0.05), ("gumbel", 4.0),
                              ("independence", None), ("f3", 2.0)]:
            pairs = ac.sample_conditional(family, param, 1000, 3).pairs
            assert np.all((pairs > 0.0) & (pairs < 1.0))

    @pytest.mark.parametrize("family", ["f1", "f3"])
    def test_step_cap_exits_3(self, family, monkeypatch, capsys):
        monkeypatch.setattr(families, "_NEWTON_CAP", 1)
        code = cli.main(["sample", "--family", family, "--alpha", "0.5",
                         "--n", "1000", "--seed", "1"])
        out, err = capsys.readouterr()
        assert code == 3
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")


class TestFrailtyCopulaSampler:
    def test_empirical_cdf_at_center(self):
        pairs = ac.sample_frailty_copula(1.0, 100_000, 11).pairs
        p_hat = float(((pairs[:, 0] <= 0.5) & (pairs[:, 1] <= 0.5)).mean())
        se = np.sqrt(0.3 * 0.7 / pairs.shape[0])
        assert abs(p_hat - 0.3) <= 3.0 * se

    def test_tau_matches_quadrature(self):
        est = ac.kendall_tau_mc(ac.sample_frailty_copula(1.0, 20_000, 7).pairs)
        quad = ac.kendall_tau_quadrature("f3", 1.0, 1e-8)
        assert abs(est.tau - quad.tau) <= 3.0 * est.error_bound

    def test_cross_sampler_agreement(self):
        a = ac.kendall_tau_mc(ac.sample_frailty_copula(1.0, 20_000, 31).pairs)
        b = ac.kendall_tau_mc(ac.sample_conditional("f3", 1.0, 20_000, 32).pairs)
        combined = np.hypot(a.error_bound, b.error_bound)
        assert abs(a.tau - b.tau) <= 3.0 * combined

    def test_alpha_invariance_between_batches(self):
        for lo, hi in ((0.1, 10.0), (1e-300, 1e300)):
            a = ac.kendall_tau_mc(ac.sample_frailty_copula(lo, 20_000, 41).pairs)
            b = ac.kendall_tau_mc(ac.sample_frailty_copula(hi, 20_000, 42).pairs)
            combined = np.hypot(a.error_bound, b.error_bound)
            assert abs(a.tau - b.tau) <= 3.0 * combined

    def test_marginal_uniformity_ks(self):
        for alpha in (1.0, 1e-300, 1e300):
            pairs = ac.sample_frailty_copula(alpha, 10_000, 55).pairs
            assert np.isfinite(pairs).all()
            assert np.unique(pairs[:, 1]).size == pairs.shape[0]
            crit = 1.9495 / np.sqrt(pairs.shape[0])
            for col in (0, 1):
                assert stats.kstest(pairs[:, col], "uniform").statistic < crit

    def test_deterministic(self):
        a = ac.sample_frailty_copula(2.0, 300, 77)
        b = ac.sample_frailty_copula(2.0, 300, 77)
        assert a.to_csv() == b.to_csv()


class TestCorners:
    """A sample's corner squares of side q hold the copula's own mass,
    which ``cdf`` gives exactly at finite q: P(U < q, V < q) = C(q, q) and
    P(U > 1 - q, V > 1 - q) = 1 - 2(1 - q) + C(1 - q, 1 - q)."""

    N = 1_000_000

    @pytest.mark.parametrize("family,param,method", [
        ("f1", 0.25, "conditional"), ("f1", 1e-3, "conditional"),
        ("f2", 0.6, "conditional"), ("f2", 1e-3, "conditional"),
        ("gumbel", 1.5, "conditional"), ("gumbel", 1e3, "conditional"),
        ("independence", None, "conditional"),
        ("f3", 2.0, "conditional"), ("f3", 2.0, "frailty"),
    ])
    def test_corner_mass(self, family, param, method):
        if method == "frailty":
            batch = ac.sample_frailty_copula(param, self.N, 2026)
        else:
            batch = ac.sample_conditional(family, param, self.N, 2026)
        u, v = batch.pairs.T
        for q in (1e-2, 1e-3):
            low = ac.cdf(family, param, q, q)
            high = 1.0 - 2.0 * (1.0 - q) + ac.cdf(family, param, 1.0 - q, 1.0 - q)
            for inside, mass in [((u < q) & (v < q), low), ((u > 1.0 - q) & (v > 1.0 - q), high)]:
                if self.N * mass < 10:  # too few expected points for the normal SE
                    continue
                se = math.sqrt(mass * (1.0 - mass) / self.N)
                assert abs(inside.mean() - mass) <= 4.0 * se


class TestKendallDistribution:
    """W = C(U, V) of an Archimedean copula's pairs has the distribution
    K(t) = t - phi(t)/phi'(t) (Genest and Rivest 1993), which the kind's
    ``ratio`` gives; copulas of equal tau differ in it, so it checks the
    samplers' joint law, not only margins, tau and corners."""

    @staticmethod
    def ks_distance(family, param, pairs):
        w = np.sort(ac.cdf(family, param, pairs[:, 0], pairs[:, 1]))
        k = w - generator(family, param).ratio(w)
        n = len(w)
        return max((np.arange(1, n + 1) / n - k).max(), (k - np.arange(n) / n).max())

    @pytest.mark.parametrize("family,param,method", [
        ("f1", 0.25, "conditional"), ("f1", 1e-3, "conditional"),
        ("f2", 0.6, "conditional"), ("f2", 1e-3, "conditional"),
        ("gumbel", 1.5, "conditional"), ("gumbel", 1e3, "conditional"),
        ("independence", None, "conditional"),
        ("f3", 2.0, "conditional"), ("f3", 2.0, "frailty"),
    ])
    def test_w_follows_k(self, family, param, method):
        n = 200_000
        if method == "frailty":
            batch = ac.sample_frailty_copula(param, n, 2026)
        else:
            batch = ac.sample_conditional(family, param, n, 2026)
        # 1.95/sqrt(n) is the KS critical value at a level of about 1e-3
        assert self.ks_distance(family, param, batch.pairs) <= 1.95 / math.sqrt(n)

    def test_tells_copulas_of_equal_tau_apart(self):
        # f3 pairs against the Gumbel of the same tau
        n = 20_000
        pairs = ac.sample_frailty_copula(2.0, n, 2026).pairs
        theta = 1.0 / (1.0 - families.F3_TAU)
        assert ac.kendall_tau_closed("gumbel", theta).tau == pytest.approx(families.F3_TAU)
        assert self.ks_distance("gumbel", theta, pairs) > 1.95 / math.sqrt(n)


class TestBlocks:
    """Sampling ``BLOCK`` rows at a time gives the whole batch's pairs."""

    B = 7
    SIZES = [1, B - 1, B, B + 1, 3 * B + 5]

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("family,param", ALL_CASES)
    def test_conditional_matches_whole_batch(self, family, param, n, monkeypatch):
        monkeypatch.setattr(sampling, "BLOCK", self.B)
        got = ac.sample_conditional(family, param, n, 19).pairs
        want = sample_conditional_whole(family, param, n, 19)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("alpha", [0.1, 1.0, 10.0])
    def test_frailty_matches_whole_batch(self, alpha, n, monkeypatch):
        monkeypatch.setattr(sampling, "BLOCK", self.B)
        got = ac.sample_frailty_copula(alpha, n, 19).pairs
        want = sample_frailty_copula_whole(n, 19)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("sample", [partial(ac.sample_conditional, "f1", 0.5),
                                        partial(ac.sample_conditional, "f3", 1.0),
                                        partial(ac.sample_frailty_copula, 1.0)],
                             ids=["conditional-f1", "conditional-f3", "frailty"])
    def test_memory_is_the_pairs_and_one_block(self, sample):
        sample(10, 1)  # one-time set-up outside the trace
        tracemalloc.start()
        try:
            pairs = sample(200_000, 1).pairs
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < pairs.nbytes + 2 * 2**20

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("family,param", ALL_CASES)
    def test_streamed_text_matches_whole_batch(self, family, param, n, monkeypatch):
        monkeypatch.setattr(sampling, "BLOCK", self.B)
        want = pairs_csv_loop(sample_conditional_whole(family, param, n, 19))
        self.check_streamed(ac.sample_conditional(family, param, n, 19), n, want)

    @pytest.mark.parametrize("n", SIZES)
    def test_streamed_frailty_text_matches_whole_batch(self, n, monkeypatch):
        monkeypatch.setattr(sampling, "BLOCK", self.B)
        want = pairs_csv_loop(sample_frailty_copula_whole(n, 19))
        self.check_streamed(ac.sample_frailty_copula(0.3, n, 19), n, want)

    def check_streamed(self, batch, n, want):
        """``batch`` writes ``want`` a block at a time before its pairs are
        made, and the same text from its pairs once they are."""
        out = LineCountingStream()
        batch.to_csv(out)
        assert out.getvalue() == want
        assert out.lines == [1] + [min(self.B, n - i) for i in range(0, n, self.B)]
        pairs = batch.pairs
        assert batch.pairs is pairs and pairs.shape == (n, 2)
        assert batch.to_csv() == want

    @pytest.mark.parametrize("sample", [partial(ac.sample_conditional, "f1", 0.5),
                                        partial(ac.sample_conditional, "f3", 1.0),
                                        partial(ac.sample_frailty_copula, 1.0)],
                             ids=["conditional-f1", "conditional-f3", "frailty"])
    def test_writing_holds_one_block(self, sample):
        sample(10, 1).to_csv()  # one-time set-up outside the trace
        with open(os.devnull, "w") as out:
            tracemalloc.start()
            try:
                sample(200_000, 1).to_csv(out)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 2 * 2**20  # the pairs alone are 3.05 MiB

    @pytest.mark.parametrize("call,message", [
        (partial(ac.sample_conditional, "f1", 0.5, 0, 1), "n must be >= 1"),
        (partial(ac.sample_conditional, "f1", 1.5, 10, 1), "alpha out of domain"),
        (partial(ac.sample_conditional, "gumbel", 2.0, 10, -1), "seed out of domain"),
        (partial(ac.sample_frailty_copula, -1.0, 10, 1), "alpha out of domain"),
        (partial(ac.sample_frailty_copula, 1.0, 0, 1), "n must be >= 1"),
        (partial(ac.sample_frailty_copula, 1.0, 10, 2**128), "seed out of domain"),
        (partial(ac.sample_conditional, "f1", 0.5, 10, np.int64(-1)), "seed out of domain"),
    ])
    def test_argument_errors_raise_at_the_call(self, call, message):
        with pytest.raises(ac.DomainError, match=message):
            call()

    def test_convergence_error_raises_when_the_pairs_are_made(self, monkeypatch):
        monkeypatch.setattr(families, "_NEWTON_CAP", 1)
        batch = ac.sample_conditional("f1", 0.5, 100, 1)
        with pytest.raises(ac.ConvergenceError):
            batch.pairs
        with pytest.raises(ac.ConvergenceError):
            batch.to_csv()


class TestPhiloxStream:
    """The samplers' uniforms are numpy's ``Generator(Philox(key=seed))
    .random()`` stream, bit for bit, from any word of it."""

    @given(seed=st.integers(0, 2**128 - 1), start=st.integers(0, 4 * BLOCK),
           count=st.integers(1, 3 * BLOCK))
    @example(seed=0, start=1, count=1)
    @example(seed=2**64 - 1, start=2, count=3 * BLOCK)
    @example(seed=2**64, start=3, count=5)
    @example(seed=2**128 - 1, start=4 * BLOCK - 1, count=2)
    @settings(max_examples=200, deadline=None)
    def test_matches_numpy(self, seed, start, count):
        got = sampling._uniforms(sampling._key(seed), start, count)
        want = _philox(1, start + count, seed)[0, start:]
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", [np.int64(19), np.uint64(19)])
    def test_seed_types(self, seed):
        got = ac.sample_conditional("f1", 0.5, 50, seed).pairs
        assert got.tobytes() == sample_conditional_whole("f1", 0.5, 50, 19).tobytes()
        got = ac.sample_frailty_copula(1.0, 50, seed).pairs
        assert got.tobytes() == sample_frailty_copula_whole(50, 19).tobytes()


class TestCsvFormat:
    def test_header_and_precision(self):
        batch = ac.sample_conditional("f1", 0.5, 5, 3)
        lines = batch.to_csv().strip().split("\n")
        assert lines[0] == "u,v"
        assert len(lines) == 6
        for line in lines[1:]:
            u, v = (float(tok) for tok in line.split(","))
            assert 0.0 < u < 1.0 and 0.0 < v < 1.0
        # round-trip: parsing the printed decimals reproduces the doubles
        parsed = np.array([[float(t) for t in line.split(",")] for line in lines[1:]])
        assert np.array_equal(parsed, batch.pairs)

    @pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5])
    def test_blocks_match_reference(self, n):
        batch = ac.sample_frailty_copula(0.3, n, 5)
        expected = pairs_csv_loop(batch.pairs)
        assert batch.to_csv() == expected
        out = LineCountingStream()
        assert batch.to_csv(out) is None
        assert out.getvalue() == expected
        assert out.lines == [1] + [min(BLOCK, n - i) for i in range(0, n, BLOCK)]
