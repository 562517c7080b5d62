"""Validity audits and the three Kendall tau estimators."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import archcop as ac
from archcop import _backend, diagnostics
from archcop._backend import concordance_diff
from archcop.families import generator_ratio
from oracles import (concordance_counts_bruteforce, concordance_diff_bruteforce,
                     grid_validity_report_whole)
from test_families import ALL_CASES

F12_ALPHAS = [0.1, 0.4, 0.6, 1.0]
F3_ALPHAS = [0.1, 1.0, 10.0]
MATRIX = ([("f1", a) for a in F12_ALPHAS] + [("f2", a) for a in F12_ALPHAS]
          + [("f3", a) for a in F3_ALPHAS])


class TestValidityReport:
    @pytest.mark.parametrize("family,alpha", MATRIX)
    def test_all_checks_pass(self, family, alpha):
        rep = ac.grid_validity_report(family, alpha, 100)
        assert rep.all_passed
        assert rep.boundary_max_abs_err <= 1e-12
        assert rep.margin_max_abs_err <= 1e-12
        assert rep.min_cell_volume >= -1e-12

    def test_f2_displayed_alpha(self):
        assert ac.grid_validity_report("f2", 0.988, 100).all_passed

    def test_f3_alpha_invariant_report(self):
        a = ac.grid_validity_report("f3", 10.0, 100)
        b = ac.grid_validity_report("f3", 0.1, 100)
        assert abs(a.boundary_max_abs_err - b.boundary_max_abs_err) <= 1e-12
        assert abs(a.margin_max_abs_err - b.margin_max_abs_err) <= 1e-12
        assert abs(a.min_cell_volume - b.min_cell_volume) <= 1e-12

    def test_rejects_bad_param(self):
        with pytest.raises(ac.DomainError):
            ac.grid_validity_report("f1", 1.5, 50)

    def test_json_round_trip(self):
        rep = ac.grid_validity_report("f1", 0.6, 20)
        doc = json.loads(rep.to_json())
        assert doc["family"] == "f1"
        assert doc["all_passed"] is True
        assert "\n" not in rep.to_json()
        assert list(doc) == sorted(doc)


class TestLatticeStrips:
    @pytest.mark.parametrize("grid_n", [3, 4, 20, 100])
    @pytest.mark.parametrize("strips", ["one-row", "partial-last", "single"])
    @pytest.mark.parametrize("family,param", ALL_CASES)
    def test_matches_whole_lattice(self, family, param, grid_n, strips, monkeypatch):
        # strips of k + 1 rows: one cell row each, a last strip shorter
        # than the others, or the whole lattice in one strip
        k = {"one-row": 1, "partial-last": 2 if grid_n % 2 else 3, "single": grid_n}[strips]
        monkeypatch.setattr(diagnostics, "BLOCK", (k * (grid_n + 1) + 1) // 2)
        calls = []
        strip = diagnostics._lattice_cdf
        monkeypatch.setattr(diagnostics, "_lattice_cdf", lambda *a: calls.append(a) or strip(*a))
        got = ac.grid_validity_report(family, param, grid_n).to_json()
        assert len(calls) == -(-grid_n // k)
        assert got == grid_validity_report_whole(family, param, grid_n).to_json()

    def test_memory_does_not_grow_with_the_lattice(self):
        ac.grid_validity_report("gumbel", 2.5, 10)  # one-time set-up outside the trace
        tracemalloc.start()
        try:
            ac.grid_validity_report("gumbel", 2.5, 2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20  # the whole 2001**2 lattice took 278 MiB

    def test_working_set_at_1000(self):
        # 451 KiB (numpy 2.4), 736 KiB when each strip recomputed both
        # coordinates' terms at every point through the public cdf
        ac.grid_validity_report("f1", 0.3, 10)  # one-time set-up outside the trace
        tracemalloc.start()
        try:
            ac.grid_validity_report("f1", 0.3, 1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 600 * 2**10


class TestSingularityLimit:
    def test_f1_closed_form_ratio(self):
        # ratio simplifies to alpha * u * ln(u)
        r = generator_ratio("f1", 0.6, 1e-6)
        assert r == pytest.approx(0.6 * 1e-6 * np.log(1e-6), rel=1e-12)
        assert r == pytest.approx(-8.289e-6, rel=1e-3)

    def test_f2_closed_form_ratio(self):
        r = generator_ratio("f2", 1.0, 1e-6)
        assert r == pytest.approx(-1.38155e-5, rel=1e-4)

    @pytest.mark.parametrize("family,alpha", MATRIX)
    def test_limit_vanishes(self, family, alpha):
        assert abs(ac.singularity_limit(family, alpha)) <= 1e-8


class TestTauClosed:
    def test_f1(self):
        assert ac.kendall_tau_closed("f1", 1.0).tau == 0.0
        assert ac.kendall_tau_closed("f1", 0.25).tau == 0.75

    def test_f2_errata(self):
        est = ac.kendall_tau_closed("f2", 0.5)
        assert est.tau == 0.75
        assert "errata" in est.note

    def test_f3_constant(self):
        for alpha in F3_ALPHAS:
            est = ac.kendall_tau_closed("f3", alpha)
            assert est.tau == pytest.approx(0.2030890090900434, abs=1e-15)
            # the printed rounded constant is reproduced to 1e-3 only
            assert est.tau == pytest.approx(0.20332, abs=1e-3)
            assert "errata" in est.note

    def test_reference_families(self):
        assert ac.kendall_tau_closed("gumbel", 4.0).tau == 0.75
        assert ac.kendall_tau_closed("independence", None).tau == 0.0

    def test_tau_monotone_decreasing_in_alpha(self):
        taus = [ac.kendall_tau_closed("f1", a).tau for a in np.linspace(0.1, 1.0, 10)]
        assert all(t1 > t2 for t1, t2 in zip(taus, taus[1:]))
        assert all(0.0 <= t < 1.0 for t in taus)


class TestTauQuadrature:
    @pytest.mark.parametrize("alpha", [0.1, 0.25, 0.5, 0.75, 1.0])
    def test_f1(self, alpha):
        est = ac.kendall_tau_quadrature("f1", alpha, 1e-9)
        assert est.tau == pytest.approx(1.0 - alpha, abs=1e-6)
        assert est.error_bound <= 4e-9

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 1.0])
    def test_f2_matches_errata_value(self, alpha):
        est = ac.kendall_tau_quadrature("f2", alpha, 1e-9)
        assert est.tau == pytest.approx(1.0 - alpha * alpha, abs=1e-6)

    def test_f2_alpha1_is_independence(self):
        # not the originally claimed tau = -1
        assert ac.kendall_tau_quadrature("f2", 1.0, 1e-9).tau == pytest.approx(
            0.0, abs=4e-9)

    @pytest.mark.parametrize("alpha", F3_ALPHAS)
    def test_f3(self, alpha):
        est = ac.kendall_tau_quadrature("f3", alpha, 1e-8)
        assert est.tau == pytest.approx(0.20332, abs=1e-3)

    @pytest.mark.parametrize("family,alpha", MATRIX)
    def test_agrees_with_closed_form(self, family, alpha):
        q = ac.kendall_tau_quadrature(family, alpha, 1e-9)
        c = ac.kendall_tau_closed(family, alpha)
        assert abs(q.tau - c.tau) <= 1e-6

    def test_rejects_tiny_tolerance(self):
        with pytest.raises(ac.DomainError):
            ac.kendall_tau_quadrature("f1", 0.5, 1e-13)


class TestTauMonteCarlo:
    def test_comonotone(self):
        x = np.linspace(0.01, 0.99, 500)
        est = ac.kendall_tau_mc(np.column_stack([x, x]))
        assert est.tau == 1.0

    def test_antimonotone(self):
        x = np.linspace(0.01, 0.99, 500)
        est = ac.kendall_tau_mc(np.column_stack([x, 1.0 - x]))
        assert est.tau == -1.0

    def test_sampler_agreement(self):
        batch = ac.sample_conditional("f1", 0.5, 20000, 7)
        est = ac.kendall_tau_mc(batch.pairs)
        assert abs(est.tau - 0.5) <= 3.0 * est.error_bound
        assert est.n == 20000

    def test_size_guards(self):
        x = np.linspace(0.0, 1.0, 60001)
        assert ac.kendall_tau_mc(np.column_stack([x, x])).tau == 1.0
        assert ac.kendall_tau_mc(np.column_stack([x, 1.0 - x])).tau == -1.0
        with pytest.raises(ac.DomainError, match="n >= 2"):
            ac.kendall_tau_mc(np.array([[0.3, 0.6]]))
        est = ac.kendall_tau_mc(np.random.default_rng(0).random((100, 2)))
        assert np.isfinite(est.tau) and np.isfinite(est.error_bound) and est.n == 100

    def test_hoeffding_standard_error(self):
        # tau and its standard error from the O(n^2) per-point counts
        pairs = np.round(ac.sample_conditional("gumbel", 2.0, 700, 5).pairs, 2)
        c = concordance_counts_bruteforce(pairs[:, 0], pairs[:, 1])
        est = ac.kendall_tau_mc(pairs)
        assert est.tau == (int(c.sum()) // 2) / (700 * 699 / 2.0)
        assert est.error_bound == pytest.approx(
            2.0 * np.std(c / 699, ddof=1) / np.sqrt(700), rel=1e-12)

    def test_one_merge_pass(self, monkeypatch):
        calls = []
        merge = _backend._discordant
        monkeypatch.setattr(_backend, "_discordant", lambda keys: calls.append(1) or merge(keys))
        ac.kendall_tau_mc(ac.sample_conditional("f1", 0.5, 1000, 3).pairs)
        assert len(calls) == 1

    @pytest.mark.parametrize("family,param", [("f1", 0.5), ("f1", 0.01), ("gumbel", 4.0),
                                              ("independence", None), ("f3", 1.0)])
    def test_standard_error_calibration(self, family, param):
        # over 40 seeds the mean standard error matches the spread of tau,
        # and the standard error itself varies little from seed to seed
        taus, ses = [], []
        for seed in range(40):
            if family == "f3":
                pairs = ac.sample_frailty_copula(param, 4000, seed).pairs
            else:
                pairs = ac.sample_conditional(family, param, 4000, seed).pairs
            est = ac.kendall_tau_mc(pairs)
            taus.append(est.tau)
            ses.append(est.error_bound)
        ses = np.array(ses)
        assert 0.8 <= ses.mean() / np.std(taus, ddof=1) <= 1.25
        assert np.std(ses, ddof=1) / ses.mean() < 0.05

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        pairs = np.random.default_rng(0).random((200, 2))
        pairs[17, 1] = bad
        with pytest.raises(ac.DomainError, match="finite"):
            ac.kendall_tau_mc(pairs)

    def test_json_shape(self):
        est = ac.kendall_tau_closed("f1", 0.3)
        doc = json.loads(est.to_json())
        assert set(doc) == {"tau", "method", "error_bound", "n", "note"}
        assert doc["tau"] == 0.7


class TestConcordanceKernel:
    """The merge counts must give the exact integers of the O(n^2) definition,
    per pair and in total."""

    @staticmethod
    def _data(kind, n, rng):
        x, y = rng.random(n), rng.random(n)
        if kind == "ties":
            x, y = np.round(x, 1), np.round(y, 1)
        elif kind == "constant":
            x = np.full(n, 0.25)
        elif kind == "ties_x":
            x = np.round(x, 1)
        elif kind == "ties_y":
            y = np.round(y, 1)
        elif kind == "signed_zeros":  # 0.0 and -0.0 are one value, in x and in y
            x, y = (np.where(a < 0.3, np.where(rng.random(n) < 0.5, 0.0, -0.0), a)
                    for a in (x, y))
        elif kind == "duplicates":
            half = (n + 1) // 2
            x, y = np.repeat(x[:half], 2)[:n], np.repeat(y[:half], 2)[:n]
            order = rng.permutation(n)
            x, y = x[order], y[order]
        return x, y

    @pytest.mark.parametrize("kind", ["continuous", "ties", "ties_x", "ties_y", "signed_zeros",
                                      "constant", "duplicates"])
    @pytest.mark.parametrize("n", [2, 3, 10, 255, 256, 257, 1000, 3001])
    def test_matches_bruteforce(self, n, kind):
        x, y = self._data(kind, n, np.random.default_rng(n))
        counts = concordance_diff(x, y)
        assert counts.dtype == np.int64
        np.testing.assert_array_equal(counts, concordance_counts_bruteforce(x, y))
        assert int(counts.sum()) // 2 == concordance_diff_bruteforce(x, y)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=40))
    def test_property_tie_heavy(self, rows):
        xy = np.array(rows, dtype=float).reshape(-1, 2) / 4.0
        x, y = xy[:, 0], xy[:, 1]
        counts = concordance_diff(x, y)
        np.testing.assert_array_equal(counts, concordance_counts_bruteforce(x, y))
        assert int(counts.sum()) // 2 == concordance_diff_bruteforce(x, y)
