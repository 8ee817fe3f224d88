"""Calibration of R-hat and effective sample size estimators."""

import math
import statistics
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri
from scipy.stats import rankdata

from curdur.diagnostics import (
    _ess_core,
    _autocovariance,
    _rank_normalize,
    _rank_scores,
    _split_chains,
    compute_diagnostics,
    ess_bulk,
    ess_tail,
    split_rank_rhat,
)
from curdur.errors import DimensionError
from curdur.estimates import _linear_quantile


def ar1_chains(rng, n_chains, n_draws, rho):
    noise_sd = np.sqrt(1.0 - rho**2)
    chains = np.empty((n_chains, n_draws))
    for c in range(n_chains):
        x = rng.standard_normal()
        for i in range(n_draws):
            x = rho * x + noise_sd * rng.standard_normal()
            chains[c, i] = x
    return chains


class TestSplitRankRhat:
    def test_iid_chains_near_one(self, rng):
        draws = rng.standard_normal((4, 1000))
        assert 0.999 <= split_rank_rhat(draws) <= 1.01

    def test_shifted_means_detected(self, rng):
        draws = np.stack(
            [rng.standard_normal(1000), rng.standard_normal(1000) + 5.0]
        )
        assert split_rank_rhat(draws) > 1.5

    def test_constant_input_is_one(self):
        assert split_rank_rhat(np.full((4, 100), 3.7)) == 1.0

    def test_monotone_transform_invariance(self, rng):
        draws = rng.standard_normal((4, 500))
        assert split_rank_rhat(draws) == split_rank_rhat(np.exp(draws))
        assert split_rank_rhat(draws) == split_rank_rhat(draws**3)

    def test_chain_permutation_invariance(self, rng):
        draws = rng.standard_normal((4, 500)) + np.array([[0.0], [0.1], [0.0], [0.2]])
        permuted = draws[[2, 0, 3, 1]]
        assert split_rank_rhat(draws) == split_rank_rhat(permuted)

    def test_within_chain_trend_detected(self, rng):
        # split halves expose a trend even when chain means agree
        trend = np.linspace(-2.0, 2.0, 1000)
        draws = np.stack([trend + 0.1 * rng.standard_normal(1000) for _ in range(4)])
        assert split_rank_rhat(draws) > 1.5

    def test_input_validation(self, rng):
        with pytest.raises(ValueError):
            split_rank_rhat(rng.standard_normal(100))
        with pytest.raises(ValueError):
            split_rank_rhat(rng.standard_normal((1, 100)))


class TestEss:
    def test_iid_bulk_near_sample_size(self, rng):
        draws = rng.standard_normal((4, 1000))
        assert 3200 <= ess_bulk(draws) <= 4800

    def test_consecutive_duplication_halves_ess(self, rng):
        # each draw emitted twice: lag-1 autocorrelation 1/2, so tau = 2
        base = rng.standard_normal((4, 1000))
        duplicated = np.repeat(base[:, :500], 2, axis=1)
        ratio = ess_bulk(duplicated) / ess_bulk(base)
        assert 0.3 < ratio < 0.7

    def test_ar1_analytic_ess(self, rng):
        draws = ar1_chains(rng, 4, 1000, rho=0.9)
        target = 4000.0 * (1.0 - 0.9) / (1.0 + 0.9)
        assert abs(ess_bulk(draws) - target) < 0.4 * target

    def test_constant_input_is_zero(self):
        assert ess_bulk(np.full((4, 100), 1.0)) == 0.0
        assert ess_tail(np.full((4, 100), 1.0)) == 0.0

    def test_tail_is_min_of_indicator_ess(self, rng):
        from curdur.diagnostics import _ess_core, _rank_normalize, _split_chains

        draws = ar1_chains(rng, 4, 800, rho=0.5)
        q05, q95 = np.quantile(draws, [0.05, 0.95])
        low = _ess_core(_rank_normalize(_split_chains((draws <= q05).astype(float))))
        high = _ess_core(_rank_normalize(_split_chains((draws >= q95).astype(float))))
        tail = ess_tail(draws)
        assert tail == min(low, high)
        assert tail <= low and tail <= high

    def test_tail_iid_near_sample_size(self, rng):
        draws = rng.standard_normal((4, 1000))
        assert 2500 <= ess_tail(draws) <= 4800


class TestReport:
    def test_flags_and_degenerate(self, rng):
        good = rng.standard_normal((4, 1000, 1))
        stuck = np.full((4, 1000, 1), 2.0)
        drifting = np.stack(
            [rng.standard_normal((1000, 1)) + c for c in range(4)]
        )
        draws = np.concatenate([good, stuck, drifting], axis=2)
        report = compute_diagnostics(draws, names=["good", "stuck", "drifting"])
        assert not any(f.startswith("good:") for f in report.flags)
        assert report.degenerate == ["stuck"]
        assert any(f.startswith("stuck: ess_bulk") for f in report.flags)
        assert any(f.startswith("drifting: rhat") for f in report.flags)
        assert not report.passed

    def test_clean_report_passes(self, rng):
        draws = rng.standard_normal((4, 1000, 3))
        report = compute_diagnostics(draws)
        assert report.passed
        assert report.to_dict()["passed"] is True

    @pytest.mark.parametrize("names", [["a"], ["a", "b", "c", "d"]])
    def test_names_must_match_the_parameters(self, rng, names):
        with pytest.raises(DimensionError, match=f"{len(names)} names for 3 parameters"):
            compute_diagnostics(rng.standard_normal((2, 100, 3)), names=names)

    def test_zero_parameters_are_refused(self):
        with pytest.raises(DimensionError, match=r"one parameter or more, got \(2, 10, 0\)"):
            compute_diagnostics(np.zeros((2, 10, 0)))

    def test_matches_the_public_functions(self, rng):
        # an odd draw count, so each split drops the middle draw
        columns = [ar1_chains(rng, 4, 101, rho=0.7), np.full((4, 101), 3.0),
                   rng.standard_normal((4, 101)), rng.integers(0, 2, (4, 101))]
        columns[2][1, 20] = math.nan
        report = compute_diagnostics(np.stack(columns, axis=2))
        for got, public in [(report.rhat, split_rank_rhat), (report.ess_bulk, ess_bulk),
                            (report.ess_tail, ess_tail)]:
            assert got.tobytes() == np.array([public(x) for x in columns]).tobytes()

    def test_rhat_floor(self, rng):
        # the estimator's exact lower bound is sqrt((n - 1) / n) for
        # split chains of length n
        draws = rng.standard_normal((4, 1000, 5))
        report = compute_diagnostics(draws)
        assert np.all(report.rhat >= math.sqrt(499.0 / 500.0))


def rank_grid(size):
    """The (r - 3/8) / (S + 1/4) probabilities of the average ranks
    r = 0.5, 1, ..., S + 0.5."""
    return (np.arange(1, 2 * size + 2) / 2 - 0.375) / (size + 0.25)


def ulps(actual, expected):
    return np.abs(actual - expected) / np.spacing(np.abs(expected))


class TestRankNormalize:
    @pytest.mark.parametrize("kind", ["untied", "indicator", "heavy_ties", "constant"])
    def test_ranks_match_scipy_rankdata(self, rng, kind):
        x = {
            "untied": rng.standard_normal((4, 250)),
            "indicator": (rng.standard_normal((4, 250)) > 1.2).astype(float),
            "heavy_ties": rng.integers(0, 7, (4, 250)).astype(float),
            "constant": np.full((2, 10), 3.5),
        }[kind]
        # the stdlib quantile of scipy's average ranks: equal only if every
        # rank is exactly scipy's
        p = (rankdata(x, method="average") - 0.375) / (x.size + 0.25)
        inv_cdf = statistics.NormalDist().inv_cdf
        expected = np.array([inv_cdf(v) for v in p.tolist()]).reshape(x.shape)
        assert np.array_equal(_rank_normalize(x), expected)

    @pytest.mark.parametrize("size", [1, 2, 7, 250])
    def test_indicator_closed_form_matches_unique_path(self, rng, size):
        # ess_tail ranks its boolean indicators as they are
        for p_true in (0.0, 0.05, 0.5, 1.0):
            b = rng.random((2, size)) < p_true
            assert np.array_equal(_rank_normalize(b), _rank_normalize(b.astype(float)))


class TestNdtri:
    """The table of normal scores, ``_rank_scores``, against the quantile
    of the standard library and scipy's ``ndtri``."""

    @pytest.mark.parametrize("size", [8, 250, 1000, 2000, 4000, 8000])
    def test_matches_stdlib_inv_cdf(self, size):
        inv_cdf = statistics.NormalDist().inv_cdf
        expected = [inv_cdf(v) for v in rank_grid(size).tolist()]
        table = _rank_scores(size)
        assert np.array_equal(table, expected)
        # one cached array serves every caller
        assert not table.flags.writeable

    @pytest.mark.parametrize("size", [8, 250, 1000, 2000, 4000, 8000])
    def test_rank_grid_near_scipy(self, size):
        p = rank_grid(size)
        assert np.all(ulps(_rank_scores(size), ndtri(p)) <= 8.0)


def parent_ess_core(z):
    """_ess_core as it stood with one column mean per lag in the loop."""
    n_chain, n_draw = z.shape
    acov = _autocovariance(z)
    chain_means = z.mean(axis=1)
    mean_var = float(acov[:, 0].mean()) * n_draw / (n_draw - 1.0)
    var_plus = mean_var * (n_draw - 1.0) / n_draw
    if n_chain > 1:
        var_plus += float(chain_means.var(ddof=1))
    if var_plus == 0.0:
        return 0.0
    rho = np.zeros(n_draw)
    rho[0] = 1.0
    rho_even = 1.0
    rho_odd = 1.0 - (mean_var - float(acov[:, 1].mean())) / var_plus
    rho[1] = rho_odd
    t = 1
    while t < n_draw - 2 and (rho_even + rho_odd) >= 0.0:
        rho_even = 1.0 - (mean_var - float(acov[:, t + 1].mean())) / var_plus
        rho_odd = 1.0 - (mean_var - float(acov[:, t + 2].mean())) / var_plus
        rho[t + 1] = rho_even
        if (rho_even + rho_odd) >= 0.0:
            rho[t + 2] = rho_odd
        t += 2
    max_t = t
    t = 1
    while t <= max_t - 2:
        if (rho[t + 1] + rho[t + 2]) > (rho[t - 1] + rho[t]):
            rho[t + 1] = (rho[t - 1] + rho[t]) / 2.0
            rho[t + 2] = rho[t + 1]
        t += 2
    tau = -1.0 + 2.0 * float(rho[:max_t].sum()) + float(rho[max_t + 1 : max_t + 2].sum())
    if not np.isfinite(tau) or tau <= 0.0:
        return float("nan")
    return n_chain * n_draw / tau


class TestEssCore:
    @pytest.mark.parametrize("n_chains", [2, 4, 8])
    @pytest.mark.parametrize("rho", [0.0, 0.5, 0.95])
    def test_matches_parent_formula(self, rng, n_chains, rho):
        # 4 and 8 chains give 8 and 16 split rows, where a row-order sum of
        # each lag would round differently from the per-lag mean
        x = ar1_chains(rng, n_chains, 400, rho)
        q05, q95 = np.quantile(x, [0.05, 0.95])
        series = [
            _rank_normalize(_split_chains(x)),
            _rank_normalize(_split_chains(x <= q05)),
            _rank_normalize(_split_chains(x >= q95)),
        ]
        for z in series:
            assert _ess_core(z) == parent_ess_core(z)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(rho=st.floats(-0.99, 0.99), n_chains=st.integers(2, 8),
           n_draws=st.integers(4, 400), seed=st.integers(0, 2**32 - 1))
    def test_finite_and_at_most_the_cap(self, rho, n_chains, n_draws, seed):
        # strongly antithetic chains sum to tau <= 0, which the floor of
        # 1 / log10(S) on tau turns into the cap S log10(S) on the ESS
        x = ar1_chains(np.random.default_rng(seed), n_chains, n_draws, rho)
        size = n_chains * n_draws
        ess = _ess_core(x)
        assert math.isfinite(ess)
        # the cap is reached as size / (1 / log10(size)), which may round up
        assert 0.0 < ess <= size * math.log10(size) * (1.0 + 1e-15)


class TestOddLengthIndicator:
    @staticmethod
    def unique_path_tail(x):
        q05, q95 = np.quantile(x, [0.05, 0.95])
        out = []
        for ind in ((x <= q05).astype(float), (x >= q95).astype(float)):
            if np.all(ind == ind.flat[0]):
                out.append(0.0)
            else:
                out.append(_ess_core(_rank_normalize(_split_chains(ind))))
        return min(out)

    def test_odd_length_drops_middle_draw(self, rng):
        x = ar1_chains(rng, 4, 401, 0.6)
        assert _split_chains(x).shape == (8, 200)
        assert ess_tail(x) == self.unique_path_tail(x)

    def test_split_holding_one_value(self):
        # the only draw above the 95% quantile is a middle draw, which the
        # split chains drop: the split indicator is constant, ESS 0
        x = np.zeros((2, 5))
        x[0, 2] = 1.0
        high = x >= np.quantile(x, 0.95)
        assert high.any() and not _split_chains(high).any()
        assert ess_tail(x) == self.unique_path_tail(x) == 0.0

    def test_nan_draw(self, rng):
        # np.quantile's tails are NaN, which no draw is <= or >=
        x = ar1_chains(rng, 2, 40, 0.3)
        x[1, 7] = math.nan
        assert ess_tail(x) == self.unique_path_tail(x) == 0.0

    def test_equal_infinities_at_a_tail_quantile(self, rng):
        # 10 of 100 draws at -inf fill the 5% order statistics, which
        # np.quantile reads as -inf - -inf; no warning, no tail ESS
        x = ar1_chains(rng, 2, 50, 0.3)
        x[0, :10] = -math.inf
        assert ess_tail(x) == 0.0
        assert compute_diagnostics(x[:, :, None]).ess_tail.tolist() == [0.0]

    def test_tied_maximum(self):
        # one 0.0 among 99 ones: both tail quantiles are 1, and every draw
        # is <= 1, a constant indicator
        x = np.ones((4, 25))
        x[2, 3] = 0.0
        assert ess_tail(x) == 0.0


@pytest.mark.parametrize("decimals", [None, 1])
def test_tail_quantiles_match_np_quantile(rng, decimals):
    # rounding makes ties, so neighbouring order statistics are often equal
    for n in range(4, 600, 7):
        x = rng.standard_normal(n)
        if decimals is not None:
            x = x.round(decimals)
        got = [_linear_quantile(np.sort(x), p) for p in (0.05, 0.95)]
        assert np.array(got).tobytes() == np.quantile(x, [0.05, 0.95]).tobytes()


def test_runtime_loads_no_scipy(tmp_path):
    # simulate, fit (which runs compute_diagnostics and summarize) and
    # diagnose in one fresh process; the basis needs no numpy.polynomial,
    # and the tail quantiles no numpy.ma, which np.quantile loads
    code = f"""
import sys
from curdur import cli
out = {str(tmp_path)!r}
assert cli.main(["simulate", "--truth", "geometric:p=0.1", "--n", "200",
                 "--seed", "3", "--outdir", out + "/sim"]) == 0
assert cli.main(["fit", "--input", out + "/sim/data.csv", "--outdir", out + "/fit",
                 "--knots", "4", "--chains", "2", "--iters", "60",
                 "--warmup", "30"]) in (0, 3)
assert cli.main(["diagnose", "--draws", out + "/fit/draws.csv"]) in (0, 3)
print(sorted(m for m in sys.modules
             if m.split(".")[0] == "scipy"
             or m.split(".")[:2] in (["numpy", "polynomial"], ["numpy", "ma"])))
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip().splitlines()[-1] == "[]"
