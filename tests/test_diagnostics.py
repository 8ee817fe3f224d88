"""Calibration of R-hat and effective sample size estimators."""

import math
import subprocess
import sys

import numpy as np
import pytest
from scipy.special import ndtri
from scipy.stats import rankdata

from curdur.diagnostics import (
    _rank_normalize,
    compute_diagnostics,
    ess_bulk,
    ess_tail,
    split_rank_rhat,
)


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

    def test_rhat_floor(self, rng):
        # the estimator's exact lower bound is sqrt((n - 1) / n) for
        # split chains of length n
        draws = rng.standard_normal((4, 1000, 5))
        report = compute_diagnostics(draws)
        assert np.all(report.rhat >= math.sqrt(499.0 / 500.0))


class TestRankNormalize:
    @pytest.mark.parametrize("kind", ["untied", "indicator", "heavy_ties", "constant"])
    def test_ranks_match_scipy_rankdata(self, rng, kind):
        x = {
            "untied": rng.standard_normal((4, 250)),
            "indicator": (rng.standard_normal((4, 250)) > 1.2).astype(float),
            "heavy_ties": rng.integers(0, 7, (4, 250)).astype(float),
            "constant": np.full((2, 10), 3.5),
        }[kind]
        ranks = rankdata(x, method="average").reshape(x.shape)
        expected = ndtri((ranks - 0.375) / (x.size + 0.25))
        assert np.array_equal(_rank_normalize(x), expected)


def test_import_leaves_scipy_stats_unloaded():
    code = "import sys, curdur; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"
