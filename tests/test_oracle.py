"""Small posteriors computed without the sampler, as an oracle for HMC.

For a survey of a few dozen reports and a basis of four or five columns,
10^6 draws from the prior, weighted by their likelihood, give the
posterior means of log_sigma and of mean TBS to a known Monte Carlo
error.  The weights are built from public pieces only, the observation
matrix and the basis values, never from ``PosteriorDensity``, so the
oracle shares no code with the kernel the sampler calls.  It sees what
pointwise checks of the density cannot: a sampler move, a warm-up step or
a reparametrisation that samples the wrong target.  Past n ~ 50 or K ~ 5
the weight ESS collapses, and the oracle no longer applies.
"""

import math

import numpy as np
import pytest

from curdur.basis import BasisConfig, build_basis
from curdur.diagnostics import ess_bulk
from curdur.reporting import observation_matrix
from curdur.sampler import SamplerConfig, sample
from curdur.simulator import simulate_survey, truncated_geometric

PROPOSALS = 1_000_000
CHUNK = 100_000
PROPOSAL_SEED = 0
HMC = SamplerConfig(chains=4, iterations_per_chain=2000, warmup=1000, seed=1)
# below this Kish ESS the survey no longer suits the oracle, which says
# nothing about the sampler
MIN_KISH_ESS = 500
# an HMC mean may sit this many combined Monte Carlo SEs from the oracle's
MAX_Z = 4.0


class _Likelihood:
    """The survey likelihood and mean TBS as functions of delta alone."""

    def __init__(self, data, basis):
        support = basis.values[:-1]
        self.rows = observation_matrix(data) @ support
        self.totals = support.sum(axis=0)
        self.day0 = basis.values[0]
        self.counts = np.fromiter(data.counts.values(), float)
        self.n = len(data)

    def __call__(self, delta):
        """Log likelihood and mean TBS of each row of ``delta``.

        alpha is the reverse cumulative sum of delta, shifted by its largest
        entry and exponentiated; the shift cancels in both results.
        """
        sums = np.cumsum(delta[:, ::-1], axis=1)[:, ::-1]
        alpha = np.exp(sums - sums.max(axis=1, keepdims=True))
        normaliser = alpha @ self.totals
        log_lik = np.log(alpha @ self.rows.T) @ self.counts - self.n * np.log(normaliser)
        return log_lik, normaliser / (alpha @ self.day0)


def _oracle(likelihood, k):
    """Kish ESS of the weights, and the weighted mean and Monte Carlo SE of
    log_sigma and of mean TBS under the posterior."""
    rng = np.random.default_rng(PROPOSAL_SEED)
    log_w, log_sigma, mean_tbs = [], [], []
    for _ in range(PROPOSALS // CHUNK):
        z = rng.standard_normal((CHUNK, k))
        sigma = np.abs(rng.standard_normal(CHUNK))
        chunk_log_w, chunk_tbs = likelihood(sigma[:, None] * z)
        log_w.append(chunk_log_w)
        log_sigma.append(np.log(sigma))
        mean_tbs.append(chunk_tbs)
    log_w = np.concatenate(log_w)
    w = np.exp(log_w - log_w.max())
    w /= w.sum()
    kish = 1.0 / (w @ w)
    stats = {}
    for name, x in [("log_sigma", log_sigma), ("mean_tbs", mean_tbs)]:
        x = np.concatenate(x)
        mean = float(w @ x)
        stats[name] = mean, math.sqrt(float(w @ (x - mean) ** 2) / kish)
    return kish, stats


def _hmc(likelihood, data, basis):
    """HMC mean and Monte Carlo SE, from the bulk ESS, of log_sigma and of
    mean TBS."""
    draws = sample(HMC, data, basis).draws
    _, mean_tbs = likelihood(draws[..., :-1].reshape(-1, basis.num_basis))
    mean_tbs = mean_tbs.reshape(draws.shape[:-1])
    stats = {}
    for name, x in [("log_sigma", draws[..., -1]), ("mean_tbs", mean_tbs)]:
        stats[name] = float(x.mean()), float(x.std(ddof=1)) / math.sqrt(ess_bulk(x))
    return stats


@pytest.mark.parametrize("n, segments", [(30, 1), (30, 2), (50, 2)],
                         ids=["n30-1-segment", "n30-2-segments", "n50-2-segments"])
def test_hmc_means_match_prior_importance_sampling(n, segments):
    data = simulate_survey(truncated_geometric(0.1), n=n, seed=7)
    basis = build_basis(BasisConfig(num_segments=segments))
    likelihood = _Likelihood(data, basis)
    kish, oracle = _oracle(likelihood, basis.num_basis)
    assert kish >= MIN_KISH_ESS
    hmc = _hmc(likelihood, data, basis)
    for name in ("log_sigma", "mean_tbs"):
        (oracle_mean, oracle_se), (hmc_mean, hmc_se) = oracle[name], hmc[name]
        z = (hmc_mean - oracle_mean) / math.hypot(oracle_se, hmc_se)
        assert abs(z) < MAX_Z, (name, oracle_mean, hmc_mean, z)
