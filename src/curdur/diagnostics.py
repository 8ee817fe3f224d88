"""Convergence and efficiency diagnostics for multi-chain draws.

Implements the rank-normalized split R-hat and the bulk / tail effective
sample sizes.  Draws are split in half per chain, pooled ranks are mapped
through the normal quantile function with the (r - 3/8) / (S + 1/4)
adjustment, and autocorrelation sums use Geyer's initial monotone
positive sequence.  No scipy is used: the normal scores come from
``statistics.NormalDist`` and the FFT length from a pure-Python search.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errors import DimensionError
from .estimates import _linear_quantile

RHAT_THRESHOLD = 1.01
ESS_THRESHOLD = 400.0
MIN_DRAWS_PER_CHAIN = 4


@functools.lru_cache(maxsize=16)
def _rank_scores(size: int) -> np.ndarray:
    """Normal scores of the average ranks r = 0.5, 1, ..., size + 0.5 of size
    draws, the score of r at index 2r - 1; no draw takes the end ranks, but
    ``_rank_normalize_indicator`` scores them when b holds one value."""
    p = (np.arange(1, 2 * size + 2) / 2 - 0.375) / (size + 0.25)
    scores = np.array([*map(NormalDist().inv_cdf, p.tolist())])
    scores.flags.writeable = False
    return scores


@functools.lru_cache(maxsize=16)
def _next_fast_len(n: int) -> int:
    """Smallest integer >= n with no prime factor above 11: a fast FFT length."""
    power_of_two = 1 << (n - 1).bit_length()
    odd = [1]  # the 3-5-7-11-smooth numbers up to power_of_two
    for prime in (3, 5, 7, 11):
        grown = []
        for m in odd:
            while m <= power_of_two:
                grown.append(m)
                m *= prime
        odd = grown
    # each odd factor times the least power of two that reaches n
    return min(m << (-(-n // m) - 1).bit_length() for m in odd)


def _as_chain_matrix(draws) -> np.ndarray:
    x = np.asarray(draws, dtype=float)
    if x.ndim != 2:
        raise DimensionError(f"draws must be (chains, iterations), got shape {x.shape}")
    if x.shape[0] < 2:
        raise DimensionError("diagnostics require at least 2 chains")
    if x.shape[1] < MIN_DRAWS_PER_CHAIN:
        raise DimensionError(f"diagnostics require at least {MIN_DRAWS_PER_CHAIN} draws per chain")
    return x


def _split_chains(x: np.ndarray) -> np.ndarray:
    half = x.shape[1] // 2
    return np.vstack([x[:, :half], x[:, -half:]])


def _rank_normalize(x: np.ndarray) -> np.ndarray:
    # 1-based ranks of the pooled draws; tied draws share their mean rank
    # r = cumsum - (cnt - 1) / 2, whose score is at index 2r - 1
    _, idx, cnt = np.unique(x, return_inverse=True, return_counts=True)
    return _rank_scores(x.size)[2 * np.cumsum(cnt) - cnt][idx].reshape(x.shape)


def _rank_normalize_indicator(b: np.ndarray) -> np.ndarray:
    """``_rank_normalize`` of a boolean array, in closed form: the falses
    share rank (n0 + 1) / 2 and the trues n0 + (n1 + 1) / 2, at indices n0
    and b.size + n0 of ``_rank_scores``, also when b holds one value only."""
    n0 = b.size - int(np.count_nonzero(b))
    scores = _rank_scores(b.size)
    return np.where(b, scores[b.size + n0], scores[n0])


def _is_constant(x: np.ndarray) -> bool:
    return bool(np.all(x == x.flat[0]))


def _classic_rhat(z: np.ndarray) -> float:
    n = z.shape[1]
    means = z.mean(axis=1)
    within = float(z.var(axis=1, ddof=1).mean())
    between = n * float(means.var(ddof=1))
    if within == 0.0:
        return float("inf")
    var_plus = (n - 1) / n * within + between / n
    return float(np.sqrt(var_plus / within))


def split_rank_rhat(draws) -> float:
    """Rank-normalized split R-hat for one scalar quantity.

    Constant input across all chains and draws is defined as exactly 1;
    callers flag it as degenerate.
    """
    x = _as_chain_matrix(draws)
    if _is_constant(x):
        return 1.0
    return _classic_rhat(_rank_normalize(_split_chains(x)))


def _autocovariance(x: np.ndarray) -> np.ndarray:
    """Autocovariance of each row of a (chains, draws) matrix, in one FFT."""
    n = x.shape[1]
    m = _next_fast_len(2 * n)
    centered = x - x.mean(axis=1, keepdims=True)
    freq = np.fft.rfft(centered, m, axis=-1)
    acov = np.fft.irfft(freq * np.conj(freq), m, axis=-1)[:, :n].real
    return acov / n


def _ess_core(z: np.ndarray) -> float:
    """Multi-chain ESS via Geyer's initial monotone positive sequence."""
    n_chain, n_draw = z.shape
    # the mean over chains of each lag, summed as acov[:, t].mean() sums it;
    # acov.mean(axis=0) adds the rows in order instead, which from 8 rows on
    # differs in the last bit
    lag_means = np.ascontiguousarray(_autocovariance(z).T).mean(axis=1).tolist()
    chain_means = z.mean(axis=1)
    mean_var = lag_means[0] * n_draw / (n_draw - 1.0)
    var_plus = mean_var * (n_draw - 1.0) / n_draw
    if n_chain > 1:
        var_plus += float(chain_means.var(ddof=1))
    if var_plus == 0.0:
        return 0.0

    rho = np.zeros(n_draw)
    rho[0] = 1.0
    rho_even = 1.0
    rho_odd = 1.0 - (mean_var - lag_means[1]) / var_plus
    rho[1] = rho_odd
    t = 1
    while t < n_draw - 2 and (rho_even + rho_odd) >= 0.0:
        rho_even = 1.0 - (mean_var - lag_means[t + 1]) / var_plus
        rho_odd = 1.0 - (mean_var - lag_means[t + 2]) / var_plus
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
    # antithetic chains can sum to tau <= 0: as in Stan and ArviZ (Vehtari
    # et al. 2021), tau is floored at 1 / log10(S), capping ESS at S log10(S)
    size = n_chain * n_draw
    return size / max(tau, 1.0 / math.log10(size))


def ess_bulk(draws) -> float:
    """ESS of the rank-normalized split chains; 0 for degenerate input."""
    x = _as_chain_matrix(draws)
    if _is_constant(x):
        return 0.0
    return _ess_core(_rank_normalize(_split_chains(x)))


def ess_tail(draws) -> float:
    """Minimum ESS of the 5% and 95% pooled-quantile indicators."""
    x = _as_chain_matrix(draws)
    if _is_constant(x):
        return 0.0
    ordered = np.sort(x, axis=None)
    # NaN sorts last and makes both of np.quantile's tails NaN, which no
    # draw is <= or >=: both indicators are constant
    if np.isnan(ordered[-1]):
        return 0.0
    q05, q95 = (_linear_quantile(ordered, p) for p in (0.05, 0.95))
    out = []
    for indicator in (x <= q05, x >= q95):
        if _is_constant(indicator):
            out.append(0.0)
        else:
            out.append(_ess_core(_rank_normalize_indicator(_split_chains(indicator))))
    return min(out)


@dataclass
class DiagnosticsReport:
    """Per-parameter convergence diagnostics plus threshold flags."""

    parameters: list
    rhat: np.ndarray
    ess_bulk: np.ndarray
    ess_tail: np.ndarray
    flags: list
    degenerate: list

    @property
    def passed(self) -> bool:
        return not self.flags

    def to_dict(self) -> dict:
        # JSON has no infinity: an infinite R-hat, from split chains each
        # holding one value but not all the same one, is null
        rhat = [r if math.isfinite(r) else None for r in self.rhat.tolist()]
        return {
            "parameters": [
                {
                    "name": name,
                    "rhat": rhat[i],
                    "ess_bulk": float(self.ess_bulk[i]),
                    "ess_tail": float(self.ess_tail[i]),
                }
                for i, name in enumerate(self.parameters)
            ],
            "max_rhat": None if None in rhat else max(rhat),
            "min_ess_bulk": float(np.min(self.ess_bulk)),
            "min_ess_tail": float(np.min(self.ess_tail)),
            "rhat_threshold": RHAT_THRESHOLD,
            "ess_threshold": ESS_THRESHOLD,
            "flags": list(self.flags),
            "degenerate": list(self.degenerate),
            "passed": self.passed,
        }


def compute_diagnostics(draws: np.ndarray, names=None) -> DiagnosticsReport:
    """Diagnostics for a (chains, iterations, parameters) draw array."""
    draws = np.asarray(draws, dtype=float)
    if draws.ndim != 3:
        raise DimensionError(
            f"draws must be (chains, iterations, parameters), got {draws.shape}"
        )
    n_params = draws.shape[2]
    if names is None:
        names = [f"param_{i}" for i in range(n_params)]
    names = list(names)
    if len(names) != n_params:
        raise DimensionError(f"{len(names)} names for {n_params} parameters")
    rhat = np.empty(n_params)
    bulk = np.empty(n_params)
    tail = np.empty(n_params)
    flags = []
    degenerate = []
    for i in range(n_params):
        # split_rank_rhat and ess_bulk, sharing one rank normalisation
        x = _as_chain_matrix(draws[:, :, i])
        if _is_constant(x):
            degenerate.append(names[i])
            rhat[i], bulk[i] = 1.0, 0.0
        else:
            z = _rank_normalize(_split_chains(x))
            rhat[i], bulk[i] = _classic_rhat(z), _ess_core(z)
        tail[i] = ess_tail(x)
        if not rhat[i] <= RHAT_THRESHOLD:
            flags.append(f"{names[i]}: rhat {rhat[i]:.4f} > {RHAT_THRESHOLD}")
        if not bulk[i] >= ESS_THRESHOLD:
            flags.append(f"{names[i]}: ess_bulk {bulk[i]:.1f} < {ESS_THRESHOLD}")
        if not tail[i] >= ESS_THRESHOLD:
            flags.append(f"{names[i]}: ess_tail {tail[i]:.1f} < {ESS_THRESHOLD}")
    return DiagnosticsReport(
        parameters=names,
        rhat=rhat,
        ess_bulk=bulk,
        ess_tail=tail,
        flags=flags,
        degenerate=degenerate,
    )
