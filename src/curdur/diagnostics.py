"""Convergence and efficiency diagnostics for multi-chain draws.

Implements the rank-normalized split R-hat and the bulk / tail effective
sample sizes.  Draws are split in half per chain, pooled ranks are mapped
through the normal quantile function with the (r - 3/8) / (S + 1/4)
adjustment, and autocorrelation sums use Geyer's initial monotone
positive sequence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.fft import next_fast_len
from scipy.special import ndtri

from .errors import DimensionError

RHAT_THRESHOLD = 1.01
ESS_THRESHOLD = 400.0


def _as_chain_matrix(draws) -> np.ndarray:
    x = np.asarray(draws, dtype=float)
    if x.ndim != 2:
        raise DimensionError(f"draws must be (chains, iterations), got shape {x.shape}")
    if x.shape[0] < 2:
        raise DimensionError("diagnostics require at least 2 chains")
    if x.shape[1] < 4:
        raise DimensionError("diagnostics require at least 4 draws per chain")
    return x


def _split_chains(x: np.ndarray) -> np.ndarray:
    half = x.shape[1] // 2
    return np.vstack([x[:, :half], x[:, -half:]])


def _rank_normalize(x: np.ndarray) -> np.ndarray:
    # 1-based ranks of the pooled draws; tied draws share their mean rank
    _, idx, cnt = np.unique(x, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(cnt) - 0.5 * (cnt - 1))[idx].reshape(x.shape)
    return ndtri((ranks - 0.375) / (x.size + 0.25))


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
    n = x.size
    m = next_fast_len(2 * n)
    centered = x - x.mean()
    freq = np.fft.rfft(centered, m)
    acov = np.fft.irfft(freq * np.conj(freq), m)[:n].real
    return acov / n


def _ess_core(z: np.ndarray) -> float:
    """Multi-chain ESS via Geyer's initial monotone positive sequence."""
    n_chain, n_draw = z.shape
    acov = np.array([_autocovariance(z[c]) for c in range(n_chain)])
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
    q05, q95 = np.quantile(x, [0.05, 0.95])
    out = []
    for indicator in (x <= q05, x >= q95):
        ind = indicator.astype(float)
        if _is_constant(ind):
            out.append(0.0)
        else:
            out.append(_ess_core(_rank_normalize(_split_chains(ind))))
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
        return {
            "parameters": [
                {
                    "name": name,
                    "rhat": float(self.rhat[i]),
                    "ess_bulk": float(self.ess_bulk[i]),
                    "ess_tail": float(self.ess_tail[i]),
                }
                for i, name in enumerate(self.parameters)
            ],
            "max_rhat": float(np.max(self.rhat)),
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
    rhat = np.empty(n_params)
    bulk = np.empty(n_params)
    tail = np.empty(n_params)
    flags = []
    degenerate = []
    for i in range(n_params):
        series = draws[:, :, i]
        if _is_constant(series):
            degenerate.append(names[i])
        rhat[i] = split_rank_rhat(series)
        bulk[i] = ess_bulk(series)
        tail[i] = ess_tail(series)
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
