"""Convergence and efficiency diagnostics for multi-chain draws.

Implements the rank-normalized split R-hat and the bulk / tail effective
sample sizes.  Draws are split in half per chain, pooled ranks are mapped
through the normal quantile function with the (r - 3/8) / (S + 1/4)
adjustment, and autocorrelation sums use Geyer's initial monotone
positive sequence.  Only numpy is used: the normal quantile is a port of
the standard library's AS241 and the FFT length a pure-Python search.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError

RHAT_THRESHOLD = 1.01
ESS_THRESHOLD = 400.0

# Wichura's AS241 (Applied Statistics 37:477, 1988), highest power first,
# as in statistics.NormalDist.inv_cdf: one rational for |p - 1/2| <= 0.425,
# two for the tails in r = sqrt(-log(min(p, 1 - p))).
_CENTRAL = (
    (2.50908_09287_30122_6727e+3, 3.34305_75583_58812_8105e+4,
     6.72657_70927_00870_0853e+4, 4.59219_53931_54987_1457e+4,
     1.37316_93765_50946_1125e+4, 1.97159_09503_06551_4427e+3,
     1.33141_66789_17843_7745e+2, 3.38713_28727_96366_6080e+0),
    (5.22649_52788_52854_5610e+3, 2.87290_85735_72194_2674e+4,
     3.93078_95800_09271_0610e+4, 2.12137_94301_58659_5867e+4,
     5.39419_60214_24751_1077e+3, 6.87187_00749_20579_0830e+2,
     4.23133_30701_60091_1252e+1, 1.0),
)
_NEAR_TAIL = (
    (7.74545_01427_83414_07640e-4, 2.27238_44989_26918_45833e-2,
     2.41780_72517_74506_11770e-1, 1.27045_82524_52368_38258e+0,
     3.64784_83247_63204_60504e+0, 5.76949_72214_60691_40550e+0,
     4.63033_78461_56545_29590e+0, 1.42343_71107_49683_57734e+0),
    (1.05075_00716_44416_84324e-9, 5.47593_80849_95344_94600e-4,
     1.51986_66563_61645_71966e-2, 1.48103_97642_74800_74590e-1,
     6.89767_33498_51000_04550e-1, 1.67638_48301_83803_84940e+0,
     2.05319_16266_37758_82187e+0, 1.0),
)
_FAR_TAIL = (
    (2.01033_43992_92288_13265e-7, 2.71155_55687_43487_57815e-5,
     1.24266_09473_88078_43860e-3, 2.65321_89526_57612_30930e-2,
     2.96560_57182_85048_91230e-1, 1.78482_65399_17291_33580e+0,
     5.46378_49111_64114_36990e+0, 6.65790_46435_01103_77720e+0),
    (2.04426_31033_89939_78564e-15, 1.42151_17583_16445_88870e-7,
     1.84631_83175_10054_68180e-5, 7.86869_13114_56132_59100e-4,
     1.48753_61290_85061_48525e-2, 1.36929_88092_27358_05310e-1,
     5.99832_20655_58879_37690e-1, 1.0),
)


def _horner(coeffs, r: np.ndarray):
    """Numerator and denominator of one AS241 rational at r."""
    num, den = coeffs[0][0], coeffs[1][0]
    for a, b in zip(coeffs[0][1:], coeffs[1][1:]):
        num = num * r + a
        den = den * r + b
    return num, den


def _ndtri(p: np.ndarray) -> np.ndarray:
    """Standard normal quantile of each p in (0, 1), by AS241.

    The operations and their order are those of the standard library's
    ``statistics.NormalDist().inv_cdf``, so where |p - 1/2| <= 0.425 (only
    + x /) the result is bit-identical to it.
    """
    q = p - 0.5
    x = np.empty_like(q)
    central = np.abs(q) <= 0.425
    qc = q[central]
    num, den = _horner(_CENTRAL, 0.180625 - qc * qc)
    x[central] = num * qc / den
    tail = ~central
    qt = q[tail]
    r = np.sqrt(-np.log(np.where(qt <= 0.0, p[tail], 1.0 - p[tail])))
    near = r <= 5.0
    num, den = _horner(_NEAR_TAIL, r[near] - 1.6)
    r[near] = num / den
    num, den = _horner(_FAR_TAIL, r[~near] - 5.0)
    r[~near] = num / den
    x[tail] = np.where(qt < 0.0, -r, r)
    return x


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
    if x.shape[1] < 4:
        raise DimensionError("diagnostics require at least 4 draws per chain")
    return x


def _split_chains(x: np.ndarray) -> np.ndarray:
    half = x.shape[1] // 2
    return np.vstack([x[:, :half], x[:, -half:]])


def _rank_normalize(x: np.ndarray) -> np.ndarray:
    # 1-based ranks of the pooled draws; tied draws share their mean rank
    _, idx, cnt = np.unique(x, return_inverse=True, return_counts=True)
    ranks = np.cumsum(cnt) - 0.5 * (cnt - 1)
    return _ndtri((ranks - 0.375) / (x.size + 0.25))[idx].reshape(x.shape)


def _rank_normalize_indicator(b: np.ndarray) -> np.ndarray:
    """``_rank_normalize`` of a boolean array, in closed form.

    The falses share rank (n0 + 1) / 2 and the trues n0 + (n1 + 1) / 2,
    written as ``_rank_normalize`` writes them, so the scores are
    bit-identical to its, also when b holds one value only.
    """
    n1 = int(np.count_nonzero(b))
    n0 = b.size - n1
    ranks = np.array([n0, b.size]) - 0.5 * (np.array([n0, n1]) - 1)
    low, high = _ndtri((ranks - 0.375) / (b.size + 0.25))
    return np.where(b, high, low)


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
