"""Transforms from day-probability draws to gap-time quantities.

Under stationary renewal sampling the observed duration density is
proportional to the gap-time survival function, so the gap distribution,
its survival curve and its mean follow from phi by closed-form identities.
Posterior summaries transform each draw first and take pointwise
quantiles afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import SplineBasis
from .errors import DegenerateDistributionError
from .model import TslsDistribution, phi_matrix


@dataclass(frozen=True)
class TbsDistribution:
    """Gap-time probability vector over x = 0 .. 729."""

    f_x: np.ndarray

    def __post_init__(self):
        f_x = np.asarray(self.f_x, dtype=float)
        object.__setattr__(self, "f_x", f_x)
        if np.any(f_x < 0.0):
            raise ValueError("gap-time probabilities must be non-negative")
        total = float(f_x.sum())
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"gap-time probabilities must sum to 1, got {total!r}")


def _phi_vector(phi) -> np.ndarray:
    vec = np.asarray(getattr(phi, "phi", phi), dtype=float)
    if vec[0] <= 0.0:
        raise DegenerateDistributionError(
            "duration distribution has no mass at day zero"
        )
    return vec


def tbs_from_tsls(phi) -> TbsDistribution:
    """Gap-time distribution implied by a duration distribution.

    f_x = (phi_x - phi_{x+1}) / phi_0, with the boundary probability zero;
    non-negative by monotonicity of phi, no clipping involved.
    """
    vec = _phi_vector(phi)
    f = np.empty_like(vec)
    f[:-1] = (vec[:-1] - vec[1:]) / vec[0]
    f[-1] = vec[-1] / vec[0]
    return TbsDistribution(f_x=f)


def tsls_from_tbs(f_x) -> TslsDistribution:
    """Duration distribution implied by a gap-time distribution.

    The forward direction of the renewal identity: phi_y is the gap
    survival S(y) normalized by its sum.  Exact inverse of tbs_from_tsls.
    """
    f = np.asarray(getattr(f_x, "f_x", f_x), dtype=float)
    survival = np.cumsum(f[::-1])[::-1]
    total = float(survival.sum())
    if total <= 0.0:
        raise DegenerateDistributionError("gap-time distribution has no mass")
    return TslsDistribution(phi=survival / total)


def survival_from_tsls(phi) -> np.ndarray:
    """Gap-time survival curve S(y) = phi_y / phi_0 over y = 0 .. 730.

    S(0) is exactly 1 and the boundary value is exactly 0.
    """
    vec = _phi_vector(phi)
    s = np.empty(vec.size + 1)
    s[:-1] = vec / vec[0]
    s[-1] = 0.0
    return s


def expected_tbs(phi) -> float:
    """Mean gap length in days (discrete convention): 1 / phi_0.

    Raises ValueError unless it matches the survival-curve sum to 1e-10.
    """
    vec = _phi_vector(phi)
    mean = 1.0 / float(vec[0])
    survival_sum = float((vec / vec[0]).sum())
    if not abs(mean - survival_sum) <= 1e-10 * max(1.0, mean):
        raise ValueError(f"1 / phi_0 = {mean!r} but the survival sum is {survival_sum!r}")
    return mean


@dataclass(frozen=True)
class IntervalBand:
    lower: np.ndarray | float
    upper: np.ndarray | float


@dataclass(frozen=True)
class QuantitySummary:
    """Posterior median and central credible bands for one quantity."""

    median: np.ndarray | float
    bands: dict

    def band(self, level: float) -> IntervalBand:
        return self.bands[level]


@dataclass(frozen=True)
class EstimateSummary:
    """Pointwise posterior summaries of the duration and gap-time curves.

    ``mean_tbs_days`` is 1 / phi_0 per draw, i.e. the mean on the discrete
    day-class convention.
    """

    levels: tuple[float, ...]
    tsls_pmf: QuantitySummary
    tbs_pmf: QuantitySummary
    tbs_survival: QuantitySummary
    mean_tbs_days: QuantitySummary

    def to_dict(self) -> dict:
        def enc(value):
            if isinstance(value, np.ndarray):
                return value.tolist()
            return float(value)

        def quantity(q: QuantitySummary) -> dict:
            return {
                "median": enc(q.median),
                "intervals": {
                    str(level): {"lower": enc(b.lower), "upper": enc(b.upper)}
                    for level, b in q.bands.items()
                },
            }

        return {
            "levels": list(self.levels),
            "tsls_pmf": quantity(self.tsls_pmf),
            "tbs_pmf": quantity(self.tbs_pmf),
            "tbs_survival": quantity(self.tbs_survival),
            "mean_tbs_days": quantity(self.mean_tbs_days),
        }


def quantile_band(samples: np.ndarray, levels: tuple[float, ...]) -> QuantitySummary:
    """Median and central credible bands via linear-interpolation quantiles.

    ``samples`` has draws along axis 0; remaining axes are pointwise.  The
    median and both tails of every level come from one ``np.quantile``
    call, so the draws are partitioned once.
    """
    probs = [0.5]
    for level in levels:
        if not 0.0 < level < 1.0:
            raise ValueError(f"credible level must be in (0, 1), got {level}")
        tail = 0.5 * (1.0 - level)
        probs += [tail, 1.0 - tail]
    values = np.quantile(np.asarray(samples, dtype=float), probs, axis=0)
    if values.ndim == 1:
        values = [float(v) for v in values]
    bands = {
        level: IntervalBand(lower=values[2 * i + 1], upper=values[2 * i + 2])
        for i, level in enumerate(levels)
    }
    return QuantitySummary(median=values[0], bands=bands)


def summarize(draws, basis: SplineBasis, levels=(0.8, 0.95)) -> EstimateSummary:
    """Per-draw transforms followed by pointwise posterior quantiles.

    ``draws`` is a PosteriorDraws holding the raw parameter array; every
    draw yields one linked duration / gap-time pair, and quantiles are
    taken across draws.
    """
    levels = tuple(float(lvl) for lvl in levels)
    flat = draws.draws.reshape(-1, draws.draws.shape[-1])
    if flat.shape[0] == 0:
        raise ValueError("no draws to summarize")
    phi = phi_matrix(flat, basis)
    phi0 = phi[:, :1]
    f_x = np.empty_like(phi)
    f_x[:, :-1] = (phi[:, :-1] - phi[:, 1:]) / phi0
    f_x[:, -1] = phi[:, -1] / phi0[:, 0]
    survival = np.concatenate([phi / phi0, np.zeros((phi.shape[0], 1))], axis=1)
    mean_tbs = 1.0 / phi[:, 0]
    return EstimateSummary(
        levels=levels,
        tsls_pmf=quantile_band(phi, levels),
        tbs_pmf=quantile_band(f_x, levels),
        tbs_survival=quantile_band(survival, levels),
        mean_tbs_days=quantile_band(mean_tbs, levels),
    )
