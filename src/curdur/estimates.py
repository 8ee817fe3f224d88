"""Transforms from day-probability draws to gap-time quantities.

Under stationary renewal sampling the observed duration density is
proportional to the gap-time survival function, so the gap distribution,
its survival curve and its mean follow from phi by closed-form identities.
Posterior summaries transform each draw first and take pointwise
quantiles afterwards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import SplineBasis
from .errors import ConfigurationError, DegenerateDistributionError
from .model import _DAY_BLOCK, TslsDistribution, _phi_blocks
from .window import NUM_DAYS, day_vector

DEFAULT_LEVELS = (0.8, 0.95)


@dataclass(frozen=True)
class TbsDistribution:
    """Gap-time probability vector over x = 0 .. 729, summing to 1 within 1e-9."""

    f_x: np.ndarray

    def __post_init__(self):
        f_x = day_vector(self.f_x, "f_x")
        object.__setattr__(self, "f_x", f_x)
        total = float(f_x.sum())
        # written so that NaN fails
        if not (np.all(f_x >= 0.0) and abs(total - 1.0) <= 1e-9):
            raise ConfigurationError(f"gap-time pmf must be a simplex, got sum {total!r}")


def _tbs_rows(phi: np.ndarray, phi_0, out=None) -> np.ndarray:
    """f_x = (phi_x - phi_{x+1}) / phi_0 along axis 0.

    ``phi`` runs one day past the result, up to the boundary day (phi
    zero) for a result that ends on the last support day.  Writes into
    ``out`` when given.
    """
    f = np.subtract(phi[:-1], phi[1:], out=out)
    return np.divide(f, phi_0, out=f)


def _survival_rows(phi: np.ndarray, phi_0, out=None) -> np.ndarray:
    """S(y) = phi_y / phi_0 along axis 0; 0 at the boundary day."""
    return np.divide(phi, phi_0, out=out)


def tbs_from_tsls(phi) -> TbsDistribution:
    """Gap-time distribution implied by a duration distribution.

    f_x = (phi_x - phi_{x+1}) / phi_0, with the boundary probability zero;
    non-negative by monotonicity of phi, no clipping involved.
    """
    phi = np.append(day_vector(phi, "phi"), 0.0)
    if not np.isfinite(phi).all():
        raise ValueError("duration probabilities must be finite")
    if phi[0] <= 0.0:
        raise DegenerateDistributionError("duration distribution has no mass at day zero")
    return TbsDistribution(f_x=_tbs_rows(phi, phi[0]))


def tsls_from_tbs(f_x) -> TslsDistribution:
    """Duration distribution implied by a gap-time distribution.

    The forward direction of the renewal identity: phi_y is the gap
    survival S(y) normalized by its sum.  Exact inverse of tbs_from_tsls.
    """
    f = day_vector(f_x, "f_x")
    survival = np.cumsum(f[::-1])[::-1]
    total = float(survival.sum())
    if total <= 0.0:
        raise DegenerateDistributionError("gap-time distribution has no mass")
    return TslsDistribution(phi=survival / total)


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


def _linear_quantile(ordered: np.ndarray, p: float):
    """Quantile ``p`` of values sorted along the last axis of ``ordered``.

    Interpolates between neighbouring order statistics with the arithmetic
    of ``np.quantile``'s default "linear" method, so the values are
    bit-identical to it for finite input.
    """
    n = ordered.shape[-1]
    pos = (n - 1) * p
    lo = math.floor(pos)
    t = pos - lo
    a = ordered[..., lo]
    b = ordered[..., min(lo + 1, n - 1)]
    d = b - a
    return a + d * t if t < 0.5 else b - d * (1.0 - t)


def _checked_levels(levels) -> tuple[float, ...]:
    """``levels`` as floats, each in (0, 1), with no repeats: each level
    keys one band, so a repeat would give fewer bands than levels."""
    levels = tuple(float(level) for level in levels)
    if any(not 0.0 < level < 1.0 for level in levels):
        raise ConfigurationError(f"credible levels must lie in (0, 1), got {levels}")
    if len(set(levels)) != len(levels):
        raise ConfigurationError(f"credible levels must be distinct, got {levels}")
    return levels


def _band_in_place(x: np.ndarray, levels: tuple[float, ...]) -> QuantitySummary:
    """Median and bands of ``x``, whose draws lie along its last axis.

    Sorts ``x`` in place along that axis and reads the median and both
    tails of every level off it with ``_linear_quantile``, so the values
    are bit-identical to ``np.quantile``.  Non-finite draws raise ValueError.
    """
    probs = [0.5]
    for level in levels:
        tail = 0.5 * (1.0 - level)
        probs += [tail, 1.0 - tail]
    x.sort(axis=-1)
    # NaN sorts last, so the extreme draws show every non-finite sample
    if not (np.isfinite(x[..., 0]).all() and np.isfinite(x[..., -1]).all()):
        raise ValueError("samples must be finite")
    values = [_linear_quantile(x, p) for p in probs]
    if x.ndim == 1:
        values = [float(v) for v in values]
    bands = {
        level: IntervalBand(lower=values[2 * i + 1], upper=values[2 * i + 2])
        for i, level in enumerate(levels)
    }
    return QuantitySummary(median=values[0], bands=bands)


def _joined(parts: list) -> QuantitySummary:
    """One summary from the summaries of consecutive blocks of days."""
    bands = {
        level: IntervalBand(lower=np.concatenate([q.bands[level].lower for q in parts]),
                            upper=np.concatenate([q.bands[level].upper for q in parts]))
        for level in parts[0].bands
    }
    return QuantitySummary(median=np.concatenate([q.median for q in parts]), bands=bands)


def summarize(draws, basis: SplineBasis, levels=DEFAULT_LEVELS) -> EstimateSummary:
    """Per-draw transforms followed by pointwise posterior quantiles.

    ``draws`` is a PosteriorDraws holding the raw parameter array; every
    draw yields one linked duration / gap-time pair, and quantiles are
    taken across draws.  No (draws, days) array is built: the curves are
    made a block of days at a time from the blocks ``phi_matrix`` is
    assembled from, written day-major and sorted in place.  Besides the
    coefficients, only two (block, draws) arrays are alive: the rows the
    blocks are written into and one buffer for the gap-time pmf and then
    the survival.  The values are bit-identical to ``np.quantile`` of the
    row-by-row transforms of ``phi_matrix``.
    """
    levels = _checked_levels(levels)
    flat = draws.flat()
    if flat.shape[0] == 0:
        raise ValueError("no draws to summarize")
    # day-major rows: phi of the day before the block, the block, which
    # _phi_blocks writes from row 1, and after the last block the boundary day
    phi = np.empty((_DAY_BLOCK + 2, flat.shape[0]))
    buffer = np.empty_like(phi)
    tsls, tbs, survival = [], [], []
    for start, block in _phi_blocks(flat, basis, phi[1 : _DAY_BLOCK + 1]):
        width = len(block)
        lead = int(start > 0)
        last = start + width == NUM_DAYS
        rows = phi[1 - lead : 1 + width + last]
        if last:
            rows[-1] = 0.0
        if start == 0:
            phi_0 = block[0].copy()
        pmf = _tbs_rows(rows, phi_0, out=buffer[: len(rows) - 1])
        tbs.append(_band_in_place(pmf, levels))
        surv = _survival_rows(rows[lead:], phi_0, out=buffer[: len(rows) - lead])
        survival.append(_band_in_place(surv, levels))
        phi[0] = block[-1]
        tsls.append(_band_in_place(block, levels))
    return EstimateSummary(
        levels=levels,
        tsls_pmf=_joined(tsls),
        tbs_pmf=_joined(tbs),
        tbs_survival=_joined(survival),
        mean_tbs_days=_band_in_place(1.0 / phi_0, levels),
    )
