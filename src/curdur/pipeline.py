"""The whole fit: sample, diagnose, summarize, then the basis-floor rule.

``fit`` is what ``curdur fit`` runs between reading the survey and
writing its files, with the same defaults, so a library caller gets the
same draws, the same summary and the same flags.
"""

from __future__ import annotations

from dataclasses import dataclass

from .basis import BasisConfig, SplineBasis, build_basis
from .diagnostics import DiagnosticsReport, compute_diagnostics
from .errors import ConfigurationError
from .estimates import DEFAULT_LEVELS, EstimateSummary, _checked_levels, summarize
from .model import mean_tbs_floor
from .reporting import DEFAULT_HEAP
from .sampler import PosteriorDraws, SamplerConfig, sample

# a fit whose widest mean_tbs_days band starts within this fraction above
# the basis's floor is flagged: the basis, not the data, may have set it
_FLOOR_MARGIN = 0.01


@dataclass
class FitResult:
    """The draws, their diagnostics with every flag, and their summary.

    ``floor`` is the least mean TBS, in days, that ``basis`` can give.
    """

    draws: PosteriorDraws
    report: DiagnosticsReport
    summary: EstimateSummary
    basis: SplineBasis
    floor: float


def fit(data, basis_config=BasisConfig(), sampler_config=SamplerConfig(),
        heap=DEFAULT_HEAP, levels=DEFAULT_LEVELS, progress=None) -> FitResult:
    """Fit the model to ``data`` by HMC and summarize the posterior.

    ``report.flags`` holds the convergence flags and, when the widest
    ``mean_tbs_days`` band starts within 1% above ``floor``, a
    ``basis_floor`` flag; ``report.passed`` is False if any fired.
    Bad ``levels``, or none, are refused before anything is sampled.
    ``progress(chain)``, when given, is called as each chain finishes.
    """
    levels = _checked_levels(levels)
    if not levels:
        # the floor rule reads the widest band
        raise ConfigurationError("a fit needs at least one credible level")
    basis = build_basis(basis_config)
    draws = sample(sampler_config, data, basis, heap=heap, progress=progress)
    report = compute_diagnostics(draws.draws, names=draws.param_names)
    summary = summarize(draws, basis, levels=levels)
    floor = mean_tbs_floor(basis)
    widest = max(summary.levels)
    lower = summary.mean_tbs_days.band(widest).lower
    if lower <= (1.0 + _FLOOR_MARGIN) * floor:
        report.flags.append(f"basis_floor: mean_tbs_days {widest} band starts at "
                            f"{lower:.4f}, within {_FLOOR_MARGIN:.0%} of the basis floor "
                            f"{floor:.4f}")
    return FitResult(draws=draws, report=report, summary=summary, basis=basis, floor=floor)
