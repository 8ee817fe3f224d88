"""Current-duration estimation of time-between-sex distributions.

Fits a Bayesian monotone-spline model to heaped, multi-unit
time-since-last-sex survey reports and derives the time-between-sex
distribution through the renewal (current-duration) identity.
"""

from .basis import BasisConfig, SplineBasis, build_basis
from .diagnostics import (
    DiagnosticsReport,
    compute_diagnostics,
    ess_bulk,
    ess_tail,
    split_rank_rhat,
)
from .errors import (
    ConfigurationError,
    CurdurError,
    DegenerateDistributionError,
    DimensionError,
    IngestError,
    OutOfWindowError,
    SamplingError,
)
from .estimates import (
    EstimateSummary,
    TbsDistribution,
    summarize,
    tbs_from_tsls,
    tsls_from_tbs,
)
from .model import (
    ModelParams,
    PosteriorDensity,
    TslsDistribution,
    phi_from_params,
)
from .pipeline import FitResult, fit
from .reporting import (
    DEFAULT_HEAP,
    HeapSet,
    ReportedDataset,
    ReportedDuration,
    Unit,
    day_interval,
    reported_prob,
    spread_mass,
)
from .sampler import PosteriorDraws, SamplerConfig, sample, sample_density
from .simulator import (
    ReportingBehavior,
    mixture,
    point_mass,
    sample_tsls_exact,
    simulate_survey,
    truncated_geometric,
    uniform_gap,
)
from .window import LAST_DAY, NUM_DAYS

__version__ = "0.1.0"
