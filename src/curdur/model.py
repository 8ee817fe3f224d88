"""Parameter transforms, prior, and posterior density with analytic gradient.

Unconstrained parameters are (delta_1 .. delta_K, log_sigma).  Coefficients
alpha_k = exp(sum of delta_k .. delta_K) are positive by construction, so
the basis combination gamma is positive and non-increasing, and the
normalized phi is a monotone simplex over the day grid.

The likelihood of a report is the phi-sum over its day interval; all
evaluations run in log scale against precomputed per-record basis sums, so
the posterior and its exact gradient cost a few small matrix products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import SplineBasis
from .errors import ConfigurationError, DimensionError
from .reporting import DEFAULT_HEAP, HeapSet, ReportedDataset, day_interval
from .window import NUM_DAYS

LOG_CLAMP = 700.0
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _safe_exp(x: float) -> float:
    """exp() that saturates to inf instead of raising OverflowError."""
    return math.exp(x) if x < 709.0 else math.inf


class ClampCounter:
    """Counts how often log-scale coefficient sums hit the overflow clamp."""

    def __init__(self):
        self.count = 0

    def bump(self, n: int = 1) -> None:
        self.count += int(n)

    def reset(self) -> None:
        self.count = 0


overflow_guard = ClampCounter()


@dataclass(frozen=True)
class ModelParams:
    """Unconstrained parameter vector defining one candidate distribution."""

    delta: np.ndarray
    log_sigma: float

    def __post_init__(self):
        delta = np.asarray(self.delta, dtype=float)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "log_sigma", float(self.log_sigma))
        if delta.ndim != 1:
            raise DimensionError(f"delta must be a vector, got shape {delta.shape}")
        if not (np.all(np.isfinite(delta)) and math.isfinite(self.log_sigma)):
            raise ValueError("model parameters must be finite")

    def to_vector(self) -> np.ndarray:
        return np.concatenate([self.delta, [self.log_sigma]])

    @classmethod
    def from_vector(cls, vec: np.ndarray) -> "ModelParams":
        vec = np.asarray(vec, dtype=float)
        return cls(delta=vec[:-1], log_sigma=float(vec[-1]))


@dataclass(frozen=True)
class TslsDistribution:
    """Monotone non-increasing probability vector over days 0 .. 729.

    The probability at the boundary day beyond the grid is identically
    zero, which is what makes the gap-time transform a clean bijection.
    """

    phi: np.ndarray
    phi_at_boundary: float = 0.0

    def __post_init__(self):
        phi = np.asarray(self.phi, dtype=float)
        object.__setattr__(self, "phi", phi)
        if phi.ndim != 1 or phi.size < 2:
            raise DimensionError("phi must be a vector with at least two entries")
        if not np.all(np.isfinite(phi)):
            raise ValueError("phi entries must be finite")
        if np.any(phi < 0.0):
            raise ValueError("phi entries must be non-negative")
        total = float(phi.sum())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"phi must sum to 1 within 1e-12, got {total!r}")
        slack = 1e-12 * float(phi[0])
        if np.any(np.diff(phi) > slack):
            raise ValueError("phi must be non-increasing")
        if self.phi_at_boundary != 0.0:
            raise ValueError("the boundary probability is identically zero")


def _clamped_sums(delta: np.ndarray, sq_norm: float = math.inf) -> tuple:
    """Reverse cumulative sums along the last axis, clipped to +/- LOG_CLAMP.

    Also returns the mask of entries the clip left alone, or None when every
    sum lies within the clamp, which skips the clip; clip events are counted
    on ``overflow_guard``.  ``sq_norm`` = |delta|^2 of a vector, when known,
    settles that without a pass over the sums: no sum exceeds sqrt(K sq_norm).
    """
    sums = np.add.accumulate(delta[..., ::-1], axis=-1)[..., ::-1]
    # the 1% margin covers the rounding of the sums and of sq_norm
    if (delta.shape[-1] * sq_norm <= 0.99 * LOG_CLAMP**2
            or np.maximum.reduce(np.abs(sums), axis=None, initial=0.0) <= LOG_CLAMP):
        return sums, None
    clipped = sums.clip(-LOG_CLAMP, LOG_CLAMP)
    unclamped = clipped == sums
    overflow_guard.bump(unclamped.size - np.count_nonzero(unclamped))
    return clipped, unclamped


def _rescaled_alpha(sums: np.ndarray) -> np.ndarray:
    # the common scale cancels in phi and in every likelihood ratio, so
    # exp(sums - max) keeps all downstream sums inside double range
    return np.exp(sums - np.maximum.reduce(sums, axis=-1, keepdims=True))


def alpha_from_delta(delta: np.ndarray) -> np.ndarray:
    """Positive spline coefficients from the unconstrained increments.

    alpha_k = exp(delta_k + delta_{k+1} + ... + delta_K).  Sums are clamped
    to +/- 700 before exponentiation; clamp events are counted on
    ``overflow_guard``.
    """
    delta = np.asarray(delta, dtype=float)
    if delta.ndim != 1:
        raise DimensionError(f"delta must be a vector, got shape {delta.shape}")
    if not np.isfinite(delta).all():
        raise ValueError("delta must be finite")
    return np.exp(_clamped_sums(delta)[0])


def phi_from_params(params: ModelParams, basis: SplineBasis) -> TslsDistribution:
    """Map unconstrained parameters to the monotone day-probability simplex."""
    return TslsDistribution(phi=phi_matrix(params.to_vector()[None, :], basis)[0])


def phi_matrix(param_matrix: np.ndarray, basis: SplineBasis) -> np.ndarray:
    """Vectorized phi transform for a stack of parameter vectors (rows).

    Each row is (delta_1 .. delta_K, log_sigma); log_sigma does not enter
    the transform.  Returns an array of shape (rows, support_days).
    """
    param_matrix = np.asarray(param_matrix, dtype=float)
    deltas = param_matrix[:, :-1]
    if deltas.shape[1] != basis.num_basis:
        raise DimensionError(
            f"parameter rows have {deltas.shape[1]} deltas, "
            f"basis has {basis.num_basis} columns"
        )
    gamma = _rescaled_alpha(_clamped_sums(deltas)[0]) @ basis.values.T
    body = gamma[:, :-1]
    return body / body.sum(axis=1, keepdims=True)


def log_prior(params: ModelParams) -> float:
    """Log prior over (delta, log_sigma), constants included.

    delta_j given sigma is centered normal with scale sigma; sigma is
    standard half-normal.  The log_sigma term is the Jacobian of sampling
    sigma on the log scale.  Total over all finite parameters: extreme
    log_sigma values yield -inf rather than an overflow error.
    """
    k = params.delta.size
    log_sigma = params.log_sigma
    with np.errstate(over="ignore"):
        delta_sq = float(params.delta @ params.delta)
    precision = _safe_exp(-2.0 * log_sigma)
    quad = 0.0 if delta_sq == 0.0 else delta_sq * precision
    delta_part = -k * _HALF_LOG_2PI - k * log_sigma - 0.5 * quad
    sigma_sq = _safe_exp(2.0 * log_sigma)
    sigma_part = math.log(2.0) - _HALF_LOG_2PI - 0.5 * sigma_sq
    return delta_part + sigma_part + log_sigma


def grad_log_prior(params: ModelParams) -> np.ndarray:
    """Gradient of the log prior with respect to (delta, log_sigma)."""
    k = params.delta.size
    log_sigma = params.log_sigma
    precision = _safe_exp(-2.0 * log_sigma)
    with np.errstate(over="ignore"):
        delta_sq = float(params.delta @ params.delta)
    with np.errstate(invalid="ignore"):
        d_delta = -params.delta * precision
    quad = 0.0 if delta_sq == 0.0 else delta_sq * precision
    d_log_sigma = -k + quad - _safe_exp(2.0 * log_sigma) + 1.0
    return np.concatenate([d_delta, [d_log_sigma]])


class PosteriorDensity:
    """Log posterior and exact gradient for one dataset and basis.

    Precomputes, for every distinct report, the basis-column sums over its
    day interval, so each evaluation reduces to small matrix products.
    Instances are immutable after construction and safe to share across
    chains.
    """

    def __init__(
        self,
        data: ReportedDataset | None,
        basis: SplineBasis,
        heap: HeapSet | None = None,
        prior_only: bool = False,
    ):
        heap = heap if heap is not None else DEFAULT_HEAP
        if basis.support_days != NUM_DAYS:
            raise ConfigurationError(
                f"likelihood evaluation needs a basis over {NUM_DAYS} days, "
                f"got {basis.support_days}"
            )
        self.basis = basis
        self.heap = heap
        self.prior_only = prior_only
        k = basis.num_basis
        self.num_params = k + 1
        # a row per distinct report, then the normaliser's column totals,
        # weighted by the counts, then minus their total
        self._rows = None
        if not (prior_only or data is None or len(data) == 0):
            rows = []
            weights = []
            for record, n in data.counts.items():
                lo, hi = day_interval(record, heap)
                rows.append(basis.values[lo : hi + 1].sum(axis=0))
                weights.append(float(n))
            rows.append(basis.values[:-1].sum(axis=0))
            weights.append(-sum(weights))
            self._rows = np.array(rows)
            self._weights = np.array(weights)
        # non-centered: k standard normals and a standard half-normal
        self._prior_const = math.log(2.0) - (k + 1) * _HALF_LOG_2PI

    def logp_and_grad(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        """Log posterior and gradient at a raw parameter vector.

        Total over all inputs: a non-finite position reports -inf so the
        sampler can flag the trajectory as divergent.  The reference the
        sampler's ``noncentered_logp_and_grad`` is tested against.
        """
        theta = np.asarray(theta, dtype=float)
        if not np.isfinite(theta).all():
            return -math.inf, np.zeros_like(theta)
        params = ModelParams.from_vector(theta)
        logp = log_prior(params)
        grad = grad_log_prior(params)
        if self._rows is not None:
            with np.errstate(divide="ignore", invalid="ignore"):
                loglik, d_delta = self._log_likelihood(params.delta)
            logp += loglik
            grad[:-1] += d_delta
        return logp, grad

    def _log_likelihood(self, delta: np.ndarray, sq_norm: float = math.inf) -> tuple:
        """Log probability of every report and its gradient in delta.

        Callers hold an ``np.errstate``: an interval whose mass underflows
        to zero gives -inf, which the sampler treats as divergent.
        ``sq_norm`` is |delta|^2 when the caller has it.
        """
        sums, unclamped = _clamped_sums(delta, sq_norm)
        # |sums| <= sqrt(K sq_norm) <= 300 keeps exp(sums) far inside double range
        alpha = np.exp(sums) if delta.size * sq_norm <= 9e4 else _rescaled_alpha(sums)
        mass = self._rows @ alpha
        loglik = float(self._weights @ np.log(mass))
        d_sums = alpha * ((self._weights / mass) @ self._rows)
        if unclamped is not None:
            d_sums *= unclamped
        return loglik, np.add.accumulate(d_sums)

    def noncentered_logp_and_grad(self, eta: np.ndarray) -> tuple[float, np.ndarray]:
        """Log density and gradient in scale-free coordinates.

        eta = (z, log_sigma) with z = delta / sigma.  In these coordinates
        the prior scale decouples from the increments, which removes the
        funnel geometry the sampler would otherwise face when the data
        leave some increments prior-dominated.  With the log Jacobian the
        prior is const - |z|^2/2 - sigma^2/2 + log_sigma; with L the
        likelihood gradient in delta, the gradient is (-z + sigma L,
        1 - sigma^2 + z . sigma L).
        """
        eta = np.asarray(eta, dtype=float)
        z = eta[:-1]
        log_sigma = float(eta[-1])
        sigma = _safe_exp(log_sigma)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            z_sq = float(z @ z)
            sigma_sq = sigma * sigma
            # finite only when z, log_sigma and sigma^2 are and |delta|^2 =
            # sigma^2 |z|^2 fits a double, so every delta = sigma z is finite
            if not math.isfinite(z_sq * sigma_sq + log_sigma):
                return -math.inf, np.zeros_like(eta)
            logp = self._prior_const - 0.5 * (z_sq + sigma_sq) + log_sigma
            grad = -eta
            grad[-1] = 1.0 - sigma_sq
            if self._rows is not None:
                loglik, d_z = self._log_likelihood(z * sigma, z_sq * sigma_sq)
                d_z *= sigma
                logp += loglik
                grad[:-1] += d_z
                grad[-1] += float(z @ d_z)
        return logp, grad


def to_noncentered(theta: np.ndarray) -> np.ndarray:
    """Map (delta, log_sigma) to the sampler's scale-free coordinates."""
    theta = np.asarray(theta, dtype=float)
    return np.concatenate([theta[:-1] * _safe_exp(-theta[-1]), theta[-1:]])


def to_centered(eta: np.ndarray) -> np.ndarray:
    """Map scale-free coordinates back to (delta, log_sigma)."""
    eta = np.asarray(eta, dtype=float)
    return np.concatenate([eta[:-1] * _safe_exp(eta[-1]), eta[-1:]])


def log_posterior(
    params: ModelParams,
    data: ReportedDataset,
    basis: SplineBasis,
    heap: HeapSet | None = None,
) -> float:
    """Log prior plus the log probability of every report."""
    return PosteriorDensity(data, basis, heap).logp_and_grad(params.to_vector())[0]


def grad_log_posterior(
    params: ModelParams,
    data: ReportedDataset,
    basis: SplineBasis,
    heap: HeapSet | None = None,
) -> np.ndarray:
    """Exact gradient of the log posterior with respect to (delta, log_sigma)."""
    return PosteriorDensity(data, basis, heap).logp_and_grad(params.to_vector())[1]
