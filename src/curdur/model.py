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

    @property
    def num_basis(self) -> int:
        return self.delta.size

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


def _clamped_sums(delta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reverse cumulative sums along the last axis, clipped to +/- LOG_CLAMP.

    Also returns the mask of entries the clip left alone; clip events are
    counted on ``overflow_guard``.
    """
    sums = np.cumsum(delta[..., ::-1], axis=-1)[..., ::-1]
    clipped = sums.clip(-LOG_CLAMP, LOG_CLAMP)
    unclamped = clipped == sums
    overflow_guard.bump(unclamped.size - np.count_nonzero(unclamped))
    return clipped, unclamped


def _rescaled_alpha(sums: np.ndarray) -> np.ndarray:
    # the common scale cancels in phi and in every likelihood ratio, so
    # exp(sums - max) keeps all downstream sums inside double range
    return np.exp(sums - sums.max(axis=-1, keepdims=True))


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
    if params.delta.size != basis.num_basis:
        raise DimensionError(
            f"delta has length {params.delta.size}, basis has {basis.num_basis} columns"
        )
    gamma = basis.values @ _rescaled_alpha(_clamped_sums(params.delta)[0])
    total = float(gamma[:-1].sum())
    return TslsDistribution(phi=gamma[:-1] / total)


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
    k = params.num_basis
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
    k = params.num_basis
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
        self._col_totals = basis.values[:-1].sum(axis=0)
        if prior_only or data is None or len(data) == 0:
            self._interval_sums = np.zeros((0, k))
            self._counts = np.zeros(0)
        else:
            rows = []
            counts = []
            for record, n in data.counts.items():
                lo, hi = day_interval(record, heap)
                rows.append(basis.values[lo : hi + 1].sum(axis=0))
                counts.append(float(n))
            self._interval_sums = np.array(rows)
            self._counts = np.array(counts)
        self._n_total = float(self._counts.sum())
        # non-centered: k standard normals and a standard half-normal
        self._prior_const = math.log(2.0) - (k + 1) * _HALF_LOG_2PI

    def log_posterior(self, params: ModelParams) -> float:
        return self.logp_and_grad(params.to_vector())[0]

    def grad_log_posterior(self, params: ModelParams) -> np.ndarray:
        return self.logp_and_grad(params.to_vector())[1]

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
        if self._counts.size:
            with np.errstate(divide="ignore", invalid="ignore"):
                loglik, d_delta = self._log_likelihood(params.delta)
            logp += loglik
            grad[:-1] += d_delta
        return logp, grad

    def _log_likelihood(self, delta: np.ndarray) -> tuple[float, np.ndarray]:
        """Log probability of every report and its gradient in delta.

        Callers hold an ``np.errstate``: an interval whose mass underflows
        to zero gives -inf, which the sampler treats as divergent.
        """
        sums, unclamped = _clamped_sums(delta)
        alpha = _rescaled_alpha(sums)
        interval_mass = self._interval_sums @ alpha
        total_mass = float(self._col_totals @ alpha)
        loglik = float(self._counts @ np.log(interval_mass))
        loglik -= self._n_total * math.log(total_mass)
        d_alpha = (self._counts / interval_mass) @ self._interval_sums
        d_alpha -= (self._n_total / total_mass) * self._col_totals
        return loglik, np.cumsum(alpha * d_alpha * unclamped)

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
            delta = z * sigma
            if not (math.isfinite(log_sigma) and np.isfinite(delta).all()):
                return -math.inf, np.zeros_like(eta)
            sigma_sq = sigma * sigma
            logp = self._prior_const - 0.5 * (float(z @ z) + sigma_sq) + log_sigma
            grad = -eta
            grad[-1] = 1.0 - sigma_sq
            if self._counts.size:
                loglik, d_z = self._log_likelihood(delta)
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
    return PosteriorDensity(data, basis, heap).log_posterior(params)


def grad_log_posterior(
    params: ModelParams,
    data: ReportedDataset,
    basis: SplineBasis,
    heap: HeapSet | None = None,
) -> np.ndarray:
    """Exact gradient of the log posterior with respect to (delta, log_sigma)."""
    return PosteriorDensity(data, basis, heap).grad_log_posterior(params)
