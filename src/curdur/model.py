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
# the kernel's exception-free region: |log_sigma| and the bound on every
# reverse sum, sqrt(K |delta|^2)
_SAFE_LOG_SIGMA = 200.0
_SAFE_SUM = 300.0
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _safe_exp(x: float) -> float:
    """exp() that saturates to inf instead of raising OverflowError."""
    return math.exp(x) if x < 709.0 else math.inf


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


def _clamp(sums: np.ndarray) -> tuple:
    """Clip log-scale coefficient sums to +/- LOG_CLAMP.

    Also returns the mask of entries the clip left alone, or None when every
    sum lies within the clamp, which skips the clip.
    """
    if np.maximum.reduce(np.abs(sums), axis=None, initial=0.0) <= LOG_CLAMP:
        return sums, None
    clipped = sums.clip(-LOG_CLAMP, LOG_CLAMP)
    return clipped, clipped == sums


def _clamped_sums(delta: np.ndarray) -> tuple:
    """Reverse cumulative sums along the last axis, through ``_clamp``."""
    return _clamp(np.add.accumulate(delta[..., ::-1], axis=-1)[..., ::-1])


def _rescaled_alpha(sums: np.ndarray) -> np.ndarray:
    # the common scale cancels in phi and in every likelihood ratio, so
    # exp(sums - max) keeps all downstream sums inside double range
    return np.exp(sums - np.maximum.reduce(sums, axis=-1, keepdims=True))


def alpha_from_delta(delta: np.ndarray) -> np.ndarray:
    """Positive spline coefficients from the unconstrained increments.

    alpha_k = exp(delta_k + delta_{k+1} + ... + delta_K).  Sums are clamped
    to +/- 700 before exponentiation.
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
    ):
        heap = heap if heap is not None else DEFAULT_HEAP
        if basis.support_days != NUM_DAYS:
            raise ConfigurationError(
                f"likelihood evaluation needs a basis over {NUM_DAYS} days, "
                f"got {basis.support_days}"
            )
        k = basis.num_basis
        self.num_params = k + 1
        # sums = _upper.dot(v) are the reverse sums of v[:-1] and
        # _upper_t.dot(d_sums) their forward sums: the zero last column and
        # row let the kernel pass the whole position and take back a
        # gradient with the K + 1 entries of a position
        upper = np.triu(np.ones((k, k + 1)))
        upper[:, -1] = 0.0
        self._upper = upper
        self._upper_t = np.ascontiguousarray(upper.T)
        # a row per distinct report, then the normaliser's column totals,
        # weighted by the counts, then minus their total
        self._rows = None
        self._safe_rows = True
        if not (data is None or len(data) == 0):
            rows = []
            weights = []
            for record, n in data.counts.items():
                lo, hi = day_interval(record, heap)
                rows.append(basis.values[lo : hi + 1].sum(axis=0))
                weights.append(float(n))
            rows.append(basis.values[:-1].sum(axis=0))
            weights.append(-sum(weights))
            self._rows = np.array(rows)
            self._rows_t = np.ascontiguousarray(self._rows.T)
            self._weights = np.array(weights)
            # with |sums| <= _SAFE_SUM every mass is at least e^-300 times
            # its row's largest entry: with that entry >= 1e-100 no mass
            # underflows and no counts / mass overflows (10 segments: >= 0.0536)
            self._safe_rows = bool(self._rows.max(axis=1).min() >= 1e-100)
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
                loglik, d_delta = self._log_likelihood(theta, 1.0, guarded=True)
            logp += loglik
            grad += d_delta
        return logp, grad

    def _log_likelihood(self, v: np.ndarray, scale: float, guarded: bool) -> tuple:
        """Log probability of every report and its gradient in delta.

        delta = scale * v[:-1]; the gradient has the K + 1 entries of v, the
        last one zero.  ``guarded`` clamps and rescales the sums, and the
        caller then holds an ``np.errstate``: an interval whose mass
        underflows to zero gives -inf, which the sampler treats as
        divergent.  Unguarded calls need every |sum| <= _SAFE_SUM and
        ``_safe_rows``, which keep every step finite and exception-free.
        """
        sums = self._upper.dot(v)
        sums *= scale
        unclamped = None
        if guarded:
            sums, unclamped = _clamp(sums)
            alpha = _rescaled_alpha(sums)
        else:
            alpha = np.exp(sums)
        mass = self._rows.dot(alpha)
        loglik = float(self._weights.dot(np.log(mass)))
        d_sums = self._rows_t.dot(self._weights / mass)
        d_sums *= alpha
        if unclamped is not None:
            d_sums *= unclamped
        return loglik, self._upper_t.dot(d_sums)

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
        z = eta.tolist()
        log_sigma = z.pop()
        z_norm = math.hypot(*z)
        # |log_sigma| <= 200 and K |delta|^2 <= 300^2 bound every reverse
        # sum by 300 (Cauchy-Schwarz) and every intermediate of the kernel
        # far inside double range: no clamp, rescale or np.errstate needed
        if abs(log_sigma) <= _SAFE_LOG_SIGMA and self._safe_rows:
            sigma = math.exp(log_sigma)
            delta_norm = sigma * z_norm
            if len(z) * delta_norm * delta_norm <= _SAFE_SUM * _SAFE_SUM:
                return self._noncentered(eta, z_norm * z_norm, log_sigma, sigma, False)
        sigma = _safe_exp(log_sigma)
        z_sq = z_norm * z_norm
        # finite only when z, log_sigma and sigma^2 are and |delta|^2 =
        # sigma^2 |z|^2 fits a double, so every delta = sigma z is finite
        if not math.isfinite(z_sq * (sigma * sigma) + log_sigma):
            return -math.inf, np.zeros_like(eta)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            return self._noncentered(eta, z_sq, log_sigma, sigma, True)

    def _noncentered(self, eta, z_sq, log_sigma, sigma, guarded):
        """The kernel body on both paths; ``guarded`` as in ``_log_likelihood``."""
        sigma_sq = sigma * sigma
        logp = self._prior_const - 0.5 * (z_sq + sigma_sq) + log_sigma
        if self._rows is None:
            grad = -eta
            grad[-1] = 1.0 - sigma_sq
            return logp, grad
        loglik, grad = self._log_likelihood(eta, sigma, guarded)
        grad *= sigma
        z_dz = float(eta.dot(grad))
        grad -= eta
        grad[-1] = 1.0 - sigma_sq + z_dz
        return logp + loglik, grad


def to_noncentered(theta: np.ndarray) -> np.ndarray:
    """Map (delta, log_sigma) to the sampler's scale-free coordinates."""
    theta = np.asarray(theta, dtype=float)
    return np.concatenate([theta[:-1] * _safe_exp(-theta[-1]), theta[-1:]])


def to_centered(eta: np.ndarray) -> np.ndarray:
    """Map scale-free coordinates back to (delta, log_sigma)."""
    eta = np.asarray(eta, dtype=float)
    return np.concatenate([eta[:-1] * _safe_exp(eta[-1]), eta[-1:]])
