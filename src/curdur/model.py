"""Parameter transforms, prior, and posterior density with analytic gradient.

Unconstrained parameters are (delta_1 .. delta_K, log_sigma).  Coefficients
alpha_k = exp(sum of delta_k .. delta_K) are positive by construction, so
the basis combination gamma is positive and non-increasing, and the
normalized phi is a monotone simplex over the day grid.

A report's likelihood is phi summed through the reporting model's
observation matrix; evaluations run in log scale on the basis summed the
same way, so the posterior and its exact gradient are a few small products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import SplineBasis
from .errors import DimensionError
from .reporting import DEFAULT_HEAP, HeapSet, ReportedDataset, observation_matrix
from .window import NUM_DAYS, day_vector

LOG_CLAMP = 700.0
# the kernel's exception-free region: |log_sigma| and the bound on every
# reverse sum, sqrt(K |delta|^2)
_SAFE_LOG_SIGMA = 200.0
_SAFE_SUM = 300.0
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
# days per block of the phi transform.  On 8000 draws and 30 segments,
# summarize took 145-172 ms with day blocks of 8 to 96, least at 16
_DAY_BLOCK = 16


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


@dataclass(frozen=True)
class TslsDistribution:
    """Monotone non-increasing probability vector over days 0 .. 729.

    The probability at the boundary day beyond the grid is identically
    zero, which is what makes the gap-time transform a clean bijection.
    """

    phi: np.ndarray

    def __post_init__(self):
        phi = day_vector(self.phi, "phi")
        object.__setattr__(self, "phi", phi)
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


def _coefficients(sums: np.ndarray) -> tuple:
    """alpha = exp(sums - max) along the last axis, in place, from
    log-scale coefficient sums clipped to +/- LOG_CLAMP.

    Returns alpha and the mask of sums the clip left alone.  The common
    scale cancels in phi and in every likelihood ratio, so the shift
    keeps all downstream sums inside double range.
    """
    # two comparisons build no float temporary the size of sums
    unclamped = (sums >= -LOG_CLAMP) & (sums <= LOG_CLAMP)
    np.clip(sums, -LOG_CLAMP, LOG_CLAMP, out=sums)
    sums -= np.maximum.reduce(sums, axis=-1, keepdims=True)
    return np.exp(sums, out=sums), unclamped


def phi_from_params(params: ModelParams, basis: SplineBasis) -> TslsDistribution:
    """Map unconstrained parameters to the monotone day-probability simplex."""
    return TslsDistribution(phi=phi_matrix(params.to_vector()[None, :], basis)[0])


def _support_totals(basis: SplineBasis) -> np.ndarray:
    """Column totals of the basis over the support days.

    ``alpha @ _support_totals(basis)`` is gamma's total over the support,
    the normaliser of phi and of every report probability.
    """
    return basis.values[:-1].sum(axis=0)


def mean_tbs_floor(basis: SplineBasis) -> float:
    """The least mean TBS, in days, that any coefficients of ``basis`` give.

    Mean TBS is 1 / phi_0, and phi_0 = (alpha @ values[0]) / (alpha @ t),
    with t = ``_support_totals(basis)``, is a mean of the column ratios
    values[0, k] / t_k weighted by alpha_k t_k: at most the largest.
    """
    return float(1.0 / np.max(basis.values[0] / _support_totals(basis)))


def _phi_blocks(param_matrix: np.ndarray, basis: SplineBasis, out: np.ndarray):
    """The phi transform of a stack of parameter vectors, in day blocks.

    Each row is (delta_1 .. delta_K, log_sigma); log_sigma does not enter
    the transform.  ``out`` is a day-major (``_DAY_BLOCK``, rows) buffer.
    Yields ``(start, block)``, where ``block`` is the leading rows of
    ``out`` and ``block[j, i]`` is phi of row i at day start + j: the
    basis combination gamma divided by the row's total over the support
    days, ``alpha @ _support_totals(basis)``.  Each block is written when
    it is asked for, so the caller may overwrite it once done with it.
    Besides ``out``, only the (rows, K) coefficients are built.
    """
    param_matrix = np.asarray(param_matrix, dtype=float)
    deltas = param_matrix[:, :-1]
    if deltas.shape[1] != basis.num_basis:
        raise DimensionError(
            f"parameter rows have {deltas.shape[1]} deltas, "
            f"basis has {basis.num_basis} columns"
        )
    sums = np.empty_like(deltas)
    np.add.accumulate(deltas[:, ::-1], axis=1, out=sums[:, ::-1])
    alpha = _coefficients(sums)[0]
    alpha /= (alpha @ _support_totals(basis))[:, None]
    support = basis.values[:-1]
    for start in range(0, NUM_DAYS, _DAY_BLOCK):
        days = support[start : start + _DAY_BLOCK]
        yield start, np.dot(days, alpha.T, out=out[: len(days)])


def phi_matrix(param_matrix: np.ndarray, basis: SplineBasis) -> np.ndarray:
    """Vectorized phi transform for a stack of parameter vectors (rows).

    Returns an array of shape (rows, NUM_DAYS) assembled from
    ``_phi_blocks``, so it holds the values every summary is taken from.
    """
    rows = np.shape(param_matrix)[0]
    phi = np.empty((rows, NUM_DAYS))
    for start, block in _phi_blocks(param_matrix, basis, np.empty((_DAY_BLOCK, rows))):
        phi[:, start : start + len(block)] = block.T
    return phi


class PosteriorDensity:
    """Log posterior and exact gradient for one dataset and basis.

    Precomputes the basis columns summed over the days of each distinct
    report, so each evaluation reduces to small matrix products.  With
    ``data`` None the density is the prior, the empty survey's posterior.
    Instances are immutable after construction and safe to share across
    chains.
    """

    def __init__(
        self,
        data: ReportedDataset | None,
        basis: SplineBasis,
        heap: HeapSet = DEFAULT_HEAP,
    ):
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
        # weighted by the counts, then minus their total.  No data is the
        # empty survey: the normaliser alone, weighted 0, leaves the prior
        data = data if data is not None else ReportedDataset(())
        self._rows = np.vstack([observation_matrix(data, heap) @ basis.values[:-1],
                                _support_totals(basis)])
        self._rows_t = np.ascontiguousarray(self._rows.T)
        self._weights = np.array([*data.counts.values(), -len(data)], dtype=float)
        # with |sums| <= _SAFE_SUM every mass is at least e^-300 times
        # its row's largest entry: with that entry >= 1e-100 no mass
        # underflows and no counts / mass overflows (10 segments: >= 0.0536)
        self._safe_rows = bool(self._rows.max(axis=1).min() >= 1e-100)
        # non-centered: k standard normals and a standard half-normal
        self._prior_const = math.log(2.0) - (k + 1) * _HALF_LOG_2PI

    def noncentered_logp_and_grad(self, eta: np.ndarray,
                                  logp: bool = True) -> tuple[float | None, np.ndarray]:
        """Log density and gradient in scale-free coordinates.

        eta = (z, log_sigma) with z = delta / sigma.  In these coordinates
        the prior scale decouples from the increments, which removes the
        funnel geometry the sampler would otherwise face when the data
        leave some increments prior-dominated.  With the log Jacobian the
        prior is const - |z|^2/2 - sigma^2/2 + log_sigma; with L the
        likelihood gradient in delta, the gradient is (-z + sigma L,
        1 - sigma^2 + z . sigma L).

        With ``logp`` False, as on the sampler's interior leapfrog steps, a
        position in the exception-free region gives (None, gradient): None
        stands for a finite log density, not computed, and the gradient is
        the full call's, bit for bit.  Elsewhere the result is the full
        (log density, gradient).
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
                return self._noncentered(eta, z_norm * z_norm, log_sigma, sigma, False, logp)
        sigma = _safe_exp(log_sigma)
        z_sq = z_norm * z_norm
        # finite only when z, log_sigma and sigma^2 are and |delta|^2 =
        # sigma^2 |z|^2 fits a double, so every delta = sigma z is finite
        if not math.isfinite(z_sq * (sigma * sigma) + log_sigma):
            return -math.inf, np.zeros_like(eta)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            return self._noncentered(eta, z_sq, log_sigma, sigma, True)

    def _noncentered(self, eta, z_sq, log_sigma, sigma, guarded, logp=True):
        """The kernel body on both paths.

        The likelihood's coefficient sums are the reverse sums of delta =
        sigma z.  ``guarded`` clamps and rescales them, and the caller then
        holds an ``np.errstate``: an interval whose mass underflows to zero
        gives (-inf, zeros), which the sampler treats as divergent.
        Unguarded calls need every |sum| <= _SAFE_SUM and ``_safe_rows``,
        which keep every step finite and exception-free.  With ``logp``
        False the log density is None, not computed.
        """
        sigma_sq = sigma * sigma
        sums = self._upper.dot(eta)
        sums *= sigma
        if guarded:
            alpha, unclamped = _coefficients(sums)
        else:
            alpha = np.exp(sums)
        mass = self._rows.dot(alpha)
        loglik = float(self._weights.dot(np.log(mass))) if logp else None
        if loglik == -math.inf:
            # a report with no mass: no gradient, as at any other -inf
            return loglik, np.zeros_like(eta)
        d_sums = self._rows_t.dot(self._weights / mass)
        d_sums *= alpha
        if guarded:
            d_sums *= unclamped
        grad = self._upper_t.dot(d_sums)
        grad *= sigma
        z_dz = float(eta.dot(grad))
        grad -= eta
        grad[-1] = 1.0 - sigma_sq + z_dz
        if loglik is None:
            return None, grad
        return self._prior_const - 0.5 * (z_sq + sigma_sq) + log_sigma + loglik, grad

    def logp_and_grad(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        """Log posterior and gradient at (delta, log_sigma).

        The kernel's Jacobian view: at eta = (z, log_sigma), z = delta /
        sigma, the log density is the kernel's minus K log_sigma, the delta
        gradient is grad_z / sigma and the log_sigma gradient is grad_ls -
        z . grad_z - K.  Total over all inputs: a non-finite position, or one
        whose delta / sigma is not finite, gives (-inf, zeros).
        """
        eta = to_noncentered(theta)
        logp, grad = self.noncentered_logp_and_grad(eta)
        if logp == -math.inf:
            return logp, np.zeros_like(eta)
        k = eta.size - 1
        log_sigma = float(eta[-1])
        grad[-1] -= float(eta[:-1].dot(grad[:-1])) + k
        grad[:-1] /= math.exp(log_sigma)
        return logp - k * log_sigma, grad


def to_noncentered(theta: np.ndarray) -> np.ndarray:
    """Map (delta, log_sigma) to the sampler's scale-free coordinates.

    Where delta / sigma is not finite, as at a non-finite theta or where
    1 / sigma overflows (log_sigma < -709), so is z, without a warning: a
    zero delta then gives NaN.
    """
    theta = np.asarray(theta, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.concatenate([theta[:-1] * _safe_exp(-theta[-1]), theta[-1:]])


def to_centered(eta: np.ndarray) -> np.ndarray:
    """Map scale-free coordinates back to (delta, log_sigma).

    Takes one position or a stack of them, such as a (chains, draws, K + 1)
    array: each row along the last axis is mapped on its own.  Where sigma
    overflows, delta is infinite, or NaN at a zero z, without a warning.
    """
    eta = np.asarray(eta, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.concatenate([eta[..., :-1] * np.exp(eta[..., -1:]), eta[..., -1:]],
                              axis=-1)
