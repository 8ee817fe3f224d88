"""Hamiltonian Monte Carlo over the unconstrained model parameters.

Multi-chain sampler with leapfrog integration, dual-averaging step-size
adaptation toward a target acceptance rate, and diagonal mass-matrix
estimation in Stan's expanding warm-up windows, each metric from its own
window's draws alone.  The number of leapfrog steps is
chosen each iteration so that step size times steps matches a fixed
trajectory length, capped at a fixed maximum.

One HMC iteration is written once, ``_transition``, and a chain runs it in
two loops: warm-up iterations that only adapt, then kept iterations at the
adapted step that only record.  The one ``PosteriorDraws`` is allocated
before any chain runs, and each chain writes its own slice.  Chains run
one after another and own independent seeded RNG streams, so results are
bit-identical across runs on one host and one numpy build.  Across hosts
they may differ: numpy's SIMD ``exp`` and ``log`` can differ in the last
bit between AVX-512 and AVX2 dispatch, and HMC amplifies that difference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diagnostics import MIN_CHAINS, MIN_DRAWS_PER_CHAIN
from .errors import ConfigurationError, SamplingError, check_allocation
from .model import PosteriorDensity, to_centered, to_noncentered
from .reporting import DEFAULT_HEAP, _whole

# step size times leapfrog steps each iteration aims for; longer
# trajectories cost more gradient evaluations but decorrelate draws faster
TRAJECTORY_LENGTH = 2.0
MAX_LEAPFROG_STEPS = 1024
DIVERGENCE_ENERGY = 1000.0
DUAL_GAMMA = 0.05
DUAL_T0 = 10.0
DUAL_KAPPA = 0.75


@dataclass(frozen=True)
class SamplerConfig:
    """Chain layout, adaptation target, and seeding."""

    chains: int = 4
    iterations_per_chain: int = 2000
    warmup: int = 1000
    seed: int = 0
    target_accept: float = 0.8

    def __post_init__(self):
        for name in ("chains", "iterations_per_chain", "warmup", "seed"):
            object.__setattr__(self, name, _whole(getattr(self, name), name))
        if self.chains < MIN_CHAINS:
            raise ConfigurationError(
                f"diagnostics require at least {MIN_CHAINS} chains, got {self.chains}"
            )
        if self.warmup < 0:
            raise ConfigurationError(f"warmup must be >= 0, got {self.warmup}")
        if not 0 <= self.seed < 2**64:
            raise ConfigurationError("seed must fit in an unsigned 64-bit integer")
        if self.kept_iterations < MIN_DRAWS_PER_CHAIN:
            raise ConfigurationError(
                f"iterations_per_chain ({self.iterations_per_chain}) - warmup "
                f"({self.warmup}) must keep the {MIN_DRAWS_PER_CHAIN} draws per chain "
                "the diagnostics require"
            )
        if not 0.0 < self.target_accept < 1.0:
            raise ConfigurationError(
                f"target_accept must be in (0, 1), got {self.target_accept}"
            )

    @property
    def kept_iterations(self) -> int:
        return self.iterations_per_chain - self.warmup


@dataclass
class PosteriorDraws:
    """Post-warmup draws and per-chain sampler statistics.

    ``draws`` has shape (chains, kept iterations, parameters).
    """

    draws: np.ndarray
    accept_stats: np.ndarray
    divergence_count: np.ndarray
    step_sizes: np.ndarray
    param_names: list

    @property
    def num_chains(self) -> int:
        return self.draws.shape[0]

    @property
    def num_kept(self) -> int:
        return self.draws.shape[1]

    @property
    def num_params(self) -> int:
        return self.draws.shape[-1]

    def flat(self) -> np.ndarray:
        return self.draws.reshape(-1, self.num_params)


def _leapfrog(kernel, q, p, grad, step_size, num_steps, inv_mass):
    """Leapfrog trajectory of ``num_steps`` >= 1 steps from (q, p).

    ``grad`` is the gradient at q.  Returns (q, p, logp, grad, diverged)
    at the end of the trajectory; it stops early, with ``diverged`` set,
    at the first position whose log density or gradient is not finite,
    leaving p as it was before that position's kick.  Each position is
    one ``kernel(q, logp)`` call.  HMC reads the log density only at the
    end, so ``logp`` is True on the last step alone; elsewhere the kernel
    may return None for the log density, which stands for a finite log
    density and gradient.  Every other result is checked, so the
    divergence rule is the same.
    """
    drift = step_size * inv_mass
    p = p + 0.5 * step_size * grad
    for step in range(num_steps):
        q = q + drift * p
        last = step == num_steps - 1
        logp, grad = kernel(q, last)
        if logp is not None and not (math.isfinite(logp) and np.isfinite(grad).all()):
            return q, p, logp, grad, True
        p = p + (0.5 * step_size if last else step_size) * grad
    return q, p, logp, grad, False


class _DualAveraging:
    """Nesterov dual averaging of the log step size toward a target rate."""

    def __init__(self, initial_step: float, target: float):
        self.mu = math.log(10.0 * initial_step)
        self.target = target
        self.log_step = math.log(initial_step)
        self.log_step_bar = math.log(initial_step)
        self.initial_step = initial_step
        self.h_bar = 0.0
        self.m = 0

    @property
    def step(self) -> float:
        return math.exp(self.log_step)

    @property
    def adapted_step(self) -> float:
        # with no update, the initial step itself, not exp(log(step))
        return math.exp(self.log_step_bar) if self.m else self.initial_step

    def update(self, accept_prob: float) -> None:
        self.m += 1
        frac = 1.0 / (self.m + DUAL_T0)
        self.h_bar = (1.0 - frac) * self.h_bar + frac * (self.target - accept_prob)
        self.log_step = self.mu - math.sqrt(self.m) / DUAL_GAMMA * self.h_bar
        weight = self.m ** -DUAL_KAPPA
        self.log_step_bar = weight * self.log_step + (1.0 - weight) * self.log_step_bar


def _regularized_variance(window: np.ndarray) -> np.ndarray:
    """Per-coordinate variance of a window's (draws, dim) positions, shrunk
    toward a small constant as in windowed metric adaptation; a window of
    one draw gives the unit metric."""
    n = len(window)
    if n < 2:
        return np.ones(window.shape[1])
    var = window.var(axis=0, ddof=1)
    return (n / (n + 5.0)) * var + 1e-3 * (5.0 / (n + 5.0))


def _mass_update_points(warmup: int) -> list:
    """The slow windows of warm-up, as (start, end) iteration pairs: the
    metric is re-estimated from each window's draws at its last iteration."""
    if warmup < 20:
        return []
    if warmup >= 150:
        init_buffer, term_buffer, window = 75, 50, 25
    else:
        init_buffer = max(1, int(round(0.15 * warmup)))
        term_buffer = max(1, int(round(0.10 * warmup)))
        window = max(1, int(round(0.05 * warmup)))
    windows = []
    start = init_buffer
    while start + window <= warmup - term_buffer:
        end = start + window
        # absorb a too-small final window into this one
        if end + 2 * window > warmup - term_buffer:
            end = warmup - term_buffer
        windows.append((start, end))
        start = end
        window *= 2
    return windows


def _energy(logp: float, p: np.ndarray, inv_mass: np.ndarray) -> float:
    """Hamiltonian at a state: potential plus kinetic; inf when not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        energy = -logp + 0.5 * float(np.dot(inv_mass * p, p))
    return energy if math.isfinite(energy) else math.inf


def _find_initial_step(kernel, q, logp0, grad0, rng, inv_mass) -> float:
    """Double or halve the step until the one-step acceptance crosses 1/2.

    ``logp0`` and ``grad0`` are the log density and its gradient at q.
    """
    dim = q.size
    step = 1.0
    p = rng.standard_normal(dim) * inv_mass ** -0.5
    energy0 = _energy(logp0, p, inv_mass)

    def energy_after(step_size: float) -> float:
        _, p1, logp1, _, diverged = _leapfrog(kernel, q, p, grad0, step_size, 1, inv_mass)
        return math.inf if diverged else _energy(logp1, p1, inv_mass)

    log_ratio = energy0 - energy_after(step)
    direction = 1.0 if log_ratio > math.log(0.5) else -1.0
    for _ in range(100):
        step *= 2.0 ** direction
        log_ratio = energy0 - energy_after(step)
        if direction * log_ratio <= direction * math.log(0.5):
            break
        if not 1e-12 < step < 1e7:
            raise SamplingError(f"could not find a workable step size (reached {step})")
    return step


def _transition(kernel, q, logp, grad, step_size, inv_mass, rng):
    """One HMC iteration: a momentum draw, a leapfrog trajectory, then the
    accept draw.  Returns (q, logp, grad, accept_prob, diverged)."""
    num_steps = int(min(MAX_LEAPFROG_STEPS, max(1, round(TRAJECTORY_LENGTH / step_size))))
    p = rng.standard_normal(q.size) * inv_mass ** -0.5
    energy0 = _energy(logp, p, inv_mass)
    q_new, p_new, logp_new, grad_new, diverged = _leapfrog(kernel, q, p, grad, step_size,
                                                           num_steps, inv_mass)
    if not diverged:
        delta_energy = _energy(logp_new, p_new, inv_mass) - energy0
        if not math.isfinite(delta_energy) or delta_energy > DIVERGENCE_ENERGY:
            diverged = True

    accept_prob = 0.0 if diverged else min(1.0, math.exp(-max(delta_energy, -700.0)))
    if rng.random() < accept_prob:
        return q_new, logp_new, grad_new, accept_prob, diverged
    return q, logp, grad, accept_prob, diverged


def _run_chain(kernel, start, config: SamplerConfig, chain_index: int,
               result: PosteriorDraws):
    """Warm up chain ``chain_index``, then fill its slice of ``result``;
    a chain whose every kept proposal diverged raises SamplingError."""
    rng = np.random.default_rng([config.seed, chain_index])
    q = start(rng)
    dim = q.size
    logp, grad = kernel(q, True)
    if not (math.isfinite(logp) and np.all(np.isfinite(grad))):
        raise SamplingError(
            f"chain {chain_index}: posterior is not finite at the initial point"
        )

    inv_mass = np.ones(dim)
    step = _find_initial_step(kernel, q, logp, grad, rng, inv_mass)
    dual = _DualAveraging(step, config.target_accept)
    # each slow window's start, keyed by its last iteration
    window_starts = {end - 1: first for first, end in _mass_update_points(config.warmup)}
    check_allocation(config.warmup, dim)
    visited = np.empty((config.warmup, dim))
    for it in range(config.warmup):
        q, logp, grad, accept_prob, _ = _transition(kernel, q, logp, grad, dual.step,
                                                    inv_mass, rng)
        dual.update(accept_prob)
        visited[it] = q
        if it in window_starts:
            inv_mass = _regularized_variance(visited[window_starts[it] : it + 1])
            # restart averaging around the current step; the next
            # window re-converges it under the new metric
            dual = _DualAveraging(dual.step, config.target_accept)

    step = dual.adapted_step
    kept = config.kept_iterations
    draws = result.draws[chain_index]
    accept_sum, divergences = 0.0, 0
    for it in range(kept):
        q, logp, grad, accept_prob, diverged = _transition(kernel, q, logp, grad, step,
                                                           inv_mass, rng)
        draws[it] = q
        accept_sum += accept_prob
        divergences += diverged
    result.accept_stats[chain_index] = accept_sum / kept
    result.divergence_count[chain_index] = divergences
    result.step_sizes[chain_index] = step
    if divergences == kept:
        raise SamplingError(
            f"chain {chain_index}: all {kept} post-warmup proposals diverged "
            f"(step_size={step:.3g}, mean_accept={accept_sum / kept:.3f}); "
            "pathological step size or target"
        )


def sample_density(config: SamplerConfig, logp_and_grad, dim: int) -> PosteriorDraws:
    """Run HMC chains against an arbitrary log density with gradient.

    ``logp_and_grad`` maps a parameter vector to (log density, gradient),
    and every leapfrog step takes both.  Each chain starts uniform on
    [-1, 1] per coordinate.  Chains run one after another in the calling
    thread; the result is deterministic given the config seed.
    """
    return _sample_chains(config, lambda q, logp: logp_and_grad(q),
                          lambda rng: rng.uniform(-1.0, 1.0, dim),
                          [f"param_{i}" for i in range(dim)])


def _sample_chains(config, kernel, start, param_names, progress=None):
    """HMC chains against ``kernel(q, logp)``, as ``_leapfrog`` calls it.

    ``start(rng)`` draws each chain's first position from its own RNG.
    The result is allocated before any chain runs; each fills its slice,
    and then ``progress(chain)`` is called, when given.
    """
    chains = config.chains
    check_allocation(chains, config.kept_iterations, len(param_names))
    result = PosteriorDraws(
        draws=np.empty((chains, config.kept_iterations, len(param_names))),
        accept_stats=np.empty(chains),
        divergence_count=np.empty(chains, dtype=int),
        step_sizes=np.empty(chains),
        param_names=param_names,
    )
    for c in range(chains):
        _run_chain(kernel, start, config, c, result)
        if progress is not None:
            progress(c)
    return result


def sample(
    config: SamplerConfig,
    data,
    basis,
    heap=DEFAULT_HEAP,
    progress=None,
) -> PosteriorDraws:
    """Sample the posterior over (delta_1 .. delta_K, log_sigma).

    Warm-up draws are discarded; the result holds iterations_per_chain -
    warmup draws per chain.  To sample the prior, run ``sample_density``
    on ``PosteriorDensity(None, basis).noncentered_logp_and_grad``.

    Chains start from (delta, log_sigma) uniform on [-1, 1] per coordinate
    and run in scale-free coordinates internally; the returned draws are
    always (delta_1 .. delta_K, log_sigma).  ``progress(chain)``, when
    given, is called as each chain finishes.  A chain whose every kept
    proposal diverged raises SamplingError before the next chain starts.
    """
    if data is None or len(data) == 0:
        raise SamplingError("dataset is empty; nothing to fit")
    density = PosteriorDensity(data, basis, heap=heap)
    k = basis.num_basis
    names = [f"delta_{i + 1}" for i in range(k)] + ["log_sigma"]

    def start(rng):
        return to_noncentered(rng.uniform(-1.0, 1.0, density.num_params))

    result = _sample_chains(config, density.noncentered_logp_and_grad, start, names,
                            progress)
    result.draws = to_centered(result.draws)
    return result
