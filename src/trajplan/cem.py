"""Cross-entropy method over action sequences.

Maintains an entrywise Gaussian (diagonal covariance) over (T, d_a) action
sequences. Each iteration samples n sequences, rolls them out, refits the
distribution to the top k_elite by a moving average, and the best
sequences over the whole run are pooled across iterations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ActionBounds, Array, DivergedError, project, rollout_batch

# Keeps the sampling distribution from collapsing to a point.
VARIANCE_FLOOR = 1e-6


@dataclass
class SamplingDistribution:
    """Entrywise Gaussian over action sequences: mean and variance, both (T, d_a)."""

    mean: Array
    variance: Array

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float)
        self.variance = np.asarray(self.variance, dtype=float)
        if self.mean.shape != self.variance.shape:
            raise ValueError("mean and variance shapes differ")
        if np.any(self.variance < 0.0):
            raise ValueError("variance entries must be nonnegative")

    @classmethod
    def initial(cls, horizon: int, d_a: int, mean: Array | None = None) -> "SamplingDistribution":
        """Unit-variance distribution, zero mean unless one is supplied."""
        if mean is None:
            mean = np.zeros((horizon, d_a))
        return cls(np.asarray(mean, dtype=float).copy(), np.ones((horizon, d_a)))


@dataclass
class CemResult:
    best_sequence: Array
    best_reward: float
    top_k: list[tuple[Array, float]]   # sorted by reward descending
    samples_used: int


def sample(dist: SamplingDistribution, n: int, bounds: ActionBounds, rng) -> Array:
    """Draw n action sequences and clamp them into bounds.

    Entries are independent Gaussians; the (n, T, d_a) noise block is drawn
    in one call, so the draw order is sequence-major and reproducible from
    the rng seed.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    noise = rng.standard_normal((n, *dist.mean.shape))
    draws = dist.mean + np.sqrt(dist.variance) * noise
    return project(draws, bounds)


def default_elite_count(n: int) -> int:
    """Conventional elite share: 10% of the samples, at least one."""
    return max(int(np.ceil(0.1 * n)), 1)


def update_distribution(dist: SamplingDistribution, elites, alpha: float,
                        variance_floor: float = VARIANCE_FLOOR) -> SamplingDistribution:
    """Moving-average refit of mean and variance to the elite set.

    new = (1 - alpha) * old + alpha * elite statistic, entrywise, with the
    population variance of the elites and the result floored at
    variance_floor. alpha is nominally in (0, 1); the endpoints are
    accepted for testing (0 is a no-op, 1 reproduces the elite statistics
    exactly, up to the floor).
    """
    elites = np.asarray(elites, dtype=float)
    if elites.ndim != 3 or elites.shape[0] == 0:
        raise ValueError("elites must be a nonempty stack of action sequences")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    new_mean = (1.0 - alpha) * dist.mean + alpha * elites.mean(axis=0)
    new_var = (1.0 - alpha) * dist.variance + alpha * elites.var(axis=0)
    return SamplingDistribution(new_mean, np.maximum(new_var, variance_floor))


def _merge_top(pool, candidates, size):
    """Keep the best `size` (reward, index, sequence) entries; earlier index wins ties."""
    pool = pool + candidates
    pool.sort(key=lambda entry: (-entry[0], entry[1]))
    return pool[:size]


def run_cem(model, reward, s0, init_dist: SamplingDistribution, n: int, m: int,
            k_elite: int, alpha: float, bounds: ActionBounds, rng,
            top_k: int | None = None) -> CemResult:
    """Run m CEM iterations of n samples each and return the pooled best.

    Per iteration the top k_elite samples (ties broken by sample order)
    drive the distribution update; the returned top_k (default k_elite)
    and best sequence are pooled over all n*m evaluated samples, so the
    best reward seen is a running maximum over iterations.
    """
    if not 1 <= k_elite <= n:
        raise ValueError("k_elite must satisfy 1 <= k_elite <= n")
    if m < 1:
        raise ValueError("m must be at least 1")
    pool_size = k_elite if top_k is None else int(top_k)
    dist = init_dist
    pool: list[tuple[float, int, Array]] = []
    for it in range(m):
        seqs = sample(dist, n, bounds, rng)
        try:
            rewards = rollout_batch(model, reward, s0, seqs)
        except DivergedError as err:
            raise DivergedError(f"cem iteration {it}: {err}", step=err.step) from err
        order = np.argsort(-rewards, kind="stable")
        elite_idx = order[:k_elite]
        dist = update_distribution(dist, seqs[elite_idx], alpha)
        base = it * n
        candidates = [(float(rewards[i]), base + int(i), seqs[i])
                      for i in order[: max(k_elite, pool_size)]]
        pool = _merge_top(pool, candidates, max(pool_size, 1))
    top = [(seq, r) for r, _, seq in pool[:pool_size]] if pool_size >= 1 else []
    best_reward, _, best_seq = pool[0]
    return CemResult(best_sequence=best_seq, best_reward=best_reward, top_k=top,
                     samples_used=n * m)
