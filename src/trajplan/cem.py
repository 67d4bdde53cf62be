"""Cross-entropy method over action sequences.

Maintains an entrywise Gaussian (diagonal covariance) over (T, d_a) action
sequences. Each iteration samples n sequences, rolls them out, refits the
distribution to the top k_elite by a moving average, and the best
sequences over the whole run are pooled across iterations, as the
trajectories their rollouts produced.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ActionBounds, Array, DivergedError, Trajectory, rollout_batch
from .core import default_elite_count  # noqa: F401  (still importable from here)

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
    """The pooled best of a CEM run.

    ``top_k`` holds the best sequences as the trajectories CEM's batched
    rollouts produced (states, actions, step rewards, total), sorted by
    total reward descending, earlier sample first on ties, so ``top_k[0]``
    is the best sequence CEM saw; for the analytic models each equals
    ``rollout`` of its actions bit for bit, for ``MlpModel`` to rounding.
    ``samples_used`` is n * m.
    """

    top_k: list[Trajectory]
    samples_used: int


def sample(dist: SamplingDistribution, n: int, bounds: ActionBounds, rng) -> Array:
    """Draw n action sequences and clamp them into bounds.

    Entries are independent Gaussians; the (n, T, d_a) noise block is drawn
    in one call, so the draw order is sequence-major and reproducible from
    the rng seed. The block is scaled, shifted and clamped in place, which
    equals project(mean + sqrt(variance) * noise, bounds) bit for bit.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    draws = rng.standard_normal((n, *dist.mean.shape))
    draws *= np.sqrt(dist.variance)
    draws += dist.mean
    return np.clip(draws, bounds.low, bounds.high, out=draws)


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
    """Keep the best `size` (reward, index, payload) entries; earlier index wins ties."""
    pool = pool + candidates
    pool.sort(key=lambda entry: (-entry[0], entry[1]))
    return pool[:size]


def run_cem(model, reward, s0, init_dist: SamplingDistribution, n: int, m: int,
            k_elite: int, alpha: float, bounds: ActionBounds, rng,
            top_k: int | None = None) -> CemResult:
    """Run m CEM iterations of n samples each and return the pooled best.

    Each iteration but the last refits the distribution to its top k_elite
    samples, ties broken by sample order (a refit after the last would go
    unread); the returned top_k (default k_elite) trajectories are pooled
    over all n*m evaluated samples, so the best reward seen is a running
    maximum over iterations. Only the rows that enter the pool are copied
    out of an iteration's rollout buffers.
    """
    if not 1 <= k_elite <= n:
        raise ValueError("k_elite must satisfy 1 <= k_elite <= n")
    if m < 1:
        raise ValueError("m must be at least 1")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")   # update_distribution's check
    keep = k_elite if top_k is None else int(top_k)
    if keep < 1:
        raise ValueError("top_k must be at least 1")
    dist = init_dist
    pool: list[tuple[float, int, Trajectory | int]] = []   # int: a row of this iteration
    for it in range(m):
        seqs = sample(dist, n, bounds, rng)
        try:
            totals, states, step_rewards = rollout_batch(model, reward, s0, seqs)
        except DivergedError as err:
            raise DivergedError(f"cem iteration {it}: {err}", step=err.step) from err
        order = np.argsort(-totals, kind="stable")
        if it < m - 1:
            dist = update_distribution(dist, seqs[order[:k_elite]], alpha)
        base = it * n
        # Beyond this iteration's best `keep` no sample can enter the pool.
        pool = _merge_top(pool, [(float(totals[i]), base + int(i), int(i))
                                 for i in order[:keep]], keep)
        for j, (r, idx, entry) in enumerate(pool):
            if idx >= base:
                pool[j] = (r, idx, Trajectory(
                    states=states[entry].copy(), actions=seqs[entry].copy(),
                    step_rewards=step_rewards[entry].copy(), total_reward=r))
        del seqs, states, step_rewards
    return CemResult(top_k=[traj for _, _, traj in pool], samples_used=n * m)
