"""Cross-entropy method over action sequences.

Maintains an entrywise Gaussian (diagonal covariance) over (T, d_a) action
sequences. Each iteration samples n sequences, rolls them out, refits the
distribution to its top ``default_elite_count(n)`` by a moving average,
and the best sequences over the whole run are pooled across iterations,
as the trajectories their rollouts produced.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (ActionBounds, Array, DivergedError, Trajectory, default_elite_count,
                   project, rollout_batch)

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
        if (self.variance < 0.0).any():
            raise ValueError("variance entries must be nonnegative")

    @classmethod
    def initial(cls, horizon: int, d_a: int, mean: Array | None = None) -> "SamplingDistribution":
        """Unit-variance distribution, zero mean unless one is supplied."""
        if mean is None:
            mean = np.zeros((horizon, d_a))
        return cls(np.asarray(mean, dtype=float).copy(), np.ones((horizon, d_a)))


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
    return project(draws, bounds, out=draws)


def update_distribution(dist: SamplingDistribution, elites, alpha: float) -> SamplingDistribution:
    """Moving-average refit of mean and variance to the elite set.

    new = (1 - alpha) * old + alpha * elite statistic, entrywise, with the
    population variance of the elites and the result floored at
    VARIANCE_FLOOR. alpha is nominally in (0, 1); the endpoints are
    accepted for testing (0 is a no-op, 1 reproduces the elite statistics
    exactly, up to the floor).

    The elite statistics are the ufunc calls that ``elites.mean(axis=0)``
    and ``elites.var(axis=0)`` make, bit for bit: a sum over the elites
    divided by their count, then the squared deviations from that mean
    summed and divided by the count. Without numpy's Python-level
    wrappers a refit to one elite took about 11 us instead of 18 (timeit,
    one core of a 2-core Xeon VM).
    """
    elites = np.asarray(elites, dtype=float)
    if elites.ndim != 3 or elites.shape[0] == 0:
        raise ValueError("elites must be a nonempty stack of action sequences")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    k = len(elites)
    mean = np.add.reduce(elites, axis=0)
    mean /= k
    dev = elites - mean
    dev *= dev
    var = np.add.reduce(dev, axis=0)
    var /= k
    new_mean = (1.0 - alpha) * dist.mean + alpha * mean
    new_var = (1.0 - alpha) * dist.variance + alpha * var
    return SamplingDistribution(new_mean, np.maximum(new_var, VARIANCE_FLOOR, out=new_var))


def run_cem(model, reward, s0, init_dist: SamplingDistribution, n: int, m: int,
            alpha: float, bounds: ActionBounds, rng, top_k: int) -> list[Trajectory]:
    """Run m CEM iterations of n samples each and return the pooled best.

    Each iteration but the last refits the distribution to its top
    ``default_elite_count(n)`` samples, ties broken by sample order (a
    refit after the last would go unread). The result is the best top_k of
    all n*m evaluated samples, as the trajectories CEM's batched rollouts
    produced (states, actions, step rewards, total), sorted by total reward
    descending, earlier sample first on ties; so the best reward seen is a
    running maximum over iterations. For the analytic models each equals
    ``rollout`` of its actions bit for bit, for ``MlpModel`` to rounding.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if m < 1:
        raise ValueError("m must be at least 1")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")   # update_distribution's check
    keep = int(top_k)
    if keep < 1:
        raise ValueError("top_k must be at least 1")
    k_elite = default_elite_count(n)
    dist = init_dist
    pool: list[tuple[float, int, Trajectory]] = []   # (total, index over the run, trajectory)
    for it in range(m):
        seqs = sample(dist, n, bounds, rng)
        try:
            totals, states, step_rewards = rollout_batch(model, reward, s0, seqs)
        except DivergedError as err:
            raise DivergedError(f"cem iteration {it}: {err}", step=err.step) from err
        order = np.argsort(-totals, kind="stable")
        if it < m - 1:
            dist = update_distribution(dist, seqs[order[:k_elite]], alpha)
        # Beyond this iteration's best `keep` no sample can enter the pool.
        for i in order[:keep]:
            r = float(totals[i])
            pool.append((r, it * n + int(i), Trajectory(
                states=states[i].copy(), actions=seqs[i].copy(),
                step_rewards=step_rewards[i].copy(), total_reward=r)))
        pool.sort(key=lambda entry: (-entry[0], entry[1]))
        del pool[keep:]
        del seqs, states, step_rewards
    return [traj for _, _, traj in pool]
