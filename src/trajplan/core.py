"""Domain types, action-bound projection, and the deterministic rollout engine.

Conventions used throughout the package:

- An action sequence is a float64 array of shape (T, d_a): one row per
  planning step.
- States are float64 vectors of shape (d_s,); batched variants stack them
  along a leading axis.
- Planners maximize reward. The per-step reward pairs each action with the
  *next* state, r(s[t+1], a[t]), and environments must follow that
  convention.
- Cumulative rewards are accumulated in ascending step order so that
  repeated rollouts are bit-identical.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

Array = np.ndarray


class DivergedError(RuntimeError):
    """A rollout or gradient sweep produced a non-finite value.

    ``step`` identifies the offending rollout step (0-based).
    """

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


def _finite_real(x) -> bool:
    """x is a finite real number and not a bool."""
    try:
        return isinstance(x, numbers.Real) and not isinstance(x, bool) and math.isfinite(x)
    except OverflowError:   # an int too large for a float
        return False


@dataclass(frozen=True)
class ActionBounds:
    """Per-dimension box constraints on actions."""

    low: Array
    high: Array

    def __post_init__(self):
        low = np.asarray(self.low, dtype=float)
        high = np.asarray(self.high, dtype=float)
        if low.ndim != 1 or high.shape != low.shape:
            raise ValueError("bounds must be 1-D vectors of equal length")
        if not (np.all(np.isfinite(low)) and np.all(np.isfinite(high))):
            raise ValueError("bounds must be finite")
        if np.any(low > high):
            raise ValueError("lower bound exceeds upper bound")
        object.__setattr__(self, "low", low)
        object.__setattr__(self, "high", high)

    @property
    def d_a(self) -> int:
        return self.low.shape[0]

    @classmethod
    def symmetric(cls, limit: float, d_a: int) -> "ActionBounds":
        """Bounds [-limit, limit] in every action dimension."""
        limit = float(limit)
        return cls(np.full(d_a, -limit), np.full(d_a, limit))


def project(seq: Array, bounds: ActionBounds) -> Array:
    """Clamp every action entry into its box constraint.

    Accepts a single sequence (T, d_a) or any batch (..., d_a); entries
    already inside the box are unchanged and the operation is idempotent.
    """
    return np.clip(seq, bounds.low, bounds.high)


@dataclass
class Trajectory:
    """A rolled-out action sequence: states, per-step rewards, and their sum."""

    states: Array        # (T+1, d_s), states[0] is the initial state
    actions: Array       # (T, d_a)
    step_rewards: Array  # (T,), step_rewards[t] = r(states[t+1], actions[t])
    total_reward: float


def rollout(model, reward, s0: Array, seq: Array) -> Trajectory:
    """Simulate one action sequence: ``rollout_batch`` at B=1, as a Trajectory.

    states[t+1] = model.step(states[t], seq[t]), with the reward scored on
    (next state, action) pairs; raises DivergedError like rollout_batch.
    """
    seq = np.asarray(seq, dtype=float)
    totals, states, rewards = rollout_batch(model, reward, s0, seq[None])
    return Trajectory(states=states[0], actions=seq, step_rewards=rewards[0],
                      total_reward=float(totals[0]))


# Rows of a rollout batch scored by one reward call: the reward's
# temporaries stay O(rows * T) at any batch size.
REWARD_BLOCK_ROWS = 128


def rollout_batch(model, reward, s0: Array, seqs: Array):
    """Roll out a batch of action sequences (B, T, d_a) from a shared state.

    Returns (totals, states, rewards): the (B,) cumulative rewards, the
    (B, T+1, d_s) states and the (B, T) step rewards. The states come
    from ``model.rollout_states`` (a ``DynamicsModel`` method: by default a
    loop over ``model.step``); the rewards are scored after it,
    one ``reward.reward`` call per block of up to REWARD_BLOCK_ROWS rows
    (one call for B <= 128) on (rows, T, d_s) states and (rows, T, d_a)
    actions. Rewards accumulate in ascending step order, bit for bit as a
    per-step ``totals += r`` from 0.0; reruns are bit-identical. Row i
    versus ``rollout(seqs[i])`` (which is this function at B=1): bitwise
    equal for the analytic models (barrier, cartpole: elementwise
    arithmetic) at any B. The barrier rolls a batch of at most
    ``dynamics.FLOAT_ROWS`` rows out on Python floats, where numpy's
    per-call cost would dominate, and a larger one by the batched numpy
    formula; both do the same IEEE operations in the same order (see
    ``BarrierDynamics.rollout_states``). The cartpole's states are the
    transposed view of a (T+1, d_s, B) buffer, so they need not be
    C-contiguous, and a row taken from them keeps the whole buffer alive.
    For ``MlpModel`` at B>1 rows are equal only to rounding,
    because BLAS may sum a row's products in another order for another B.
    Across BLAS threads an MLP-planned episode is bitwise equal: tested with
    OpenBLAS 0.3.31 at 1 and 2 threads, whose threads split a product's
    output rows and columns, not the sums that make one entry. That claim
    and the pinned result hashes were made with OpenBLAS's SkylakeX
    (AVX-512) kernels; the analytic gradient sweeps call BLAS too (the
    barrier's ddot and 2x2 products, the cartpole's 4x4 and 1x4), and
    another kernel, such as Haswell's, may round them otherwise.

    Raises DivergedError naming the first step at which the model produced
    a non-finite state or reward (the state first). Finiteness is checked
    once per rollout, after the last step, and the buffers are rescanned
    step by step only when that check fails; numpy's overflow, invalid and
    divide warnings inside the rollout are suppressed. So ``step`` and
    ``reward`` must accept non-finite inputs, as numpy arithmetic does.
    """
    s0 = np.asarray(s0, dtype=float)
    seqs = np.asarray(seqs, dtype=float)
    B, T, _ = seqs.shape
    rewards = np.empty((B, T))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        states = model.rollout_states(s0, seqs)
        totals = np.zeros(B)
        for lo in range(0, B if T else 0, REWARD_BLOCK_ROWS):   # T = 0: nothing to score
            rows = slice(lo, lo + REWARD_BLOCK_ROWS)
            rewards[rows] = reward.reward(states[rows, 1:], seqs[rows])
            # Running sums in step order: bit for bit ``totals += rewards[:, t]``
            # for each t, including the 0.0 start that turns a -0.0 sum into 0.0.
            totals[rows] += np.add.accumulate(rewards[rows], axis=1)[:, -1]
    if not (np.isfinite(totals).all() and np.isfinite(states[:, 1:]).all()):
        for t in range(T):
            for what, value in (("state", states[:, t + 1]), ("reward", rewards[:, t])):
                if not np.isfinite(value).all():
                    raise DivergedError(f"non-finite {what} at rollout step {t}", step=t)
    return totals, states, rewards


def default_elite_count(n: int) -> int:
    """Conventional elite share: 10% of the samples, at least one."""
    return max(-(-n // 10), 1)


def split_budget(total: int) -> tuple[int, int]:
    """Factor a CEM sample budget N into (samples per iteration, iterations).

    Follows the published baseline convention: budgets of 500 and above run
    100 samples per iteration (500 -> (100, 5), 5000 -> (100, 50)); smaller
    budgets run 5 iterations (50 -> (10, 5)). Budgets that do not factor
    cleanly fall back to a single iteration.
    """
    total = int(total)
    if total < 1:
        raise ValueError("budget must be positive")
    if total >= 500 and total % 100 == 0:
        return 100, total // 100
    if total % 5 == 0 and total >= 5:
        return total // 5, 5
    return total, 1


@dataclass
class PlannerConfig:
    """All scalar planner hyperparameters, with the published defaults.

    Sample budgets are recorded as explicit factorizations: the first-step
    budget is n_init * m_init (15000 by default) and the per-replan budget
    is n_r * m_r (50 by default). Each CEM iteration of n samples refits to
    its top ``default_elite_count(n)``, so k is at most that count for both
    n_init and n_r.
    """

    horizon: int = 45          # T, planning horizon length
    n_init: int = 1000         # samples per CEM iteration at t = 0
    m_init: int = 15           # CEM iterations at t = 0
    n_r: int = 10              # samples per CEM iteration at t > 0
    m_r: int = 5               # CEM iterations at t > 0
    alpha: float = 0.3         # distribution update smoothing
    k: int = 1                 # sequences refined by gradient updates
    G: int = 10                # most gradient updates per sequence; 0 returns CEM's best
    J: int = 8                 # line search trials per update
    eta_init: float = 0.01     # initial line search step size
    rho: float = 0.67          # line search step decay

    def __post_init__(self):
        for name in ("horizon", "n_init", "m_init", "n_r", "m_r", "k", "J", "G"):
            value, low = getattr(self, name), 0 if name == "G" else 1
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
        for name in ("alpha", "eta_init", "rho"):
            value = getattr(self, name)
            if not _finite_real(value):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if not 0.0 < self.rho < 1.0:
            raise ValueError("rho must lie in (0, 1)")
        if self.eta_init <= 0.0:
            raise ValueError("eta_init must be positive")
        for name in ("n_init", "n_r"):   # plan() refines k of one budget's elites
            n = getattr(self, name)
            if self.k > (elites := default_elite_count(n)):
                raise ValueError(f"k={self.k} exceeds the elite count {elites} of {name}={n}")
