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
    """Per-dimension box constraints on actions, kept as read-only copies."""

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
        for name, v in (("low", low), ("high", high)):
            v = v.copy()
            v.flags.writeable = False   # so the clip operand read from it stays true
            object.__setattr__(self, name, v)
            # project's clip operand: a 0-d view where every entry is one
            # nonzero float, bit for bit, as in each world's symmetric bounds.
            # numpy's clip loop then takes a constant bound, not a (d_a,)
            # vector broadcast over a last axis of length d_a: on a 10x45x2
            # CEM draw the clip took 1.1 us against 6.5 us (timeit, one core
            # of a 2-core Xeon VM). Both loops clip alike but at a tie of 0.0
            # and -0.0, where the constant one keeps the entry and the vector
            # one (SIMD min and max) takes the bound, so a zero bound stays a
            # vector.
            uniform = v.size and v[0] != 0.0 and v.tobytes() == v[:1].tobytes() * v.size
            object.__setattr__(self, f"_clip_{name}", v[:1].reshape(()) if uniform else v)

    @property
    def d_a(self) -> int:
        return self.low.shape[0]

    @classmethod
    def symmetric(cls, limit: float, d_a: int) -> "ActionBounds":
        """Bounds [-limit, limit] in every action dimension."""
        limit = float(limit)
        return cls(np.full(d_a, -limit), np.full(d_a, limit))


def project(seq: Array, bounds: ActionBounds, out: Array | None = None) -> Array:
    """Clamp every action entry into its box constraint, into ``out`` if given.

    Accepts a single sequence (T, d_a) or any batch (..., d_a); entries
    already inside the box are unchanged and the operation is idempotent.
    It is numpy's clip ufunc, called as the array's ``clip`` method: the
    ``np.clip`` function adds about 1 us of Python-level wrappers.
    """
    return np.asarray(seq).clip(bounds._clip_low, bounds._clip_high, out=out)


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


# Rows per block, so that a pass's temporaries stay O(rows * width) at any
# batch size.
# - rollout_batch: one reward call per block (width T); a batch of at most
#   BLOCK_ROWS rows is one call with no copy, about 2 us less per call.
# - MlpModel._value_pass: one block of rows at a time (width its layers').
# - MlpModel.rollout_states and step: one block of rows at a time, each
#   rolled out on buffers made once per block (width its layers').
BLOCK_ROWS = 128


def rollout_batch(model, reward, s0: Array, seqs: Array):
    """Roll out a batch of action sequences (B, T, d_a) from a shared state.

    Returns (totals, states, rewards): the (B,) cumulative rewards, the
    (B, T+1, d_s) states and the (B, T) step rewards. The states are
    ``model.rollout_states(s0, seqs)``, which need not be C-contiguous (the
    cartpole's are a transposed view), so a row taken from them keeps the
    whole buffer alive. The rewards are scored after it, one
    ``reward.reward`` call per block of up to BLOCK_ROWS rows (the
    step rewards are that call's result when there is one block), and
    accumulate in ascending step order, bit for bit as a per-step
    ``totals += r`` from 0.0. Row i equals ``rollout(seqs[i])`` (this
    function at B=1) bit for bit for the analytic models and to rounding
    for ``MlpModel``: README.md's Determinism section owns that contract.

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
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        states = model.rollout_states(s0, seqs)
        # Accumulated in step order: bit for bit ``totals += rewards[:, t]``
        # for each t, including the 0.0 start that turns a -0.0 sum into 0.0.
        if T and B <= BLOCK_ROWS:
            rewards = np.asarray(reward.reward(states[:, 1:], seqs), dtype=float)
            totals = 0.0 + np.add.accumulate(rewards, axis=1)[:, -1]
        else:
            rewards = np.empty((B, T))
            totals = np.zeros(B)
            for lo in range(0, B if T else 0, BLOCK_ROWS):   # T = 0: nothing to score
                rows = slice(lo, lo + BLOCK_ROWS)
                rewards[rows] = reward.reward(states[rows, 1:], seqs[rows])
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
