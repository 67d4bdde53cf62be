"""Hybrid planner: CEM seeding followed by gradient refinement.

At the first time step a large CEM budget explores the landscape from a
zero-mean unit-variance distribution; at every later step a much smaller
budget reseeds from the time-shifted previous optimum. The top k pooled
sequences are refined by projected gradient ascent with line search, the
refined sequence with the highest rolled-out reward wins, and its first
action is the planner output.
With G=0 the same loop is pure CEM; with a 1x1 CEM and a fresh
PlannerState every step it is the first-order planner from one random start.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cem import SamplingDistribution, default_elite_count, run_cem
from .core import ActionBounds, Array, DivergedError, PlannerConfig, rollout
from .gradplanner import OptimizeTrace, optimize


@dataclass
class PlannerState:
    """Carried between plan calls: the previous winner and the step counter."""

    previous_optimal: Array | None = None
    timestep: int = 0


@dataclass
class PlanDiagnostics:
    cem_best_reward: float
    post_gradient_rewards: list[float]
    samples_used: int
    gradient_evals: int                       # rollout evaluations spent on refinement
    memory_proxy: int                         # sequences resident: n, plus k when G > 0
    traces: list[OptimizeTrace] = field(default_factory=list)


@dataclass
class PlanOutput:
    action: Array             # first action of the winning sequence
    optimal_sequence: Array   # (T, d_a)
    model_reward: float       # rolled-out reward of the winning sequence
    diagnostics: PlanDiagnostics


def warm_start_mean(prev: Array) -> Array:
    """Time-shift a (T, d_a) sequence one step, duplicating the last row."""
    prev = np.asarray(prev, dtype=float)
    return np.concatenate([prev[1:], prev[-1:]], axis=0)


def plan(state: PlannerState, s_t: Array, model, reward, cfg: PlannerConfig,
         bounds: ActionBounds, rng) -> tuple[PlanOutput, PlannerState]:
    """One receding-horizon planning step; returns the output and the next state.

    Deterministic for fixed (state, s_t, cfg, rng seed). The sampling
    budget is n_init*m_init at t = 0 and n_r*m_r afterwards, the CEM
    variance resets to one at every step, and refinement never lowers a
    sequence's reward, so the output dominates everything CEM evaluated.
    With G=0 there is no refinement: the output is CEM's pooled best.
    """
    first = state.timestep == 0
    if first != (state.previous_optimal is None):
        raise ValueError("planner state is inconsistent: previous_optimal must be "
                         "absent exactly at timestep 0")
    if first:
        mean = None
        n, m = cfg.n_init, cfg.m_init
    else:
        mean = warm_start_mean(state.previous_optimal)
        n, m = cfg.n_r, cfg.m_r
    k_elite = cfg.k_elite if cfg.k_elite is not None else default_elite_count(n)
    if cfg.k > k_elite:
        raise ValueError(f"k={cfg.k} exceeds the elite count {k_elite}")

    dist = SamplingDistribution.initial(cfg.horizon, bounds.d_a, mean)
    result = run_cem(model, reward, s_t, dist, n, m, k_elite, cfg.alpha,
                     bounds, rng, top_k=cfg.k)

    refined, traces, rewards = [], [], []
    evals = 0
    for i, (seq, _) in enumerate(result.top_k if cfg.G > 0 else []):
        try:
            opt_seq, trace = optimize(seq, model, reward, s_t, cfg, bounds)
        except DivergedError as err:
            raise DivergedError(f"gradient refinement of elite {i}: {err}",
                                step=err.step) from err
        final = rollout(model, reward, s_t, opt_seq)
        refined.append(opt_seq)
        traces.append(trace)
        rewards.append(final.total_reward)
        evals += 1 + trace.rollout_evaluations + 1  # seed rollout + trials + re-evaluation

    if cfg.G == 0:
        best_seq, best_reward = result.best_sequence, result.best_reward
    else:
        winner = int(np.argmax(rewards))  # argmax keeps the lowest index on ties
        best_seq, best_reward = refined[winner], rewards[winner]
    diagnostics = PlanDiagnostics(cem_best_reward=result.best_reward,
                                  post_gradient_rewards=rewards,
                                  samples_used=result.samples_used,
                                  gradient_evals=evals,
                                  memory_proxy=n + (cfg.k if cfg.G > 0 else 0),
                                  traces=traces)
    output = PlanOutput(action=best_seq[0].copy(), optimal_sequence=best_seq,
                        model_reward=best_reward, diagnostics=diagnostics)
    return output, PlannerState(previous_optimal=best_seq, timestep=state.timestep + 1)
