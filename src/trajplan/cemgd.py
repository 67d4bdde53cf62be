"""Hybrid planner: CEM seeding followed by gradient refinement.

At the first time step a large CEM budget explores the landscape from a
zero-mean unit-variance distribution; at every later step a much smaller
budget reseeds from the time-shifted previous optimum. The top k pooled
sequences are refined by projected gradient ascent with line search,
starting from the trajectories CEM rolled out; the refined sequence with
the highest rolled-out reward wins, and its first action is the planner
output.
With G=0 the same loop is pure CEM; with a 1x1 CEM and a fresh
PlannerState every step it is the first-order planner from one random start.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cem import SamplingDistribution, run_cem
from .core import ActionBounds, Array, DivergedError, PlannerConfig
from .gradplanner import OptimizeTrace, optimize


@dataclass
class PlannerState:
    """Carried between plan calls: the previous winner and the step counter."""

    previous_optimal: Array | None = None
    timestep: int = 0


@dataclass
class PlanDiagnostics:
    samples_used: int
    gradient_evals: int                       # refinement budget: 1 + G*J + 1 per refined sequence
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
    Refinement starts from CEM's pooled trajectories and returns refined
    trajectories; the one with the highest total reward wins, the lowest
    index on ties. So plan() rolls out nothing beyond CEM's samples and the
    line-search candidates. The diagnostics' ``gradient_evals`` is a budget,
    not a rollout count (README.md, Output schema); the rollouts actually
    made are in ``traces`` (``OptimizeTrace.rollout_evaluations``).
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

    dist = SamplingDistribution.initial(cfg.horizon, bounds.d_a, mean)
    pooled = run_cem(model, reward, s_t, dist, n, m, cfg.alpha, bounds, rng, top_k=cfg.k)

    finals, traces = [], []
    for i, seed in enumerate(pooled if cfg.G > 0 else []):
        try:
            final, trace = optimize(seed, model, reward, cfg, bounds)
        except DivergedError as err:
            raise DivergedError(f"gradient refinement of elite {i}: {err}",
                                step=err.step) from err
        finals.append(final)
        traces.append(trace)

    # max keeps the first of equal rewards: the lowest index wins ties.
    best = max(finals or pooled[:1], key=lambda traj: traj.total_reward)
    diagnostics = PlanDiagnostics(samples_used=n * m,
                                  gradient_evals=len(finals) * (1 + cfg.G * cfg.J + 1),
                                  memory_proxy=n + (cfg.k if cfg.G > 0 else 0),
                                  traces=traces)
    output = PlanOutput(action=best.actions[0].copy(), optimal_sequence=best.actions,
                        model_reward=best.total_reward, diagnostics=diagnostics)
    return output, PlannerState(previous_optimal=best.actions, timestep=state.timestep + 1)
