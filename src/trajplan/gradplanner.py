"""First-order refinement of action sequences.

The reward gradient is computed by an exact reverse-mode sweep over the
rollout (chaining the dynamics and reward VJPs), and sequences are
improved by projected gradient ascent with a backtracking line search:
each update tries step sizes eta_init, eta_init*rho, ... for up to J
trials and accepts the first candidate whose rolled-out reward strictly
increases.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (ActionBounds, Array, DivergedError, PlannerConfig,
                   Trajectory, project, rollout, rollout_batch)


def eta_schedule(cfg: PlannerConfig) -> list[float]:
    """Step sizes tried within one update: eta_init * rho**j for j = 0..J-1."""
    return [cfg.eta_init * cfg.rho**j for j in range(cfg.J)]


@dataclass
class UpdateRecord:
    accepted: bool
    trials_used: int       # 1-based index of the accepted trial, or J if none accepted
    eta_used: float        # step size of the accepted trial (0.0 if rejected)
    reward_after: float
    evaluations: int       # candidate rollouts evaluated this update


@dataclass
class OptimizeTrace:
    initial_reward: float
    final_reward: float = 0.0
    updates: list[UpdateRecord] = field(default_factory=list)

    @property
    def rollout_evaluations(self) -> int:
        """Candidate rollouts across all updates (gradient sweeps reuse cached states)."""
        return sum(rec.evaluations for rec in self.updates)


def reward_gradient(model, reward, s0: Array, seq: Array,
                    trajectory: Trajectory | None = None) -> Array:
    """Exact gradient of the cumulative rollout reward w.r.t. every action entry.

    Backward sweep over the rollout: the running state adjoint picks up the
    reward gradient at each visited state plus the dynamics VJP from the
    following step, and each action collects its reward gradient plus the
    dynamics VJP routed through the next state.
    """
    seq = np.asarray(seq, dtype=float)
    traj = trajectory if trajectory is not None else rollout(model, reward, s0, seq)
    T = seq.shape[0]
    grad = np.empty_like(seq)
    state_adjoint = np.zeros(traj.states.shape[1])
    for t in range(T - 1, -1, -1):
        r_gs, r_ga = reward.backward(traj.states[t + 1], seq[t])
        state_adjoint = state_adjoint + r_gs
        f_gs, f_ga = model.backward(traj.states[t], seq[t], state_adjoint)
        grad[t] = r_ga + f_ga
        state_adjoint = f_gs
        if not np.all(np.isfinite(grad[t])) or not np.all(np.isfinite(state_adjoint)):
            raise DivergedError(f"non-finite gradient at rollout step {t}", step=t)
    return grad


def line_search_update(seq: Array, grad: Array, model, reward, s0: Array,
                       cfg: PlannerConfig, bounds: ActionBounds,
                       current: Trajectory | None = None):
    """One projected-ascent update with backtracking on the step size.

    Candidates project(seq + eta * grad) are rolled out for the eta
    schedule and the first one with strictly greater reward than the
    current sequence wins; if none improves within J trials the input
    sequence is returned unchanged. Returns (sequence, accepted, record,
    trajectory) where the trajectory matches the returned sequence.

    The J candidates are evaluated as one batched rollout and acceptance
    inspects them in schedule order. For the analytic models that is
    bit-identical to trying them one at a time; for ``MlpModel`` the
    candidate rewards agree with single rollouts only to rounding (see
    ``rollout_batch``), so a near-tie can be decided differently.
    """
    if current is None:
        current = rollout(model, reward, s0, seq)
    etas = eta_schedule(cfg)
    candidates = np.stack([project(seq + eta * grad, bounds) for eta in etas])
    totals, states, step_rewards = rollout_batch(model, reward, s0, candidates,
                                                 return_full=True)
    better = np.nonzero(totals > current.total_reward)[0]
    if better.size == 0:
        record = UpdateRecord(accepted=False, trials_used=cfg.J, eta_used=0.0,
                              reward_after=current.total_reward, evaluations=len(etas))
        return seq, False, record, current
    j = int(better[0])
    accepted_traj = Trajectory(states=states[j], actions=candidates[j],
                               step_rewards=step_rewards[j], total_reward=float(totals[j]))
    record = UpdateRecord(accepted=True, trials_used=j + 1, eta_used=etas[j],
                          reward_after=float(totals[j]), evaluations=len(etas))
    return candidates[j], True, record, accepted_traj


def optimize(seq: Array, model, reward, s0: Array, cfg: PlannerConfig,
             bounds: ActionBounds, initial_trajectory: Trajectory | None = None):
    """Apply G gradient updates with line search; reward never decreases.

    The step size schedule restarts at eta_init for each update, and the
    gradient is recomputed once per update (trials only rescale the step).
    Returns (sequence, trace).
    """
    seq = np.asarray(seq, dtype=float)
    traj = initial_trajectory if initial_trajectory is not None \
        else rollout(model, reward, s0, seq)
    trace = OptimizeTrace(initial_reward=traj.total_reward)
    for _ in range(cfg.G):
        grad = reward_gradient(model, reward, s0, seq, trajectory=traj)
        seq, _, record, traj = line_search_update(seq, grad, model, reward, s0,
                                                  cfg, bounds, current=traj)
        trace.updates.append(record)
    trace.final_reward = traj.total_reward
    return seq, trace
