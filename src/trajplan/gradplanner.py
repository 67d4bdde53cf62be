"""First-order refinement of action sequences.

The reward gradient is computed by an exact reverse-mode sweep over the
rollout (chaining the dynamics and reward VJPs), and sequences are
improved by projected gradient ascent with a backtracking line search:
each update tries step sizes eta_init, eta_init*rho, ... for up to J
trials and accepts the first candidate whose rolled-out reward strictly
increases. Refinement stops at the first update that accepts none.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (ActionBounds, Array, DivergedError, PlannerConfig,
                   Trajectory, project, rollout_batch)


def eta_schedule(cfg: PlannerConfig) -> list[float]:
    """Step sizes tried within one update: eta_init * rho**j for j = 0..J-1."""
    return [cfg.eta_init * cfg.rho**j for j in range(cfg.J)]


@dataclass
class UpdateRecord:
    accepted: bool
    trials_used: int       # 1-based index of the accepted trial, or J if none accepted
    eta_used: float        # step size of the accepted trial (0.0 if rejected)
    reward_after: float
    evaluations: int       # candidate rollouts made: 1, or J when trial 1 fails


@dataclass
class OptimizeTrace:
    initial_reward: float
    final_reward: float = 0.0
    updates: list[UpdateRecord] = field(default_factory=list)

    @property
    def rollout_evaluations(self) -> int:
        """Candidate rollouts made across the updates that ran (gradient
        sweeps reuse the trajectories, so they roll nothing out)."""
        return sum(rec.evaluations for rec in self.updates)


def reward_gradient(model, reward, traj: Trajectory) -> Array:
    """Exact gradient of the cumulative rollout reward w.r.t. every action entry.

    Backward sweep over the rollout ``traj``: the running state adjoint
    picks up the reward gradient at each visited state plus the dynamics
    VJP from the following step, and each action collects its reward
    gradient plus the dynamics VJP routed through the next state. Per
    sweep there is one ``reward.backward`` call, on the (T, d_s) states and
    (T, d_a) actions, and one ``model.adjoint_sweep`` call, the model's one
    gradient method, which owns the loop over steps and the VJPs (each
    model's ``adjoint_sweep`` docstring says how it sweeps).

    Raises DivergedError naming the first step, in sweep order (the last
    step first), whose action gradient or state adjoint is non-finite. As
    in ``rollout_batch``, finiteness is checked once, after the sweep, and
    numpy's overflow, invalid and divide warnings inside it are suppressed.
    """
    seq = traj.actions
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        r_gs, r_ga = reward.backward(traj.states[1:], seq)
        grad, adjoints = model.adjoint_sweep(traj.states[:-1], seq, r_gs)
        grad += r_ga   # addition commutes: bit for bit r_ga[t] + f_ga per step
    if not (np.isfinite(grad).all() and np.isfinite(adjoints).all()):
        for t in range(seq.shape[0] - 1, -1, -1):
            if not (np.isfinite(grad[t]).all() and np.isfinite(adjoints[t]).all()):
                raise DivergedError(f"non-finite gradient at rollout step {t}", step=t)
    return grad


def line_search_update(current: Trajectory, grad: Array, model, reward,
                       cfg: PlannerConfig, bounds: ActionBounds):
    """One projected-ascent update of the rollout ``current`` with backtracking.

    Candidates project(current.actions + eta * grad), rolled out from
    ``current.states[0]``, are tried in eta-schedule order and the first
    with strictly greater reward than ``current`` wins. Returns (sequence,
    accepted, record, trajectory): the winner and its rollout, or, if none
    improves within J trials, ``current.actions`` and ``current``.

    Only the candidates that can decide the update are built and rolled
    out: candidate 0 alone, then, only if it does not improve, candidates
    1..J-1 as one batch. Each batch is one broadcast over its step sizes
    (elementwise, so bit for bit the per-eta formula). The record's
    ``evaluations`` is 1 or J accordingly. The batch size changes no
    analytic model's candidate rewards, but an ``MlpModel``'s only to
    rounding (README.md, Determinism), so a near-tie can be decided
    otherwise than by rolling all J out at once. A candidate that is not
    rolled out raises no DivergedError. A step eta * grad that overflows
    is +-inf, which the projection clamps to the bound, without a warning.
    """
    etas = eta_schedule(cfg)
    for lo, hi in ((0, 1), (1, len(etas))):   # trial 1 alone, then trials 2..J
        if lo == hi:
            break
        with np.errstate(over="ignore"):   # an overflowing step is +-inf: the bound
            steps = np.multiply(np.asarray(etas[lo:hi])[:, None, None], grad)
            candidates = project(np.add(current.actions, steps, out=steps), bounds)
        totals, states, step_rewards = rollout_batch(model, reward, current.states[0],
                                                     candidates)
        better = (totals > current.total_reward).nonzero()[0]
        if better.size:
            i = int(better[0])
            j = lo + i
            r = totals.item(i)
            accepted_traj = Trajectory(states=states[i], actions=candidates[i],
                                       step_rewards=step_rewards[i], total_reward=r)
            record = UpdateRecord(accepted=True, trials_used=j + 1, eta_used=etas[j],
                                  reward_after=r, evaluations=hi)
            return candidates[i], True, record, accepted_traj
    record = UpdateRecord(accepted=False, trials_used=len(etas), eta_used=0.0,
                          reward_after=current.total_reward, evaluations=len(etas))
    return current.actions, False, record, current


def optimize(traj: Trajectory, model, reward, cfg: PlannerConfig, bounds: ActionBounds):
    """Refine the rollout ``traj`` (as CEM's pooled top-k holds it) by up
    to G gradient updates with line search; reward never decreases.

    The step size schedule restarts at eta_init for each update, and the
    gradient is recomputed once per update (trials only rescale the step)
    on the trajectory the last update returned, so optimize rolls out only
    the line-search candidates. The loop stops at the first rejected
    update: that update left the trajectory as it was, so each later one
    would recompute the same gradient and candidates and reject again, bit
    for bit, for every model. The result equals running all G updates;
    ``trace.updates`` holds only the updates that ran. Returns (trajectory,
    trace): the refined rollout (``traj`` itself if no update was accepted)
    and the trace, whose ``final_reward`` is its total reward.
    """
    trace = OptimizeTrace(initial_reward=traj.total_reward)
    for _ in range(cfg.G):
        grad = reward_gradient(model, reward, traj)
        _, accepted, record, traj = line_search_update(traj, grad, model, reward,
                                                       cfg, bounds)
        trace.updates.append(record)
        if not accepted:
            break
    trace.final_reward = traj.total_reward
    return traj, trace
