"""MPC experiment harness: episode runner, planner ids, (env, policy) grids, CSV output.

An episode plans with a (possibly learned) model, executes the first
action in the true environment, observes the next true state and replans.
Episode rewards are computed exclusively from true-environment rewards;
planner-internal model rewards appear only in diagnostics columns.

All runs are seeded and deterministic: rerunning any experiment with the
same config, seeds and model file reproduces the raw CSV byte for byte
(wall-time columns aside, which live in their own column).
"""

from __future__ import annotations

import csv
import re
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .cemgd import PlannerState, PlanOutput, plan
from .core import (ActionBounds, Array, DivergedError, PlannerConfig,
                   project, rollout, split_budget)
from .dynamics import (BarrierWorld, CartpoleWorld, MlpModel, QuadraticGoalReward,
                       make_environment)
from .gradplanner import reward_gradient

DEFAULT_STEPS = 100     # episode length H

RAW_COLUMNS = ["env", "planner", "seed", "step", "true_reward", "model_reward",
               "samples_used", "gradient_evals", "memory_proxy", "success",
               "plan_time_s"]
SUMMARY_COLUMNS = ["env", "planner", "episodes", "mean_reward", "std_reward",
                   "mean_plan_time_s", "mean_samples_per_step",
                   "mean_memory_proxy", "success_rate"]
FAILURE_COLUMNS = ["env", "planner", "seed", "step", "error"]


class EpisodeError(RuntimeError):
    """A planner or the true environment diverged mid-episode; ``step``
    records where."""

    def __init__(self, message: str, step: int):
        super().__init__(message)
        self.step = step


# ---------------------------------------------------------------------------
# Planner policies: every planner id is plan() under one schedule


@dataclass
class Policy:
    """Receding-horizon wrapper around plan() for one planner id.

    With ``warm_start`` the PlannerState carries over between steps;
    without it every step plans afresh as at t = 0.
    """

    planner_id: str
    model: object
    reward: object
    cfg: PlannerConfig
    bounds: ActionBounds
    warm_start: bool = True

    def reset(self, rng):
        self._rng = rng
        self._state = PlannerState()

    def plan_step(self, s) -> PlanOutput:
        out, state = plan(self._state, s, self.model, self.reward, self.cfg,
                          self.bounds, self._rng)
        if self.warm_start:
            self._state = state
        return out


def make_policy(name: str, model, reward, cfg: PlannerConfig, bounds: ActionBounds):
    """Build a planner policy by id: cemgd (``cfg`` as given), cem-<budget>
    (the split budget at every step, G=0; the budget in ASCII digits with no
    leading zero, so each budget has one id) or gradient (a 1x1 CEM seed
    refined from a fresh state every step)."""
    if name == "cemgd":
        return Policy(name, model, reward, cfg, bounds)
    if name == "gradient":
        cfg = replace(cfg, n_init=1, m_init=1, k=1)
        return Policy(name, model, reward, cfg, bounds, warm_start=False)
    if re.fullmatch(r"cem-[1-9][0-9]*", name):
        try:
            n, m = split_budget(int(name.removeprefix("cem-")))
        except ValueError:   # more digits than Python's int-conversion limit
            pass
        else:
            cfg = replace(cfg, n_init=n, m_init=m, n_r=n, m_r=m, G=0, k=1)
            return Policy(name, model, reward, cfg, bounds)
    raise ValueError(f"unknown planner {name!r}; valid planners: "
                     f"cemgd, gradient, cem-<budget>")


PLANNER_NAMES = ["cemgd", "gradient", "cem-50", "cem-500", "cem-5000"]


# ---------------------------------------------------------------------------
# Episodes


@dataclass
class EpisodeResult:
    env_id: str
    planner_id: str
    seed: int
    episode_reward: float
    true_rewards: Array       # (H,)
    model_rewards: Array      # (H,) planner-internal, diagnostics only
    plan_times: Array         # (H,) wall seconds per plan call
    samples_used: Array       # (H,) int
    gradient_evals: Array     # (H,) int
    memory_proxy: Array       # (H,) int, sequences resident per plan call
    states: Array             # (H+1, d_s) true states
    actions: Array            # (H, d_a) executed actions
    success: bool | None      # the world's verdict; None where it has none


def run_episode(env: BarrierWorld | CartpoleWorld, policy, steps: int,
                seed: int) -> EpisodeResult:
    """Run one seeded MPC episode of `steps` true-environment steps.

    The true step is ``rollout`` at one row and one step, and the world
    judges the states; a DivergedError in a plan call or a true step
    becomes an EpisodeError naming the episode step."""
    rng = np.random.default_rng(seed)
    policy.reset(rng)
    d_s = env.start_state.shape[0]
    d_a = env.bounds.d_a
    states = np.empty((steps + 1, d_s))
    actions = np.empty((steps, d_a))
    true_rewards = np.empty(steps)
    model_rewards = np.empty(steps)
    plan_times = np.empty(steps)
    samples = np.empty(steps, dtype=int)
    gevals = np.empty(steps, dtype=int)
    proxy = np.empty(steps, dtype=int)

    s = env.start_state.copy()
    states[0] = s
    total = 0.0
    for t in range(steps):
        t0 = time.perf_counter()
        try:
            out = policy.plan_step(s)
        except DivergedError as err:
            raise EpisodeError(f"planner {policy.planner_id} failed at episode "
                               f"step {t}: {err}", step=t) from err
        plan_times[t] = time.perf_counter() - t0
        a = np.asarray(out.action, dtype=float)
        try:
            traj = rollout(env.dynamics, env.reward, s, a[None])
        except DivergedError as err:
            raise EpisodeError(f"environment {env.name} diverged at episode "
                               f"step {t}: {err}", step=t) from err
        s = traj.states[1]
        r = float(traj.step_rewards[0])   # not total_reward: a -0.0 keeps its sign
        states[t + 1] = s
        actions[t] = a
        true_rewards[t] = r
        model_rewards[t] = out.model_reward
        samples[t] = out.diagnostics.samples_used
        gevals[t] = out.diagnostics.gradient_evals
        proxy[t] = out.diagnostics.memory_proxy
        total += r

    return EpisodeResult(env_id=env.name, planner_id=policy.planner_id, seed=seed,
                         episode_reward=total, true_rewards=true_rewards,
                         model_rewards=model_rewards, plan_times=plan_times,
                         samples_used=samples, gradient_evals=gevals,
                         memory_proxy=proxy, states=states, actions=actions,
                         success=env.success(states))


# ---------------------------------------------------------------------------
# CSV output


def write_csv(rows: list[dict], columns: list[str], path) -> None:
    """One header line, then each row's columns in order; csv writes a
    float as its repr."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([row[col] for col in columns])


def episode_rows(result: EpisodeResult) -> list[dict]:
    success = "" if result.success is None else str(int(result.success))
    rows = []
    for t in range(result.true_rewards.shape[0]):
        rows.append({
            "env": result.env_id,
            "planner": result.planner_id,
            "seed": result.seed,
            "step": t,
            "true_reward": float(result.true_rewards[t]),
            "model_reward": float(result.model_rewards[t]),
            "samples_used": int(result.samples_used[t]),
            "gradient_evals": int(result.gradient_evals[t]),
            "memory_proxy": int(result.memory_proxy[t]),
            "success": success,
            "plan_time_s": float(result.plan_times[t]),
        })
    return rows


def write_raw_csv(results: list[EpisodeResult], path) -> None:
    """Raw per-step rows, sorted by (env, planner, seed, step)."""
    rows = [row for res in results for row in episode_rows(res)]
    rows.sort(key=lambda r: (r["env"], r["planner"], r["seed"], r["step"]))
    write_csv(rows, RAW_COLUMNS, path)


def summarize(results: list[EpisodeResult]) -> list[dict]:
    """Per (env, planner) aggregates; every statistic is recomputable from raw rows."""
    groups: dict[tuple[str, str], list[EpisodeResult]] = {}
    for res in results:
        groups.setdefault((res.env_id, res.planner_id), []).append(res)
    out = []
    for (env, planner) in sorted(groups):
        members = groups[(env, planner)]
        rewards = np.array([m.episode_reward for m in members])
        successes = [m.success for m in members if m.success is not None]
        out.append({
            "env": env,
            "planner": planner,
            "episodes": len(members),
            "mean_reward": float(rewards.mean()),
            "std_reward": float(rewards.std()),
            "mean_plan_time_s": float(np.mean([m.plan_times.mean() for m in members])),
            "mean_samples_per_step": float(np.mean([m.samples_used.mean() for m in members])),
            "mean_memory_proxy": float(np.mean([m.memory_proxy.mean() for m in members])),
            "success_rate": float(np.mean(successes)) if successes else "",
        })
    return out


# ---------------------------------------------------------------------------
# Experiments: every one is a grid of (env, policy) pairs over seeds


@dataclass
class CompareResult:
    results: list[EpisodeResult]
    summary: list[dict]
    failures: list[dict] = field(default_factory=list)   # FAILURE_COLUMNS keys


def run_grid(pairs, seeds, steps: int) -> CompareResult:
    """Run every (env, policy) pair for one episode per seed.

    An episode that raises EpisodeError becomes a failure row and the grid
    goes on; the summary covers the finished episodes only. A diverging
    planning model prints no numpy warnings: ``rollout_batch`` and
    ``reward_gradient`` suppress them and raise DivergedError instead.
    """
    results, failures = [], []
    for env, policy in pairs:
        for seed in seeds:
            try:
                results.append(run_episode(env, policy, steps, seed))
            except EpisodeError as err:
                failures.append({"env": env.name, "planner": policy.planner_id,
                                 "seed": seed, "step": err.step, "error": str(err)})
    return CompareResult(results=results, summary=summarize(results), failures=failures)


def compare_planners(envs, seeds, steps: int, cfg: PlannerConfig, planners,
                     planning_models: dict | None = None) -> CompareResult:
    """Run the named planners on each named environment over the given
    seeds. `planning_models` optionally maps an env name to the dynamics
    model its planners use; the true environment still scores and advances
    episodes."""
    pairs = []
    for name in envs:
        env = make_environment(name)
        model = (planning_models or {}).get(name, env.dynamics)
        pairs += [(env, make_policy(planner, model, env.reward, cfg, env.bounds))
                  for planner in planners]
    return run_grid(pairs, seeds, steps)


# ---------------------------------------------------------------------------
# Gradient checking


GRADCHECK_TOLERANCES = {"barrier": 1e-5, "cartpole": 1e-5, "mlp": 1e-4}
GRADCHECK_PROBES = 50      # random start states and action sequences per check
GRADCHECK_HORIZON = 12     # steps of each probe's action sequence
GRADCHECK_STEP = 1e-5      # finite_difference_gradient's h


def _gradcheck_setup(kind: str, rng):
    samplers = {"barrier": lambda: rng.uniform(-1.2, 1.2, size=2),
                "cartpole": lambda: np.array([rng.uniform(-1, 1), rng.uniform(-1, 1),
                                              rng.uniform(-np.pi, np.pi), rng.uniform(-2, 2)])}
    if kind in samplers:
        env = make_environment(kind)
        return env.dynamics, env.reward, env.bounds, samplers[kind]
    if kind == "mlp":
        model = MlpModel.initialize(3, 2, hidden=(16, 16, 16), rng=rng)
        reward = QuadraticGoalReward(np.zeros(3), action_cost=0.01)
        bounds = ActionBounds.symmetric(1.0, 2)
        sampler = lambda: rng.normal(0.0, 1.0, size=3)
        return model, reward, bounds, sampler
    valid = ", ".join(sorted(GRADCHECK_TOLERANCES))
    raise ValueError(f"unknown gradcheck target {kind!r}; valid targets: {valid}")


def finite_difference_gradient(model, reward, s0: Array, seq: Array) -> Array:
    """Central differences of the rollout reward w.r.t. every action entry,
    each bumped by +h and then by -2h, h = GRADCHECK_STEP."""
    h = GRADCHECK_STEP
    grad = np.empty(np.shape(seq))
    for t, j in np.ndindex(grad.shape):
        bumped = np.array(seq, dtype=float)
        bumped[t, j] += h
        plus = rollout(model, reward, s0, bumped).total_reward
        bumped[t, j] -= 2 * h
        grad[t, j] = (plus - rollout(model, reward, s0, bumped).total_reward) / (2 * h)
    return grad


def gradient_check(kind: str, seed: int = 0) -> float:
    """Max relative error of ``reward_gradient`` vs ``finite_difference_gradient``,
    normalized by max(1, |analytic|, |numeric|), over GRADCHECK_PROBES
    probes of a random state and in-bounds action sequence."""
    rng = np.random.default_rng(seed)
    model, reward, bounds, sampler = _gradcheck_setup(kind, rng)
    worst = 0.0
    for _ in range(GRADCHECK_PROBES):
        s0 = sampler()
        seq = project(rng.normal(0.0, 0.5, size=(GRADCHECK_HORIZON, bounds.d_a)), bounds)
        grad = reward_gradient(model, reward, rollout(model, reward, s0, seq))
        numeric = finite_difference_gradient(model, reward, s0, seq)
        scale = np.maximum(1.0, np.maximum(np.abs(numeric), np.abs(grad)))
        worst = max(worst, float(np.max(np.abs(numeric - grad) / scale, initial=0.0)))
    return worst
