"""Trajectory optimization planners over differentiable dynamics.

One planner, ``plan``, refines a large one-time cross-entropy method (CEM)
exploration by projected gradient ascent with backtracking line search and
replans cheaply thereafter; pure CEM and the first-order baseline are
schedules of it. A harness runs them under MPC on analytic or learned-MLP
dynamics and writes reproducible CSV results.
"""

from .cem import SamplingDistribution, run_cem, sample, update_distribution
from .cemgd import PlanOutput, PlannerState, plan, warm_start_mean
from .core import (ActionBounds, DivergedError, PlannerConfig, Trajectory,
                   project, rollout, rollout_batch, split_budget)
from .dynamics import (BarrierWorld, CartpoleWorld, MlpModel,
                       QuadraticGoalReward, collect_random_rollouts, fit_mlp,
                       make_environment)
from .gradplanner import (OptimizeTrace, line_search_update, optimize,
                          reward_gradient)

__all__ = [
    "ActionBounds", "BarrierWorld", "CartpoleWorld", "DivergedError",
    "MlpModel", "OptimizeTrace",
    "PlanOutput", "PlannerConfig", "PlannerState", "QuadraticGoalReward",
    "SamplingDistribution", "Trajectory", "collect_random_rollouts", "fit_mlp",
    "line_search_update", "make_environment", "optimize", "plan", "project",
    "reward_gradient", "rollout", "rollout_batch", "run_cem", "sample",
    "split_budget", "update_distribution", "warm_start_mean",
]

__version__ = "0.1.0"
