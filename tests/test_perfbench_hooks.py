"""The benchmark's tracing hooks into trajplan stay attached.

``perfbench/tracing.py`` swaps span wrappers into named places of trajplan
(module-level names such as ``trajplan.gradplanner.line_search_update`` and
model methods). A name that a refactor removes is skipped and listed in
``installed.missing``, so a rename would silently stop tracing that layer;
this test fails instead. ``KNOWN_STALE`` lists the points already known to
be gone, which the next change to the benchmark drops.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from trajplan import harness
from trajplan.core import PlannerConfig
from trajplan.dynamics import make_environment

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

KNOWN_STALE = {"trajplan.harness.run_cem", "trajplan.cemgd.rollout",
               "trajplan.gradplanner.rollout",
               # the models' backward is deleted: a model's one gradient
               # method is its adjoint_sweep
               "trajplan.dynamics:BarrierDynamics.backward",
               "trajplan.dynamics:CartpoleDynamics.backward",
               "trajplan.dynamics:MlpModel.backward"}


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_patch_points_exist_and_a_traced_episode_counts_line_searches():
    tracing = load_tracing()
    env = make_environment("barrier")
    cfg = PlannerConfig(horizon=5, n_init=20, m_init=2, n_r=10, m_r=2, G=2, J=3)
    policy = harness.make_policy("cemgd", env.dynamics, env.reward, cfg, env.bounds)
    plain = harness.run_episode(env, policy, steps=2, seed=0)
    tracer = tracing.Tracer("hooks")
    with tracing.installed(tracer) as patched:
        traced = harness.run_episode(env, policy, steps=2, seed=0)
    assert set(patched.missing) <= KNOWN_STALE
    # _observe_line_search unpacks line_search_update's 4-tuple.
    assert tracer.counters["line_search.updates"] > 0
    assert traced.actions.tobytes() == plain.actions.tobytes()
    assert np.array_equal(traced.true_rewards, plain.true_rewards)
