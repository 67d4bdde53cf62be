import csv
import re
from dataclasses import fields

import numpy as np
import pytest

from trajplan.core import PlannerConfig
from trajplan.dynamics import (GOAL_EPS, BarrierWorld, CartpoleWorld, MlpModel,
                               collect_random_rollouts, fit_mlp, make_environment)
from trajplan.harness import (RAW_COLUMNS, SUMMARY_COLUMNS, compare_planners,
                              episode_rows, make_policy, run_episode, run_grid,
                              write_csv, write_raw_csv)

TINY = PlannerConfig(horizon=5, n_init=20, m_init=2, n_r=10, m_r=1)


def barrier_policy(env, cfg=TINY):
    return make_policy("cemgd", env.dynamics, env.reward, cfg, env.bounds)


@pytest.mark.parametrize("planner, defined", [
    pytest.param("cemgd", set(), id="cemgd"),
    pytest.param("gradient", {"n_init", "m_init", "k"}, id="gradient"),
    *[pytest.param(f"cem-{budget}", {"n_init", "m_init", "n_r", "m_r", "G", "k"},
                   id=f"cem-{budget}") for budget in (50, 500, 5000)],
])
def test_planner_id_sets_only_the_fields_it_defines(planner, defined):
    # Every field away from its default, so an id that sets one shows.
    shared = PlannerConfig(horizon=7, n_init=30, m_init=2, n_r=20, m_r=3, alpha=0.4, k=2,
                           G=3, J=4, eta_init=0.02, rho=0.5)
    assert all(getattr(shared, f.name) != f.default for f in fields(PlannerConfig))
    env = make_environment("barrier")
    cfg = make_policy(planner, env.dynamics, env.reward, shared, env.bounds).cfg
    assert {f.name for f in fields(PlannerConfig)
            if getattr(cfg, f.name) != getattr(shared, f.name)} == defined


class TestRunEpisode:
    def test_single_step_episode_reward(self):
        env = make_environment("barrier")
        res = run_episode(env, barrier_policy(env), steps=1, seed=0)
        assert res.episode_reward == res.true_rewards[0]
        s1 = env.dynamics.step(env.start_state, res.actions[0])
        assert res.true_rewards[0] == float(env.reward.reward(s1, res.actions[0]))

    def test_bit_identical_reruns(self):
        env = make_environment("barrier")
        a = run_episode(env, barrier_policy(env), steps=8, seed=3)
        b = run_episode(env, barrier_policy(env), steps=8, seed=3)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.actions, b.actions)
        assert np.array_equal(a.true_rewards, b.true_rewards)
        assert np.array_equal(a.model_rewards, b.model_rewards)
        assert a.episode_reward == b.episode_reward

    def test_true_rewards_follow_true_env_with_mlp_planner(self):
        env = make_environment("barrier")
        data = collect_random_rollouts(env.dynamics, env.bounds, env.start_state,
                                       episodes=3, steps=50, rng=0)
        model, _ = fit_mlp(data, epochs=3, hidden=(8, 8, 8), rng=1)
        policy = make_policy("cemgd", model, env.reward, TINY, env.bounds)
        res = run_episode(env, policy, steps=6, seed=4)
        # Episode rewards recompute exactly from the recorded true transitions.
        for t in range(6):
            want = float(env.reward.reward(res.states[t + 1], res.actions[t]))
            assert res.true_rewards[t] == want
        assert res.episode_reward == sum(float(r) for r in res.true_rewards)

    @pytest.mark.parametrize("name", ["barrier", "cartpole"])
    def test_true_step_equals_one_step_of_rollout_states_then_reward(self, name):
        """The true step is ``rollout`` at B = 1, T = 1; it must give what the
        model's rollout_states and one reward call on the next state give."""
        env = make_environment(name)
        policy = make_policy("cemgd", env.dynamics, env.reward, TINY, env.bounds)
        res = run_episode(env, policy, steps=8, seed=2)
        for t in range(8):
            s, a = res.states[t], res.actions[t]
            s_next = env.dynamics.rollout_states(s, a[None, None])[0, 1]
            r = float(env.reward.reward(s_next, a))
            assert np.array_equal(res.states[t + 1], s_next)
            assert repr(float(res.true_rewards[t])) == repr(r)   # -0.0 too

    def test_cartpole_has_no_success_verdict(self):
        assert CartpoleWorld().success(np.zeros((5, 4))) is None
        env = make_environment("cartpole")
        policy = make_policy("cem-50", env.dynamics, env.reward, TINY, env.bounds)
        assert run_episode(env, policy, steps=2, seed=0).success is None

    def test_memory_proxy_schedule(self):
        env = make_environment("barrier")
        cfg = PlannerConfig(horizon=4, n_init=30, m_init=1, n_r=10, m_r=1, k=1)
        res = run_episode(env, barrier_policy(env, cfg), steps=3, seed=0)
        assert list(res.memory_proxy) == [31, 11, 11]
        assert list(res.samples_used) == [30, 10, 10]
        # cem-50 runs 10 samples x 5 iterations and refines nothing
        cem = make_policy("cem-50", env.dynamics, env.reward, cfg, env.bounds)
        res = run_episode(env, cem, steps=3, seed=0)
        assert list(res.memory_proxy) == [10, 10, 10]
        assert list(res.samples_used) == [50, 50, 50]
        assert list(res.gradient_evals) == [0, 0, 0]
        # gradient seeds from one sample at every step and refines it
        grad = make_policy("gradient", env.dynamics, env.reward, cfg, env.bounds)
        res = run_episode(env, grad, steps=3, seed=0)
        assert list(res.memory_proxy) == [2, 2, 2]
        assert list(res.samples_used) == [1, 1, 1]
        assert list(res.gradient_evals) == [1 + cfg.G * cfg.J + 1] * 3


class TestBarrierOutcome:
    """The barrier world's success verdict on an episode's states."""

    world = BarrierWorld()

    def path(self, ys, x_from=-1.0, x_to=1.0, n=60, end=(1.0, 0.0)):
        xs = np.linspace(x_from, x_to, n)
        states = np.stack([xs, np.interp(xs, [x_from, 0.0, x_to], ys)], axis=1)
        states[-1] = end
        return states

    def test_below_path_succeeds(self):
        assert self.world.success(self.path([0.0, -0.3, 0.0])) is True

    def test_above_path_fails_even_reaching_goal(self):
        states = self.path([0.0, 0.6, 0.0])
        assert np.linalg.norm(states[-1] - self.world.goal) < GOAL_EPS
        assert self.world.success(states) is False

    def test_short_path_fails_goal(self):
        states = self.path([0.0, -0.3, 0.0], x_to=0.5, end=(0.5, 0.0))
        assert self.world.success(states) is False

    def test_success_implies_reached(self):
        for ys in ([0.0, -0.3, 0.0], [0.0, 0.5, 0.0], [0.0, 0.1, 0.0]):
            for end in ((1.0, 0.0), (1.0, GOAL_EPS), (1.05, -0.05), (0.5, 0.0)):
                states = self.path(ys, end=end)
                if self.world.success(states):
                    assert np.linalg.norm(states[-1] - self.world.goal) < GOAL_EPS


class TestRunGrid:
    def test_diverging_cell_recorded_and_grid_continues(self):
        env = make_environment("barrier")
        bad = MlpModel.initialize(2, 2, hidden=(4, 4, 4), rng=0)
        bad.weights = [(W * 1e200, b) for W, b in bad.weights]
        good = make_policy("cem-50", env.dynamics, env.reward, TINY, env.bounds)
        diverging = make_policy("cemgd", bad, env.reward, TINY, env.bounds)
        result = run_grid([(env, diverging), (env, good)], seeds=[0, 1, 2], steps=3)
        assert [(f["planner"], f["seed"], f["step"]) for f in result.failures] == \
            [("cemgd", seed, 0) for seed in (0, 1, 2)]
        assert all(f["env"] == "barrier" and "non-finite" in f["error"]
                   for f in result.failures)
        assert [(r.planner_id, r.seed) for r in result.results] == \
            [("cem-50", seed) for seed in (0, 1, 2)]
        assert [(row["planner"], row["episodes"]) for row in result.summary] == \
            [("cem-50", 3)]

    def test_diverging_true_environment_is_one_failure_row(self):
        """A world whose true step overflows ends its episode in one failure
        row naming the environment, with no result and no numpy warning."""
        env = make_environment("barrier", kappa=1e308)
        cfg = PlannerConfig(horizon=10, n_init=100, m_init=2, G=3)
        model = make_environment("barrier").dynamics
        policy = make_policy("cemgd", model, env.reward, cfg, env.bounds)
        result = run_grid([(env, policy)], seeds=[3], steps=38)
        assert result.failures == [{
            "env": "barrier", "planner": "cemgd", "seed": 3, "step": 37,
            "error": "environment barrier diverged at episode step 37: "
                     "non-finite reward at rollout step 0"}]
        assert result.results == [] and result.summary == []

    def test_empty_grid(self):
        grid = run_grid([], seeds=[0], steps=3)
        assert grid.results == [] and grid.summary == [] and grid.failures == []


class TestCompareAndCsv:
    def small_compare(self):
        return compare_planners(["barrier"], seeds=[0, 1], steps=4, cfg=TINY,
                                planners=["cem-50", "cemgd", "gradient"])

    def test_summary_matches_raw_mean(self):
        result = self.small_compare()
        for row in result.summary:
            members = [r for r in result.results
                       if r.env_id == row["env"] and r.planner_id == row["planner"]]
            want = np.mean([m.episode_reward for m in members])
            assert row["mean_reward"] == want

    def test_single_seed_grid_has_zero_std(self):
        result = compare_planners(["barrier"], seeds=[5], steps=3, cfg=TINY,
                                  planners=["cemgd"])
        assert result.summary[0]["std_reward"] == 0.0

    def test_csv_schema_and_reaggregation(self, tmp_path):
        result = self.small_compare()
        raw = tmp_path / "raw.csv"
        summ = tmp_path / "summary.csv"
        write_raw_csv(result.results, raw)
        write_csv(result.summary, SUMMARY_COLUMNS, summ)
        with open(raw) as f:
            rows = list(csv.DictReader(f))
        assert list(rows[0]) == RAW_COLUMNS
        with open(summ) as f:
            srows = list(csv.DictReader(f))
        assert list(srows[0]) == SUMMARY_COLUMNS
        # Summary means recompute exactly from raw rows.
        for srow in srows:
            episode_totals = {}
            for row in rows:
                if row["env"] == srow["env"] and row["planner"] == srow["planner"]:
                    key = row["seed"]
                    episode_totals[key] = episode_totals.get(key, 0.0) + float(row["true_reward"])
            assert float(srow["mean_reward"]) == np.mean(list(episode_totals.values()))
            assert int(srow["episodes"]) == len(episode_totals)

    @pytest.mark.parametrize("value", [-0.0, 5e-324, 1e-320, float("inf"), float("nan"),
                                       1.7976931348623157e+308])
    def test_float_written_as_its_repr(self, tmp_path, value):
        path = tmp_path / "rows.csv"
        write_csv([{"x": value, "n": 3, "s": ""}], ["x", "n", "s"], path)
        assert path.read_text() == f"x,n,s\n{value!r},3,\n"

    def test_success_column_consistent(self):
        result = self.small_compare()
        for res in result.results:
            rows = episode_rows(res)
            assert all(r["success"] == str(int(res.success)) for r in rows)

    def test_unknown_planner_rejected(self):
        env = make_environment("barrier")
        for name in ("mppi", "cem-abc", "cem-0", "cem-050", "cem-\u0665\u0660", "cem-+5",
                     "cem-5 ", "cem-"):
            with pytest.raises(ValueError, match=re.escape(f"unknown planner {name!r}; valid")):
                make_policy(name, env.dynamics, env.reward, TINY, env.bounds)
