import csv

import numpy as np
import pytest

from trajplan.core import PlannerConfig
from trajplan.dynamics import (BarrierWorld, MlpModel, collect_random_rollouts,
                               fit_mlp, make_environment)
from trajplan.harness import (RAW_COLUMNS, SUMMARY_COLUMNS, classify_barrier,
                              compare_planners, episode_rows, make_policy,
                              run_cells, run_episode, run_grid, write_csv,
                              write_raw_csv)

TINY = PlannerConfig(horizon=5, n_init=20, m_init=2, n_r=10, m_r=1)


def barrier_policy(env, cfg=TINY):
    return make_policy("cemgd", env.dynamics, env.reward, cfg, env.bounds)


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
    world = BarrierWorld()

    def path(self, ys, x_from=-1.0, x_to=1.0, n=60, end=(1.0, 0.0)):
        xs = np.linspace(x_from, x_to, n)
        states = np.stack([xs, np.interp(xs, [x_from, 0.0, x_to], ys)], axis=1)
        states[-1] = end
        return states

    def test_below_path_succeeds(self):
        states = self.path([0.0, -0.3, 0.0])
        out = classify_barrier(states, self.world)
        assert out.reached_goal and out.went_below and not out.went_above
        assert out.success

    def test_above_path_fails_even_reaching_goal(self):
        states = self.path([0.0, 0.6, 0.0])
        out = classify_barrier(states, self.world)
        assert out.reached_goal and not out.went_below and out.went_above
        assert not out.success

    def test_short_path_fails_goal(self):
        states = self.path([0.0, -0.3, 0.0], x_to=0.5, end=(0.5, 0.0))
        out = classify_barrier(states, self.world)
        assert not out.reached_goal and not out.success
        assert out.went_below

    def test_success_implies_reached(self):
        for ys in ([0.0, -0.3, 0.0], [0.0, 0.5, 0.0], [0.0, 0.1, 0.0]):
            out = classify_barrier(self.path(ys), self.world)
            if out.success:
                assert out.reached_goal


class TestRunCells:
    def test_single_seed_fraction_is_zero_or_one(self):
        cell = {"id": "cemgd-ninit20", "env": "barrier", "planner": "cemgd",
                "planner_config": {"n_init": 4, "m_init": 5}}
        [row] = run_cells([cell], seeds=[0], steps=5, cfg=TINY).summary
        assert row["planner"] == "cemgd-ninit20" and row["success_rate"] in (0.0, 1.0)

    def test_success_rate_matches_reaggregation(self):
        cells = [{"id": f"cemgd-ninit{b}", "env": "barrier", "planner": "cemgd",
                  "planner_config": {"n_init": b, "m_init": 1}} for b in (10, 20)]
        grid = run_cells(cells, seeds=[0, 1], steps=5, cfg=TINY)
        assert [row["planner"] for row in grid.summary] == ["cemgd-ninit10", "cemgd-ninit20"]
        for row in grid.summary:
            successes = [r.success for r in grid.results if r.planner_id == row["planner"]]
            assert len(successes) == 2 and row["success_rate"] == np.mean(successes)

    def test_empty_cell_list_gives_empty_grid(self):
        grid = run_cells([], seeds=[0], steps=3, cfg=TINY)
        assert grid.results == [] and grid.summary == [] and grid.failures == []

    def test_cell_budgets_ids_and_env_overrides(self):
        cells = [{"env": "cartpole", "planner": "cem-10"},
                 {"env": "cartpole", "planner": "cem-20"},
                 {"id": "cemgd-nr10", "env": {"name": "cartpole"}, "planner": "cemgd",
                  "planner_config": {"n_r": 2, "m_r": 5}},
                 {"id": "moved", "env": {"name": "barrier", "start": [-0.5, 0.0]},
                  "planner": "cem-10"}]
        grid = run_cells(cells, seeds=[0, 1], steps=3, cfg=TINY)
        assert [(row["env"], row["planner"]) for row in grid.summary] == \
            [("barrier", "moved"), ("cartpole", "cem-10"), ("cartpole", "cem-20"),
             ("cartpole", "cemgd-nr10")]
        cem = [r for r in grid.results if r.planner_id == "cem-10"]
        assert all(list(r.samples_used) == [10, 10, 10] for r in cem)
        hybrid = [r for r in grid.results if r.planner_id == "cemgd-nr10"]
        assert all(list(r.samples_used) == [40, 10, 10] for r in hybrid)
        row = next(row for row in grid.summary if row["planner"] == "cem-10")
        rewards = [r.episode_reward for r in cem]
        assert row["mean_reward"] == np.mean(rewards) and row["std_reward"] == np.std(rewards)
        moved = [r for r in grid.results if r.planner_id == "moved"]
        assert all(list(r.states[0]) == [-0.5, 0.0] for r in moved)


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

    def test_success_column_consistent(self):
        result = self.small_compare()
        for res in result.results:
            rows = episode_rows(res)
            assert all(r["success"] == str(int(res.success)) for r in rows)

    def test_unknown_planner_rejected(self):
        env = make_environment("barrier")
        for name in ("mppi", "cem-abc", "cem-0"):
            with pytest.raises(ValueError, match=f"unknown planner '{name}'; valid"):
                make_policy(name, env.dynamics, env.reward, TINY, env.bounds)
