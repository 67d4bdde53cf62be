import numpy as np
import pytest

from trajplan.core import ActionBounds, PlannerConfig, rollout
from trajplan.dynamics import make_environment
from trajplan.gradplanner import (eta_schedule, line_search_update, optimize,
                                  reward_gradient)
from trajplan.harness import make_policy


class FrozenDynamics:
    """State stays put, so the reward is a pure function of actions."""

    d_s = d_a = 1

    def step(self, s, a):
        return np.asarray(s, dtype=float).copy()

    def backward(self, s, a, g):
        g = np.asarray(g, dtype=float)
        return g.copy(), np.zeros(1)


class ActionQuadReward:
    def __init__(self, target):
        self.target = target

    def reward(self, s_next, a):
        return -np.sum((np.asarray(a) - self.target) ** 2, axis=-1)

    def backward(self, s_next, a):
        return np.zeros(1), -2.0 * (np.asarray(a, dtype=float) - self.target)


bounds1 = ActionBounds.symmetric(1.0, 1)


class TestRewardGradient:
    def test_scalar_quadratic(self):
        target = 0.4
        seq = np.array([[0.1]])
        grad = reward_gradient(FrozenDynamics(), ActionQuadReward(target),
                               np.zeros(1), seq)
        assert abs(grad[0, 0] - (-2.0 * (0.1 - target))) < 1e-14

    @pytest.mark.parametrize("name,tol", [("barrier", 1e-5), ("cartpole", 1e-5)])
    def test_matches_finite_differences(self, name, tol):
        env = make_environment(name)
        rng = np.random.default_rng(3)
        T = 10
        h = 1e-5
        for _ in range(5):
            s0 = env.start_state + rng.normal(0, 0.1, size=env.start_state.shape)
            seq = np.clip(rng.normal(0, 0.4, size=(T, env.bounds.d_a)),
                          env.bounds.low, env.bounds.high)
            grad = reward_gradient(env.dynamics, env.reward, s0, seq)
            for t in range(T):
                for j in range(env.bounds.d_a):
                    bumped = seq.copy()
                    bumped[t, j] += h
                    up = rollout(env.dynamics, env.reward, s0, bumped).total_reward
                    bumped[t, j] -= 2 * h
                    dn = rollout(env.dynamics, env.reward, s0, bumped).total_reward
                    num = (up - dn) / (2 * h)
                    assert abs(num - grad[t, j]) / max(1.0, abs(num)) < tol


class TestLineSearch:
    def test_eta_schedule_values(self):
        cfg = PlannerConfig(eta_init=0.01, rho=0.67, J=3)
        np.testing.assert_allclose(eta_schedule(cfg), [0.01, 0.0067, 0.004489],
                                   rtol=0, atol=1e-18)

    def test_zero_gradient_rejected_bit_identical(self):
        cfg = PlannerConfig(J=4)
        seq = np.array([[0.3], [0.1]])
        model, reward = FrozenDynamics(), ActionQuadReward(0.0)
        out, accepted, record, _ = line_search_update(
            seq, np.zeros_like(seq), model, reward, np.zeros(1), cfg,
            ActionBounds.symmetric(1.0, 1))
        assert not accepted
        assert record.trials_used == 4
        assert record.eta_used == 0.0
        assert out is seq

    def test_concave_quadratic_accepts_first_trial(self):
        cfg = PlannerConfig(eta_init=0.01, J=8)
        seq = np.array([[0.0]])
        model, reward = FrozenDynamics(), ActionQuadReward(0.5)
        grad = reward_gradient(model, reward, np.zeros(1), seq)
        out, accepted, record, _ = line_search_update(seq, grad, model, reward,
                                                      np.zeros(1), cfg, bounds1)
        assert accepted
        assert record.trials_used == 1
        assert record.eta_used == 0.01
        # Closed form: the step eta*2*(c - a) improves whenever eta < 1.
        assert out[0, 0] == 0.01 * 2.0 * 0.5

    def test_candidates_respect_bounds(self):
        cfg = PlannerConfig(eta_init=10.0, J=3)
        seq = np.array([[0.9]])
        model, reward = FrozenDynamics(), ActionQuadReward(0.95)
        grad = reward_gradient(model, reward, np.zeros(1), seq)
        out, accepted, _, _ = line_search_update(seq, grad, model, reward,
                                                 np.zeros(1), cfg, bounds1)
        assert np.all(out <= 1.0) and np.all(out >= -1.0)


class TestOptimize:
    def test_stationary_at_global_max(self):
        cfg = PlannerConfig()
        seq = np.array([[0.25]])
        model, reward = FrozenDynamics(), ActionQuadReward(0.25)
        out, trace = optimize(seq, model, reward, np.zeros(1), cfg, bounds1)
        assert np.array_equal(out, seq)
        assert all(not rec.accepted for rec in trace.updates)
        assert trace.final_reward == trace.initial_reward

    def test_quadratic_converges_with_suitable_step(self):
        # eta = 0.4 contracts the distance to the optimum by 0.2 per update.
        cfg = PlannerConfig(eta_init=0.4, G=10)
        seq = np.array([[-0.6]])
        model, reward = FrozenDynamics(), ActionQuadReward(0.3)
        out, trace = optimize(seq, model, reward, np.zeros(1), cfg, bounds1)
        assert abs(out[0, 0] - 0.3) < 1e-3
        assert trace.final_reward >= trace.initial_reward

    def test_monotone_accepted_rewards_on_barrier(self):
        env = make_environment("barrier")
        cfg = PlannerConfig()
        rng = np.random.default_rng(11)
        for _ in range(5):
            seq = np.clip(rng.normal(0, 1, size=(15, 2)), env.bounds.low, env.bounds.high)
            out, trace = optimize(seq, env.dynamics, env.reward, env.start_state,
                                  cfg, env.bounds)
            assert trace.final_reward >= trace.initial_reward
            last = trace.initial_reward
            for rec in trace.updates:
                if rec.accepted:
                    assert rec.reward_after > last
                    last = rec.reward_after
            assert np.all(out >= env.bounds.low) and np.all(out <= env.bounds.high)

    def test_evaluation_accounting(self):
        cfg = PlannerConfig(J=8, G=10)
        seq = np.array([[0.0]])
        _, trace = optimize(seq, FrozenDynamics(), ActionQuadReward(0.5),
                            np.zeros(1), cfg, bounds1)
        assert trace.rollout_evaluations == cfg.G * cfg.J


class TestBaselinePlan:
    def test_matches_optimize_from_same_start(self):
        cfg = PlannerConfig(horizon=6)
        env = make_environment("barrier")
        policy = make_policy("gradient", env.dynamics, env.reward, cfg, env.bounds)
        policy.reset(np.random.default_rng(5))
        starts = np.random.default_rng(5)
        for _ in range(2):  # no warm start: each step refines a fresh draw
            out = policy.plan_step(env.start_state)
            start = np.clip(starts.standard_normal((6, 2)),
                            env.bounds.low, env.bounds.high)
            want, want_trace = optimize(start, env.dynamics, env.reward,
                                        env.start_state,
                                        cfg, env.bounds)
            assert np.array_equal(out.optimal_sequence, want)
            assert out.model_reward == want_trace.final_reward
