import numpy as np
import pytest

from oracles import oracle_sweep
import trajplan.cem as cem_mod
import trajplan.cemgd as cemgd_mod
import trajplan.core as core_mod
import trajplan.gradplanner as gradplanner_mod
from trajplan.cem import SamplingDistribution, run_cem
from trajplan.cemgd import (PlanDiagnostics, PlannerState, PlanOutput, plan,
                            warm_start_mean)
from trajplan.core import ActionBounds, PlannerConfig, Trajectory, rollout
from trajplan.dynamics import DynamicsModel, make_environment
from trajplan.gradplanner import optimize


class ScalarLinearDynamics(DynamicsModel):
    """s' = A s + B u on a single state and action dimension."""

    d_s = d_a = 1

    def __init__(self, A=0.8, B=0.5):
        self.A, self.B = A, B

    def step(self, s, a):
        return self.A * np.asarray(s, dtype=float) + self.B * np.asarray(a, dtype=float)

    def step_vjp(self, s, a, g):
        return self.A * g, self.B * g

    def adjoint_sweep(self, states, actions, state_grads):
        return oracle_sweep(ScalarLinearDynamics.step_vjp, self, states, actions, state_grads)


class StateActionQuadReward:
    """r = -(s')^2 - c a^2; with one step the optimum is -ABs/(B^2 + c)."""

    def __init__(self, c=0.1):
        self.c = c

    def reward(self, s_next, a):
        return (-np.sum(np.asarray(s_next) ** 2, axis=-1)
                - self.c * np.sum(np.asarray(a) ** 2, axis=-1))

    def backward(self, s_next, a):
        return -2.0 * np.asarray(s_next, dtype=float), -2.0 * self.c * np.asarray(a, dtype=float)


class TestWarmStart:
    def test_shift_and_duplicate(self):
        prev = np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])
        want = np.array([[2.0, 3.0], [4.0, 5.0], [4.0, 5.0]])
        assert np.array_equal(warm_start_mean(prev), want)

    def test_constant_sequence_unchanged(self):
        prev = np.full((6, 2), 0.7)
        assert np.array_equal(warm_start_mean(prev), prev)

    def test_t_applications_reach_constant(self):
        rng = np.random.default_rng(0)
        seq = rng.normal(size=(5, 3))
        out = seq
        for _ in range(5):
            out = warm_start_mean(out)
        assert np.array_equal(out, np.tile(seq[-1], (5, 1)))


def tiny_cfg(**kw):
    defaults = dict(horizon=4, n_init=40, m_init=3, n_r=10, m_r=2)
    defaults.update(kw)
    return PlannerConfig(**defaults)


class TestPlan:
    def test_state_invariant_enforced(self):
        env = make_environment("barrier")
        cfg = tiny_cfg()
        bad = PlannerState(previous_optimal=np.zeros((4, 2)), timestep=0)
        with pytest.raises(ValueError):
            plan(bad, env.start_state, env.dynamics, env.reward, cfg, env.bounds,
                 np.random.default_rng(0))
        bad = PlannerState(previous_optimal=None, timestep=3)
        with pytest.raises(ValueError):
            plan(bad, env.start_state, env.dynamics, env.reward, cfg, env.bounds,
                 np.random.default_rng(0))

    def test_refinement_dominates_cem_best(self):
        env = make_environment("barrier")
        cfg = tiny_cfg(k=1)
        out, _ = plan(PlannerState(), env.start_state, env.dynamics, env.reward,
                      cfg, env.bounds, np.random.default_rng(1))
        traces = out.diagnostics.traces
        assert out.model_reward >= traces[0].initial_reward   # CEM's pooled best
        assert out.model_reward == max(t.final_reward for t in traces)
        assert np.array_equal(out.action, out.optimal_sequence[0])

    def test_paper_budget_accounting(self):
        env = make_environment("barrier")
        cfg = PlannerConfig(horizon=5)  # published budgets: 15000 then 50
        state = PlannerState()
        rng = np.random.default_rng(2)
        out0, state = plan(state, env.start_state, env.dynamics, env.reward,
                           cfg, env.bounds, rng)
        assert out0.diagnostics.samples_used == 15000
        out1, state = plan(state, env.start_state, env.dynamics, env.reward,
                           cfg, env.bounds, rng)
        assert out1.diagnostics.samples_used == 50
        assert state.timestep == 2

    def test_gradient_eval_budget(self):
        env = make_environment("barrier")
        cfg = tiny_cfg(k=2, n_r=20)
        out, _ = plan(PlannerState(), env.start_state, env.dynamics, env.reward,
                      cfg, env.bounds, np.random.default_rng(3))
        bound = cfg.k * cfg.G * (cfg.J + 1) + cfg.k
        assert out.diagnostics.gradient_evals <= bound
        assert out.diagnostics.memory_proxy == cfg.n_init + cfg.k
        assert len(out.diagnostics.traces) == cfg.k

    def test_no_gradient_steps_returns_cem_pooled_best(self, monkeypatch):
        env = make_environment("barrier")
        cfg = tiny_cfg(G=0)
        monkeypatch.setattr(cemgd_mod, "optimize", None)  # must not be called
        out, state = plan(PlannerState(), env.start_state, env.dynamics, env.reward,
                          cfg, env.bounds, np.random.default_rng(8))
        dist = SamplingDistribution.initial(cfg.horizon, env.bounds.d_a)
        want = run_cem(env.dynamics, env.reward, env.start_state, dist, cfg.n_init,
                       cfg.m_init, cfg.alpha, env.bounds, np.random.default_rng(8), top_k=1)
        assert np.array_equal(out.optimal_sequence, want[0].actions)
        assert np.array_equal(state.previous_optimal, want[0].actions)
        assert out.model_reward == want[0].total_reward
        diag = out.diagnostics
        assert (diag.samples_used, diag.gradient_evals, diag.memory_proxy) == (120, 0, 40)
        assert diag.traces == []

    def test_one_step_linear_quadratic_optimum(self):
        model = ScalarLinearDynamics(A=0.8, B=0.5)
        reward = StateActionQuadReward(c=0.1)
        s0 = np.array([1.0])
        want = -model.A * model.B * s0[0] / (model.B**2 + reward.c)
        cfg = PlannerConfig(horizon=1, n_init=200, m_init=5, n_r=10, m_r=5,
                            eta_init=0.2)
        bounds = ActionBounds.symmetric(3.0, 1)
        out, _ = plan(PlannerState(), s0, model, reward, cfg, bounds,
                      np.random.default_rng(4))
        assert abs(out.action[0] - want) < 1e-2

    def test_warm_start_mean_used_bit_exact(self, monkeypatch):
        env = make_environment("barrier")
        cfg = tiny_cfg()
        seen = []
        real = run_cem

        def spy(model, reward, s0, init_dist, *args, **kwargs):
            seen.append(init_dist.mean.copy())
            return real(model, reward, s0, init_dist, *args, **kwargs)

        monkeypatch.setattr(cemgd_mod, "run_cem", spy)
        state = PlannerState()
        rng = np.random.default_rng(5)
        out0, state = plan(state, env.start_state, env.dynamics, env.reward,
                           cfg, env.bounds, rng)
        plan(state, env.start_state, env.dynamics, env.reward, cfg, env.bounds, rng)
        assert np.array_equal(seen[0], np.zeros((cfg.horizon, 2)))
        assert np.array_equal(seen[1], warm_start_mean(out0.optimal_sequence))

    def test_deterministic_for_fixed_seed(self):
        env = make_environment("cartpole")
        cfg = tiny_cfg()
        outs = []
        for _ in range(2):
            state = PlannerState()
            rng = np.random.default_rng(6)
            out, state = plan(state, env.start_state, env.dynamics, env.reward,
                              cfg, env.bounds, rng)
            out2, _ = plan(state, env.start_state, env.dynamics, env.reward,
                           cfg, env.bounds, rng)
            outs.append((out, out2))
        (a0, a1), (b0, b1) = outs
        assert np.array_equal(a0.optimal_sequence, b0.optimal_sequence)
        assert a0.model_reward == b0.model_reward
        assert np.array_equal(a1.optimal_sequence, b1.optimal_sequence)
        assert a1.model_reward == b1.model_reward

    def test_k_exceeding_elites_rejected(self):
        # The default elite count for n_r=10 is 1; PlannerConfig checks it,
        # so no plan() call is ever made with such a config.
        with pytest.raises(ValueError, match="^k=3 exceeds the elite count 1 of n_r=10$"):
            tiny_cfg(k=3)

    def test_no_gradient_steps_returns_top_k_0_itself(self, monkeypatch):
        env = make_environment("barrier")
        seen = []
        real = cemgd_mod.run_cem

        def spy(*args, **kwargs):
            seen.append(real(*args, **kwargs))
            return seen[-1]

        monkeypatch.setattr(cemgd_mod, "run_cem", spy)
        out, state = plan(PlannerState(), env.start_state, env.dynamics, env.reward,
                          tiny_cfg(G=0), env.bounds, np.random.default_rng(8))
        (pooled,) = seen
        assert out.optimal_sequence is pooled[0].actions
        assert state.previous_optimal is pooled[0].actions
        assert out.model_reward == pooled[0].total_reward

    def test_tied_refined_rewards_go_to_the_lowest_index(self, monkeypatch):
        env = make_environment("barrier")
        cfg = tiny_cfg(k=3, n_r=30)
        refined = []

        def tied(seed, model, reward, cfg, bounds):
            # Every refined trajectory scores the same; each keeps its own actions.
            refined.append(Trajectory(seed.states, seed.actions.copy(), seed.step_rewards,
                                      total_reward=-1.0))
            return refined[-1], cemgd_mod.OptimizeTrace(-1.0, refined[-1].total_reward)

        monkeypatch.setattr(cemgd_mod, "optimize", tied)
        out, _ = plan(PlannerState(), env.start_state, env.dynamics, env.reward, cfg,
                      env.bounds, np.random.default_rng(0))
        assert len(refined) == cfg.k
        assert out.optimal_sequence is refined[0].actions
        assert [t.final_reward for t in out.diagnostics.traces] == [-1.0] * cfg.k


def reference_plan(state, s_t, model, reward, cfg, bounds, rng):
    """plan() as it was before refinement reused CEM's rollouts: each seed
    sequence is rolled out again before optimize, the winner is re-rolled,
    and the winner is chosen by argmax over parallel lists."""
    if state.timestep == 0:
        mean, n, m = None, cfg.n_init, cfg.m_init
    else:
        mean, n, m = warm_start_mean(state.previous_optimal), cfg.n_r, cfg.m_r
    dist = SamplingDistribution.initial(cfg.horizon, bounds.d_a, mean)
    pooled = run_cem(model, reward, s_t, dist, n, m, cfg.alpha, bounds, rng, top_k=cfg.k)
    refined, traces, rewards = [], [], []
    for seed in pooled:
        final, trace = optimize(rollout(model, reward, s_t, seed.actions), model, reward,
                                cfg, bounds)
        refined.append(final.actions)
        traces.append(trace)
        rewards.append(rollout(model, reward, s_t, final.actions).total_reward)
    # The traces, which plan() must reproduce, hold the re-rolled rewards.
    assert [t.initial_reward for t in traces] == [seed.total_reward for seed in pooled]
    assert [t.final_reward for t in traces] == rewards
    winner = int(np.argmax(rewards))
    diagnostics = PlanDiagnostics(
        samples_used=n * m,
        gradient_evals=len(traces) * (1 + cfg.G * cfg.J + 1),
        memory_proxy=n + cfg.k, traces=traces)
    best = refined[winner]
    return (PlanOutput(best[0].copy(), best, rewards[winner], diagnostics),
            PlannerState(previous_optimal=best, timestep=state.timestep + 1))


class TestRolloutReuse:
    @pytest.mark.parametrize("name", ["barrier", "cartpole"])
    def test_matches_rerolling_recipe_bitwise(self, name):
        env = make_environment(name)
        cfg = tiny_cfg(k=2, n_r=20)
        s = env.start_state
        state, want_state = PlannerState(), PlannerState()
        rng, want_rng = np.random.default_rng(9), np.random.default_rng(9)
        for _ in range(3):  # the first step and two replans
            out, state = plan(state, s, env.dynamics, env.reward, cfg, env.bounds, rng)
            want, want_state = reference_plan(want_state, s, env.dynamics, env.reward,
                                              cfg, env.bounds, want_rng)
            assert out.action.tobytes() == want.action.tobytes()
            assert out.optimal_sequence.tobytes() == want.optimal_sequence.tobytes()
            assert out.model_reward == want.model_reward
            assert out.diagnostics == want.diagnostics
            s = env.dynamics.step(s, out.action)

    def test_replan_rolls_out_cem_and_line_search_batches_only(self, monkeypatch):
        env = make_environment("barrier")
        cfg = PlannerConfig()  # paper defaults: 10 x 5 replan, G = 10, J = 8
        calls = []
        for module in (cem_mod, gradplanner_mod, core_mod):
            def counting(model, reward, s0, seqs, *args, _real=module.rollout_batch,
                         _name=module.__name__, **kwargs):
                calls.append((_name, len(seqs)))
                return _real(model, reward, s0, seqs, *args, **kwargs)
            monkeypatch.setattr(module, "rollout_batch", counting)
        assert not hasattr(gradplanner_mod, "rollout")   # refinement rolls out line searches only
        state = PlannerState(previous_optimal=np.zeros((cfg.horizon, 2)), timestep=1)
        out, _ = plan(state, env.start_state, env.dynamics, env.reward, cfg, env.bounds,
                      np.random.default_rng(10))
        # Every update here is accepted at trial 1, so each line search
        # rolls out its first candidate alone.
        (trace,) = out.diagnostics.traces
        assert [(rec.accepted, rec.trials_used, rec.evaluations)
                for rec in trace.updates] == [(True, 1, 1)] * cfg.G
        assert calls == ([("trajplan.cem", cfg.n_r)] * cfg.m_r
                         + [("trajplan.gradplanner", 1)] * cfg.G)
        assert out.diagnostics.gradient_evals == 1 + cfg.G * cfg.J + 1

    def test_replan_rolls_out_rest_of_line_search_only_after_trial_1_fails(
            self, monkeypatch):
        # Cartpole near upright with a warm start of zeros: the first update
        # is accepted at trial J, the second rejects all J, and refinement
        # stops there.
        env = make_environment("cartpole")
        cfg = PlannerConfig(horizon=30)
        calls = []
        real = gradplanner_mod.rollout_batch

        def counting(model, reward, s0, seqs, *args, **kwargs):
            calls.append(len(seqs))
            return real(model, reward, s0, seqs, *args, **kwargs)

        monkeypatch.setattr(gradplanner_mod, "rollout_batch", counting)
        state = PlannerState(previous_optimal=np.zeros((cfg.horizon, 1)), timestep=1)
        out, _ = plan(state, np.array([-0.2, 1.0, 0.18, -1.4]), env.dynamics, env.reward,
                      cfg, env.bounds, np.random.default_rng(0))
        (trace,) = out.diagnostics.traces
        assert [(rec.accepted, rec.trials_used, rec.evaluations)
                for rec in trace.updates] == [(True, cfg.J, cfg.J), (False, cfg.J, cfg.J)]
        assert calls == [1, cfg.J - 1] * 2
        assert trace.rollout_evaluations == 2 * cfg.J
        assert out.diagnostics.gradient_evals == 1 + cfg.G * cfg.J + 1
