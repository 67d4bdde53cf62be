import numpy as np
import pytest

from oracles import ActionQuadReward, NegSquaredNorm, oracle_sweep
import trajplan.gradplanner as gradplanner_mod
from trajplan.core import (ActionBounds, DivergedError, PlannerConfig, Trajectory,
                           project, rollout, rollout_batch)
from trajplan.dynamics import DynamicsModel, MlpModel, make_environment
from trajplan.gradplanner import (OptimizeTrace, UpdateRecord, eta_schedule,
                                  line_search_update, optimize, reward_gradient)
from trajplan.harness import finite_difference_gradient, make_policy


class FrozenDynamics(DynamicsModel):
    """State stays put, so the reward is a pure function of actions."""

    d_s = d_a = 1

    def step(self, s, a):
        return np.asarray(s, dtype=float).copy()

    def step_vjp(self, s, a, g):
        return g.copy(), np.zeros(1)

    def adjoint_sweep(self, states, actions, state_grads):
        return oracle_sweep(FrozenDynamics.step_vjp, self, states, actions, state_grads)


class VjpOverflowDynamics(DynamicsModel):
    """s' = s + 0.1 a; the VJP at each step in ``bad_steps`` overflows to inf.

    ``part`` picks which VJP overflows: the state adjoint or the action's.
    The step is read off the action, whose first entry holds its index.
    """

    d_s = d_a = 2

    def __init__(self, bad_steps, part):
        self.bad_steps = bad_steps
        self.part = part

    def step(self, s, a):
        return np.asarray(s, dtype=float) + 0.1 * np.asarray(a, dtype=float)

    def step_vjp(self, s, a, g):
        grad_s, grad_a = np.array(g, dtype=float), 0.1 * np.asarray(g, dtype=float)
        if int(a[0]) in self.bad_steps:
            big = grad_s if self.part == "state" else grad_a
            big *= 1e300
            big *= 1e300   # numpy overflow: warns unless ignored
        return grad_s, grad_a

    def adjoint_sweep(self, states, actions, state_grads):
        return oracle_sweep(VjpOverflowDynamics.step_vjp, self, states, actions, state_grads)


bounds1 = ActionBounds.symmetric(1.0, 1)


class TestRewardGradient:
    def test_scalar_quadratic(self):
        target = 0.4
        seq = np.array([[0.1]])
        model, reward = FrozenDynamics(), ActionQuadReward(target)
        grad = reward_gradient(model, reward, rollout(model, reward, np.zeros(1), seq))
        assert abs(grad[0, 0] - (-2.0 * (0.1 - target))) < 1e-14

    @pytest.mark.parametrize("name,tol", [("barrier", 1e-5), ("cartpole", 1e-5)])
    def test_matches_finite_differences(self, name, tol):
        env = make_environment(name)
        rng = np.random.default_rng(3)
        T = 10
        for _ in range(5):
            s0 = env.start_state + rng.normal(0, 0.1, size=env.start_state.shape)
            seq = np.clip(rng.normal(0, 0.4, size=(T, env.bounds.d_a)),
                          env.bounds.low, env.bounds.high)
            grad = reward_gradient(env.dynamics, env.reward,
                                   rollout(env.dynamics, env.reward, s0, seq))
            num = finite_difference_gradient(env.dynamics, env.reward, s0, seq)
            assert np.all(np.abs(num - grad) / np.maximum(1.0, np.abs(num)) < tol)

    @pytest.mark.parametrize("part", ["state", "action"])
    @pytest.mark.parametrize("bad_steps,want", [({5}, 5), ({2, 6}, 6), ({0}, 0)])
    def test_nonfinite_vjp_names_first_step_in_sweep_order(self, part, bad_steps,
                                                          want):
        # One finiteness check per sweep, then a rescan from the last step:
        # the error names the step the backward sweep reaches first. Under
        # the suite's error::RuntimeWarning filter a leaked overflow warning
        # would fail the test.
        T = 8
        seq = np.column_stack([np.arange(T, dtype=float), np.zeros(T)])
        model = VjpOverflowDynamics(bad_steps, part)
        traj = rollout(model, NegSquaredNorm(), np.array([1.0, -1.0]), seq)
        with pytest.raises(DivergedError) as err:
            reward_gradient(model, NegSquaredNorm(), traj)
        assert err.value.step == want
        assert str(err.value) == f"non-finite gradient at rollout step {want}"


class TestLineSearch:
    def test_eta_schedule_values(self):
        cfg = PlannerConfig(eta_init=0.01, rho=0.67, J=3)
        np.testing.assert_allclose(eta_schedule(cfg), [0.01, 0.0067, 0.004489],
                                   rtol=0, atol=1e-18)

    def test_zero_gradient_rejected_bit_identical(self):
        cfg = PlannerConfig(J=4)
        seq = np.array([[0.3], [0.1]])
        model, reward = FrozenDynamics(), ActionQuadReward(0.0)
        current = rollout(model, reward, np.zeros(1), seq)
        out, accepted, record, traj = line_search_update(
            current, np.zeros_like(seq), model, reward, cfg,
            ActionBounds.symmetric(1.0, 1))
        assert not accepted
        assert record.trials_used == 4
        assert record.eta_used == 0.0
        assert out is current.actions and traj is current

    def test_concave_quadratic_accepts_first_trial(self):
        cfg = PlannerConfig(eta_init=0.01, J=8)
        seq = np.array([[0.0]])
        model, reward = FrozenDynamics(), ActionQuadReward(0.5)
        current = rollout(model, reward, np.zeros(1), seq)
        grad = reward_gradient(model, reward, current)
        out, accepted, record, _ = line_search_update(current, grad, model, reward,
                                                      cfg, bounds1)
        assert accepted
        assert record.trials_used == 1
        assert record.eta_used == 0.01
        # Closed form: the step eta*2*(c - a) improves whenever eta < 1.
        assert out[0, 0] == 0.01 * 2.0 * 0.5

    def test_candidates_equal_per_eta_formula_bitwise(self, monkeypatch):
        # This random direction fails at trial 1, so trial 1 is rolled out
        # alone and trials 2..J follow as one batch.
        env = make_environment("barrier")
        cfg = PlannerConfig()
        rng = np.random.default_rng(12)
        seq = project(rng.normal(0.0, 0.4, size=(45, 2)), env.bounds)
        grad = rng.normal(0.0, 30.0, size=(45, 2))  # large enough that some entries clamp
        seen = []
        real = gradplanner_mod.rollout_batch

        def spy(model, reward, s0, seqs, **kwargs):
            seen.append(seqs.copy())
            return real(model, reward, s0, seqs, **kwargs)

        current = rollout(env.dynamics, env.reward, env.start_state, seq)
        monkeypatch.setattr(gradplanner_mod, "rollout_batch", spy)
        _, _, record, _ = line_search_update(current, grad, env.dynamics, env.reward,
                                             cfg, env.bounds)
        want = np.stack([project(seq + eta * grad, env.bounds) for eta in eta_schedule(cfg)])
        assert [len(batch) for batch in seen] == [1, cfg.J - 1]
        assert record.evaluations == cfg.J
        assert np.concatenate(seen).tobytes() == want.tobytes()
        assert np.any(np.abs(want) == 0.5) and np.any(np.abs(want) < 0.5)

    def test_candidates_respect_bounds(self):
        cfg = PlannerConfig(eta_init=10.0, J=3)
        seq = np.array([[0.9]])
        model, reward = FrozenDynamics(), ActionQuadReward(0.95)
        current = rollout(model, reward, np.zeros(1), seq)
        grad = reward_gradient(model, reward, current)
        out, accepted, _, _ = line_search_update(current, grad, model, reward,
                                                 cfg, bounds1)
        assert np.all(out <= 1.0) and np.all(out >= -1.0)

    def test_overflowing_step_clamps_to_bounds_without_warning(self):
        # 1e308 * grad overflows to +-inf, which the projection takes to the
        # bound; a leaked overflow warning fails under the suite's
        # error::RuntimeWarning filter.
        env = make_environment("barrier")
        cfg = PlannerConfig(horizon=10, eta_init=1e308, G=1)
        policy = make_policy("gradient", env.dynamics, env.reward, cfg, env.bounds)
        policy.reset(np.random.default_rng(0))
        out = policy.plan_step(env.start_state)
        assert np.all(np.abs(out.optimal_sequence) <= env.bounds.high)


class TestOptimize:
    def test_stationary_at_global_max(self):
        cfg = PlannerConfig()
        seq = np.array([[0.25]])
        model, reward = FrozenDynamics(), ActionQuadReward(0.25)
        start = rollout(model, reward, np.zeros(1), seq)
        out, trace = optimize(start, model, reward, cfg, bounds1)
        assert out is start
        assert all(not rec.accepted for rec in trace.updates)
        assert trace.final_reward == trace.initial_reward

    def test_quadratic_converges_with_suitable_step(self):
        # eta = 0.4 contracts the distance to the optimum by 0.2 per update.
        cfg = PlannerConfig(eta_init=0.4, G=10)
        seq = np.array([[-0.6]])
        model, reward = FrozenDynamics(), ActionQuadReward(0.3)
        out, trace = optimize(rollout(model, reward, np.zeros(1), seq), model, reward,
                              cfg, bounds1)
        assert abs(out.actions[0, 0] - 0.3) < 1e-3
        assert trace.final_reward >= trace.initial_reward

    def test_monotone_accepted_rewards_on_barrier(self):
        env = make_environment("barrier")
        cfg = PlannerConfig()
        rng = np.random.default_rng(11)
        for _ in range(5):
            seq = np.clip(rng.normal(0, 1, size=(15, 2)), env.bounds.low, env.bounds.high)
            start = rollout(env.dynamics, env.reward, env.start_state, seq)
            out, trace = optimize(start, env.dynamics, env.reward, cfg, env.bounds)
            assert trace.final_reward >= trace.initial_reward
            last = trace.initial_reward
            for rec in trace.updates:
                if rec.accepted:
                    assert rec.reward_after > last
                    last = rec.reward_after
            assert trace.final_reward == out.total_reward
            assert np.all(out.actions >= env.bounds.low)
            assert np.all(out.actions <= env.bounds.high)

    def test_evaluation_accounting(self):
        # Every update of this concave quadratic is accepted at trial 1, so
        # each rolls out one candidate.
        cfg = PlannerConfig(J=8, G=10)
        model, reward = FrozenDynamics(), ActionQuadReward(0.5)
        start = rollout(model, reward, np.zeros(1), np.array([[0.0]]))
        _, trace = optimize(start, model, reward, cfg, bounds1)
        assert [(rec.accepted, rec.trials_used, rec.evaluations)
                for rec in trace.updates] == [(True, 1, 1)] * cfg.G
        assert trace.rollout_evaluations == cfg.G

    def test_evaluation_accounting_stops_at_rejection(self):
        # At the optimum the first update rejects all J trials, and optimize
        # stops there.
        cfg = PlannerConfig(J=8, G=10)
        model, reward = FrozenDynamics(), ActionQuadReward(0.25)
        start = rollout(model, reward, np.zeros(1), np.array([[0.25]]))
        _, trace = optimize(start, model, reward, cfg, bounds1)
        assert [(rec.accepted, rec.trials_used, rec.evaluations)
                for rec in trace.updates] == [(False, cfg.J, cfg.J)]
        assert trace.rollout_evaluations == cfg.J


def all_j_line_search(current, grad, model, reward, cfg, bounds):
    """line_search_update as it was when it rolled out all J candidates
    as one batch and recorded J evaluations per update."""
    seq, s0 = current.actions, current.states[0]
    etas = eta_schedule(cfg)
    candidates = project(seq + np.asarray(etas)[:, None, None] * grad, bounds)
    totals, states, step_rewards = rollout_batch(model, reward, s0, candidates)
    better = np.nonzero(totals > current.total_reward)[0]
    if better.size == 0:
        return seq, False, UpdateRecord(False, cfg.J, 0.0, current.total_reward, cfg.J), current
    j = int(better[0])
    traj = Trajectory(states=states[j], actions=candidates[j],
                      step_rewards=step_rewards[j], total_reward=float(totals[j]))
    return (candidates[j], True,
            UpdateRecord(True, j + 1, etas[j], float(totals[j]), cfg.J), traj)


def full_g_optimize(traj, model, reward, cfg, bounds):
    """optimize as it was when it ran all G updates, rejected ones included."""
    trace = OptimizeTrace(initial_reward=traj.total_reward)
    for _ in range(cfg.G):
        grad = reward_gradient(model, reward, traj)
        _, _, record, traj = line_search_update(traj, grad, model, reward, cfg, bounds)
        trace.updates.append(record)
    trace.final_reward = traj.total_reward
    return traj, trace


def near_upright_starts(n):
    """Cartpole (s0, sequence) pairs near upright, where long steps overshoot:
    updates there are accepted at later trials or rejected."""
    for seed in range(n):
        rng = np.random.default_rng(seed)
        s0 = rng.normal(0.0, [0.1, 0.5, 0.1, 0.5])
        yield s0, np.clip(rng.normal(0.0, 0.3, size=(30, 1)), -1.0, 1.0)


def barrier_starts(n):
    for seed in range(n):
        rng = np.random.default_rng(seed)
        s0 = np.array([-1.0, 0.0]) + rng.normal(0.0, 0.05, size=2)
        yield s0, np.clip(rng.normal(0.0, 0.3, size=(20, 2)), -0.5, 0.5)


class TestStopAtRejection:
    """optimize stops at the first rejected update; the full-G loop is the reference."""

    @pytest.mark.parametrize("case", ["cartpole", "mlp"])
    def test_matches_full_g_loop_bitwise(self, case):
        if case == "cartpole":
            env = make_environment("cartpole")
            model, cfg, starts = env.dynamics, PlannerConfig(G=20), near_upright_starts(16)
        else:   # a random MLP planned against the barrier world's reward
            env = make_environment("barrier")
            model = MlpModel.initialize(2, 2, hidden=(16, 16, 16), rng=np.random.default_rng(0),
                                        out_std=np.full(2, 0.3))
            cfg, starts = PlannerConfig(G=20, eta_init=0.3), barrier_starts(12)
        stopped = 0
        for s0, seq in starts:
            start = rollout(model, env.reward, s0, seq)
            out, trace = optimize(start, model, env.reward, cfg, env.bounds)
            want, want_trace = full_g_optimize(start, model, env.reward, cfg, env.bounds)
            n = len(trace.updates)
            assert out.actions.tobytes() == want.actions.tobytes()
            assert out.states.tobytes() == want.states.tobytes()
            assert trace.final_reward == want_trace.final_reward
            assert trace.initial_reward == want_trace.initial_reward
            assert trace.updates == want_trace.updates[:n]
            assert all(rec.accepted for rec in trace.updates[:-1])
            if n < cfg.G:
                stopped += 1
                # The rejection is a fixed point: every later update repeats it.
                assert not trace.updates[-1].accepted
                assert want_trace.updates[n - 1:] == [trace.updates[-1]] * (cfg.G - n + 1)
        assert stopped >= 2


class TestFirstTrialAlone:
    """line_search_update against the all-J batch it replaced, bit for bit."""

    @pytest.mark.parametrize("name", ["barrier", "cartpole"])
    def test_matches_all_j_batch_bitwise(self, name):
        env = make_environment(name)
        cfg = PlannerConfig()
        kinds = set()
        rng = np.random.default_rng(5)
        for s0, seq in (near_upright_starts if name == "cartpole" else barrier_starts)(12):
            current = rollout(env.dynamics, env.reward, s0, seq)
            grad = reward_gradient(env.dynamics, env.reward, current)
            for direction in (grad, -grad, *rng.normal(0.0, 30.0, size=(3, *seq.shape))):
                got = line_search_update(current, direction, env.dynamics, env.reward,
                                         cfg, env.bounds)
                want = all_j_line_search(current, direction, env.dynamics, env.reward,
                                         cfg, env.bounds)
                (out, accepted, record, traj), (w_out, w_acc, w_rec, w_traj) = got, want
                assert out.tobytes() == w_out.tobytes() and accepted == w_acc
                for field in ("states", "actions", "step_rewards"):
                    assert getattr(traj, field).tobytes() == getattr(w_traj, field).tobytes()
                assert traj.total_reward == w_traj.total_reward
                assert (record.accepted, record.trials_used, record.eta_used,
                        record.reward_after) == (w_rec.accepted, w_rec.trials_used,
                                                 w_rec.eta_used, w_rec.reward_after)
                first = accepted and record.trials_used == 1
                assert record.evaluations == (1 if first else cfg.J)
                kinds.add("first" if first else "later" if accepted else "rejected")
        assert kinds == {"first", "later", "rejected"}


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
            want, want_trace = optimize(
                rollout(env.dynamics, env.reward, env.start_state, start),
                env.dynamics, env.reward, cfg, env.bounds)
            assert np.array_equal(out.optimal_sequence, want.actions)
            assert out.model_reward == want_trace.final_reward
