"""Rewards scored a block at a time against the per-step recipes they replaced.

``rollout_batch`` scores a rollout's rewards after the dynamics loop, on
the whole (B, T) block, and ``reward_gradient`` takes a sweep's reward VJPs
in one call. The per-step loops they replaced are kept here as references,
and the analytic models must match them bit for bit.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest

import trajplan.cem as cem_mod
import trajplan.core as core_mod
import trajplan.gradplanner as gradplanner_mod
from oracles import SCALAR_BACKWARD, assert_bitwise, oracle_sweep, scalar_barrier_backward
from trajplan.cemgd import PlannerState, plan
from trajplan.core import BLOCK_ROWS, DivergedError, PlannerConfig, rollout_batch
from trajplan.dynamics import (BarrierDynamics, BarrierWorld, CartpoleReward, MlpModel,
                               QuadraticGoalReward, make_environment)


def per_step_rollout_batch(model, reward, s0, seqs):
    """The step-then-score loop: one reward call per step, summed as it goes."""
    s0 = np.asarray(s0, dtype=float)
    seqs = np.asarray(seqs, dtype=float)
    B, T, _ = seqs.shape
    states = np.empty((B, T + 1, s0.shape[0]))
    states[:, 0] = s0
    rewards = np.empty((B, T))
    totals = np.zeros(B)
    s = states[:, 0]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for t in range(T):
            a = seqs[:, t]
            s = model.step(s, a)
            states[:, t + 1] = s
            r = reward.reward(s, a)
            rewards[:, t] = r
            totals += r
    return totals, states, rewards


def per_sample_reward_backward(reward, s_next, a):
    """Each reward's VJP on one (d_s,), (d_a,) sample, in Python floats."""
    s = [float(v) for v in s_next]
    if isinstance(reward, CartpoleReward):
        w = reward.world
        grad_s = [-2.0 * w.x_cost * s[0], 0.0, -math.sin(s[2]), 0.0]
        grad_a = [-2.0 * w.action_cost * float(a[0])]
    else:
        grad_s = [-2.0 * (v - float(g)) for v, g in zip(s, reward.goal)]
        grad_a = [-2.0 * reward.action_cost * float(v) for v in a]
    return np.array(grad_s), np.array(grad_a)


def per_step_reward_gradient(model, reward, traj):
    """The sweep with one reward VJP and one dynamics VJP per step, the
    dynamics VJP from the analytic model's scalar reference."""
    reference = SCALAR_BACKWARD[type(model)]
    seq = traj.actions
    grad = np.empty_like(seq)
    state_adjoint = np.zeros(traj.states.shape[1])
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for t in range(seq.shape[0] - 1, -1, -1):
            r_gs, r_ga = per_sample_reward_backward(reward, traj.states[t + 1], seq[t])
            state_adjoint = state_adjoint + r_gs
            f_gs, f_ga = reference(model, traj.states[t], seq[t], state_adjoint)
            grad[t] = r_ga + f_ga
            state_adjoint = f_gs
    return grad


def start_and_actions(env, B, T, seed):
    rng = np.random.default_rng(seed)
    s0 = env.start_state + rng.normal(0.0, 0.1, size=env.start_state.shape)
    return s0, rng.uniform(env.bounds.low, env.bounds.high, size=(B, T, env.bounds.d_a))


@pytest.mark.parametrize("T", [1, 45])
@pytest.mark.parametrize("B", [1, 10, 1000])
@pytest.mark.parametrize("name", ["barrier", "cartpole"])
def test_rollout_matches_per_step_recipe_bitwise(name, B, T):
    env = make_environment(name)
    s0, seqs = start_and_actions(env, B, T, seed=B + T)
    got = rollout_batch(env.dynamics, env.reward, s0, seqs)
    want = per_step_rollout_batch(env.dynamics, env.reward, s0, seqs)
    for g, w in zip(got, want):
        assert_bitwise(g, w)


def test_negative_zero_rewards_sum_to_zero_like_the_per_step_recipe():
    # At the goal with zero actions every step scores -0.0; the per-step
    # loop's 0.0 start makes the total 0.0, not -0.0.
    env = make_environment("barrier")
    s0 = np.array([2.0, 0.0])   # outside the barrier, so the state stays put
    reward = QuadraticGoalReward(s0, action_cost=0.01)
    seqs = np.zeros((3, 5, 2))
    got = rollout_batch(env.dynamics, reward, s0, seqs)
    want = per_step_rollout_batch(env.dynamics, reward, s0, seqs)
    assert np.signbit(got[2]).all()
    for g, w in zip(got, want):
        assert_bitwise(g, w)


@pytest.mark.parametrize("B", [1, 10, 1000])
def test_mlp_rollout_matches_per_step_recipe_to_rounding(B):
    rng = np.random.default_rng(13)
    model = MlpModel.initialize(4, 1, hidden=(32, 32), rng=rng)
    reward = QuadraticGoalReward(np.zeros(4), action_cost=0.01)
    s0 = rng.normal(size=4)
    seqs = rng.uniform(-1.0, 1.0, size=(B, 45, 1))
    got = rollout_batch(model, reward, s0, seqs)
    want = per_step_rollout_batch(model, reward, s0, seqs)
    tol = 1e4 * np.finfo(np.float64).eps
    for g, w in zip(got, want):
        np.testing.assert_allclose(g, w, rtol=tol, atol=tol)


@pytest.mark.parametrize("B", [BLOCK_ROWS, BLOCK_ROWS + 1,
                               2 * BLOCK_ROWS + 1])
@pytest.mark.parametrize("name", ["barrier", "cartpole", "mlp"])
def test_rows_across_reward_blocks_match_rollout(name, B):
    # Every row, in whichever reward block scores it, equals rollout's:
    # bit for bit for the analytic models and to rounding for an MLP
    # (README.md, Determinism). The bound is fixed from float64 (1e4 ulps
    # over 10 steps), not from a measurement.
    if name == "mlp":
        rng = np.random.default_rng(14)
        model = MlpModel.initialize(4, 1, hidden=(32, 32), rng=rng)
        reward = QuadraticGoalReward(np.zeros(4), action_cost=0.01)
        s0, seqs = rng.normal(size=4), rng.uniform(-1.0, 1.0, size=(B, 10, 1))
    else:
        env = make_environment(name)
        model, reward = env.dynamics, env.reward
        s0, seqs = start_and_actions(env, B, 10, seed=B)
        if name == "barrier":
            s0 = np.array([-0.3, 0.0])   # inside the barrier: both branches run
    blocks = []

    def scored(s_next, a):
        blocks.append(len(a))
        return reward.reward(s_next, a)

    got = rollout_batch(model, SimpleNamespace(reward=scored), s0, seqs)
    assert blocks == [min(BLOCK_ROWS, B - lo) for lo in range(0, B, BLOCK_ROWS)]
    tol = 1e4 * np.finfo(np.float64).eps
    for i in range(B):
        traj = core_mod.rollout(model, reward, s0, seqs[i])
        for g, w in zip(got, (traj.total_reward, traj.states, traj.step_rewards)):
            if name == "mlp":
                np.testing.assert_allclose(g[i], w, rtol=tol, atol=tol)
            else:
                assert_bitwise(g[i], w)


def test_non_finite_reward_in_a_second_block_row_names_its_step():
    # One row of the second reward block takes an action at step 7 whose
    # square overflows: its rewards from step 7 on are -inf while its
    # states stay finite, and every other row stays finite.
    env = make_environment("barrier")
    s0, seqs = start_and_actions(env, 2 * BLOCK_ROWS + 1, 10, seed=3)
    row = BLOCK_ROWS + 72
    seqs[row, 7] = 1e200
    with pytest.raises(DivergedError, match="non-finite reward at rollout step 7$") as err:
        rollout_batch(env.dynamics, env.reward, s0, seqs)
    assert err.value.step == 7
    assert np.isfinite(env.dynamics.rollout_states(s0, seqs[row:row + 1])).all()
    others = np.delete(seqs, row, axis=0)
    totals, states, _ = rollout_batch(env.dynamics, env.reward, s0, others)
    assert np.isfinite(totals).all() and np.isfinite(states).all()


@pytest.mark.parametrize("name", ["barrier", "cartpole"])
def test_reward_backward_on_any_leading_shape_is_per_sample_bitwise(name):
    env = make_environment(name)
    rng = np.random.default_rng(21)
    d_s, d_a = env.start_state.shape[0], env.bounds.d_a
    states = rng.normal(0.0, 3.0, size=(6, 7, d_s))
    states[0, :3, -2] = [1e5, -0.0, math.pi]    # far, signed-zero and exact angles
    actions = rng.uniform(env.bounds.low, env.bounds.high, size=(6, 7, d_a))
    for s, a in ((states[2, 3], actions[2, 3]), (states[0], actions[0]), (states, actions)):
        grad_s, grad_a = env.reward.backward(s, a)
        assert grad_s.shape == s.shape and grad_a.shape == a.shape
        flat_s, flat_a = grad_s.reshape(-1, d_s), grad_a.reshape(-1, d_a)
        for i, (si, ai) in enumerate(zip(s.reshape(-1, d_s), a.reshape(-1, d_a))):
            want_s, want_a = per_sample_reward_backward(env.reward, si, ai)
            assert_bitwise(flat_s[i], want_s)
            assert_bitwise(flat_a[i], want_a)


@pytest.mark.parametrize("name", ["barrier", "cartpole"])
def test_reward_gradient_matches_per_step_recipe_bitwise(name):
    env = make_environment(name)
    s0, seqs = start_and_actions(env, 4, 45, seed=5)
    if name == "barrier":
        s0 = np.array([-0.3, 0.0])   # inside the barrier: both VJP branches run
    for seq in seqs:
        traj = core_mod.rollout(env.dynamics, env.reward, s0, seq)
        got = gradplanner_mod.reward_gradient(env.dynamics, env.reward, traj)
        assert_bitwise(got, per_step_reward_gradient(env.dynamics, env.reward, traj))


@pytest.mark.parametrize("fault", ["huge-kappa", "nan-state"])
def test_diverging_barrier_sweep_names_the_default_sweeps_step(fault, monkeypatch):
    # A trajectory that crosses the rim, swept by a model whose rim
    # Jacobian overflows, or with one state turned NaN.
    world = BarrierWorld()
    actions = np.column_stack([np.full(45, 0.5), np.zeros(45)])
    traj = core_mod.rollout(world.dynamics, world.reward, np.array([-0.6, 0.0]),
                            actions)
    model = world.dynamics
    if fault == "huge-kappa":
        model = BarrierWorld(kappa=1e308).dynamics
    else:
        traj.states[30] = np.nan

    def diverged():
        with pytest.raises(DivergedError) as err:
            gradplanner_mod.reward_gradient(model, world.reward, traj)
        return err.value.step, str(err.value)

    got = diverged()
    # The oracle sweep goes in the order every adjoint_sweep follows.
    monkeypatch.setattr(BarrierDynamics, "adjoint_sweep", lambda self, *sweep: oracle_sweep(
        scalar_barrier_backward, self, *sweep))
    assert got == diverged()
    assert got[0] == (29 if fault == "nan-state" else int(np.flatnonzero(
        np.linalg.norm(traj.states[:-1] - world.center, axis=1) < world.radius)[-1]))


def chained_plans(env, s0, cfg, calls=3):
    """(action, model_reward, diagnostics) of ``calls`` plan() calls, each
    from the true next state, as an MPC episode makes them."""
    rng = np.random.default_rng(0)
    state, s, outs = PlannerState(), s0, []
    for _ in range(calls):
        out, state = plan(state, s, env.dynamics, env.reward, cfg, env.bounds, rng)
        outs.append((out.action, out.optimal_sequence, out.model_reward, out.diagnostics))
        s = env.dynamics.step(s, out.action)
    return outs


@pytest.mark.parametrize("name", ["barrier", "cartpole"])
def test_chained_plans_match_per_step_recipes_bitwise(name, monkeypatch):
    env = make_environment(name)
    s0 = np.array([-0.3, 0.0]) if name == "barrier" else env.start_state
    cfg = PlannerConfig(n_init=300, m_init=2, n_r=20, m_r=3, k=2, G=4)
    got = chained_plans(env, s0, cfg)
    for module in (core_mod, cem_mod, gradplanner_mod):
        monkeypatch.setattr(module, "rollout_batch", per_step_rollout_batch)
    monkeypatch.setattr(gradplanner_mod, "reward_gradient", per_step_reward_gradient)
    want = chained_plans(env, s0, cfg)
    for (g_act, g_seq, g_rew, g_diag), (w_act, w_seq, w_rew, w_diag) in zip(got, want):
        assert_bitwise(g_act, w_act)
        assert_bitwise(g_seq, w_seq)
        assert_bitwise(g_rew, w_rew)
        assert g_diag == w_diag
