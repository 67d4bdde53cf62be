import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trajplan
from oracles import NegSquaredNorm
from trajplan.core import (REWARD_BLOCK_ROWS, ActionBounds, DivergedError, PlannerConfig,
                           project, rollout, rollout_batch, split_budget)
from trajplan.dynamics import (FLOAT_ROWS, DynamicsModel, MlpModel, QuadraticGoalReward,
                               make_environment)


class PointMass(DynamicsModel):
    """s' = s + a * dt; the simplest differentiable test dynamics."""

    def __init__(self, d=2, dt=0.1):
        self.d_s = self.d_a = d
        self.dt = dt

    def step(self, s, a):
        return np.asarray(s, dtype=float) + self.dt * np.asarray(a, dtype=float)


class ExplodingModel(DynamicsModel):
    d_s = d_a = 1

    def __init__(self, bad_step):
        self.bad_step = bad_step
        self.count = 0

    def step(self, s, a):
        out = np.asarray(s, dtype=float) + 1.0
        if self.count == self.bad_step:
            out = out * np.inf
        self.count += 1
        return out


class RowOverflowModel(DynamicsModel):
    """PointMass whose row 1 overflows to inf at call ``bad_step`` of step."""

    d_s = d_a = 2

    def __init__(self, bad_step):
        self.bad_step = bad_step
        self.count = 0

    def step(self, s, a):
        out = np.asarray(s, dtype=float) + 0.1 * np.asarray(a, dtype=float)
        if self.count == self.bad_step:
            out[1] = out[1] * 1e300 * 1e300   # numpy overflow: warns unless ignored
        self.count += 1
        return out


class RowOverflowReward:
    """NegSquaredNorm whose row 1 overflows to -inf at step ``bad_step``.

    On a (B, T, d) block the step is the block's index along T; called one
    step at a time on (B, d), as the per-step reference loop does, it is
    the call count.
    """

    def __init__(self, bad_step):
        self.bad_step = bad_step
        self.count = 0

    def reward(self, s_next, a):
        r = -np.sum(np.asarray(s_next) ** 2, axis=-1)
        if r.ndim == 2:
            if 0 <= self.bad_step < r.shape[1]:
                r[1, self.bad_step] = r[1, self.bad_step] * 1e300 * 1e300
        elif self.count == self.bad_step:
            r[1] = r[1] * 1e300 * 1e300
        self.count += 1
        return r


def per_step_divergence(model, reward, s0, seqs):
    """The check-every-step rollout loop: (kind, step) of its first failure."""
    s = np.broadcast_to(s0, (seqs.shape[0], s0.shape[0])).copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(seqs.shape[1]):
            s = model.step(s, seqs[:, t])
            if not np.all(np.isfinite(s)):
                return "state", t
            if not np.all(np.isfinite(reward.reward(s, seqs[:, t]))):
                return "reward", t
    return None


unit_bounds = ActionBounds.symmetric(1.0, 2)


class TestProject:
    def test_clamps_above(self):
        seq = np.array([[1.5, 0.3]])
        out = project(seq, unit_bounds)
        assert out[0, 0] == 1.0
        assert out[0, 1] == 0.3

    def test_interior_unchanged(self):
        seq = np.array([[0.3, -0.9]])
        assert np.array_equal(project(seq, unit_bounds), seq)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_idempotent_and_feasible(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 4))
        low = rng.uniform(-2, 0, d)
        high = low + rng.uniform(0, 3, d)
        bounds = ActionBounds(low, high)
        seq = rng.normal(0, 2, size=(int(rng.integers(1, 8)), d))
        once = project(seq, bounds)
        assert np.all(once >= bounds.low) and np.all(once <= bounds.high)
        assert np.array_equal(project(once, bounds), once)

    @pytest.mark.parametrize("low, high", [([-0.5, -0.5], [0.5, 0.5]),
                                           ([-1.0, 0.0], [0.5, 2.0]),
                                           ([-0.0, -0.0], [0.0, 0.0]),
                                           ([0.0, -1.0], [1.0, -0.0])])
    def test_matches_np_clip_bitwise(self, low, high):
        # project is clip's ufunc, with a 0-d bound where a bound is one
        # nonzero float, so it equals np.clip bit for bit: on signed zeros at
        # a zero bound, NaN and infinities, on one sequence and on a batch.
        bounds = ActionBounds(np.array(low), np.array(high))
        values = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 0.3, -2.0, 5e-324]
        seq = np.array(list(itertools.product(values, repeat=2)))
        for x in (seq, np.stack([seq, -seq, seq[::-1]])):
            assert project(x, bounds).tobytes() == np.clip(x, bounds.low, bounds.high).tobytes()
        assert project(seq.tolist(), bounds).tobytes() == project(seq, bounds).tobytes()

    def test_bounds_are_read_only(self):
        # project's clip operands are taken from the bounds once, when they are made.
        bounds = ActionBounds.symmetric(1.0, 2)
        with pytest.raises(ValueError):
            bounds.low[0] = 0.5

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            ActionBounds(np.array([1.0]), np.array([0.0]))
        with pytest.raises(ValueError):
            ActionBounds(np.array([np.inf]), np.array([np.inf]))


class TestRollout:
    def test_zero_actions_fixed_point(self):
        model = PointMass()
        s0 = np.array([0.7, -0.3])
        traj = rollout(model, NegSquaredNorm(), s0, np.zeros((6, 2)))
        assert np.array_equal(traj.states, np.tile(s0, (7, 1)))

    def test_single_step_equals_direct_call(self):
        model = PointMass()
        reward = NegSquaredNorm()
        s0 = np.array([0.5, 0.5])
        a = np.array([[0.2, -0.1]])
        traj = rollout(model, reward, s0, a)
        s1 = model.step(s0, a[0])
        assert np.array_equal(traj.states[1], s1)
        assert traj.total_reward == float(reward.reward(s1, a[0]))

    def test_cartpole_matches_hand_integration(self):
        # Independent scalar recomputation of the discretized dynamics.
        import math

        from trajplan.dynamics import make_environment

        env = make_environment("cartpole")
        actions = np.array([[0.3], [-0.5], [0.1]])
        traj = rollout(env.dynamics, env.reward, env.start_state, actions)

        mc, mp, l, g, dt, fs = 1.0, 0.1, 0.5, 9.8, 0.05, 10.0
        x, v, th, om = 0.0, 0.0, math.pi, 0.0
        for a in (0.3, -0.5, 0.1):
            force = fs * a
            sin, cos = math.sin(th), math.cos(th)
            temp = (force + mp * l * om * om * sin) / (mc + mp)
            th_acc = (g * sin - cos * temp) / (l * (4.0 / 3.0 - mp * cos * cos / (mc + mp)))
            x_acc = temp - mp * l * th_acc * cos / (mc + mp)
            x, v, th, om = x + dt * v, v + dt * x_acc, th + dt * om, om + dt * th_acc
        np.testing.assert_allclose(traj.states[-1], [x, v, th, om], rtol=0, atol=1e-14)

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        model = PointMass()
        s0 = rng.normal(size=2)
        seq = rng.normal(size=(9, 2))
        t1 = rollout(model, NegSquaredNorm(), s0, seq)
        t2 = rollout(model, NegSquaredNorm(), s0, seq)
        assert np.array_equal(t1.states, t2.states)
        assert t1.total_reward == t2.total_reward

    def test_divergence_names_step(self):
        model = ExplodingModel(bad_step=2)
        with pytest.raises(DivergedError) as err:
            rollout(model, NegSquaredNorm(), np.zeros(1), np.zeros((5, 1)))
        assert err.value.step == 2
        assert "step 2" in str(err.value)

    @pytest.mark.parametrize("bad_state,bad_reward,want", [
        (2, None, ("state", 2)),
        (None, 3, ("reward", 3)),
        (2, 2, ("state", 2)),       # a state is checked before its step's reward
        (4, 1, ("reward", 1)),
    ])
    def test_one_row_diverging_named_like_the_per_step_check(self, bad_state,
                                                             bad_reward, want):
        # One finiteness check per rollout, then a rescan: the error must name
        # the same step and kind as checking every step would. The overflow
        # happens in numpy, so a leaked RuntimeWarning fails the test under
        # the suite's error::RuntimeWarning filter.
        s0 = np.array([0.5, -0.5])
        seqs = np.random.default_rng(4).normal(size=(3, 6, 2))

        def parts():
            model = RowOverflowModel(-1 if bad_state is None else bad_state)
            reward = RowOverflowReward(-1 if bad_reward is None else bad_reward)
            return model, reward

        assert per_step_divergence(*parts(), s0, seqs) == want
        kind, step = want
        with pytest.raises(DivergedError) as err:
            rollout_batch(*parts(), s0, seqs)
        assert err.value.step == step
        assert str(err.value) == f"non-finite {kind} at rollout step {step}"

    def test_nonfinite_start_with_finite_steps_passes(self):
        # Only the stepped states are checked, as before: s0 itself is not.
        class Reset(DynamicsModel):
            def step(self, s, a):
                return np.zeros_like(np.asarray(s, dtype=float))

        totals, _, _ = rollout_batch(Reset(), NegSquaredNorm(), np.array([np.nan, 1.0]),
                                     np.zeros((2, 3, 2)))
        assert np.array_equal(totals, [0.0, 0.0])

    @pytest.mark.parametrize("name", ["pointmass", "barrier", "cartpole", "barrier_in_rim"])
    def test_batch_matches_single_bitwise(self, name):
        # Row i of a batch equals rollout(seqs[i]) bit for bit at any batch
        # size for models with elementwise arithmetic (README.md,
        # Determinism). The batch sizes span the barrier's switches at 1 and
        # FLOAT_ROWS rows (BarrierDynamics.rollout_states). barrier_in_rim
        # starts 0.2 from the barrier's centre, within its 0.4 rim, so the
        # steps take the repulsion branch too.
        rng = np.random.default_rng(11)
        if name == "pointmass":
            model, reward, d_a = PointMass(), NegSquaredNorm(), 2
            s0 = rng.normal(size=2)
        else:
            env = make_environment(name.removesuffix("_in_rim"))
            model, reward, d_a = env.dynamics, env.reward, env.bounds.d_a
            start = env.start_state
            if name == "barrier_in_rim":
                start = np.asarray(env.center) + np.array([0.2, 0.0])
            s0 = start + rng.normal(0.0, 0.1, size=start.shape)
        seqs = rng.normal(size=(FLOAT_ROWS + 1, 10, d_a))
        for rows in (7, FLOAT_ROWS, FLOAT_ROWS + 1):
            totals, states, step_rewards = rollout_batch(model, reward, s0, seqs[:rows])
            if name == "barrier_in_rim":
                distance = np.linalg.norm(states - env.center, axis=-1)
                assert (distance < env.radius).sum() > rows
            for i in range(rows):
                traj = rollout(model, reward, s0, seqs[i])
                assert totals[i] == traj.total_reward
                assert states[i].tobytes() == traj.states.tobytes()
                assert step_rewards[i].tobytes() == traj.step_rewards.tobytes()

    @pytest.mark.parametrize("rows", [1, REWARD_BLOCK_ROWS, REWARD_BLOCK_ROWS + 1])
    @pytest.mark.parametrize("steps", [0, 5])
    @pytest.mark.parametrize("name", ["pointmass", "barrier", "cartpole"])
    def test_one_and_more_reward_blocks_match_single_rollouts(self, name, steps, rows):
        # Up to REWARD_BLOCK_ROWS rows are scored by one reward call whose
        # result is kept; more are scored block by block into one buffer.
        # Either way each row equals its own rollout bit for bit, and a
        # rollout of no steps scores nothing.
        rng = np.random.default_rng(rows + steps)
        if name == "pointmass":
            model, reward, d_a, s0 = PointMass(), NegSquaredNorm(), 2, rng.normal(size=2)
        else:
            env = make_environment(name)
            model, reward, d_a, s0 = env.dynamics, env.reward, env.bounds.d_a, env.start_state
        seqs = rng.normal(size=(rows, steps, d_a))
        totals, states, step_rewards = rollout_batch(model, reward, s0, seqs)
        assert step_rewards.shape == (rows, steps) and step_rewards.dtype == np.float64
        for i in range(rows):
            traj = rollout(model, reward, s0, seqs[i])
            assert totals[i].tobytes() == np.float64(traj.total_reward).tobytes()
            assert states[i].tobytes() == traj.states.tobytes()
            assert step_rewards[i].tobytes() == traj.step_rewards.tobytes()
        if not steps:
            assert np.array_equal(totals, np.zeros(rows))
            assert not np.signbit(totals).any()

    def test_mlp_batch_matches_single_to_rounding(self):
        # BLAS may order a row's dot products differently for B=8 than for
        # B=1, so MLP rows agree only to rounding. The bound is fixed from
        # float64 (1e4 ulps over 10 steps), not from a measurement.
        rng = np.random.default_rng(12)
        model = MlpModel.initialize(4, 1, hidden=(200, 200, 200), rng=rng)
        reward = QuadraticGoalReward(np.zeros(4), action_cost=0.01)
        s0 = rng.normal(size=4)
        seqs = rng.normal(size=(8, 10, 1))
        totals, states, _ = rollout_batch(model, reward, s0, seqs)
        tol = 1e4 * np.finfo(np.float64).eps
        for i in range(8):
            traj = rollout(model, reward, s0, seqs[i])
            np.testing.assert_allclose(states[i], traj.states, rtol=tol, atol=tol)
            np.testing.assert_allclose(totals[i], traj.total_reward, rtol=tol)


class TestTotalReward:
    def test_zero(self):
        traj = rollout(PointMass(), NegSquaredNorm(), np.zeros(2), np.zeros((4, 2)))
        assert traj.total_reward == 0.0

    def test_arithmetic(self):
        class CountingReward:
            """Step t of the block scores t + 1."""

            def reward(self, s_next, a):
                steps = np.arange(1.0, s_next.shape[-2] + 1.0)
                return np.zeros(s_next.shape[:-1]) + steps

        traj = rollout(PointMass(), CountingReward(), np.zeros(2), np.zeros((3, 2)))
        assert np.array_equal(traj.step_rewards, [1.0, 2.0, 3.0])
        assert traj.total_reward == 6.0

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_equals_fold_left_sum(self, seed):
        rng = np.random.default_rng(seed)
        traj = rollout(PointMass(), NegSquaredNorm(), rng.normal(size=2),
                       rng.normal(size=(int(rng.integers(1, 30)), 2)))
        acc = 0.0
        for r in traj.step_rewards:
            acc += float(r)
        assert traj.total_reward == acc


class TestPlannerConfig:
    def test_published_defaults(self):
        cfg = PlannerConfig()
        assert cfg.n_init * cfg.m_init == 15000
        assert cfg.n_r * cfg.m_r == 50
        assert (cfg.horizon, cfg.k, cfg.G, cfg.J) == (45, 1, 10, 8)
        assert (cfg.eta_init, cfg.rho) == (0.01, 0.67)

    @pytest.mark.parametrize("kwargs", [
        {"alpha": 0.0}, {"alpha": 1.0}, {"rho": 1.0}, {"eta_init": 0.0},
        {"horizon": 0}, {"k": 0}, {"G": -1},
    ])
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            PlannerConfig(**kwargs)

    @pytest.mark.parametrize("kwargs, budget", [
        ({"k": 2}, "n_r=10"),                          # default elites: 100 at t = 0, 1 after
        ({"k": 2, "n_init": 10, "n_r": 20}, "n_init=10"),
        ({"k": 4, "n_r": 25}, "n_r=25"),                  # ceil(2.5) = 3 elites
    ])
    def test_k_checked_against_both_default_elite_counts(self, kwargs, budget):
        with pytest.raises(ValueError, match=f"^k={kwargs['k']} exceeds the elite "
                                             f"count \\d+ of {budget}$"):
            PlannerConfig(**kwargs)

    def test_k_within_both_default_elite_counts_accepted(self):
        cfg = PlannerConfig(k=2, n_init=20, n_r=11)   # elites: 2 and 2
        assert cfg.k == 2

    @pytest.mark.parametrize("name, value", [
        ("horizon", "3"), ("horizon", 3.5), ("G", True), ("n_init", None), ("k", 1.0),
        ("J", "2"), ("alpha", "0.3"), ("rho", None), ("eta_init", True),
        ("eta_init", 10**400),
    ])
    def test_rejects_mistyped_field_by_name(self, name, value):
        with pytest.raises(ValueError,
                           match=f"^{name} must be (an integer >= [01]|a finite number), got "):
            PlannerConfig(**{name: value})

    @pytest.mark.parametrize("name", ["alpha", "eta_init", "rho"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_float_by_name(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be a finite number, got "):
            PlannerConfig(**{name: value})

    def test_accepts_numpy_integers(self):
        cfg = PlannerConfig(horizon=np.int64(3), eta_init=1)
        assert cfg.horizon == 3


@pytest.mark.parametrize("total,expected", [
    (50, (10, 5)), (500, (100, 5)), (5000, (100, 50)), (15000, (100, 150)),
    (7, (7, 1)),
])
def test_split_budget(total, expected):
    n, m = split_budget(total)
    assert (n, m) == expected
    assert n * m == total


def test_every_public_name_resolves():
    missing = [name for name in trajplan.__all__ if not hasattr(trajplan, name)]
    assert missing == []
