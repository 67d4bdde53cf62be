import itertools
import math
from dataclasses import fields
from functools import partial

import numpy as np
import pytest

from oracles import oracle_sweep, scalar_barrier_backward, scalar_cartpole_backward
from trajplan.dynamics import (FLOAT_ROWS, SMOOTH_EPS, BarrierWorld, CartpoleWorld,
                               DynamicsModel, QuadraticGoalReward, make_environment)


def central_diff_vjp(model, s, a, g, h=1e-5):
    """Finite-difference oracle for (df/ds)^T g and (df/da)^T g."""
    s = np.asarray(s, dtype=float)
    a = np.asarray(a, dtype=float)
    grad_s = np.empty_like(s)
    for i in range(s.shape[0]):
        sp, sm = s.copy(), s.copy()
        sp[i] += h
        sm[i] -= h
        grad_s[i] = (model.step(sp, a) - model.step(sm, a)) @ g / (2 * h)
    grad_a = np.empty_like(a)
    for j in range(a.shape[0]):
        ap, am = a.copy(), a.copy()
        ap[j] += h
        am[j] -= h
        grad_a[j] = (model.step(s, ap) - model.step(s, am)) @ g / (2 * h)
    return grad_s, grad_a


def one_step_vjp(model, s, a, g):
    """The VJPs at the single sample (s, a): a one-step adjoint_sweep."""
    grad_a, grad_s = model.adjoint_sweep(s[None], a[None], g[None])
    return grad_s[0], grad_a[0]


def assert_vjp_close(model, s, a, g, tol):
    got_s, got_a = one_step_vjp(model, s, a, g)
    want_s, want_a = central_diff_vjp(model, s, a, g)
    scale_s = np.maximum(1.0, np.maximum(np.abs(want_s), np.abs(got_s)))
    scale_a = np.maximum(1.0, np.maximum(np.abs(want_a), np.abs(got_a)))
    assert np.max(np.abs(got_s - want_s) / scale_s) < tol
    assert np.max(np.abs(got_a - want_a) / scale_a) < tol


def assert_bitwise(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


class TestBarrier:
    world = BarrierWorld()

    def barrier_force_oracle(self, s):
        # Scalar re-evaluation of the repulsion formula, independent of the
        # vectorized implementation.
        w = self.world
        ux, uy = s[0] - w.center[0], s[1] - w.center[1]
        d = math.sqrt(ux * ux + uy * uy + SMOOTH_EPS**2)
        if d >= w.radius:
            return 0.0, 0.0
        c = w.kappa * (w.radius - d) / d
        return c * ux, c * uy

    def test_outside_no_force(self):
        dyn = self.world.dynamics
        s = np.array([-1.0, 0.0])
        assert np.array_equal(dyn.step(s, np.zeros(2)), s)

    def test_radial_symmetry(self):
        dyn = self.world.dynamics
        s = np.array(self.world.center) + np.array([self.world.radius / 2, 0.0])
        s_next = dyn.step(s, np.zeros(2))
        delta = s_next - s
        assert delta[0] > 0.0
        assert abs(delta[1]) < 1e-12

    def test_matches_scalar_oracle_inside(self):
        dyn = self.world.dynamics
        rng = np.random.default_rng(0)
        for _ in range(20):
            s = np.array(self.world.center) + rng.uniform(-0.35, 0.35, size=2)
            a = rng.uniform(-0.5, 0.5, size=2)
            fx, fy = self.barrier_force_oracle(s)
            want = s + self.world.dt * (a + np.array([fx, fy]))
            np.testing.assert_allclose(dyn.step(s, a), want, rtol=0, atol=1e-15)

    def test_force_vanishes_at_rim(self):
        dyn = self.world.dynamics
        w = self.world
        for frac in (0.9, 0.99, 0.999999):
            s = np.array(w.center) + np.array([w.radius * frac, 0.0])
            force = (dyn.step(s, np.zeros(2)) - s) / w.dt
            assert np.linalg.norm(force) <= w.kappa * (w.radius - w.radius * frac) + 1e-9
        rim = np.array(w.center) + np.array([w.radius * 0.999999, 0.0])
        force = (dyn.step(rim, np.zeros(2)) - rim) / w.dt
        assert np.linalg.norm(force) < 1e-4

    def test_reward_anchors(self):
        reward = self.world.reward
        goal = np.array(self.world.goal)
        assert reward.reward(goal, np.zeros(2)) == 0.0
        world0 = BarrierWorld(action_cost=0.0)
        assert world0.reward.reward(goal + np.array([1.0, 0.0]), np.zeros(2)) == -1.0

    def test_reward_matches_scalar_oracle(self):
        reward = self.world.reward
        rng = np.random.default_rng(1)
        for _ in range(10):
            s, a = rng.normal(size=2), rng.normal(size=2)
            want = -((s[0] - 1.0) ** 2 + s[1] ** 2) - 0.01 * (a[0] ** 2 + a[1] ** 2)
            assert abs(float(reward.reward(s, a)) - want) < 1e-14

    def test_backward_vs_finite_differences(self):
        dyn = self.world.dynamics
        rng = np.random.default_rng(2)
        for _ in range(100):
            s = rng.uniform(-1.0, 1.0, size=2)
            a = rng.uniform(-0.5, 0.5, size=2)
            g = rng.normal(size=2)
            assert_vjp_close(dyn, s, a, g, tol=1e-5)

    def test_center_must_sit_above_line(self):
        with pytest.raises(ValueError):
            BarrierWorld(center=(0.0, 0.0))
        with pytest.raises(ValueError):
            BarrierWorld(center=(0.0, -0.1))


BARRIER_SCALARS = ("radius", "kappa", "dt", "action_limit", "action_cost")
CARTPOLE_SCALARS = ("masscart", "masspole", "half_length", "gravity", "dt", "force_scale",
                    "x_cost", "action_cost", "action_limit")


@pytest.mark.parametrize("world, name", [(BarrierWorld, name) for name in BARRIER_SCALARS]
                         + [(CartpoleWorld, name) for name in CARTPOLE_SCALARS])
@pytest.mark.parametrize("value", ["x", math.nan, -math.inf, True, 10**400])
def test_world_scalars_must_be_finite_numbers(world, name, value):
    with pytest.raises(ValueError, match=f"^{name} must be"):
        world(**{name: value})


@pytest.mark.parametrize("world, name, size", [(BarrierWorld, name, 2)
                                                for name in ("center", "goal", "start")]
                         + [(CartpoleWorld, "start", 4)])
@pytest.mark.parametrize("make", [
    lambda size: "x" * size,                              # a string is not a vector
    lambda size: (0.5,) * (size - 1),
    lambda size: (math.nan,) + (0.5,) * (size - 1),
    lambda size: (0.5,) * (size - 1) + (-math.inf,),
    lambda size: (True,) + (0.5,) * (size - 1),
], ids=["string", "short", "nan", "inf", "bool"])
def test_world_vectors_must_hold_finite_numbers(world, name, size, make):
    with pytest.raises(ValueError, match=f"^{name} must be {size} finite numbers"):
        world(**{name: make(size)})


@pytest.mark.parametrize("radius", [SMOOTH_EPS, SMOOTH_EPS / 10])
def test_radius_must_exceed_the_fixed_smoothing_distance(radius):
    # Every distance is at least SMOOTH_EPS, so a radius at or below it
    # leaves no state within the rim, a world with no barrier.
    with pytest.raises(ValueError, match="^radius must exceed the smoothing distance"):
        BarrierWorld(radius=radius)


def test_smooth_eps_is_not_an_option():
    with pytest.raises(TypeError, match="smooth_eps"):
        BarrierWorld(smooth_eps=1e-6)


class TestCartpole:
    world = CartpoleWorld()

    def test_equilibria(self):
        dyn = self.world.dynamics
        upright = np.array([0.3, 0.0, 0.0, 0.0])
        assert np.array_equal(dyn.step(upright, np.zeros(1)), upright)
        # float sin(pi) is ~1e-16, so the hanging equilibrium holds to roundoff
        hanging = np.array([0.3, 0.0, math.pi, 0.0])
        np.testing.assert_allclose(dyn.step(hanging, np.zeros(1)), hanging,
                                   rtol=0, atol=1e-14)

    def test_matches_scalar_integration(self):
        dyn = self.world.dynamics
        w = self.world
        s = np.array([0.2, -0.1, 2.0, 0.5])
        a = 0.5
        force = w.force_scale * a
        sin, cos = math.sin(s[2]), math.cos(s[2])
        temp = (force + w.masspole * w.half_length * s[3] ** 2 * sin) / (w.masscart + w.masspole)
        th_acc = (w.gravity * sin - cos * temp) / (
            w.half_length * (4.0 / 3.0 - w.masspole * cos**2 / (w.masscart + w.masspole)))
        x_acc = temp - w.masspole * w.half_length * th_acc * cos / (w.masscart + w.masspole)
        want = np.array([s[0] + w.dt * s[1], s[1] + w.dt * x_acc,
                         s[2] + w.dt * s[3], s[3] + w.dt * th_acc])
        np.testing.assert_allclose(dyn.step(s, np.array([a])), want, rtol=0, atol=1e-15)

    def test_reward_anchors(self):
        reward = self.world.reward
        assert float(reward.reward(np.array([0.0, 0.0, 0.0, 0.0]), np.zeros(1))) == 1.0
        assert float(reward.reward(np.array([0.0, 0.0, math.pi, 0.0]), np.zeros(1))) == -1.0

    def test_reward_matches_scalar_oracle(self):
        reward = self.world.reward
        rng = np.random.default_rng(3)
        for _ in range(10):
            s, a = rng.normal(size=4), rng.normal(size=1)
            want = math.cos(s[2]) - 0.05 * s[0] ** 2 - 0.01 * a[0] ** 2
            assert abs(float(reward.reward(s, a)) - want) < 1e-14

    def test_backward_vs_finite_differences(self):
        dyn = self.world.dynamics
        rng = np.random.default_rng(4)
        for _ in range(100):
            s = np.array([rng.uniform(-1, 1), rng.uniform(-2, 2),
                          rng.uniform(-2 * math.pi, 2 * math.pi), rng.uniform(-3, 3)])
            a = rng.uniform(-1, 1, size=1)
            g = rng.normal(size=4)
            assert_vjp_close(dyn, s, a, g, tol=1e-5)

    def test_reward_backward_vs_finite_differences(self):
        reward = self.world.reward
        rng = np.random.default_rng(5)
        h = 1e-6
        for _ in range(20):
            s, a = rng.normal(size=4), rng.normal(size=1)
            gs, ga = reward.backward(s, a)
            for i in range(4):
                sp, sm = s.copy(), s.copy()
                sp[i] += h
                sm[i] -= h
                num = (float(reward.reward(sp, a)) - float(reward.reward(sm, a))) / (2 * h)
                assert abs(num - gs[i]) < 1e-6
            ap, am = a + h, a - h
            num = (float(reward.reward(s, ap)) - float(reward.reward(s, am))) / (2 * h)
            assert abs(num - ga[0]) < 1e-6


def test_environment_registry():
    env = make_environment("barrier")
    assert env.name == "barrier"
    assert env.bounds.d_a == 2
    with pytest.raises(ValueError, match="barrier"):
        make_environment("mujoco-humanoid")


@pytest.mark.parametrize("name, world", [("barrier", BarrierWorld), ("cartpole", CartpoleWorld)])
def test_environment_is_its_world_with_parts_built_once(name, world):
    env = make_environment(name, dt=0.1)
    assert type(env) is world and env == world(dt=0.1) and env.name == name
    parts = ("dynamics", "reward", "bounds", "start_state")
    first = [getattr(env, part) for part in parts]
    assert all(getattr(env, part) is got for part, got in zip(parts, first))
    assert env.dynamics.world is env
    assert np.array_equal(env.start_state, env.start)
    # The parts are attributes, not fields: not options, not compared.
    assert not set(parts) & {f.name for f in fields(world)}


def test_batched_step_matches_single():
    for name in ("barrier", "cartpole"):
        env = make_environment(name)
        rng = np.random.default_rng(6)
        d_s = env.start_state.shape[0]
        ss = rng.normal(size=(12, d_s))
        aa = rng.uniform(env.bounds.low, env.bounds.high, size=(12, env.bounds.d_a))
        batched = env.dynamics.step(ss, aa)
        for i in range(12):
            assert np.array_equal(batched[i], env.dynamics.step(ss[i], aa[i]))
        batched_r = env.reward.reward(ss, aa)
        for i in range(12):
            assert batched_r[i] == env.reward.reward(ss[i], aa[i])


def barrier_rim_states(world):
    """The smoothed centre, and in several directions the pair of states one
    ulp apart on either side of the rim by the distance u @ u computes."""
    center = np.asarray(world.center, dtype=float)

    def inside(s):
        u = s - center
        return math.sqrt(float(u @ u) + SMOOTH_EPS**2) < world.radius

    states = [center.copy()]
    for angle in np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False) + 0.1:
        rho = math.sqrt(world.radius**2 - SMOOTH_EPS**2)
        s = center + rho * np.array([math.cos(angle), math.sin(angle)])
        i = int(np.argmax(np.abs(s - center)))   # walk the longer coordinate
        outward = math.copysign(math.inf, s[i] - center[i])
        while inside(s):
            s[i] = np.nextafter(s[i], outward)
        while not inside(s):
            s[i] = np.nextafter(s[i], -outward)
        beyond = s.copy()
        beyond[i] = np.nextafter(s[i], outward)
        assert not inside(beyond)
        states += [s, beyond]
    return np.array(states)


def assert_bits_or_nans(got, want):
    """Equal shapes, dtypes and bits, but any NaN matches any NaN: numpy and
    Python floats need not make the same NaN payload or sign."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype == np.float64
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got.view(np.uint64)[~nan], want.view(np.uint64)[~nan])


# The second world's scalars round, so an operation order other than the
# batched formula's shows (the default kappa of 8.0 makes exact products).
BARRIER_WORLDS = [
    BarrierWorld(),
    BarrierWorld(center=(0.1, 0.2), radius=0.45, kappa=7.3, dt=0.03),
]


# The batch sizes of the float rollout tests: one row (the float loop
# alone), more than one (running sums, and the float loop for the rows that
# need it), a replan's CEM batch, and the most that take these paths.
FLOAT_BATCHES = (1, 2, 10, FLOAT_ROWS)


class TestBarrierFloatRollout:
    """A batch of at most FLOAT_ROWS rows is rolled out without the batched
    formula: one row by the float loop, more by running sums, with the
    float loop from each row's first step that is not free flight. The
    batched formula, DynamicsModel's default loop over step, is the
    reference they must equal bit for bit. Each given state is the shared
    start of a batch whose first step pairs it with the given actions in
    turn; the later steps carry the float states on."""

    @staticmethod
    def rollouts(rollout_states, s0, actions, steps):
        """rollout_states of every batch size, from s0, its rows starting at
        each action in turn (cyclically)."""
        out = []
        for rows in FLOAT_BATCHES:
            take = np.arange(rows * steps) % len(actions)
            with np.errstate(all="ignore"):   # non-finite states warn in numpy
                out.append(rollout_states(s0, actions[take].reshape(rows, steps, 2)))
        return out

    @staticmethod
    def forbid_the_batched_formula(dyn, monkeypatch):
        def step(s, a):
            raise AssertionError("the float loop took the batched formula")

        monkeypatch.setattr(dyn, "step", step)

    def assert_rollouts_match(self, dyn, states, actions, monkeypatch, steps=3):
        batched = partial(DynamicsModel.rollout_states, dyn)
        want = [self.rollouts(batched, s, np.roll(actions, -i, axis=0), steps)
                for i, s in enumerate(states)]
        self.forbid_the_batched_formula(dyn, monkeypatch)
        for i, s in enumerate(states):
            got = self.rollouts(dyn.rollout_states, s, np.roll(actions, -i, axis=0), steps)
            for g, w in zip(got, want[i]):
                assert_bits_or_nans(g, w)

    @pytest.mark.parametrize("world", BARRIER_WORLDS)
    def test_rim_centre_and_random_states(self, world, monkeypatch):
        rng = np.random.default_rng(21)
        center = np.asarray(world.center)
        ss = np.concatenate([
            barrier_rim_states(world),      # the centre, and one ulp either side of the rim
            center + rng.uniform(-0.6, 0.6, size=(300, 2)),
            [np.nextafter(center, math.inf), np.nextafter(center, -math.inf)],
        ])
        aa = rng.uniform(-0.5, 0.5, size=ss.shape)
        u = ss - center
        inside = np.sqrt(np.add.reduce(u * u, axis=-1) + SMOOTH_EPS**2) < world.radius
        assert inside.any() and not inside.all()
        self.assert_rollouts_match(world.dynamics, ss, aa, monkeypatch)

    def test_signed_zeros(self, monkeypatch):
        # The centre's x is 0.0, so a -0.0 state entry gives u = -0.0 there.
        dyn = BarrierWorld().dynamics
        zeros = list(itertools.product((0.0, -0.0), repeat=2))
        states = zeros + [(x, dyn.world.center[1]) for x in (0.0, -0.0)]
        ss, aa = (np.array(v) for v in zip(*itertools.product(states, zeros)))
        self.assert_rollouts_match(dyn, ss, aa, monkeypatch)

    def test_non_finite_states_and_actions(self, monkeypatch):
        dyn = BarrierWorld().dynamics
        values = (math.nan, math.inf, -math.inf, 0.15, 1e308)
        pairs = np.array(list(itertools.product(values, repeat=2)))
        finite = np.full_like(pairs, 0.1)
        self.assert_rollouts_match(dyn, np.concatenate([pairs, finite]),
                                   np.concatenate([finite, pairs]), monkeypatch)

    def assert_batch_matches(self, dyn, s0, actions, monkeypatch):
        """rollout_states of the (B, T, 2) actions from s0, and of its
        first B' rows for each B' of FLOAT_BATCHES up to B, against the
        batched formula."""
        with np.errstate(all="ignore"):   # non-finite states warn in numpy
            want = DynamicsModel.rollout_states(dyn, s0, actions)
            with monkeypatch.context() as patch:
                self.forbid_the_batched_formula(dyn, patch)
                for rows in {len(actions), *(b for b in FLOAT_BATCHES if b <= len(actions))}:
                    assert_bits_or_nans(dyn.rollout_states(s0, actions[:rows]), want[:rows])

    @staticmethod
    def inside(world, states):
        u = states - np.asarray(world.center)
        d = np.sqrt(u[..., 0] * u[..., 0] + u[..., 1] * u[..., 1] + SMOOTH_EPS**2)
        return d < world.radius

    @pytest.mark.parametrize("world", BARRIER_WORLDS)
    def test_rows_beyond_the_rim_beside_rows_that_enter_leave_and_reenter_it(
            self, world, monkeypatch):
        # From just beyond the rim on its +x side: rows that head away and
        # stay beyond it, rows that head in, out and in again along x, and
        # random rows.
        dyn, rng = world.dynamics, np.random.default_rng(31)
        s0 = np.asarray(world.center) + (world.radius + 0.01, 0.0)
        T, leg = 48, 12
        speed = 0.5 * np.ones(T)
        speed[leg:2 * leg] = speed[3 * leg:] = -0.5
        swing = np.stack([-speed, rng.uniform(-0.01, 0.01, T)], axis=1)
        away = np.stack([0.5 * np.ones(T), rng.uniform(-0.5, 0.5, T)], axis=1)
        actions = np.stack([away, swing, away[::-1], swing * 0.9]
                           + list(rng.uniform(-0.5, 0.5, (FLOAT_ROWS - 4, T, 2))))
        states = DynamicsModel.rollout_states(dyn, s0, actions)
        inside = self.inside(world, states)
        assert not inside[0].any() and not inside[2].any()
        assert (np.diff(inside[1].astype(int)) != 0).sum() >= 3   # enters, leaves, re-enters
        self.assert_batch_matches(dyn, s0, actions, monkeypatch)

    @pytest.mark.parametrize("world", BARRIER_WORLDS)
    def test_rows_that_start_within_the_rim(self, world, monkeypatch):
        rng = np.random.default_rng(32)
        for s0 in (np.asarray(world.center), np.asarray(world.center) + (0.1, -0.2)):
            actions = rng.uniform(-0.5, 0.5, (FLOAT_ROWS, 40, 2))
            assert self.inside(world, s0)
            self.assert_batch_matches(world.dynamics, s0, actions, monkeypatch)

    @pytest.mark.parametrize("world", BARRIER_WORLDS)
    @pytest.mark.parametrize("value", [0.0, -0.0, 1e308, math.inf, -math.inf, math.nan])
    def test_zero_overflowing_or_nan_action_in_a_free_row(self, world, value, monkeypatch):
        rng = np.random.default_rng(33)
        s0 = np.array([3.0, -2.0])
        actions = rng.uniform(-0.5, 0.5, (FLOAT_ROWS, 20, 2))
        actions[:, 8, 0] = value   # each row's x at step 8
        actions[1::2, 8] = value   # and every other row's y too
        assert not self.inside(world, DynamicsModel.rollout_states(world.dynamics, s0,
                                                                   actions[:, :8])).any()
        self.assert_batch_matches(world.dynamics, s0, actions, monkeypatch)

    def test_zero_actions_from_a_signed_zero_start(self, monkeypatch):
        # The centre's x is negative, so from x = -0.0 beyond the rim a
        # step's 0.0*ux is +0.0, and -0.0 + 0.0 is 0.0, not the -0.0 a
        # running sum of a -0.0 action keeps: the one place where a zero
        # action entry makes the running sum differ from step.
        world = BarrierWorld(center=(-1.0, 0.2))
        zeros = np.array(list(itertools.product((0.0, -0.0, 0.25), repeat=2)))
        actions = np.stack([np.roll(zeros, -i, axis=0) for i in range(len(zeros))])
        for s0 in ((-0.0, -2.0), (0.0, -2.0), (-0.0, -0.0)):
            self.assert_batch_matches(world.dynamics, np.asarray(s0), actions, monkeypatch)

    @pytest.mark.parametrize("rows", FLOAT_BATCHES)
    @pytest.mark.parametrize("steps", [0, 1])
    @pytest.mark.parametrize("start", ["beyond", "within"])
    def test_no_and_one_step(self, rows, steps, start, monkeypatch):
        world = BarrierWorld()
        s0 = np.asarray(world.center) + ((1.0, 0.0) if start == "beyond" else (0.1, 0.0))
        actions = np.random.default_rng(34).uniform(-0.5, 0.5, (rows, steps, 2))
        self.assert_batch_matches(world.dynamics, s0, actions, monkeypatch)

    def test_float32_actions(self, monkeypatch):
        # step multiplies float64 actions by dt, so a running sum must too.
        world = BarrierWorld(dt=0.03)
        actions = np.random.default_rng(36).uniform(-0.5, 0.5, (FLOAT_ROWS, 45, 2))
        for s0 in (world.start_state, np.asarray(world.center)):
            self.assert_batch_matches(world.dynamics, s0, actions.astype(np.float32), monkeypatch)

    def test_a_batch_beyond_the_rim_makes_no_float_step(self, monkeypatch):
        world = BarrierWorld()
        dyn, rng = world.dynamics, np.random.default_rng(35)
        batches = [rng.uniform(-0.5, 0.5, (rows, 45, 2)) for rows in FLOAT_BATCHES[1:]]
        want = [DynamicsModel.rollout_states(dyn, world.start_state, a) for a in batches]
        assert not any(self.inside(world, states).any() for states in want)

        def float_steps(starts, seqs):
            raise AssertionError("a free batch took the float loop")

        monkeypatch.setattr(dyn, "_float_steps", float_steps)
        self.forbid_the_batched_formula(dyn, monkeypatch)
        for actions, states in zip(batches, want):
            assert_bitwise(dyn.rollout_states(world.start_state, actions), states)


class TestBarrierAdjointSweep:
    """The barrier's sweep runs on Python floats but for the product within
    the rim. The oracle sweep, the scalar reference chained in the sweep
    order, is what it must equal bit for bit."""

    @staticmethod
    def assert_sweeps_match(dyn, states, actions, state_grads, same=assert_bitwise):
        with np.errstate(all="ignore"):   # non-finite entries warn in numpy
            got = dyn.adjoint_sweep(states, actions, state_grads)
            want = oracle_sweep(scalar_barrier_backward, dyn, states, actions, state_grads)
        for g, w in zip(got, want):
            same(g, w)

    @staticmethod
    def inside(world, states):
        u = states - np.asarray(world.center)
        return np.sqrt(np.vecdot(u, u) + SMOOTH_EPS**2) < world.radius

    @pytest.mark.parametrize("world", BARRIER_WORLDS)
    @pytest.mark.parametrize("start", ["outside", "crossing", "centre"])
    def test_rollouts(self, world, start):
        dyn, reward = world.dynamics, world.reward
        rng = np.random.default_rng(5)
        center = np.asarray(world.center)
        actions = rng.uniform(-0.5, 0.5, size=(45, 2))
        s0 = {"outside": center + (3.0, 0.0), "centre": center,
              "crossing": center - (world.radius + 0.05, 0.1)}[start]
        if start == "crossing":
            actions[:, 0] = 0.5
        states = dyn.rollout_states(s0, actions[None])[0]
        inside = self.inside(world, states[:-1])
        assert {"outside": not inside.any(), "centre": inside[0],
                "crossing": inside.any() and not inside.all()}[start]
        state_grads, _ = reward.backward(states[1:], actions)
        self.assert_sweeps_match(dyn, states[:-1], actions, state_grads)

    @classmethod
    def rim_flips(cls, world, rng, count=10):
        """States by the rim that an elementwise u0*u0 + u1*u1 puts on the
        other side of it than the sweep's ddot does."""
        center = np.asarray(world.center)
        angle = rng.uniform(0.0, 2.0 * np.pi, 20_000)
        rho = math.sqrt(world.radius**2 - SMOOTH_EPS**2)
        s = center + rho * np.column_stack([np.cos(angle), np.sin(angle)])
        s += rng.integers(-3, 4, s.shape) * np.spacing(s)
        u = s - center
        elementwise = np.sqrt(u[:, 0] * u[:, 0] + u[:, 1] * u[:, 1] + SMOOTH_EPS**2)
        flips = s[(elementwise < world.radius) != cls.inside(world, s)][:count]
        assert len(flips) == count
        return flips

    @pytest.mark.parametrize("world", BARRIER_WORLDS)
    def test_rim_and_random_states(self, world):
        rng = np.random.default_rng(21)
        center = np.asarray(world.center)
        states = np.concatenate([barrier_rim_states(world), self.rim_flips(world, rng),
                                 center + rng.uniform(-0.6, 0.6, size=(40, 2))])
        inside = self.inside(world, states)
        assert inside.any() and not inside.all()
        self.assert_sweeps_match(world.dynamics, states, rng.uniform(-0.5, 0.5, states.shape),
                                 rng.normal(0.0, 1.0, states.shape))

    def test_signed_zero_adjoints(self):
        # The centre's x is 0.0, so a -0.0 state entry gives u = -0.0 there.
        dyn = BarrierWorld().dynamics
        zeros = list(itertools.product((0.0, -0.0), repeat=2))
        states = zeros + [(x, dyn.world.center[1]) for x in (0.0, -0.0)] + [(3.0, 0.0)]
        ss, gg = (np.array(v) for v in zip(*itertools.product(states, zeros)))
        self.assert_sweeps_match(dyn, ss, np.zeros_like(ss), gg)

    def test_non_finite_states_and_adjoints(self):
        dyn = BarrierWorld().dynamics
        values = (math.nan, math.inf, -math.inf, 0.15, 1e308)
        pairs = np.array(list(itertools.product(values, repeat=2)))
        within = np.full_like(pairs, 0.1)   # within the rim, so the product sees them
        states, state_grads = np.concatenate([pairs, within]), np.concatenate([within, pairs])
        for order in (slice(None), slice(None, None, -1)):
            self.assert_sweeps_match(dyn, states[order], np.zeros_like(states),
                                     state_grads[order], same=assert_bits_or_nans)

    def test_random_and_rim_states_as_one_trajectory_and_one_step_each(self):
        # Inside the barrier, off it, at the smoothed centre and on the rim.
        env = make_environment("barrier")
        rng = np.random.default_rng(7)
        ss = np.concatenate([env.center + rng.uniform(-0.6, 0.6, size=(2000, 2)),
                             barrier_rim_states(env)])
        aa = rng.uniform(env.bounds.low, env.bounds.high, size=ss.shape)
        gg = rng.normal(size=ss.shape)
        # Signed zero gradients too, which a sweep adds to its adjoint.
        gg[rng.random(gg.shape) < 0.3] = -0.0
        self.assert_sweeps_match(env.dynamics, ss, aa, gg)
        for t in range(len(ss)):
            self.assert_sweeps_match(env.dynamics, ss[t:t + 1], aa[t:t + 1], gg[t:t + 1])

    @pytest.mark.parametrize("world", BARRIER_WORLDS)
    @pytest.mark.parametrize("last_rim_step", ["last", "middle", "none"])
    def test_free_tails(self, world, last_rim_step):
        # The steps after the last one within the rim are swept as a running
        # sum. Their state gradients take every pair of -0.0, 0.0, +-inf,
        # NaN and 1.5, forward and reversed, or are all -0.0 (which the
        # sweep's 0.0 start turns into 0.0).
        rng = np.random.default_rng(41)
        center = np.asarray(world.center)
        values = (-0.0, 0.0, math.inf, -math.inf, math.nan, 1.5)
        pairs = np.array(list(itertools.product(values, repeat=2)))
        T = 12 + len(pairs)
        signs = rng.choice([-1.0, 1.0], (T, 2))
        states = center + signs * rng.uniform(0.5, 1.0, (T, 2))   # beyond the rim
        within = center + rng.uniform(-0.15, 0.15, (12, 2))
        if last_rim_step == "middle":
            states[:12] = within
        elif last_rim_step == "last":
            states[-1] = within[0]
        inside = np.flatnonzero(self.inside(world, states)).tolist()
        assert inside[-1:] == {"last": [T - 1], "middle": [11], "none": []}[last_rim_step]
        actions = rng.uniform(-0.5, 0.5, (T, 2))
        for tail in (pairs, pairs[::-1], np.full((4, 2), -0.0)):
            state_grads = np.concatenate([rng.normal(size=(T - len(tail), 2)), tail])
            self.assert_sweeps_match(world.dynamics, states, actions, state_grads,
                                     same=assert_bits_or_nans)

    @pytest.mark.parametrize("world", BARRIER_WORLDS)
    @pytest.mark.parametrize("first_rim_step", ["first", "second", "middle", "last"])
    def test_free_heads(self, world, first_rim_step):
        # The steps before the first one within the rim are swept as a
        # second running sum, from the adjoint at that step. Their state
        # gradients next to it take every pair of -0.0, 0.0, +-inf, NaN and
        # 1.5, forward and reversed, or are all -0.0, as far as the head
        # steps reach; with the first rim step at 0 there are none, and
        # these gradients are the loop's.
        rng = np.random.default_rng(43)
        center = np.asarray(world.center)
        values = (-0.0, 0.0, math.inf, -math.inf, math.nan, 1.5)
        pairs = np.array(list(itertools.product(values, repeat=2)))
        T = 2 * len(pairs) + 12
        first = {"first": 0, "second": 1, "middle": len(pairs) + 6, "last": T - 1}[first_rim_step]
        signs = rng.choice([-1.0, 1.0], (T, 2))
        states = center + signs * rng.uniform(0.5, 1.0, (T, 2))   # beyond the rim
        states[first:first + 4] = center + rng.uniform(-0.15, 0.15, (min(4, T - first), 2))
        states[first + 1:first + 2] = center + (0.0, 2.0)   # a free step between rim steps
        inside = np.flatnonzero(self.inside(world, states)).tolist()
        assert inside[0] == first and (first_rim_step == "last" or len(inside) == 3)
        actions = rng.uniform(-0.5, 0.5, (T, 2))
        for head in (pairs, pairs[::-1], np.full((4, 2), -0.0)):
            state_grads = rng.normal(size=(T, 2))
            lo = max(first - len(head), 0)
            state_grads[lo:lo + len(head)] = head
            self.assert_sweeps_match(world.dynamics, states, actions, state_grads,
                                     same=assert_bits_or_nans)

    @pytest.mark.parametrize("steps", [0, 1])
    def test_no_and_one_step(self, steps):
        world = BarrierWorld()
        for s in (np.asarray(world.center), world.start_state):
            self.assert_sweeps_match(world.dynamics, np.tile(s, (steps, 1)),
                                     np.full((steps, 2), 0.25), np.full((steps, 2), -0.0))


def cartpole_states_with_rounding_squares(world, rng, pool=100_000, each=40):
    """Wide states where libm's pow(x, 2) and numpy's x*x differ for the
    pole speed, the cosine of its angle or the reference's denominator:
    ``each`` of every kind."""
    theta = rng.uniform(-4.0 * np.pi, 4.0 * np.pi, pool)
    omega = rng.normal(0.0, 4.0, pool)
    cos = np.array([math.cos(x) for x in theta.tolist()])
    total_mass = world.masscart + world.masspole
    denom = np.array([world.half_length * (4.0 / 3.0 - world.masspole * c**2 / total_mass)
                      for c in cos.tolist()])
    rows = []
    for x in (omega, cos, denom):
        differ = np.square(x) != np.array([v**2 for v in x.tolist()])
        rows.append(np.nonzero(differ)[0][:each])
    rows = np.concatenate(rows)
    assert len(rows) == 3 * each
    x, v = rng.normal(0.0, 1.0, len(rows)), rng.normal(0.0, 2.0, len(rows))
    return np.column_stack([x, v, theta[rows], omega[rows]])


class TestCartpoleRollout:
    """The cartpole rolls a batch out on contiguous rows of its own buffer.
    It must equal two references bit for bit, any NaN matching any NaN:
    DynamicsModel's default loop over step, which steps strided columns
    (so numpy's sin and cos must give the same bits on a contiguous row as
    on a strided column), and a loop over stacked_cartpole_step, the
    formula step's kernel was written from (step runs the same kernel, so
    only this one checks the kernel's operations)."""

    world = CartpoleWorld()

    @staticmethod
    def formula_rollout(dyn, s0, actions):
        B, T, _ = actions.shape
        states = np.empty((B, T + 1, 4))
        states[:, 0] = s0
        for t in range(T):
            states[:, t + 1] = stacked_cartpole_step(dyn, states[:, t], actions[:, t])
        return states

    def assert_rollout_matches(self, s0, actions):
        dyn = self.world.dynamics
        with np.errstate(all="ignore"):   # non-finite states warn in numpy
            got = dyn.rollout_states(s0, actions)
            wants = (DynamicsModel.rollout_states(dyn, s0, actions),
                     self.formula_rollout(dyn, s0, actions))
        assert got.shape == (actions.shape[0], actions.shape[1] + 1, 4)
        for want in wants:
            assert_bits_or_nans(got, want)
        assert not np.shares_memory(got, actions)

    # One row, the line search's 7 trials, CEM's 10 and 100 rows and the
    # first plan's 1,000; no step, the true step's one and the paper's 45.
    @pytest.mark.parametrize("rows", [1, 7, 10, 100, 1000])
    @pytest.mark.parametrize("steps", [0, 1, 45])
    def test_wide_random_starts(self, rows, steps):
        rng = np.random.default_rng(rows * 100 + steps)
        starts = np.column_stack([rng.normal(0.0, 1.0, 3), rng.normal(0.0, 2.0, 3),
                                  rng.uniform(-4.0 * np.pi, 4.0 * np.pi, 3),
                                  rng.normal(0.0, 4.0, 3)])
        for s0 in [self.world.start_state, *starts]:
            self.assert_rollout_matches(s0, rng.uniform(-1.0, 1.0, (rows, steps, 1)))

    def test_starts_with_rounding_squares(self):
        rng = np.random.default_rng(8)
        for s0 in cartpole_states_with_rounding_squares(self.world, rng):
            self.assert_rollout_matches(s0, rng.uniform(-1.0, 1.0, (10, 3, 1)))

    def test_signed_zeros(self):
        zeros = np.array(list(itertools.product((0.0, -0.0), repeat=4)))
        actions = np.array([0.0, -0.0, 0.0, -0.0]).reshape(2, 2, 1)
        for s0 in zeros:
            self.assert_rollout_matches(s0, actions)

    def test_overflowing_actions(self):
        rng = np.random.default_rng(9)
        actions = rng.uniform(-1.0, 1.0, (7, 45, 1))
        actions[1:4, ::5] = 1e300
        actions[4:, 2] = -1e300
        self.assert_rollout_matches(self.world.start_state, actions)

    def test_nan_starts(self):
        actions = np.random.default_rng(10).uniform(-1.0, 1.0, (3, 4, 1))
        for i in range(4):
            s0 = np.array(self.world.start_state)
            s0[i] = math.nan
            self.assert_rollout_matches(s0, actions)

    def test_non_contiguous_actions(self):
        rng = np.random.default_rng(11)
        candidates = rng.uniform(-1.0, 1.0, (8, 45, 1))
        wide = rng.uniform(-1.0, 1.0, (10, 90, 2))
        for actions in (candidates[1:], candidates[::2], wide[:, ::2, :1],
                        np.asfortranarray(candidates)):
            self.assert_rollout_matches(self.world.start_state, actions)


class TestCartpoleAdjointSweep:
    """The cartpole's sweep runs on Python floats and calls no BLAS. The
    oracle sweep, the scalar reference chained in the sweep order, is what
    it must equal bit for bit."""

    world = CartpoleWorld()

    def assert_sweep_matches(self, states, actions, state_grads, same=assert_bitwise):
        dyn = self.world.dynamics
        with np.errstate(all="ignore"):   # non-finite entries warn in numpy
            got = dyn.adjoint_sweep(states, actions, state_grads)
            want = oracle_sweep(scalar_cartpole_backward, dyn, states, actions, state_grads)
        for g, w in zip(got, want):
            same(g, w)

    def assert_sweeps_match(self, states, actions, state_grads, same=assert_bitwise):
        # A sweep's accumulated adjoint can round a VJP's last-bit error
        # away, so each state is also swept alone, at its own gradient.
        self.assert_sweep_matches(states, actions, state_grads, same)
        for t in range(len(states)):
            self.assert_sweep_matches(states[t:t + 1], actions[t:t + 1], state_grads[t:t + 1],
                                      same)

    def test_swing_up_rollout(self):
        rng = np.random.default_rng(12)
        actions = rng.uniform(-1.0, 1.0, (45, 1))
        states = self.world.dynamics.rollout_states(self.world.start_state, actions[None])[0]
        state_grads, _ = self.world.reward.backward(states[1:], actions)
        self.assert_sweep_matches(states[:-1], actions, state_grads)

    def test_states_with_rounding_squares_as_one_trajectory_and_one_step_each(self):
        rng = np.random.default_rng(13)
        ss = cartpole_states_with_rounding_squares(self.world, rng)
        aa, gg = rng.uniform(-1.0, 1.0, (len(ss), 1)), rng.normal(size=ss.shape)
        self.assert_sweeps_match(ss, aa, gg)

    def test_wide_states_as_one_trajectory_and_one_step_each(self):
        world = self.world
        rng = np.random.default_rng(7)
        n = 2000
        # Wide pole angles and speeds, and the states whose squares libm
        # rounds otherwise than numpy's x*x (about 0.1% of random ones).
        ss = np.column_stack([rng.normal(0.0, 1.0, n), rng.normal(0.0, 2.0, n),
                              rng.uniform(-4.0 * np.pi, 4.0 * np.pi, n),
                              rng.normal(0.0, 4.0, n)])
        ss = np.concatenate([ss, cartpole_states_with_rounding_squares(world, rng)])
        aa = rng.uniform(world.bounds.low, world.bounds.high, size=(len(ss), world.bounds.d_a))
        gg = rng.normal(size=ss.shape)
        # Signed zeros too: the sums and products must carry their signs as
        # the reference's do.
        gg[rng.random(gg.shape) < 0.3] = -0.0
        self.assert_sweeps_match(ss, aa, gg)

    def test_non_finite_state_gradients_as_one_trajectory_and_one_step_each(self):
        # The states are a rollout's, so finite, but a reward gradient may
        # hold NaN or an infinity in any entry, next to a signed zero or a
        # finite number. A dropped zero term must not turn inf into NaN.
        rng = np.random.default_rng(17)
        values = (math.nan, math.inf, -math.inf, -0.0, 1.5)
        gg = np.array(list(itertools.product(values, repeat=4)))
        actions = rng.uniform(-1.0, 1.0, (len(gg), 1))
        ss = self.world.dynamics.rollout_states(self.world.start_state, actions[None])[0][:-1]
        for order in (slice(None), slice(None, None, -1)):
            self.assert_sweeps_match(ss[order], actions[order], gg[order],
                                     same=assert_bits_or_nans)


# The kernels below were rewritten for speed (ndarray.sum instead of the
# np.sum wrapper, an out= buffer instead of np.stack, the cartpole's fused
# calls on rows). The formulas they were written from are kept here as
# references that the kernels must equal bit for bit.


def stacked_cartpole_step(dyn, s, a):
    w = dyn.world
    s = np.asarray(s, dtype=float)
    force = w.force_scale * np.asarray(a, dtype=float)[..., 0]
    x, v, theta, omega = (s[..., i] for i in range(4))
    sin, cos = np.sin(theta), np.cos(theta)
    total_mass = w.masscart + w.masspole
    pole_ml = w.masspole * w.half_length
    temp = (force + pole_ml * omega**2 * sin) / total_mass
    denom = w.half_length * (4.0 / 3.0 - w.masspole * cos**2 / total_mass)
    theta_acc = (w.gravity * sin - cos * temp) / denom
    x_acc = temp - pole_ml * theta_acc * cos / total_mass
    return np.stack(
        [x + w.dt * v, v + w.dt * x_acc, theta + w.dt * omega, omega + w.dt * theta_acc],
        axis=-1,
    )


def np_sum_barrier_step(dyn, s, a):
    w = dyn.world
    s = np.asarray(s, dtype=float)
    u = s - dyn._center
    d = np.sqrt(np.sum(u * u, axis=-1, keepdims=True) + SMOOTH_EPS**2)
    force = np.where(d < w.radius, w.kappa * (w.radius - d) / d, 0.0) * u
    return s + w.dt * (np.asarray(a, dtype=float) + force)


def np_sum_quadratic_reward(reward, s_next, a):
    err = s_next - reward.goal
    return -np.sum(err * err, axis=-1) - reward.action_cost * np.sum(a * a, axis=-1)


# Thousands of samples: regrouping the cartpole's pole_ml * theta_acc * cos
# changes about one next state in 250.
@pytest.mark.parametrize("shape", [(), (257,), (45, 100)])
def test_kernels_match_reference_formulas_bitwise(shape):
    rng = np.random.default_rng(21)
    for name, reference in (("cartpole", stacked_cartpole_step),
                            ("barrier", np_sum_barrier_step)):
        env = make_environment(name)
        d_s, d_a = env.start_state.shape[0], env.bounds.d_a
        # Wide states reach the barrier's inside and the pole's every angle.
        s = rng.normal(0.0, 3.0, size=shape + (d_s,))
        if name == "barrier":
            s = env.center + rng.uniform(-0.6, 0.6, size=shape + (d_s,))
        a = rng.uniform(env.bounds.low, env.bounds.high, size=shape + (d_a,))
        assert_bitwise(env.dynamics.step(s, a), reference(env.dynamics, s, a))
        if name == "barrier":
            assert_bitwise(env.reward.reward(s, a), np_sum_quadratic_reward(env.reward, s, a))


# Goal lengths on either side of 8, where numpy's reduce over the last axis
# turns from an in-order sum into a pairwise one.
@pytest.mark.parametrize("d", range(1, 10))
def test_quadratic_reward_matches_the_reduce_form_bitwise(d):
    # QuadraticGoalReward sums the squares of fewer than 8 columns column by
    # column: bit for bit np.add.reduce over the last axis, on every
    # leading shape, on lists, and on signed zeros, infinities and NaN.
    rng = np.random.default_rng(d)
    specials = np.array([0.0, -0.0, math.inf, -math.inf, math.nan, 1e200])
    reward = QuadraticGoalReward(rng.normal(size=d), action_cost=0.01)

    def reduce_form(s_next, a):
        err = s_next - reward.goal
        return (-np.add.reduce(err * err, axis=-1)
                - reward.action_cost * np.add.reduce(a * a, axis=-1))

    with np.errstate(all="ignore"):
        for shape in [(d,)] * 20 + [(45, d), (10, 45, d)]:
            s = rng.normal(size=shape)
            a = rng.normal(size=shape[:-1] + (2,))
            np.putmask(s, rng.random(s.shape) < 0.3, rng.choice(specials, s.shape))
            np.putmask(a, rng.random(a.shape) < 0.3, rng.choice(specials, a.shape))
            assert_bitwise(reward.reward(s, a), reduce_form(s, a))
            assert_bitwise(reward.reward(s.tolist(), a), reduce_form(np.array(s), a))
        # A 0-d goal, state and action keep the reduce, over no axis.
        scalar = QuadraticGoalReward(0.5, action_cost=0.01)
        assert_bitwise(scalar.reward(np.array(2.0), np.array(-3.0)),
                       -np.add.reduce(np.array(1.5) ** 2, axis=-1)
                       - 0.01 * np.add.reduce(np.array(9.0), axis=-1))
