import itertools
import tracemalloc

import numpy as np
import pytest

import trajplan.cem as cem_mod
from oracles import ActionQuadReward
from trajplan.cem import (VARIANCE_FLOOR, SamplingDistribution, run_cem, sample,
                          update_distribution)
from trajplan.core import ActionBounds, default_elite_count, rollout, rollout_batch
from trajplan.dynamics import DynamicsModel, make_environment


class StaticDynamics(DynamicsModel):
    """State never changes; rewards depend on actions only."""

    d_s = d_a = 1

    def step(self, s, a):
        return np.asarray(s, dtype=float).copy()


class ZeroReward:
    """r = 0 for every transition: every sequence ties."""

    def reward(self, s_next, a):
        return np.zeros(np.shape(a)[:-1])


bounds1 = ActionBounds(1.0, 1)


class TestSample:
    def test_zero_variance_collapses_to_projected_mean(self):
        mean = np.array([[0.5], [1.7], [-2.0]])
        dist = SamplingDistribution(mean, np.zeros_like(mean))
        draws = sample(dist, 4, bounds1, np.random.default_rng(0))
        for i in range(4):
            assert np.array_equal(draws[i], np.clip(mean, -1, 1))

    def test_seed_reproducible(self):
        dist = SamplingDistribution.initial(5, 2)
        bounds = ActionBounds(1.0, 2)
        a = sample(dist, 7, bounds, np.random.default_rng(42))
        b = sample(dist, 7, bounds, np.random.default_rng(42))
        assert np.array_equal(a, b)

    def test_in_place_draw_matches_old_formula_bitwise(self):
        # sample scales, shifts and clamps its noise block in place; the draw
        # must equal project(mean + sqrt(variance) * noise) as first written.
        rng = np.random.default_rng(3)
        mean = rng.normal(size=(45, 2))
        variance = rng.uniform(0.0, 2.0, size=(45, 2))
        variance[0] = 0.0
        dist = SamplingDistribution(mean, variance)
        bounds = ActionBounds(1.0, 2)
        got = sample(dist, 100, bounds, np.random.default_rng(11))
        noise = np.random.default_rng(11).standard_normal((100, 45, 2))
        want = np.clip(mean + np.sqrt(variance) * noise, -bounds.limit, bounds.limit)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("limit", [0.5, 1.0, 3.0, 5e-324])
    def test_clamp_matches_np_clip_bitwise(self, limit):
        # The clamp is project's clip with 0-d bounds: bit for bit np.clip on
        # signed zeros, NaN, infinities and subnormals, as the draw's mean
        # makes them (zero variance).
        bounds = ActionBounds(limit, 2)
        values = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 0.3, -2.0, 5e-324, -5e-324]
        mean = np.array(list(itertools.product(values, repeat=2)))
        variance = np.zeros_like(mean)
        variance[::3] = 0.5
        dist = SamplingDistribution(mean, variance)
        with np.errstate(invalid="ignore"):   # 0 * inf in the old formula
            got = sample(dist, 3, bounds, np.random.default_rng(5))
            noise = np.random.default_rng(5).standard_normal((3, *mean.shape))
            want = np.clip(mean + np.sqrt(variance) * noise, -limit, limit)
        assert got.tobytes() == want.tobytes()

    def test_draw_holds_one_buffer(self):
        # The noise block is scaled, shifted and clamped where it was drawn.
        dist = SamplingDistribution.initial(45, 128)
        bounds = ActionBounds(1.0, 128)
        block = 100 * 45 * 128 * 8
        tracemalloc.start()
        try:
            draws = sample(dist, 100, bounds, np.random.default_rng(0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert draws.nbytes == block
        assert peak < 1.5 * block

    def test_draws_respect_bounds(self):
        dist = SamplingDistribution.initial(5, 2)
        bounds = ActionBounds(0.3, 2)
        draws = sample(dist, 50, bounds, np.random.default_rng(1))
        assert np.all(draws >= -0.3) and np.all(draws <= 0.3)

    def test_law_of_large_numbers(self):
        # Interior distribution (clamping inactive): empirical mean within
        # 3 sigma / sqrt(n) of the true mean, entrywise.
        mean = np.array([[0.2, -0.1], [0.0, 0.4]])
        var = np.full((2, 2), 0.25)
        dist = SamplingDistribution(mean, var)
        wide = ActionBounds(10.0, 2)
        n = 100_000
        draws = sample(dist, n, wide, np.random.default_rng(7))
        tol = 3.0 * 0.5 / np.sqrt(n)
        assert np.max(np.abs(draws.mean(axis=0) - mean)) < tol


class TestUpdateDistribution:
    def test_alpha_one_singleton(self):
        dist = SamplingDistribution.initial(3, 1)
        elite = np.full((1, 3, 1), 0.7)
        new = update_distribution(dist, elite, alpha=1.0)
        assert np.array_equal(new.mean, elite[0])
        assert np.all(new.variance == VARIANCE_FLOOR)

    def test_alpha_zero_is_noop(self):
        dist = SamplingDistribution(np.array([[0.5]]), np.array([[0.3]]))
        new = update_distribution(dist, np.ones((4, 1, 1)), alpha=0.0)
        assert np.array_equal(new.mean, dist.mean)
        assert np.array_equal(new.variance, dist.variance)

    def test_matches_brute_force_blend(self):
        rng = np.random.default_rng(3)
        dist = SamplingDistribution(rng.normal(size=(4, 2)),
                                    rng.uniform(0.1, 2.0, size=(4, 2)))
        elites = rng.normal(size=(5, 4, 2))
        alpha = 0.3
        new = update_distribution(dist, elites, alpha)
        # Entrywise oracle with plain Python loops.
        for t in range(4):
            for j in range(2):
                vals = [elites[e, t, j] for e in range(5)]
                mu = sum(vals) / 5
                var = sum((v - mu) ** 2 for v in vals) / 5
                want_mean = (1 - alpha) * dist.mean[t, j] + alpha * mu
                want_var = max((1 - alpha) * dist.variance[t, j] + alpha * var,
                               VARIANCE_FLOOR)
                assert abs(new.mean[t, j] - want_mean) < 1e-12
                assert abs(new.variance[t, j] - want_var) < 1e-12

    @pytest.mark.parametrize("k", [1, 2, 10, 100])
    def test_refit_matches_numpy_mean_and_var_bitwise(self, k):
        # The refit makes the ufunc calls of elites.mean(0) and
        # elites.var(0), so it equals the blend written with them bit for
        # bit, with tied elites and -0.0 entries among them.
        rng = np.random.default_rng(k)
        dist = SamplingDistribution(rng.normal(size=(45, 2)), rng.uniform(0.0, 2.0, (45, 2)))
        dist.mean[:3] = -0.0
        elites = rng.normal(size=(k, 45, 2))
        elites[rng.random(elites.shape) < 0.2] = -0.0
        elites[k // 2:] = elites[0]   # ties
        elites[:, 5] = 0.25           # every elite equal at one step: zero variance
        for alpha in (0.3, 1.0, 0.0):
            new = update_distribution(dist, elites, alpha)
            want_mean = (1.0 - alpha) * dist.mean + alpha * elites.mean(axis=0)
            want_var = np.maximum((1.0 - alpha) * dist.variance + alpha * elites.var(axis=0),
                                  VARIANCE_FLOOR)
            assert new.mean.tobytes() == want_mean.tobytes()
            assert new.variance.tobytes() == want_var.tobytes()

    def test_alpha_one_reproduces_elite_statistics(self):
        rng = np.random.default_rng(4)
        dist = SamplingDistribution(rng.normal(size=(3, 2)),
                                    rng.uniform(0.5, 1.0, size=(3, 2)))
        elites = rng.normal(size=(8, 3, 2))
        new = update_distribution(dist, elites, alpha=1.0)
        np.testing.assert_allclose(new.mean, elites.mean(axis=0), rtol=0, atol=1e-15)
        np.testing.assert_allclose(new.variance,
                                   np.maximum(elites.var(axis=0), VARIANCE_FLOOR),
                                   rtol=0, atol=1e-15)

    def test_empty_elites_rejected(self):
        dist = SamplingDistribution.initial(2, 1)
        with pytest.raises(ValueError):
            update_distribution(dist, np.empty((0, 2, 1)), alpha=0.5)


class TestRunCem:
    def run(self, n, m, top_k, seed=0, horizon=1):
        dist = SamplingDistribution.initial(horizon, 1)
        return run_cem(StaticDynamics(), ActionQuadReward(), np.zeros(1), dist,
                       n, m, 0.1, bounds1, np.random.default_rng(seed), top_k=top_k)

    def test_single_iteration_all_samples_ranked(self):
        n = 6
        pooled = self.run(n=n, m=1, top_k=n)
        # Reproduce the draws: same seed, same consumption order.
        dist = SamplingDistribution.initial(1, 1)
        draws = sample(dist, n, bounds1, np.random.default_rng(0))
        rewards, _, _ = rollout_batch(StaticDynamics(), ActionQuadReward(), np.zeros(1), draws)
        assert len(pooled) == n
        want = sorted(rewards, reverse=True)
        got = [traj.total_reward for traj in pooled]
        assert got == want

    def test_quadratic_optimum_found(self):
        pooled = self.run(n=100, m=10, top_k=1, seed=5)   # 10 elites
        assert abs(pooled[0].actions[0, 0] - 0.3) < 0.05

    def test_best_reward_nondecreasing_in_m(self):
        # Identical seeds share the iteration prefix, so the pooled best
        # is a running maximum.
        rewards = [self.run(n=40, m=m, top_k=1, seed=9)[0].total_reward   # 4 elites
                   for m in (1, 2, 4, 8)]
        assert all(b >= a for a, b in zip(rewards, rewards[1:]))

    def test_top_k_dominates_and_feasible(self):
        pooled = self.run(n=50, m=3, top_k=5, seed=2)   # 5 elites
        top_rewards = [traj.total_reward for traj in pooled]
        assert top_rewards == sorted(top_rewards, reverse=True)
        for traj in pooled:
            assert np.all(traj.actions >= -1.0) and np.all(traj.actions <= 1.0)

    def test_top_k_parameter_truncates(self):
        pooled = self.run(n=50, m=2, top_k=2, seed=2)
        assert len(pooled) == 2

    def test_top_k_is_required(self):
        dist = SamplingDistribution.initial(1, 1)
        with pytest.raises(TypeError, match="top_k"):
            run_cem(StaticDynamics(), ActionQuadReward(), np.zeros(1), dist, 5, 1, 0.1,
                    bounds1, np.random.default_rng(0))

    @pytest.mark.parametrize("top_k", [0, -1])
    def test_top_k_below_one_raises_before_any_rollout(self, monkeypatch, top_k):
        monkeypatch.setattr(cem_mod, "rollout_batch", None)   # must not be called
        with pytest.raises(ValueError, match="^top_k must be at least 1$"):
            self.run(n=5, m=1, top_k=top_k)

    @pytest.mark.parametrize("name", ["barrier", "cartpole"])
    def test_top_k_trajectories_equal_single_rollouts_bitwise(self, name):
        env = make_environment(name)
        dist = SamplingDistribution.initial(6, env.bounds.d_a)
        pooled = run_cem(env.dynamics, env.reward, env.start_state, dist, 50, 3, 0.3,
                         env.bounds, np.random.default_rng(4), top_k=4)   # 5 elites
        assert len(pooled) == 4
        for traj in pooled:
            want = rollout(env.dynamics, env.reward, env.start_state, traj.actions)
            assert traj.states.tobytes() == want.states.tobytes()
            assert traj.step_rewards.tobytes() == want.step_rewards.tobytes()
            assert traj.total_reward == want.total_reward
            # Copied out of the iteration's buffers, which are not kept alive.
            assert traj.states.base is None and traj.actions.base is None

    def test_equal_rewards_keep_the_earliest_samples_across_iterations(self):
        # Every total is 0.0, so no later sample may displace an earlier one.
        dist = SamplingDistribution.initial(2, 1)
        pooled = run_cem(StaticDynamics(), ZeroReward(), np.zeros(1), dist, 5, 3, 0.1,
                         bounds1, np.random.default_rng(7), top_k=3)
        first = sample(dist, 5, bounds1, np.random.default_rng(7))
        assert [traj.actions.tobytes() for traj in pooled] == [seq.tobytes() for seq in first[:3]]
        assert [traj.total_reward for traj in pooled] == [0.0] * 3

    def test_invalid_arguments(self):
        with pytest.raises(ValueError, match="^n must be at least 1$"):
            self.run(n=0, m=1, top_k=1)
        with pytest.raises(ValueError, match="^m must be at least 1$"):
            self.run(n=5, m=0, top_k=1)

    @pytest.mark.parametrize("alpha", [-0.1, 1.5, float("nan")])
    @pytest.mark.parametrize("m", [1, 3])
    def test_invalid_alpha_raises_before_any_rollout(self, monkeypatch, alpha, m):
        # update_distribution's check, made up front: with m = 1 no refit runs.
        monkeypatch.setattr(cem_mod, "rollout_batch", None)   # must not be called
        dist = SamplingDistribution.initial(1, 1)
        with pytest.raises(ValueError, match="alpha must lie in"):
            run_cem(StaticDynamics(), ActionQuadReward(), np.zeros(1), dist, 5, m, alpha,
                    bounds1, np.random.default_rng(0), top_k=1)

    def test_no_refit_after_last_iteration(self, monkeypatch):
        # m - 1 refits, and the result equals the recipe that refit after
        # every iteration, bit for bit (the last refit was never read).
        env = make_environment("barrier")
        refits = []
        real = cem_mod.update_distribution

        def spy(dist, elites, alpha, *args):
            refits.append(elites.copy())
            return real(dist, elites, alpha, *args)

        monkeypatch.setattr(cem_mod, "update_distribution", spy)
        n, m, k_elite = 30, 4, 3   # default_elite_count(30) is 3
        dist = SamplingDistribution.initial(6, 2)
        got = run_cem(env.dynamics, env.reward, env.start_state, dist, n, m, 0.3,
                      env.bounds, np.random.default_rng(3), top_k=2)
        assert len(refits) == m - 1

        rng = np.random.default_rng(3)
        pooled = []
        for it in range(m):   # refit after every iteration, the last included
            seqs = sample(dist, n, env.bounds, rng)
            totals, _, _ = rollout_batch(env.dynamics, env.reward, env.start_state, seqs)
            order = np.argsort(-totals, kind="stable")
            if it < m - 1:
                assert refits[it].tobytes() == seqs[order[:k_elite]].tobytes()
            dist = real(dist, seqs[order[:k_elite]], 0.3)
            pooled += [(float(totals[i]), it * n + int(i), seqs[i]) for i in range(n)]
        pooled.sort(key=lambda entry: (-entry[0], entry[1]))
        assert [traj.total_reward for traj in got] == [r for r, _, _ in pooled[:2]]
        for traj, (_, _, seq) in zip(got, pooled):
            assert traj.actions.tobytes() == seq.tobytes()


def test_default_elite_count():
    assert default_elite_count(10) == 1
    assert default_elite_count(100) == 10
    assert default_elite_count(1000) == 100
    assert default_elite_count(3) == 1


def test_default_elite_count_is_exact_past_the_float_range():
    assert default_elite_count(10**400) == 10**399
