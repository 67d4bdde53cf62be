import math

import numpy as np
import pytest

from trajplan.dynamics import (MlpModel, collect_random_rollouts, fit_mlp,
                               make_environment, silu, silu_prime)


def zero_weight_model(d_s=3, d_a=2, hidden=(4, 4, 4)):
    sizes = [d_s + d_a, *hidden, d_s]
    weights = [(np.zeros((i, o)), np.zeros(o)) for i, o in zip(sizes[:-1], sizes[1:])]
    return MlpModel(d_s, d_a, weights)


class TestForward:
    def test_silu_anchor(self):
        assert silu(np.array([0.0]))[0] == 0.0
        x = np.array([1.3])
        assert abs(silu(x)[0] - 1.3 / (1.0 + math.exp(-1.3))) < 1e-15

    def test_zero_weights_identity_residual(self):
        model = zero_weight_model()
        s = np.array([0.4, -1.0, 2.0])
        a = np.array([0.1, 0.2])
        assert np.array_equal(model.step(s, a), s)

    def test_hand_computed_two_unit_network(self):
        # d_s = d_a = 1, one hidden pair of 2-unit layers, worked by hand.
        W1 = np.array([[0.5, -1.0], [2.0, 0.25]])   # input [s; a]
        b1 = np.array([0.1, -0.2])
        W2 = np.array([[1.0], [-0.5]])
        b2 = np.array([0.3])
        model = MlpModel(1, 1, [(W1, b1), (W2, b2)])
        s, a = 0.7, -0.4
        pre = np.array([0.5 * s + 2.0 * a + 0.1, -1.0 * s + 0.25 * a - 0.2])
        act = pre / (1.0 + np.exp(-pre)) * 1.0  # silu
        act = pre * (1.0 / (1.0 + np.exp(-pre)))
        out = act[0] * 1.0 + act[1] * -0.5 + 0.3
        got = model.step(np.array([s]), np.array([a]))
        assert abs(got[0] - (s + out)) < 1e-14

    def test_batched_matches_single(self):
        # BLAS may reorder matmul sums between shapes, so this is allclose
        # rather than the bitwise guarantee the analytic models give.
        rng = np.random.default_rng(0)
        model = MlpModel.initialize(3, 2, hidden=(8, 8, 8), rng=rng)
        ss = rng.normal(size=(6, 3))
        aa = rng.normal(size=(6, 2))
        batched = model.step(ss, aa)
        for i in range(6):
            np.testing.assert_allclose(batched[i], model.step(ss[i], aa[i]),
                                       rtol=1e-12, atol=0)


class TestBackward:
    def test_zero_weights_residual_path_only(self):
        model = zero_weight_model()
        g = np.array([1.0, -2.0, 0.5])
        grad_s, grad_a = model.backward(np.zeros(3), np.zeros(2), g)
        assert np.array_equal(grad_s, g)
        assert np.array_equal(grad_a, np.zeros(2))

    def test_silu_prime_formula(self):
        xs = np.linspace(-4, 4, 33)
        h = 1e-6
        num = (silu(xs + h) - silu(xs - h)) / (2 * h)
        np.testing.assert_allclose(silu_prime(xs), num, rtol=0, atol=1e-9)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        model = MlpModel.initialize(3, 2, hidden=(8, 8, 8), rng=rng)
        h = 1e-5
        for _ in range(25):
            s, a, g = rng.normal(size=3), rng.normal(size=2), rng.normal(size=3)
            grad_s, grad_a = model.backward(s, a, g)
            for i in range(3):
                sp, sm = s.copy(), s.copy()
                sp[i] += h
                sm[i] -= h
                num = (model.step(sp, a) - model.step(sm, a)) @ g / (2 * h)
                assert abs(num - grad_s[i]) / max(1.0, abs(num)) < 1e-4
            for j in range(2):
                ap, am = a.copy(), a.copy()
                ap[j] += h
                am[j] -= h
                num = (model.step(s, ap) - model.step(s, am)) @ g / (2 * h)
                assert abs(num - grad_a[j]) / max(1.0, abs(num)) < 1e-4

    def test_linear_activation_matches_matrix_product(self):
        # With the linear test hook the network collapses to W1 @ W2 @ ...
        rng = np.random.default_rng(2)
        model = MlpModel.initialize(2, 1, hidden=(5, 5, 5), rng=rng)
        model.activation = "linear"
        full = np.eye(3)
        for W, _ in model.weights:
            full = full @ W
        g = rng.normal(size=2)
        grad_s, grad_a = model.backward(np.zeros(2), np.zeros(1), g)
        want = full @ g
        np.testing.assert_allclose(grad_s, g + want[:2], rtol=0, atol=1e-12)
        np.testing.assert_allclose(grad_a, want[2:], rtol=0, atol=1e-12)


class TestFit:
    def linear_data(self, n=4000, seed=3):
        rng = np.random.default_rng(seed)
        A = np.array([[0.9, 0.1], [-0.05, 0.95]])
        B = np.array([[0.1, 0.0], [0.05, 0.08]])
        S = rng.normal(0, 1, size=(n, 2))
        U = rng.uniform(-1, 1, size=(n, 2))
        S2 = S @ A.T + U @ B.T
        return S, U, S2

    def test_zero_epochs_returns_initialized_model(self):
        data = self.linear_data(200)
        model, history = fit_mlp(data, epochs=0, hidden=(8, 8, 8), rng=7)
        fresh = MlpModel.initialize(2, 2, hidden=(8, 8, 8), rng=np.random.default_rng(7),
                                    in_mean=model.in_mean, in_std=model.in_std,
                                    out_mean=model.out_mean, out_std=model.out_std)
        for (W, b), (Wf, bf) in zip(model.weights, fresh.weights):
            assert np.array_equal(W, Wf)
            assert np.array_equal(b, bf)
        assert len(history) == 1

    def test_mse_trend_and_heldout_fit(self):
        S, U, S2 = self.linear_data(4000)
        model, history = fit_mlp((S[:3000], U[:3000], S2[:3000]), epochs=350,
                                 lr=2e-2, hidden=(16, 16, 16), rng=4)
        assert history[-1] <= history[0]
        held_X = np.hstack([S[3000:], U[3000:]])
        held_Y = S2[3000:] - S[3000:]
        z = (held_X - model.in_mean) / model.in_std
        yn = (held_Y - model.out_mean) / model.out_std
        assert model.training_mse(z, yn) < 1e-3

    def test_degenerate_target_dimension_warns_and_floors(self):
        rng = np.random.default_rng(5)
        S = rng.normal(size=(100, 2))
        U = rng.normal(size=(100, 1))
        S2 = S.copy()
        S2[:, 0] += 0.5  # constant delta in dim 0, zero variance
        with pytest.warns(UserWarning, match="zero variance"):
            model, _ = fit_mlp((S, U, S2), epochs=0, hidden=(4, 4, 4), rng=6)
        assert model.out_std[0] == 1e-8

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            fit_mlp((np.empty((0, 2)), np.empty((0, 1)), np.empty((0, 2))))


class TestSerialization:
    def trained_tiny_model(self):
        env = make_environment("barrier")
        data = collect_random_rollouts(env.dynamics, env.bounds, env.start_state,
                                       episodes=2, steps=40, rng=8)
        model, _ = fit_mlp(data, epochs=2, hidden=(6, 6, 6), rng=9)
        return model

    def test_binary_round_trip_bit_exact(self, tmp_path):
        model = self.trained_tiny_model()
        path = tmp_path / "model.bin"
        model.save_binary(path)
        loaded = MlpModel.load_binary(path)
        assert loaded.d_s == model.d_s and loaded.d_a == model.d_a
        for arr_a, arr_b in zip(
            [model.in_mean, model.in_std, model.out_mean, model.out_std],
            [loaded.in_mean, loaded.in_std, loaded.out_mean, loaded.out_std],
        ):
            assert np.array_equal(arr_a, arr_b)
        for (W, b), (Wl, bl) in zip(model.weights, loaded.weights):
            assert np.array_equal(W, Wl)
            assert np.array_equal(b, bl)
        s, a = np.array([0.3, 0.2]), np.array([0.1, -0.1])
        assert np.array_equal(model.step(s, a), loaded.step(s, a))

    def test_json_round_trip(self, tmp_path):
        model = self.trained_tiny_model()
        path = tmp_path / "model.json"
        model.save_json(path)
        loaded = MlpModel.load_json(path)
        s, a = np.array([0.3, 0.2]), np.array([0.1, -0.1])
        assert np.array_equal(model.step(s, a), loaded.step(s, a))

    def saved_bytes(self, tmp_path):
        path = tmp_path / "model.bin"
        MlpModel.initialize(2, 2, hidden=(3, 3), rng=0).save_binary(path)
        return path, path.read_bytes()

    def test_unknown_activation_code_names_path(self, tmp_path):
        path, data = self.saved_bytes(tmp_path)
        path.write_bytes(data[:16] + (9).to_bytes(4, "little") + data[20:])
        with pytest.raises(ValueError, match=r"model\.bin: unknown activation code 9"):
            MlpModel.load_binary(path)

    def test_truncated_file_names_path(self, tmp_path):
        path, data = self.saved_bytes(tmp_path)
        for size in (10, 30, len(data) - 8):
            path.write_bytes(data[:size])
            with pytest.raises(ValueError, match=r"model\.bin: truncated model file"):
                MlpModel.load_binary(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path, data = self.saved_bytes(tmp_path)
        path.write_bytes(data + b"\x00")
        with pytest.raises(ValueError, match=r"model\.bin: trailing bytes"):
            MlpModel.load_binary(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ValueError, match="magic"):
            MlpModel.load_binary(path)
