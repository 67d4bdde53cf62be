import json
import math
import os
import re
import struct
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from oracles import one_step_vjp, oracle_sweep
import trajplan
import trajplan.dynamics as dynamics_mod
from trajplan.dynamics import (MlpModel, TrainingDivergedError, collect_random_rollouts,
                               fit_mlp, make_environment, silu)


def silu_slope(x):
    """The SiLU slope the recorded pass keeps."""
    return dynamics_mod._silu_and_slope(x)[1]


def zero_weight_model(d_s=3, d_a=2, hidden=(4, 4, 4)):
    sizes = [d_s + d_a, *hidden, d_s]
    weights = [(np.zeros((i, o)), np.zeros(o)) for i, o in zip(sizes[:-1], sizes[1:])]
    return MlpModel(d_s, d_a, weights)


class TestForward:
    def test_silu_anchor(self):
        assert silu(np.array([0.0]))[0] == 0.0
        x = np.array([1.3])
        assert abs(silu(x)[0] - 1.3 / (1.0 + math.exp(-1.3))) < 1e-15

    def test_silu_finite_and_silent_at_extremes(self):
        x = np.array([-1000.0, 1000.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.all(np.isfinite(silu(x)))
            assert np.all(np.isfinite(silu_slope(x)))

    def test_silu_matches_logistic_formula(self):
        # The tanh form of the sigmoid errs by about one ulp of 1, so silu
        # errs by a few ulp of |x|; the bound is fixed from float64, not fitted.
        x = np.linspace(-30.0, 30.0, 6001)
        want = x / (1.0 + np.exp(-x))
        assert np.all(np.abs(silu(x) - want) <= 4 * np.finfo(float).eps * np.abs(x))

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
        grad_s, grad_a = one_step_vjp(model, np.zeros(3), np.zeros(2), g)
        assert np.array_equal(grad_s, g)
        assert np.array_equal(grad_a, np.zeros(2))

    def test_silu_prime_formula(self):
        xs = np.linspace(-4, 4, 33)
        h = 1e-6
        num = (silu(xs + h) - silu(xs - h)) / (2 * h)
        np.testing.assert_allclose(silu_slope(xs), num, rtol=0, atol=1e-9)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        model = MlpModel.initialize(3, 2, hidden=(8, 8, 8), rng=rng)
        h = 1e-5
        for _ in range(25):
            s, a, g = rng.normal(size=3), rng.normal(size=2), rng.normal(size=3)
            grad_s, grad_a = one_step_vjp(model, s, a, g)
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


def per_sample_vjp(model, s, a, g):
    """The MLP's VJP at one (s, a), from a forward pass of that sample alone."""
    z = (np.concatenate([s, a]) - model.in_mean) / model.in_std
    _, pres, _ = old_forward(model, z)
    gh = g * model.out_std
    for i in range(len(model.weights) - 1, -1, -1):
        if i < len(model.weights) - 1:
            gh = gh * old_silu_prime(pres[i])
        gh = gh @ model.weights[i][0].T
    gx = gh / model.in_std
    return np.concatenate([g + gx[: model.d_s], gx[model.d_s :]])


class TestAdjointSweep:
    def test_matches_per_sample_vjp(self):
        rng = np.random.default_rng(4)
        model = MlpModel.initialize(4, 2, hidden=(64, 64, 64), rng=rng,
                                    in_std=rng.uniform(0.5, 2.0, size=6),
                                    out_std=rng.uniform(0.5, 2.0, size=4))
        T = 30
        states, actions = rng.normal(size=(T, 4)), rng.normal(size=(T, 2))
        state_grads = rng.normal(size=(T, 4))
        action_grads, adjoints = model.adjoint_sweep(states, actions, state_grads)
        for t in range(T):
            # The adjoint that step t's VJPs took in the sweep.
            g = state_grads[t] + (adjoints[t + 1] if t + 1 < T else 0.0)
            want = per_sample_vjp(model, states[t], actions[t], g)
            for got in ((adjoints[t], action_grads[t]),
                        one_step_vjp(model, states[t], actions[t], g)):
                err = np.linalg.norm(np.concatenate(got) - want)
                assert err <= 1e-12 * np.linalg.norm(want)


def old_sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def old_silu(x):
    return x * old_sigmoid(x)


def old_silu_prime(x):
    sig = old_sigmoid(x)
    return sig * (1.0 + x * (1.0 - sig))


def old_forward(model, z):
    """MlpModel._forward as first written: ``h @ W + b`` and ``x * sigmoid(x)``."""
    pres, acts = [], [z]
    h = z
    for i, (W, b) in enumerate(model.weights):
        pre = h @ W + b
        if i < len(model.weights) - 1:
            pres.append(pre)
            h = old_silu(pre)
            acts.append(h)
        else:
            h = pre
    return h, pres, acts


def old_linearize(model, states, actions):
    """The MLP's per-step VJPs as first written: a full forward, then
    silu_prime; vjp(t, g) is step t's."""
    x = np.concatenate([states, actions], axis=-1)
    _, pres, _ = old_forward(model, (x - model.in_mean) / model.in_std)
    slopes = [old_silu_prime(pre) for pre in pres]
    layers = [W.T for W, _ in model.weights]

    def vjp(t, g):
        gh = (g * model.out_std) @ layers[-1]
        for slope, W_T in zip(reversed(slopes), reversed(layers[:-1])):
            gh = (gh * slope[t]) @ W_T
        gx = gh / model.in_std
        return g + gx[..., : model.d_s], gx[..., model.d_s :]

    return vjp


def old_value_pass(model, z):
    return old_forward(model, z)[0]


def old_recorded_pass(model, z):
    _, pres, acts = old_forward(model, z)
    return acts, [old_silu_prime(pre) for pre in pres]


def bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


class TestSameBitsAsOldFormulas:
    """The lean SiLU, in-place bias, shared sigmoid and the value and
    recorded passes change no bit."""

    def test_silu_and_slope_bitwise(self):
        rng = np.random.default_rng(0)
        mags = 10.0 ** rng.uniform(-3.0, 3.0, size=200_000)
        tiny = np.finfo(float).tiny
        special = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, tiny, -tiny,
                            1e-300, 1e308, -1e308, 40.0, -40.0, 710.0, -710.0,
                            np.inf, -np.inf, np.nan])
        x = np.concatenate([mags, -mags, special])
        with np.errstate(invalid="ignore", over="ignore"):
            assert np.array_equal(bits(silu(x)), bits(old_silu(x)))
            act, slope = dynamics_mod._silu_and_slope(x)
            assert np.array_equal(bits(act), bits(old_silu(x)))
            assert np.array_equal(bits(slope), bits(old_silu_prime(x)))

    def model(self, rng):
        return MlpModel.initialize(4, 2, hidden=(32, 32, 32), rng=rng,
                                   in_mean=rng.normal(size=6),
                                   in_std=rng.uniform(0.5, 2.0, size=6),
                                   out_mean=rng.normal(size=4),
                                   out_std=rng.uniform(0.5, 2.0, size=4))

    @pytest.mark.parametrize("rows", [None, 1, 10, 30])
    def test_forward_bitwise(self, rows):
        rng = np.random.default_rng(1)
        model = self.model(rng)
        z = rng.normal(size=6 if rows is None else (rows, 6))
        out, (inputs, slopes) = model._value_pass(z), model._recorded_pass(z)
        want_out, (want_inputs, want_slopes) = old_value_pass(model, z), old_recorded_pass(model, z)
        assert bits(out).tobytes() == bits(want_out).tobytes()
        for got, want in ((inputs, want_inputs), (slopes, want_slopes)):
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want]

    def test_adjoint_sweep_bitwise(self):
        rng = np.random.default_rng(2)
        model = self.model(rng)
        T = 30
        states, actions = rng.normal(size=(T, 4)), rng.normal(size=(T, 2))
        state_grads = rng.normal(size=(T, 4))
        vjp = old_linearize(model, states, actions)
        # vjp has recorded the states, so the chain passes each step's index
        # in its state's place.
        want = oracle_sweep(lambda _, t, a, g: vjp(t, g), model, range(T), actions, state_grads)
        got = model.adjoint_sweep(states, actions, state_grads)
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()

    def test_fit_mlp_weights_bitwise(self, monkeypatch):
        env = make_environment("barrier")
        data = collect_random_rollouts(env.dynamics, env.bounds, env.start_state,
                                       episodes=4, steps=50, rng=3)
        got, got_hist = fit_mlp(data, epochs=3, batch_size=32, hidden=(32, 32, 32), rng=4)
        monkeypatch.setattr(dynamics_mod, "silu", old_silu)
        monkeypatch.setattr(dynamics_mod, "_sigmoid", old_sigmoid)
        monkeypatch.setattr(MlpModel, "_value_pass", old_value_pass)
        monkeypatch.setattr(MlpModel, "_recorded_pass", old_recorded_pass)
        want, want_hist = fit_mlp(data, epochs=3, batch_size=32, hidden=(32, 32, 32), rng=4)
        assert got_hist == want_hist
        for (W, b), (Wo, bo) in zip(got.weights, want.weights):
            assert W.tobytes() == Wo.tobytes() and b.tobytes() == bo.tobytes()


class TestMemory:
    def test_value_pass_holds_one_layer_at_a_time(self):
        # A 1000-row step or training MSE at width 200 may hold a few
        # (rows, width) arrays at once (the layer in hand and SiLU's
        # temporaries), not every layer's pre-activation and activation.
        rows, width = 1000, 200
        rng = np.random.default_rng(0)
        model = MlpModel.initialize(4, 2, hidden=(width,) * 3, rng=rng)
        s, a = rng.normal(size=(rows, 4)), rng.normal(size=(rows, 2))
        z, target = rng.normal(size=(rows, 6)), rng.normal(size=(rows, 4))
        for call in (lambda: model.step(s, a), lambda: model.training_mse(z, target)):
            tracemalloc.start()
            try:
                call()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 4 * rows * width * 8


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
            fit_mlp((np.empty((0, 2)), np.empty((0, 1)), np.empty((0, 2))), rng=0)


    def test_rng_is_required(self):
        # An omitted rng would draw from OS entropy and make a run unrepeatable.
        env = make_environment("barrier")
        data = self.linear_data(20)
        calls = [lambda: fit_mlp(data, epochs=0, hidden=(4, 4, 4)),
                 lambda: collect_random_rollouts(env.dynamics, env.bounds, env.start_state,
                                                 episodes=1, steps=2),
                 lambda: MlpModel.initialize(2, 2, hidden=(4, 4, 4))]
        for call in calls:
            with pytest.raises(TypeError, match="'rng'"):
                call()

    def test_diverging_lr_raises_at_first_nonfinite_epoch(self):
        data = self.linear_data(200)
        with pytest.raises(TrainingDivergedError, match="epoch 1 of 30"):
            fit_mlp(data, epochs=30, lr=1e6, hidden=(8, 8, 8), rng=7)
        assert issubclass(TrainingDivergedError, ValueError)


class TestBlasThreads:
    @pytest.mark.blas_kernel
    def test_planned_episode_bitwise_at_1_and_2_threads(self, tmp_path):
        # A desk-budget cemgd episode planned on a 200x3 MLP, in two fresh
        # processes whose only difference is OPENBLAS_NUM_THREADS (1 or 2,
        # set in the child's environment only). The first plan's batch-1000
        # products are large enough for OpenBLAS to split across threads;
        # raw.csv must still match byte for byte without plan_time_s.
        env = make_environment("barrier")
        data = collect_random_rollouts(env.dynamics, env.bounds, env.start_state,
                                       episodes=20, steps=50, rng=0)
        model, _ = fit_mlp(data, epochs=1, rng=0)
        model.save_binary(tmp_path / "model.bin")
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "version": 1,
            "cells": [{"env": "barrier", "planner": "cemgd",
                       "planner_config": {"n_init": 1000, "m_init": 5, "horizon": 30}}],
            "steps": 3, "seeds": [0],
            "models": {"barrier": {"path": str(tmp_path / "model.bin")}},
        }))
        src = str(Path(trajplan.__file__).resolve().parents[1])
        path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        stripped = []
        for threads in ("1", "2"):
            out = tmp_path / f"out{threads}"
            child_env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                             PYTHONPATH=os.pathsep.join(path))
            subprocess.run([sys.executable, "-m", "trajplan.cli", "compare", "--config",
                            str(config), "--out", str(out)], env=child_env, check=True,
                           capture_output=True, timeout=120)
            lines = (out / "raw.csv").read_text().splitlines()
            assert lines[0].split(",")[-1] == "plan_time_s"
            stripped.append([line.rsplit(",", 1)[0] for line in lines])
        assert len(stripped[0]) == 1 + 3
        assert stripped[0] == stripped[1]


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

    def test_binary_header_golden(self, tmp_path):
        path = tmp_path / "model.bin"
        MlpModel.initialize(2, 3, hidden=(5, 4), rng=0).save_binary(path)
        data = path.read_bytes()
        # magic, version 1, d_s, d_a, activation code 0 (SiLU), 3 layers, their shapes
        assert data[:4] == b"TJPM"
        assert struct.unpack_from("<IIIII", data, 4) == (1, 2, 3, 0, 3)
        assert struct.unpack_from("<6I", data, 24) == (5, 5, 5, 4, 4, 2)

    def saved_bytes(self, tmp_path):
        path = tmp_path / "model.bin"
        MlpModel.initialize(2, 2, hidden=(3, 3), rng=0).save_binary(path)
        return path, path.read_bytes()

    def test_unknown_activation_code_names_path(self, tmp_path):
        path, data = self.saved_bytes(tmp_path)
        path.write_bytes(data[:16] + (9).to_bytes(4, "little") + data[20:])
        with pytest.raises(ValueError, match=r"model\.bin: unknown activation code 9"):
            MlpModel.load_binary(path)

    @pytest.mark.parametrize("shapes, problem", [
        ([], "no layers"),
        ([(3, 2)], "layer 0 takes 3 inputs, expected d_s + d_a = 4"),
        ([(4, 8), (7, 2)], "layer 1 takes 7 inputs, expected layer 0's 8 outputs"),
        ([(4, 3)], "the last layer gives 3 outputs, expected d_s = 2"),
        ([(4, 8), (8, 2)], None),
    ], ids=["no-layers", "first-fan-in", "broken-chain", "last-fan-out", "chains"])
    def test_layers_that_do_not_chain_name_path(self, tmp_path, shapes, problem):
        # A right-sized file of a (d_s, d_a) = (2, 2) model with these layer
        # shapes; the last case chains, so loads.
        path = tmp_path / "model.bin"
        header = b"TJPM" + struct.pack("<5I", 1, 2, 2, 0, len(shapes))
        header += b"".join(struct.pack("<II", *shape) for shape in shapes)
        floats = 2 * 4 + 2 * 2 + sum(i * o + o for i, o in shapes)
        path.write_bytes(header + np.ones(floats).tobytes())
        if problem is None:
            assert [W.shape for W, _ in MlpModel.load_binary(path).weights] == shapes
            return
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {problem}')}$"):
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


class TestCollect:
    @pytest.mark.parametrize("name", ["barrier", "cartpole"])
    def test_matches_per_episode_loop(self, name):
        env = make_environment(name)
        rng = np.random.default_rng(10)
        got = collect_random_rollouts(env.dynamics, env.bounds, env.start_state,
                                      episodes=4, steps=25, rng=rng)
        ref_rng = np.random.default_rng(10)
        want = ([], [], [])
        for _ in range(4):
            s = env.start_state
            for a in ref_rng.uniform(env.bounds.low, env.bounds.high,
                                     size=(25, env.bounds.d_a)):
                s_next = env.dynamics.step(s, a)
                for part, value in zip(want, (s, a, s_next)):
                    part.append(value)
                s = s_next
        for part_got, part_want in zip(got, want):
            assert np.array_equal(part_got, np.array(part_want))
        assert rng.bit_generator.state == ref_rng.bit_generator.state
