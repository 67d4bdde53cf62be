"""Differentiable dynamics and reward models.

Two analytic environments (a 2D goal-seeking world with a repulsive
circular barrier, and cartpole swingup) plus a small deterministic MLP
dynamics model trained on random-rollout transitions.

Every dynamics model exposes

    step(s, a) -> s_next
    backward(s, a, grad_next) -> (grad_s, grad_a)

where backward computes the vector-Jacobian products of step. Reward
models expose reward(s_next, a) and backward(s_next, a). step and reward
accept a single sample or a batch stacked along a leading axis; backward
operates on single samples. All models are pure functions of their inputs
and safe to call concurrently.
"""

from __future__ import annotations

import math
import struct
import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import ActionBounds, Array

STD_FLOOR = 1e-8


class DynamicsModel:
    """Interface: differentiable dynamics f(s, a) -> s'."""

    d_s: int
    d_a: int

    def step(self, s: Array, a: Array) -> Array:
        raise NotImplementedError

    def backward(self, s: Array, a: Array, grad_next: Array) -> tuple[Array, Array]:
        """VJPs (df/ds)^T grad_next and (df/da)^T grad_next at (s, a)."""
        raise NotImplementedError


class RewardModel:
    """Interface: known reward r(s_next, a) with gradients."""

    def reward(self, s_next: Array, a: Array):
        raise NotImplementedError

    def backward(self, s_next: Array, a: Array) -> tuple[Array, Array]:
        raise NotImplementedError


class QuadraticGoalReward(RewardModel):
    """-(distance to goal)^2 - action_cost * |a|^2, maximal at the goal."""

    def __init__(self, goal, action_cost: float = 0.0):
        self.goal = np.asarray(goal, dtype=float)
        self.action_cost = float(action_cost)

    def reward(self, s_next, a):
        err = s_next - self.goal
        # np.add.reduce is np.sum without its Python-level wrappers.
        return (-np.add.reduce(err * err, axis=-1)
                - self.action_cost * np.add.reduce(a * a, axis=-1))

    def backward(self, s_next, a):
        return -2.0 * (s_next - self.goal), -2.0 * self.action_cost * np.asarray(a, dtype=float)


# ---------------------------------------------------------------------------
# Barrier world


@dataclass(frozen=True)
class BarrierWorld:
    """2D velocity-controlled agent, repulsive circular barrier, quadratic goal reward.

    The barrier center sits strictly above the start-goal line so the path
    below it is shorter than the path above; the force is radial, fades to
    zero at the rim, and is smoothed near the center so gradients stay
    defined everywhere.
    """

    center: tuple[float, float] = (0.0, 0.15)
    radius: float = 0.4
    kappa: float = 8.0
    goal: tuple[float, float] = (1.0, 0.0)
    dt: float = 0.05
    start: tuple[float, float] = (-1.0, 0.0)
    action_limit: float = 0.5
    action_cost: float = 0.01
    smooth_eps: float = 1e-6

    def __post_init__(self):
        if not self.center[1] > 0.0:
            raise ValueError("barrier center must sit strictly above y = 0")
        if self.radius <= 0.0 or self.kappa <= 0.0 or self.dt <= 0.0:
            raise ValueError("radius, kappa and dt must be positive")
        if self.action_cost < 0.0:
            raise ValueError("action_cost must be nonnegative")

    def dynamics(self) -> "BarrierDynamics":
        return BarrierDynamics(self)

    def reward_model(self) -> QuadraticGoalReward:
        return QuadraticGoalReward(self.goal, self.action_cost)

    def bounds(self) -> ActionBounds:
        return ActionBounds.symmetric(self.action_limit, 2)

    def start_state(self) -> Array:
        return np.asarray(self.start, dtype=float)


class BarrierDynamics(DynamicsModel):
    """s' = s + a*dt + F_rep(s)*dt with a radial in-barrier repulsion force."""

    d_s = 2
    d_a = 2

    def __init__(self, world: BarrierWorld):
        self.world = world
        self._center = np.asarray(world.center, dtype=float)

    def _force(self, s):
        w = self.world
        u = s - self._center
        d = np.sqrt(np.add.reduce(u * u, axis=-1, keepdims=True) + w.smooth_eps**2)
        coeff = np.where(d < w.radius, w.kappa * (w.radius - d) / d, 0.0)
        return coeff * u

    def step(self, s, a):
        s = np.asarray(s, dtype=float)
        return s + self.world.dt * (np.asarray(a, dtype=float) + self._force(s))

    def backward(self, s, a, grad_next):
        w = self.world
        s = np.asarray(s, dtype=float)
        grad_next = np.asarray(grad_next, dtype=float)
        u = s - self._center
        d = math.sqrt(float(u @ u) + w.smooth_eps**2)
        grad_s = grad_next.copy()
        if d < w.radius:
            # dF/ds = c*I - (kappa*r/d^3) u u^T with c = kappa*(r - d)/d;
            # symmetric, so the VJP is a plain matrix-vector product.
            c = w.kappa * (w.radius - d) / d
            jac_f = c * np.eye(2) - (w.kappa * w.radius / d**3) * np.outer(u, u)
            grad_s = grad_s + w.dt * (jac_f @ grad_next)
        grad_a = w.dt * grad_next
        return grad_s, grad_a


# ---------------------------------------------------------------------------
# Cartpole swingup


@dataclass(frozen=True)
class CartpoleWorld:
    """Cart-pole with the pole starting straight down; reward favors upright.

    State is (x, x_dot, theta, theta_dot) with theta = 0 upright and left
    unwrapped so the dynamics are smooth. One explicit-Euler step of the
    standard equations of motion per step; the action scales to a
    horizontal force on the cart.
    """

    masscart: float = 1.0
    masspole: float = 0.1
    half_length: float = 0.5
    gravity: float = 9.8
    dt: float = 0.05
    force_scale: float = 10.0
    x_cost: float = 0.05
    action_cost: float = 0.01
    action_limit: float = 1.0
    start: tuple[float, float, float, float] = (0.0, 0.0, math.pi, 0.0)

    def dynamics(self) -> "CartpoleDynamics":
        return CartpoleDynamics(self)

    def reward_model(self) -> "CartpoleReward":
        return CartpoleReward(self)

    def bounds(self) -> ActionBounds:
        return ActionBounds.symmetric(self.action_limit, 1)

    def start_state(self) -> Array:
        return np.asarray(self.start, dtype=float)


class CartpoleDynamics(DynamicsModel):
    d_s = 4
    d_a = 1

    def __init__(self, world: CartpoleWorld):
        self.world = world

    def _accelerations(self, theta, omega, force):
        w = self.world
        sin = np.sin(theta)
        cos = np.cos(theta)
        total_mass = w.masscart + w.masspole
        pole_ml = w.masspole * w.half_length
        temp = (force + pole_ml * omega**2 * sin) / total_mass
        denom = w.half_length * (4.0 / 3.0 - w.masspole * cos**2 / total_mass)
        theta_acc = (w.gravity * sin - cos * temp) / denom
        x_acc = temp - pole_ml * theta_acc * cos / total_mass
        return x_acc, theta_acc

    def step(self, s, a):
        w = self.world
        s = np.asarray(s, dtype=float)
        force = w.force_scale * np.asarray(a, dtype=float)[..., 0]
        x, v, theta, omega = s[..., 0], s[..., 1], s[..., 2], s[..., 3]
        x_acc, theta_acc = self._accelerations(theta, omega, force)
        out = np.empty(np.shape(x_acc) + (4,))
        np.add(x, w.dt * v, out=out[..., 0])
        np.add(v, w.dt * x_acc, out=out[..., 1])
        np.add(theta, w.dt * omega, out=out[..., 2])
        np.add(omega, w.dt * theta_acc, out=out[..., 3])
        return out

    def backward(self, s, a, grad_next):
        w = self.world
        s = np.asarray(s, dtype=float)
        g = np.asarray(grad_next, dtype=float)
        theta, omega = float(s[2]), float(s[3])
        force = w.force_scale * float(np.asarray(a).reshape(-1)[0])

        sin, cos = math.sin(theta), math.cos(theta)
        total_mass = w.masscart + w.masspole
        pole_ml = w.masspole * w.half_length
        temp = (force + pole_ml * omega**2 * sin) / total_mass
        denom = w.half_length * (4.0 / 3.0 - w.masspole * cos**2 / total_mass)
        num = w.gravity * sin - cos * temp
        theta_acc = num / denom

        dtemp_dtheta = pole_ml * omega**2 * cos / total_mass
        dtemp_domega = 2.0 * pole_ml * omega * sin / total_mass
        dtemp_dforce = 1.0 / total_mass
        ddenom_dtheta = w.half_length * 2.0 * w.masspole * cos * sin / total_mass
        dnum_dtheta = w.gravity * cos + sin * temp - cos * dtemp_dtheta
        dtheta_acc_dtheta = (dnum_dtheta * denom - num * ddenom_dtheta) / denom**2
        dtheta_acc_domega = (-cos * dtemp_domega) / denom
        dtheta_acc_dforce = (-cos * dtemp_dforce) / denom
        ml_over_mass = pole_ml / total_mass
        dx_acc_dtheta = dtemp_dtheta - ml_over_mass * (dtheta_acc_dtheta * cos - theta_acc * sin)
        dx_acc_domega = dtemp_domega - ml_over_mass * dtheta_acc_domega * cos
        dx_acc_dforce = dtemp_dforce - ml_over_mass * dtheta_acc_dforce * cos

        dt = w.dt
        jac_s = np.array(
            [
                [1.0, dt, 0.0, 0.0],
                [0.0, 1.0, dt * dx_acc_dtheta, dt * dx_acc_domega],
                [0.0, 0.0, 1.0, dt],
                [0.0, 0.0, dt * dtheta_acc_dtheta, 1.0 + dt * dtheta_acc_domega],
            ]
        )
        jac_a = np.array([0.0, dt * dx_acc_dforce, 0.0, dt * dtheta_acc_dforce]) * w.force_scale
        return jac_s.T @ g, np.array([jac_a @ g])


class CartpoleReward(RewardModel):
    """cos(theta) - x_cost * x^2 - action_cost * a^2, maximal upright and centered."""

    def __init__(self, world: CartpoleWorld):
        self.world = world

    def reward(self, s_next, a):
        w = self.world
        a = np.asarray(a, dtype=float)[..., 0]
        return np.cos(s_next[..., 2]) - w.x_cost * s_next[..., 0] ** 2 - w.action_cost * a**2

    def backward(self, s_next, a):
        w = self.world
        grad_s = np.zeros(4)
        grad_s[0] = -2.0 * w.x_cost * float(s_next[0])
        grad_s[2] = -math.sin(float(s_next[2]))
        grad_a = np.array([-2.0 * w.action_cost * float(np.asarray(a).reshape(-1)[0])])
        return grad_s, grad_a


# ---------------------------------------------------------------------------
# MLP dynamics model


def _sigmoid(x):
    # tanh is bounded, so no input overflows and no sign branch is needed.
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def silu(x: Array) -> Array:
    """x * sigmoid(x)."""
    return x * _sigmoid(x)


def silu_prime(x: Array) -> Array:
    """sigmoid(x) * (1 + x * (1 - sigmoid(x)))."""
    sig = _sigmoid(x)
    return sig * (1.0 + x * (1.0 - sig))


_MLP_MAGIC = b"TJPM"
_MLP_VERSION = 1
_MLP_SILU = 0   # the only activation code in the file format


class MlpModel(DynamicsModel):
    """Residual MLP dynamics: step(s, a) = s + denormalize(net(normalize([s; a]))).

    The network predicts the state delta; inputs and targets are
    standardized with statistics stored on the model. Every hidden layer
    applies SiLU; the output layer is linear.
    """

    def __init__(self, d_s, d_a, weights, in_mean=None, in_std=None,
                 out_mean=None, out_std=None):
        self.d_s = int(d_s)
        self.d_a = int(d_a)
        self.weights = [(np.asarray(W, dtype=float), np.asarray(b, dtype=float))
                        for W, b in weights]
        d_in = self.d_s + self.d_a
        self.in_mean = np.zeros(d_in) if in_mean is None else np.asarray(in_mean, dtype=float)
        self.in_std = np.ones(d_in) if in_std is None else np.asarray(in_std, dtype=float)
        self.out_mean = np.zeros(self.d_s) if out_mean is None else np.asarray(out_mean, dtype=float)
        self.out_std = np.ones(self.d_s) if out_std is None else np.asarray(out_std, dtype=float)

    @classmethod
    def initialize(cls, d_s, d_a, hidden=(200, 200, 200), rng=None, **stats):
        """Fresh model with scaled-Gaussian weights and zero biases."""
        rng = np.random.default_rng(rng)
        sizes = [d_s + d_a, *hidden, d_s]
        weights = []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            W = rng.normal(0.0, math.sqrt(2.0 / fan_in), size=(fan_in, fan_out))
            weights.append((W, np.zeros(fan_out)))
        return cls(d_s, d_a, weights, **stats)

    def _forward(self, z):
        """Forward pass on normalized input; returns (output, pre-activations, activations)."""
        pres, acts = [], [z]
        h = z
        for i, (W, b) in enumerate(self.weights):
            pre = h @ W + b
            if i < len(self.weights) - 1:
                pres.append(pre)
                h = silu(pre)
                acts.append(h)
            else:
                h = pre
        return h, pres, acts

    def predict_delta(self, s, a):
        x = np.concatenate([np.asarray(s, dtype=float), np.asarray(a, dtype=float)], axis=-1)
        z = (x - self.in_mean) / self.in_std
        y, _, _ = self._forward(z)
        return self.out_mean + self.out_std * y

    def step(self, s, a):
        return np.asarray(s, dtype=float) + self.predict_delta(s, a)

    def backward(self, s, a, grad_next):
        g = np.asarray(grad_next, dtype=float)
        x = np.concatenate([np.asarray(s, dtype=float), np.asarray(a, dtype=float)], axis=-1)
        z = (x - self.in_mean) / self.in_std
        _, pres, _ = self._forward(z)
        gh = g * self.out_std
        for i in range(len(self.weights) - 1, -1, -1):
            W, _ = self.weights[i]
            if i < len(self.weights) - 1:
                gh = gh * silu_prime(pres[i])
            gh = gh @ W.T
        gx = gh / self.in_std
        grad_s = g + gx[..., : self.d_s]
        grad_a = gx[..., self.d_s :]
        return grad_s, grad_a

    def _loss_and_grads(self, z, target):
        """Mean squared error on normalized targets plus parameter gradients."""
        pred, pres, acts = self._forward(z)
        err = pred - target
        loss = float(np.mean(err * err))
        gh = 2.0 * err / err.size
        grads = [None] * len(self.weights)
        for i in range(len(self.weights) - 1, -1, -1):
            W, _ = self.weights[i]
            grads[i] = (acts[i].T @ gh, gh.sum(axis=0))
            if i > 0:
                gh = (gh @ W.T) * silu_prime(pres[i - 1])
        return loss, grads

    def training_mse(self, z, target):
        pred, _, _ = self._forward(z)
        err = pred - target
        return float(np.mean(err * err))

    # -- serialization ------------------------------------------------------

    def save_binary(self, path):
        """Write the model to a flat binary file (bit-exact round trip)."""
        with open(path, "wb") as f:
            f.write(_MLP_MAGIC)
            f.write(struct.pack("<IIIII", _MLP_VERSION, self.d_s, self.d_a,
                                _MLP_SILU, len(self.weights)))
            for W, _ in self.weights:
                f.write(struct.pack("<II", W.shape[0], W.shape[1]))
            for arr in (self.in_mean, self.in_std, self.out_mean, self.out_std):
                f.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
            for W, b in self.weights:
                f.write(np.ascontiguousarray(W, dtype="<f8").tobytes())
                f.write(np.ascontiguousarray(b, dtype="<f8").tobytes())

    @classmethod
    def load_binary(cls, path):
        """Read a save_binary file; a malformed file raises ValueError naming it."""
        with open(path, "rb") as f:
            data = f.read()
        if data[:4] != _MLP_MAGIC:
            raise ValueError(f"{path}: not a model file (bad magic)")
        try:
            version, d_s, d_a, act_code, n_layers = struct.unpack_from("<IIIII", data, 4)
            if version != _MLP_VERSION:
                raise ValueError(f"{path}: unsupported format version {version}")
            shapes = [struct.unpack_from("<II", data, 24 + 8 * i) for i in range(n_layers)]
        except struct.error:
            raise ValueError(f"{path}: truncated model file ({len(data)} bytes)") from None
        if act_code != _MLP_SILU:
            raise ValueError(f"{path}: unknown activation code {act_code}")
        d_in = d_s + d_a
        offset = 24 + 8 * n_layers
        expected = offset + 8 * (2 * d_in + 2 * d_s + sum(i * o + o for i, o in shapes))
        if len(data) != expected:
            problem = "truncated model file" if len(data) < expected else "trailing bytes"
            raise ValueError(f"{path}: {problem} ({len(data)} bytes, expected {expected})")

        def take(n):
            nonlocal offset
            arr = np.frombuffer(data, dtype="<f8", count=n, offset=offset).copy()
            offset += 8 * n
            return arr

        in_mean, in_std = take(d_in), take(d_in)
        out_mean, out_std = take(d_s), take(d_s)
        weights = []
        for fan_in, fan_out in shapes:
            W = take(fan_in * fan_out).reshape(fan_in, fan_out)
            weights.append((W, take(fan_out)))
        return cls(d_s, d_a, weights, in_mean, in_std, out_mean, out_std)


def _normalization_stats(X, Y):
    in_mean, in_std = X.mean(axis=0), X.std(axis=0)
    out_mean, out_std = Y.mean(axis=0), Y.std(axis=0)
    degenerate = out_std < STD_FLOOR
    if np.any(degenerate):
        dims = np.nonzero(degenerate)[0].tolist()
        warnings.warn(f"zero variance in target dimensions {dims}; "
                      f"normalization std floored at {STD_FLOOR}")
    return (in_mean, np.maximum(in_std, STD_FLOOR),
            out_mean, np.maximum(out_std, STD_FLOOR))


class TrainingDivergedError(ValueError):
    """``fit_mlp`` reached a non-finite training loss; the learning rate is too large."""


def fit_mlp(transitions, epochs=50, batch_size=64, lr=1e-3,
            hidden=(200, 200, 200), rng=None):
    """Fit an MLP delta-dynamics model to (s, a, s') transitions by mini-batch SGD.

    Returns (model, history) where history[i] is the full-dataset MSE on
    normalized targets after i epochs (history[0] is the pre-training MSE).
    With epochs=0 the freshly initialized model is returned unchanged.
    Raises TrainingDivergedError at the end of the first epoch whose MSE
    is non-finite; numpy's overflow and invalid warnings are suppressed.
    """
    states, actions, next_states = (np.asarray(part, dtype=float) for part in transitions)
    if states.shape[0] == 0:
        raise ValueError("empty transition dataset")
    rng = np.random.default_rng(rng)
    X = np.hstack([states, actions])
    Y = next_states - states
    in_mean, in_std, out_mean, out_std = _normalization_stats(X, Y)
    model = MlpModel.initialize(states.shape[1], actions.shape[1], hidden, rng,
                                in_mean=in_mean, in_std=in_std,
                                out_mean=out_mean, out_std=out_std)
    Z = (X - in_mean) / in_std
    Yn = (Y - out_mean) / out_std
    history = [model.training_mse(Z, Yn)]
    n = Z.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, epochs + 1):
            order = rng.permutation(n)
            for lo in range(0, n, batch_size):
                idx = order[lo : lo + batch_size]
                _, grads = model._loss_and_grads(Z[idx], Yn[idx])
                model.weights = [(W - lr * gW, b - lr * gb)
                                 for (W, b), (gW, gb) in zip(model.weights, grads)]
            history.append(model.training_mse(Z, Yn))
            if not math.isfinite(history[-1]):
                raise TrainingDivergedError(
                    f"training diverged in epoch {epoch} of {epochs} (normalized MSE "
                    f"{history[-1]}); use a smaller learning rate than {lr:g}")
    return model, history


def collect_random_rollouts(dynamics, bounds, start_state, episodes, steps=200, rng=None):
    """Gather (s, a, s') transitions by applying uniform random actions.

    All episodes step together as one batch, and the transitions come out
    episode by episode. The one (episodes, steps, d_a) action draw holds the
    same numbers as one (steps, d_a) draw per episode and leaves ``rng`` in
    the same state, so the result equals a per-episode loop's bit for bit
    for models that are bitwise at any batch size (the analytic ones); an
    MlpModel agrees only to rounding.
    """
    rng = np.random.default_rng(rng)
    actions = rng.uniform(bounds.low, bounds.high, size=(episodes, steps, bounds.d_a))
    s0 = np.asarray(start_state, dtype=float)
    d_s = s0.shape[0]
    states = np.empty((episodes, steps + 1, d_s))
    states[:, 0] = s0
    for t in range(steps):
        states[:, t + 1] = dynamics.step(states[:, t], actions[:, t])
    return (states[:, :-1].reshape(-1, d_s), actions.reshape(-1, bounds.d_a),
            states[:, 1:].reshape(-1, d_s))


# ---------------------------------------------------------------------------
# Environment bundles


@dataclass(frozen=True)
class Environment:
    """A named (dynamics, reward, bounds, start state) bundle."""

    name: str
    dynamics: DynamicsModel
    reward: RewardModel
    bounds: ActionBounds
    start_state: Array
    world: object = None


# Environment name -> world class; a world's dataclass fields are its options.
ENVIRONMENTS = {"barrier": BarrierWorld, "cartpole": CartpoleWorld}


def make_environment(name: str, **overrides) -> Environment:
    if name not in ENVIRONMENTS:
        valid = ", ".join(sorted(ENVIRONMENTS))
        raise ValueError(f"unknown environment {name!r}; valid environments: {valid}")
    world = ENVIRONMENTS[name](**overrides)
    return Environment(name, world.dynamics(), world.reward_model(), world.bounds(),
                       world.start_state(), world)
