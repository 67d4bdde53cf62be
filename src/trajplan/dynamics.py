"""Differentiable dynamics and reward models.

Two analytic environments (a 2D goal-seeking world with a repulsive
circular barrier, and cartpole swingup) plus a small deterministic MLP
dynamics model trained on random-rollout transitions.

An environment is its world, a frozen dataclass whose fields are its
options. Making a world builds its parts once, as attributes beside the
fields: ``dynamics``, ``reward``, ``bounds`` and ``start_state``; its
``success(states)`` judges an episode. ``make_environment(name, **options)``
makes the world of that ``name``.

Every dynamics model subclasses DynamicsModel and implements

    step(s, a) -> s_next
    adjoint_sweep(states, actions, state_grads) -> (action_grads, adjoints)

step accepts a single sample or a batch stacked along a leading axis.
adjoint_sweep is the model's one gradient method; the VJPs at a single
sample are a one-step sweep. A rollout takes its states from
rollout_states(s0, actions), by default a loop over step; each built-in
model has its own. How each model rolls out and sweeps, and why, is in its
own methods' docstrings and its constants' comments. Reward models expose
reward(s_next, a) and backward(s_next, a) on any leading shape, such as a
whole (B, T) block of rollout steps, equal to their per-sample values bit
for bit. All models are pure functions of their inputs and safe to call
concurrently. Which results are bitwise across batch sizes, BLAS threads
and BLAS kernels is set out, with its tests, in README.md's Determinism
section.
"""

from __future__ import annotations

import math
import struct
import warnings
from dataclasses import dataclass, fields

import numpy as np

from .core import BLOCK_ROWS, ActionBounds, Array, _finite_real

STD_FLOOR = 1e-8


class DynamicsModel:
    """Interface: differentiable dynamics f(s, a) -> s', with step and
    adjoint_sweep; rollout_states defaults to a loop over step."""

    d_s: int
    d_a: int

    def step(self, s: Array, a: Array) -> Array:
        raise NotImplementedError

    def rollout_states(self, s0: Array, actions: Array) -> Array:
        """The (B, T+1, d_s) states of rolling the (B, T, d_a) actions out
        from the shared state s0: states[:, 0] = s0 and states[:, t+1] =
        step(states[:, t], actions[:, t])."""
        B, T, _ = actions.shape
        states = np.empty((B, T + 1, len(s0)))
        states[:, 0] = s0
        s = states[:, 0]
        for t in range(T):
            s = self.step(s, actions[:, t])
            states[:, t + 1] = s
        return states

    def adjoint_sweep(self, states: Array, actions: Array, state_grads: Array):
        """Sweep the (T, d_s) states and (T, d_a) actions of a trajectory back
        from its last step. The adjoint g starts at zeros; at step t it takes
        state_grads[t] (the reward's gradient at step t's next state) as
        g = g + state_grads[t], and then step t's VJPs at (states[t],
        actions[t]): action_grads[t] = (df/da)^T g, the dynamics' share of
        the action's gradient, and adjoints[t] = g = (df/ds)^T g. Returns
        the (T, d_a) action_grads and (T, d_s) adjoints."""
        raise NotImplementedError


def _sum_squares(x, centre=None):
    """np.add.reduce(e * e, axis=-1) for e = x - centre (x itself if no
    centre), bit for bit. Over a last axis of fewer than 8 entries numpy's
    reduce adds them in order, so the columns are subtracted, squared and
    summed one by one: numpy is slow on a last axis that short, in the
    reduce and in broadcasting a (d,) vector over it. At d = 2 the
    barrier's reward took 11 us against 25 on a 10x45 block and 31
    against 199 on a 100x45 one, though 8.2 against 6.6 on one row
    (timeit, one core of a 2-core Xeon VM). The sums were measured equal
    at 1 to 7 entries and different from 8 on (numpy's pairwise sum), so
    wider axes, a 0-d x and a centre that broadcasts otherwise keep the
    reduce."""
    x = np.asarray(x)
    n = x.shape[-1] if x.ndim else 0
    if not 0 < n < 8 or not (centre is None or centre.shape == (n,)):
        e = x if centre is None else x - centre
        return np.add.reduce(e * e, axis=-1)
    total = None
    for i in range(n):
        if centre is None:
            e = x[..., i] * x[..., i]
        else:
            e = x[..., i] - centre[i]
            e *= e
        total = e if total is None else total + e
    return total


class QuadraticGoalReward:
    """-(distance to goal)^2 - action_cost * |a|^2, maximal at the goal."""

    def __init__(self, goal, action_cost: float = 0.0):
        self.goal = np.asarray(goal, dtype=float)
        self.action_cost = float(action_cost)

    def reward(self, s_next, a):
        return -_sum_squares(s_next, self.goal) - self.action_cost * _sum_squares(a)

    def backward(self, s_next, a):
        return -2.0 * (s_next - self.goal), -2.0 * self.action_cost * np.asarray(a, dtype=float)


# ---------------------------------------------------------------------------
# Barrier world


def _set_parts(world, dynamics: DynamicsModel, reward, d_a: int) -> None:
    """Give a checked world its parts, once: its ``dynamics`` and ``reward``
    models, symmetric action ``bounds`` in ``d_a`` dimensions and its
    ``start_state``. They are attributes, not fields, so not options."""
    object.__setattr__(world, "dynamics", dynamics)
    object.__setattr__(world, "reward", reward)
    object.__setattr__(world, "bounds", ActionBounds.symmetric(world.action_limit, d_a))
    object.__setattr__(world, "start_state", np.asarray(world.start, dtype=float))


def _check_fields(world, size: int, vectors, positive) -> None:
    """A world's vector fields must hold ``size`` finite numbers each, every
    other field be a finite number, and its ``positive`` fields be positive."""
    for f in fields(world):
        v = getattr(world, f.name)
        if f.name in vectors:
            if not (isinstance(v, (tuple, list, np.ndarray)) and len(v) == size
                    and all(_finite_real(x) for x in v)):
                raise ValueError(f"{f.name} must be {size} finite numbers, got {v!r}")
        elif f.name in positive:
            if not (_finite_real(v) and v > 0.0):
                raise ValueError(f"{f.name} must be a positive finite number, got {v!r}")
        elif not _finite_real(v):
            raise ValueError(f"{f.name} must be a finite number, got {v!r}")


GOAL_EPS = 0.1   # barrier success: final distance to the goal below this

# The barrier's distance to its centre is sqrt(|u|^2 + SMOOTH_EPS**2), so
# the force and its Jacobian stay defined at the centre. SMOOTH_EPS**2 is a
# normal float, so every distance is at least SMOOTH_EPS (or NaN).
SMOOTH_EPS = 1e-6


@dataclass(frozen=True)
class BarrierWorld:
    """2D velocity-controlled agent, repulsive circular barrier, quadratic goal reward.

    The barrier center sits strictly above the start-goal line so the path
    below it is shorter than the path above; the force is radial, fades to
    zero at the rim, and is smoothed near the center so gradients stay
    defined everywhere.
    """

    name = "barrier"   # not annotated, so not a field

    center: tuple[float, float] = (0.0, 0.15)
    radius: float = 0.4
    kappa: float = 8.0
    goal: tuple[float, float] = (1.0, 0.0)
    dt: float = 0.05
    start: tuple[float, float] = (-1.0, 0.0)
    action_limit: float = 0.5
    action_cost: float = 0.01

    def __post_init__(self):
        _check_fields(self, 2, ("center", "goal", "start"), ("radius", "kappa", "dt"))
        if not self.radius > SMOOTH_EPS:   # every distance would reach the rim
            raise ValueError(f"radius must exceed the smoothing distance {SMOOTH_EPS!r} or "
                             f"the world has no barrier, got {self.radius!r}")
        if not self.center[1] > 0.0:
            raise ValueError("barrier center must sit strictly above y = 0")
        if self.action_cost < 0.0:
            raise ValueError("action_cost must be nonnegative")
        _set_parts(self, BarrierDynamics(self), QuadraticGoalReward(self.goal, self.action_cost), 2)

    def success(self, states: Array) -> bool:
        """An episode's (H+1, 2) states end within GOAL_EPS of the goal and
        stay below the center's y wherever |x - cx| <= radius."""
        cx, cy = self.center
        in_band = np.abs(states[:, 0] - cx) <= self.radius
        return bool(np.linalg.norm(states[-1] - self.goal) < GOAL_EPS
                    and np.all(states[in_band, 1] < cy))


# Barrier batches of up to this many rows are rolled out without the
# batched formula (BarrierDynamics.rollout_states): one row on Python
# floats, more by running sums, with Python floats only from each row's
# first step that is not free flight. Larger batches take the batched
# formula. At horizon 45, on one core of a 2-core Xeon VM (see
# CHANGES.md), the batched formula took about 0.50 ms at any B up to 32.
# Running sums took 0.015-0.035 ms for a batch that stays beyond the rim,
# and in the worst case, every row within the rim from its first step,
# 0.34 ms at B = 16 and 0.50 ms at B = 24. The worst case breaks even near
# B = 24, and 16 leaves a margin for hosts where Python's float arithmetic
# costs relatively more. One row skips the running sum, whose dozen numpy
# calls cost more than one row's float loop: 27 against 21 us at horizon
# 45, and 16 against 2 us for an episode's one-step true step. The bound is
# on batch size because rows that stay within the rim cost the float loop
# more than the batched formula: with no bound, every result stayed bit
# for bit and the paper-default first plan (1,000-row batches, mostly
# beyond the rim) fell from a median 140 to 98 ms, but desk plans from a
# state within the rim slowed, cem-5000 from 42 to 101 ms and cem-500
# from 4.3 to 11.8 ms (100-row batches; medians of five runs a side, same
# host).
FLOAT_ROWS = 16


class BarrierDynamics(DynamicsModel):
    """s' = s + a*dt + F_rep(s)*dt with a radial in-barrier repulsion force."""

    d_s = 2
    d_a = 2

    def __init__(self, world: BarrierWorld):
        self.world = world
        self._center = np.asarray(world.center, dtype=float)
        self._center_xy = self._center.tolist()

    def step(self, s, a):
        w = self.world
        s = np.asarray(s, dtype=float)
        u = s - self._center
        d = np.sqrt(np.add.reduce(u * u, axis=-1, keepdims=True) + SMOOTH_EPS**2)
        coeff = np.where(d < w.radius, w.kappa * (w.radius - d) / d, 0.0)
        return s + w.dt * (np.asarray(a, dtype=float) + coeff * u)

    def _float_steps(self, starts, seqs):
        """step on Python floats: from each (x, y) of ``starts``, the states
        after each (ax, ay) of its row of ``seqs``, as one flat list x, y,
        x, y, ... of every row in turn. The batched formula's IEEE
        operations in its order (SMOOTH_EPS**2 is the same float in both).
        Float ``**`` can raise where numpy's gives inf, so u is squared as
        u*u; the distance is never zero, so ``/ d`` cannot raise."""
        w = self.world
        cx, cy = self._center_xy
        dt, radius, kappa, eps2 = w.dt, w.radius, w.kappa, SMOOTH_EPS**2
        sqrt = math.sqrt
        flat = []
        for (x, y), seq in zip(starts, seqs):
            for ax, ay in seq:
                ux, uy = x - cx, y - cy
                d = sqrt(ux * ux + uy * uy + eps2)
                # A nan distance takes 0.0, as np.where takes it.
                c = kappa * (radius - d) / d if d < radius else 0.0
                x = x + dt * (ax + c * ux)
                y = y + dt * (ay + c * uy)
                flat += (x, y)
        return flat

    def rollout_states(self, s0, actions):
        """The batched formula's states bit for bit. At the planner's small
        batches (10-row CEM replans, the line search's 1- and 7-row trials)
        a numpy step costs mostly per-call overhead, about 14 ufunc calls
        per step whatever B, so only more than FLOAT_ROWS rows take the
        batched formula. One row takes the float loop (_float_steps) whole.
        Other batches run free flight as a running sum: beyond the rim the
        step is s + dt*(a + 0.0*u), which is s + dt*a bit for bit while u
        is finite and a has no zero entry, because
        adding a signed zero leaves a nonzero number as it is. So the
        states are first one np.add.accumulate of dt*actions from s0. Then
        each step's distance, in the float loop's operations (ux*ux + uy*uy
        + SMOOTH_EPS**2, then sqrt), finds each row's first step that is
        not free: within the rim, at a NaN or infinite distance (a state
        that is not finite, or whose square overflows), or with a zero
        (either sign) action entry. The sum made that step's state bit for
        bit, so the rows with such a step restart from it, all in one call
        of the float loop, which does the batched formula's IEEE operations
        in its order."""
        actions = np.asarray(actions, dtype=float)   # dt*a in float64, as step's
        B, T, _ = actions.shape
        if B > FLOAT_ROWS:
            return super().rollout_states(s0, actions)
        if B == 1:
            start = np.asarray(s0, dtype=float).tolist()
            flat = start + self._float_steps([start], actions.tolist())
            return np.array(flat).reshape(B, T + 1, 2)
        w = self.world
        cx, cy = self._center_xy
        states = np.empty((B, T + 1, 2))
        states[:, 0] = s0
        np.multiply(w.dt, actions, out=states[:, 1:])
        np.add.accumulate(states, axis=1, out=states)
        # The distance from the (B, T) x and y rows: numpy is slow on a
        # last axis of length 2.
        d = states[:, :-1, 0] - cx
        uy = states[:, :-1, 1] - cy
        d *= d
        uy *= uy
        d += uy
        d += SMOOTH_EPS**2
        np.sqrt(d, out=d)
        free = (d >= w.radius) & (d < math.inf)
        if np.count_nonzero(actions == 0.0):   # rare; the per-step test costs more
            free &= (actions != 0.0).all(axis=2)
        # True from each row's first step that is not free on.
        stuck = np.logical_or.accumulate(~free, axis=1)
        rows = np.flatnonzero(stuck[:, -1]) if T else []
        if len(rows):
            first = np.argmax(stuck[rows], axis=1)
            seqs = [seq[t:] for seq, t in zip(actions[rows].tolist(), first.tolist())]
            flat = self._float_steps(states[rows, first].tolist(), seqs)
            states[:, 1:][stuck] = np.array(flat).reshape(-1, 2)
        return states

    def adjoint_sweep(self, states, actions, state_grads):
        """DynamicsModel.adjoint_sweep's order, on Python floats from the
        last step within the rim back to the first: a sweep is one
        trajectory, where numpy's per-call cost dominates. The loop does
        the IEEE operations of the per-step VJP it was written from
        (tests/oracles.py), so a step of a longer sweep equals its one-step
        sweep bit for bit. Beyond the rim a step's VJP is (g, dt*g), so the
        free steps after the last step within the rim (every step, if none
        is within it) are one reverse np.add.accumulate of their state
        gradients from 0.0, as the loop's first 0.0 + r (which turns -0.0
        into 0.0), and the free steps before the first step within the rim
        a second one, from the adjoint at that step; their action gradients
        are dt times those adjoints: bit for bit the loop's operations.
        Within the rim, dF/ds = c*I - (kappa*r/d^3) u u^T with c =
        kappa*(r - d)/d, at the offset u from the centre and the distance
        d, is symmetric, so the VJP is (g + dt*(jac @ g), dt*g). The loop
        writes jac's entries as c*np.eye(2) - k*np.outer(u, u) rounds them
        (c*1 is c, and c*0 is 0.0 since c > 0 within the rim), into one
        buffer made per sweep with g beside them, which saves about 0.7 us
        per step against new arrays. jac @ g stays numpy's 2x2 product, a
        BLAS call that rounds with FMA: a float a*b + c*d differs from it
        in about a quarter of entries (OpenBLAS on x86-64). u @ u is one
        ddot per row, as a single sample's is (an elementwise sum rounds
        differently), and decides which steps are within the rim. These
        two BLAS calls are where the kernel OpenBLAS picks can change the
        barrier's results."""
        w = self.world
        u = np.asarray(states, dtype=float) - self._center
        dists = np.sqrt(np.vecdot(u, u) + SMOOTH_EPS**2)
        dt, radius, kappa = w.dt, w.radius, w.kappa
        T = len(dists)
        rim = np.flatnonzero(dists < radius)
        # Step t's adjoint is rev[T - t]; rev[0] is the 0.0 the sweep starts from.
        rev = np.zeros((T + 1, 2))
        rev[1:] = state_grads[::-1]
        if not len(rim):
            np.add.accumulate(rev, axis=0, out=rev)
            adjoints = rev[:0:-1]
            return dt * adjoints, adjoints
        # Steps first..m-1 take the loop: steps m.. and ..first-1 are free.
        first, m = int(rim[0]), int(rim[-1]) + 1
        tail = rev[:T - m + 1]
        np.add.accumulate(tail, axis=0, out=tail)
        gx, gy = tail[-1].tolist()
        buf = np.empty(6)   # jac's entries, then g
        jac, g, p = buf[:4].reshape(2, 2), buf[4:], np.empty(2)
        grads, adjs = [], []
        for (ux, uy), d, (rx, ry) in zip(reversed(u[first:m].tolist()),
                                         reversed(dists[first:m].tolist()),
                                         reversed(state_grads[first:m].tolist())):
            gx, gy = gx + rx, gy + ry
            grads += (dt * gx, dt * gy)
            if d < radius:
                c = kappa * (radius - d) / d
                k = kappa * radius / d**3   # float ** is libm's pow
                off = 0.0 - k * (ux * uy)
                buf[:] = (c - k * (ux * ux), off, off, c - k * (uy * uy), gx, gy)
                np.matmul(jac, g, out=p)
                px, py = p.tolist()
                gx, gy = gx + dt * px, gy + dt * py
            adjs += (gx, gy)
        # Built from step m-1 back, so stored in reverse.
        rev[T - m + 1:T - first + 1] = np.array(adjs).reshape(m - first, 2)
        if first:
            head = rev[T - first:]   # step first's adjoint, then steps first-1..0
            np.add.accumulate(head, axis=0, out=head)
        adjoints = rev[:0:-1]
        action_grads = dt * adjoints
        action_grads[first:m] = np.array(grads).reshape(m - first, 2)[::-1]
        return action_grads, adjoints


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

    name = "cartpole"   # not annotated, so not a field

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

    def __post_init__(self):
        _check_fields(self, 4, ("start",), ("masscart", "masspole", "half_length", "dt"))
        _set_parts(self, CartpoleDynamics(self), CartpoleReward(self), 1)

    def success(self, states: Array) -> None:
        """Swingup has no success verdict, only reward."""
        return None


class CartpoleDynamics(DynamicsModel):
    d_s = 4
    d_a = 1

    def __init__(self, world: CartpoleWorld):
        self.world = world

    def _stepper(self, n):
        """euler(s, force, out): the step of the (4, n) rows s = (x, v, theta,
        omega) under the (n,) force, into the rows out, in work rows made here:

            temp = (force + pole_ml * omega**2 * sin) / total_mass
            denom = half_length * (4/3 - masspole * cos**2 / total_mass)
            theta_acc = (gravity * sin - cos * temp) / denom
            x_acc = temp - pole_ml * theta_acc * cos / total_mass
            out = s + dt * (v, x_acc, omega, theta_acc)

        in these IEEE operations and order. Rows that take the same operation
        share one call on adjacent rows, with constant rows where their
        operands differ. No call writes over its input: at one column numpy
        takes a path for that overlap that costs about twice the call."""
        w = self.world
        # 0-d arrays: at a hundred columns a cheaper ufunc operand than a float.
        total_mass, half_length, four_thirds, dt = (
            np.array(x, dtype=float)
            for x in (w.masscart + w.masspole, w.half_length, 4.0 / 3.0, w.dt))
        work = np.empty((20, n))
        work[0], work[9], work[10] = w.gravity, w.masspole * w.half_length, w.masspole
        _, cos, sin, temp, mass_cos2, a, b, c, d, pole_ml, _, spare = work[:12]
        gravity_cos, sin_temp, pair, ab, cd, coeffs = (work[i:i + 2] for i in (0, 2, 3, 5, 7, 9))
        rates, steps = work[12:16], work[16:20]   # (v, x_acc, omega, theta_acc), dt * rates
        velocities, x_acc, theta_acc = rates[0::2], rates[1], rates[3]
        mul, add, sub, div = np.multiply, np.add, np.subtract, np.divide

        def euler(s, force, out):
            theta = s[2]
            np.sin(theta, sin)
            np.cos(theta, cos)
            np.square(s[3], a)
            np.square(cos, b)
            mul(ab, coeffs, cd)                 # pole_ml * omega**2, masspole * cos**2
            mul(c, sin, spare)
            add(force, spare, c)
            div(cd, total_mass, pair)           # temp, masspole * cos**2 / total_mass
            sub(four_thirds, mass_cos2, a)
            mul(half_length, a, b)              # denom
            mul(gravity_cos, sin_temp, cd)      # gravity * sin, cos * temp
            sub(c, d, spare)
            div(spare, b, theta_acc)
            mul(pole_ml, theta_acc, spare)
            mul(spare, cos, a)
            div(a, total_mass, c)
            sub(temp, c, x_acc)
            np.positive(s[1::2], velocities)
            mul(dt, rates, steps)
            add(s, steps, out)

        return euler

    def step(self, s, a):
        s = np.asarray(s, dtype=float)
        force = self.world.force_scale * np.asarray(a, dtype=float)[..., 0]
        out = np.empty(s.shape)
        rows = out.reshape(-1, 4).T   # a view: out is contiguous
        self._stepper(rows.shape[1])(s.reshape(-1, 4).T, force.ravel(), rows)
        return out

    def rollout_states(self, s0, actions):
        """The default loop's states bit for bit, stepped on contiguous rows:
        the (B, T+1, 4) transposed view of a (T+1, 4, B) buffer. step's own
        kernel (_stepper), about 20 elementwise ufunc calls per step and no
        BLAS call, into work rows made once per rollout, takes about 40%
        less time than the loop over step on a 45-step rollout of CEM's 100
        rows."""
        B, T, _ = actions.shape
        states = np.empty((T + 1, 4, B))
        states[0] = np.asarray(s0, dtype=float)[:, None]
        force = np.multiply(self.world.force_scale, actions[:, :, 0].T, order="C")
        euler = self._stepper(B)
        for s, f, out in zip(states[:-1], force, states[1:]):
            euler(s, f, out)
        return states.transpose(2, 0, 1)

    def adjoint_sweep(self, states, actions, state_grads):
        """DynamicsModel.adjoint_sweep's order on Python floats, since a
        sweep is one trajectory, where numpy's per-call cost dominates. The
        loop does the IEEE operations of the per-step VJP it was written
        from (tests/oracles.py), so a step of a longer sweep equals its
        one-step sweep bit for bit. It makes no BLAS call, so no result
        depends on the BLAS kernel. Each step computes its Jacobian entries
        by the formulas below (float ** is libm's pow), then its VJPs
        (df/ds)^T g and (df/da)^T g summed in row order, with the
        Jacobian's ones and zeros written out instead of multiplied. The
        states are a rollout's, finite, as rollout_batch guarantees: as in
        the per-step reference, math.sin raises ValueError at an infinite
        angle and omega**2 raises OverflowError past |omega| of about
        1.3e154. The state gradients may hold NaN or infinities."""
        w = self.world
        dt, force_scale, gravity = w.dt, w.force_scale, w.gravity
        half_length, masspole = w.half_length, w.masspole
        total_mass = w.masscart + masspole
        pole_ml = masspole * half_length
        ml_over_mass = pole_ml / total_mass
        dtemp_dforce = 1.0 / total_mass
        g0 = g1 = g2 = g3 = 0.0
        grads, adjoints = [], []
        for (_, _, theta, omega), (a,), (r0, r1, r2, r3) in zip(
                reversed(np.asarray(states, dtype=float).tolist()),
                reversed(np.asarray(actions, dtype=float).tolist()),
                reversed(state_grads.tolist())):
            g0, g1, g2, g3 = g0 + r0, g1 + r1, g2 + r2, g3 + r3
            force = force_scale * a
            sin, cos = math.sin(theta), math.cos(theta)
            temp = (force + pole_ml * omega**2 * sin) / total_mass
            denom = half_length * (4.0 / 3.0 - masspole * cos**2 / total_mass)
            num = gravity * sin - cos * temp
            theta_acc = num / denom

            dtemp_dtheta = pole_ml * omega**2 * cos / total_mass
            dtemp_domega = 2.0 * pole_ml * omega * sin / total_mass
            ddenom_dtheta = half_length * 2.0 * masspole * cos * sin / total_mass
            dnum_dtheta = gravity * cos + sin * temp - cos * dtemp_dtheta
            dtheta_acc_dtheta = (dnum_dtheta * denom - num * ddenom_dtheta) / denom**2
            dtheta_acc_domega = (-cos * dtemp_domega) / denom
            dtheta_acc_dforce = (-cos * dtemp_dforce) / denom
            dx_acc_dtheta = dtemp_dtheta - ml_over_mass * (dtheta_acc_dtheta * cos - theta_acc * sin)
            dx_acc_domega = dtemp_domega - ml_over_mass * dtheta_acc_domega * cos
            dx_acc_dforce = dtemp_dforce - ml_over_mass * dtheta_acc_dforce * cos

            # df/ds has rows (1, dt, 0, 0), (0, 1, dt*dx_acc_dtheta,
            # dt*dx_acc_domega), (0, 0, 1, dt) and (0, 0, dt*dtheta_acc_dtheta,
            # 1 + dt*dtheta_acc_domega); df/da = force_scale * (0,
            # dt*dx_acc_dforce, 0, dt*dtheta_acc_dforce).
            grads.append(dt * dx_acc_dforce * force_scale * g1
                         + dt * dtheta_acc_dforce * force_scale * g3)
            g0, g1, g2, g3 = (
                g0,
                dt * g0 + g1,
                dt * dx_acc_dtheta * g1 + g2 + dt * dtheta_acc_dtheta * g3,
                dt * dx_acc_domega * g1 + dt * g2 + (1.0 + dt * dtheta_acc_domega) * g3)
            adjoints += (g0, g1, g2, g3)
        # Built from the last step back, so read in reverse.
        T = len(grads)
        return np.array(grads).reshape(T, 1)[::-1], np.array(adjoints).reshape(T, 4)[::-1]


class CartpoleReward:
    """cos(theta) - x_cost * x^2 - action_cost * a^2, maximal upright and centered."""

    def __init__(self, world: CartpoleWorld):
        self.world = world

    def reward(self, s_next, a):
        w = self.world
        a = np.asarray(a, dtype=float)[..., 0]
        return np.cos(s_next[..., 2]) - w.x_cost * s_next[..., 0] ** 2 - w.action_cost * a**2

    def backward(self, s_next, a):
        w = self.world
        s_next = np.asarray(s_next, dtype=float)
        grad_s = np.zeros(s_next.shape)
        grad_s[..., 0] = -2.0 * w.x_cost * s_next[..., 0]
        grad_s[..., 2] = -np.sin(s_next[..., 2])
        return grad_s, -2.0 * w.action_cost * np.asarray(a, dtype=float)


# ---------------------------------------------------------------------------
# MLP dynamics model


def _sigmoid(x):
    # tanh is bounded, so no input overflows and no sign branch is needed.
    t = np.tanh(0.5 * x)
    t += 1.0
    t *= 0.5
    return t


def silu(x: Array) -> Array:
    """x * sigmoid(x), computed as h * (1 + tanh(h)) with h = x/2.

    Scaling by a power of two commutes with rounding, so this equals
    x * (0.5 * (1 + tanh(0.5 * x))) bit for bit, in four numpy calls.
    """
    h = 0.5 * x
    t = np.tanh(h)
    t += 1.0
    t *= h
    return t


def _silu_and_slope(x):
    """silu(x) and its slope sigmoid(x) * (1 + x * (1 - sigmoid(x))) from
    one sigmoid; x * sigmoid(x) equals silu(x) bit for bit."""
    sig = _sigmoid(x)
    return x * sig, sig * (1.0 + x * (1.0 - sig))


def _aligned(x):
    """A float64 copy of x whose data starts on a 64-byte boundary.

    The heap hands a (200, 200) weight matrix any 16-byte offset mod 64,
    and OpenBLAS's products with it run slower off a 64-byte boundary: a
    desk-budget CEM-GD replan on a 200x3 MLP took 26.6 ms with its weights
    on one against 29.6-31.2 ms at 16, 32 or 48 bytes past one (SkylakeX
    kernels, one core of a 2-core Xeon VM). The offset changes speed, not
    bits (tests/test_mlp.py::TestAlignment).
    """
    x = np.asarray(x, dtype=float)
    buf = np.empty(x.size + 8)   # 8 spare float64s: 64 bytes of slack
    lo = -buf.ctypes.data % 64 // 8
    out = buf[lo : lo + x.size].reshape(x.shape)
    out[...] = x
    return out


def _read_only(x):
    """A read-only float64 view of x: writes through it raise, while the
    array it views stays writable."""
    view = np.asarray(x, dtype=float).view()
    view.flags.writeable = False
    return view


def _row_blocks(n):
    """The (lo, hi) bounds of the blocks of BLOCK_ROWS rows that a pass over
    n rows runs as. A one-row tail joins the block before it, since numpy
    would take a one-row product through gemv, which rounds otherwise than
    the gemm of a block (README.md, Determinism)."""
    starts = range(0, max(n - 1, 1), BLOCK_ROWS)
    return zip(starts, [*starts[1:], n])


_MLP_MAGIC = b"TJPM"
_MLP_VERSION = 1
_MLP_SILU = 0   # the only activation code in the file format


class MlpModel(DynamicsModel):
    """Residual MLP dynamics: step(s, a) = s + denormalize(net(normalize([s; a]))).

    The network predicts the state delta; inputs and targets are
    standardized with statistics stored on the model. Every hidden layer
    applies SiLU; the output layer is linear.

    Training and gradients run on the stored weights. Rollouts and step
    run on planning layers derived from them and from the statistics
    (_planning_layers), so both are read-only arrays: new weights are
    assigned whole, ``model.weights = [(W, b), ...]``, and the statistics
    are set when the model is made.
    """

    def __init__(self, d_s, d_a, weights, in_mean=None, in_std=None,
                 out_mean=None, out_std=None):
        self.d_s = int(d_s)
        self.d_a = int(d_a)
        d_in = self.d_s + self.d_a
        self._in_mean, self._in_std, self._out_mean, self._out_std = (
            _read_only(np.full(size, fill) if given is None else np.array(given, dtype=float))
            for given, size, fill in ((in_mean, d_in, 0.0), (in_std, d_in, 1.0),
                                      (out_mean, self.d_s, 0.0), (out_std, self.d_s, 1.0)))
        self.weights = [(_aligned(W), _aligned(b)) for W, b in weights]

    in_mean = property(lambda self: self._in_mean)
    in_std = property(lambda self: self._in_std)
    out_mean = property(lambda self: self._out_mean)
    out_std = property(lambda self: self._out_std)

    @property
    def weights(self):
        """The (W, b) pair of each layer, as read-only views of the arrays
        assigned. Assigning new weights drops the planning layers of the
        old ones (_planning_layers)."""
        return self._weights

    @weights.setter
    def weights(self, layers):
        self._weights = [(_read_only(W), _read_only(b)) for W, b in layers]
        self._planning = None

    def _planning_layers(self):
        """The 64-byte-aligned (hidden, output) layers that step and
        rollout_states run on, derived from the weights at the first call
        after they are assigned, with the input scaling, SiLU's half and
        the output scale folded into them:

        - every hidden layer is 0.5 * W and 0.5 * b, so its product gives
          h = pre / 2 exactly and SiLU is h * (1 + tanh(h)), as in silu;
        - the first layer also divides W's rows by in_std;
        - the output layer is W * out_std with bias b * out_std + out_mean.

        in_mean stays a subtraction of its own: folded into the first bias,
        it would subtract two products of the state's size and lose digits
        wherever |state| is much larger than its spread. The two rescaling
        folds round otherwise than the stored weights' formula, so step
        agrees with it to rounding (tests/test_mlp.py::TestFoldedPass).
        """
        if self._planning is None:
            layers = [(_aligned(W), _aligned(b)) for W, b in self.weights]
            W, _ = layers[0]
            W /= self.in_std[:, None]
            W, b = layers[-1]
            W *= self.out_std
            b *= self.out_std
            b += self.out_mean
            for W, b in layers[:-1]:
                W *= 0.5
                b *= 0.5
            self._planning = (layers[:-1], layers[-1])
        return self._planning

    @classmethod
    def initialize(cls, d_s, d_a, hidden=(200, 200, 200), *, rng, **stats):
        """Fresh model with scaled-Gaussian weights and zero biases."""
        rng = np.random.default_rng(rng)
        sizes = [d_s + d_a, *hidden, d_s]
        weights = []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            W = rng.normal(0.0, math.sqrt(2.0 / fan_in), size=(fan_in, fan_out))
            weights.append((W, np.zeros(fan_out)))
        return cls(d_s, d_a, weights, **stats)

    def _stepper(self, rows):
        """step(x, s, out) for blocks of ``rows`` rows: the next states of
        the (rows, d_s + d_a) state-action rows x, whose states are s, into
        out. It runs on the planning layers and on buffers made here once,
        in 19 numpy calls a step for three hidden layers and no allocation.
        Layers of one width share a (pre-activation, activation) pair."""
        z = np.empty((rows, self.d_s + self.d_a))
        delta = np.empty((rows, self.d_s))
        pairs, layers = {}, []
        hidden, (W_out, b_out) = self._planning_layers()
        for W, b in hidden:
            width = W.shape[1]
            if width not in pairs:
                pairs[width] = (np.empty((rows, width)), np.empty((rows, width)))
            layers.append((W, b, *pairs[width]))
        in_mean, one = self.in_mean, np.array(1.0)   # 0-d: a cheaper operand than a float
        add, matmul, multiply, subtract, tanh = np.add, np.matmul, np.multiply, np.subtract, np.tanh

        def step(x, s, out):
            act = subtract(x, in_mean, z)
            for W, b, h, a in layers:
                matmul(act, W, h)
                add(h, b, h)                  # h = pre / 2
                act = tanh(h, a)
                add(a, one, a)
                multiply(a, h, a)             # silu(pre) = h * (1 + tanh(h))
            matmul(act, W_out, delta)
            add(delta, b_out, delta)
            add(s, delta, out)

        return step

    def rollout_states(self, s0, actions):
        """The states of chained steps, bit for bit, rolled out a block of
        rows at a time (_row_blocks), so the temporaries stay
        O(BLOCK_ROWS * width) at any batch size."""
        B, T, _ = actions.shape
        states = np.empty((B, T + 1, self.d_s))
        for lo, hi in _row_blocks(B):
            states[lo:hi] = self._block_rollout(s0, actions[lo:hi]).transpose(1, 0, 2)
        return states

    def _block_rollout(self, s0, actions):
        """The (T+1, rows, d_s) states of one block of rows: one
        (T+1, rows, d_s + d_a) buffer takes the actions once, and each step
        writes its next states straight into the next slot."""
        rows, T, _ = actions.shape
        x = np.empty((T + 1, rows, self.d_s + self.d_a))
        x[:T, :, self.d_s :] = actions.transpose(1, 0, 2)
        states = x[:, :, : self.d_s]
        states[0] = s0
        step = self._stepper(rows)
        for t in range(T):
            step(x[t], states[t], states[t + 1])
        return states

    def step(self, s, a):
        """The rollout's step on a single sample or a batch along leading axes."""
        x = np.concatenate([np.asarray(s, dtype=float), np.asarray(a, dtype=float)], axis=-1)
        rows = x.reshape(-1, x.shape[-1])
        out = np.empty((len(rows), self.d_s))
        for lo, hi in _row_blocks(len(rows)):
            self._stepper(hi - lo)(rows[lo:hi], rows[lo:hi, : self.d_s], out[lo:hi])
        return out.reshape(*x.shape[:-1], self.d_s)

    def _value_pass(self, z):
        """The network's output on normalized input z, on the stored
        weights: the pass of training_mse. More than BLOCK_ROWS rows run
        as the blocks of _row_blocks into one output, so its temporaries
        stay O(BLOCK_ROWS * width) at any batch size."""
        if z.ndim < 2 or len(z) <= BLOCK_ROWS:
            return self._block_pass(z)
        out = np.empty((*z.shape[:-1], self.d_s))
        for lo, hi in _row_blocks(len(z)):
            out[lo:hi] = self._block_pass(z[lo:hi])
        return out

    def _block_pass(self, z):
        """_value_pass in one call: it holds one hidden layer at a time,
        about three (rows, width) arrays at its peak, not every layer's
        pre-activation and activation."""
        h = z
        for W, b in self.weights[:-1]:
            h = h @ W
            h += b
            h = silu(h)
        W, b = self.weights[-1]
        out = h @ W
        out += b
        return out

    def _recorded_pass(self, z):
        """Every layer's input (z first, the output layer's last) and every
        hidden layer's SiLU slope, both from one sigmoid per layer, for a
        backward pass (adjoint_sweep, _mse_grads) to multiply with; the
        output layer itself is not applied."""
        inputs, slopes = [z], []
        for W, b in self.weights[:-1]:
            pre = inputs[-1] @ W
            pre += b
            h, slope = _silu_and_slope(pre)
            inputs.append(h)
            slopes.append(slope)
        return inputs, slopes

    def adjoint_sweep(self, states, actions, state_grads):
        """One recorded pass over the (T, d_s) states and (T, d_a) actions
        keeps each hidden layer's SiLU slope, so each step only chains the
        weight products. A step's VJPs equal its one-step sweep's to
        rounding: BLAS may sum a row's products in another order for
        another T."""
        x = np.concatenate([np.asarray(states, dtype=float),
                            np.asarray(actions, dtype=float)], axis=-1)
        _, slopes = self._recorded_pass((x - self.in_mean) / self.in_std)
        layers = [W.T for W, _ in self.weights]
        hidden = list(zip(reversed(slopes), reversed(layers[:-1])))
        action_grads = np.empty_like(actions)
        adjoints = np.empty(state_grads.shape)
        g = np.zeros(self.d_s)
        for t in range(len(actions) - 1, -1, -1):
            g = g + state_grads[t]
            gh = (g * self.out_std) @ layers[-1]
            for slope, W_T in hidden:
                gh = (gh * slope[t]) @ W_T
            gx = gh / self.in_std
            action_grads[t] = gx[self.d_s :]
            adjoints[t] = g = g + gx[: self.d_s]
        return action_grads, adjoints

    def _mse_grads(self, z, target):
        """Gradients of the mean squared error on normalized targets, one
        (dW, db) pair per layer."""
        inputs, slopes = self._recorded_pass(z)
        W, b = self.weights[-1]
        pred = inputs[-1] @ W
        pred += b
        err = pred - target
        gh = 2.0 * err / err.size
        grads = [None] * len(self.weights)
        for i in range(len(self.weights) - 1, -1, -1):
            W, _ = self.weights[i]
            grads[i] = (inputs[i].T @ gh, gh.sum(axis=0))
            if i > 0:
                gh = (gh @ W.T) * slopes[i - 1]
        return grads

    def training_mse(self, z, target):
        err = self._value_pass(z) - target
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
        """Read a save_binary file. A malformed file, or one holding a
        non-finite value or an in_std or out_std entry that is not
        positive, raises ValueError naming it."""
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
        if not shapes:
            raise ValueError(f"{path}: no layers")
        widths = [d_in] + [fan_out for _, fan_out in shapes]   # d_in, then each fan_out
        for i, (fan_in, _) in enumerate(shapes):
            if fan_in != widths[i]:
                given = f"d_s + d_a = {d_in}" if i == 0 else f"layer {i - 1}'s {widths[i]} outputs"
                raise ValueError(f"{path}: layer {i} takes {fan_in} inputs, expected {given}")
        if widths[-1] != d_s:
            raise ValueError(f"{path}: the last layer gives {widths[-1]} outputs, "
                             f"expected d_s = {d_s}")
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

        stats = {name: take(n) for name, n in
                 (("in_mean", d_in), ("in_std", d_in), ("out_mean", d_s), ("out_std", d_s))}
        weights = [(take(fan_in * fan_out).reshape(fan_in, fan_out), take(fan_out))
                   for fan_in, fan_out in shapes]
        named = list(stats.items())
        for i, (W, b) in enumerate(weights):
            named += [(f"layer {i} weights", W), (f"layer {i} bias", b)]
        for name, arr in named:
            if not np.isfinite(arr).all():
                raise ValueError(f"{path}: {name} holds a non-finite value")
        for name in ("in_std", "out_std"):   # fit_mlp floors both at STD_FLOOR
            if not (stats[name] > 0.0).all():
                raise ValueError(f"{path}: {name} holds an entry that is not positive")
        return cls(d_s, d_a, weights, **stats)


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
            hidden=(200, 200, 200), *, rng):
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
    model = MlpModel.initialize(states.shape[1], actions.shape[1], hidden, rng=rng,
                                in_mean=in_mean, in_std=in_std,
                                out_mean=out_mean, out_std=out_std)
    Z = (X - in_mean) / in_std
    Yn = (Y - out_mean) / out_std
    history = [model.training_mse(Z, Yn)]
    # SGD updates writable copies in place, bit for bit W - lr * gW, and
    # they keep MlpModel's 64-byte alignment. The model's weights are
    # read-only views of them; training never plans, so the model's first
    # plan derives its planning layers from the trained weights.
    layers = [(_aligned(W), _aligned(b)) for W, b in model.weights]
    model.weights = layers
    n = Z.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, epochs + 1):
            order = rng.permutation(n)
            for lo in range(0, n, batch_size):
                idx = order[lo : lo + batch_size]
                grads = model._mse_grads(Z[idx], Yn[idx])
                for (W, b), (gW, gb) in zip(layers, grads):
                    W -= lr * gW
                    b -= lr * gb
            history.append(model.training_mse(Z, Yn))
            if not math.isfinite(history[-1]):
                raise TrainingDivergedError(
                    f"training diverged in epoch {epoch} of {epochs} (normalized MSE "
                    f"{history[-1]}); use a smaller learning rate than {lr:g}")
    return model, history


def collect_random_rollouts(dynamics, bounds, start_state, episodes, steps, *, rng):
    """Gather (s, a, s') transitions by applying uniform random actions.

    All episodes step together as one ``rollout_states`` batch, and the
    transitions come out episode by episode. The one (episodes, steps, d_a)
    action draw holds the same numbers as one (steps, d_a) draw per episode
    and leaves ``rng`` in the same state, so the result equals a per-episode
    loop's bit for bit for models that are bitwise at any batch size (the
    analytic ones); an MlpModel agrees only to rounding.
    """
    rng = np.random.default_rng(rng)
    actions = rng.uniform(bounds.low, bounds.high, size=(episodes, steps, bounds.d_a))
    states = dynamics.rollout_states(np.asarray(start_state, dtype=float), actions)
    d_s = states.shape[-1]
    return (states[:, :-1].reshape(-1, d_s), actions.reshape(-1, bounds.d_a),
            states[:, 1:].reshape(-1, d_s))


# ---------------------------------------------------------------------------
# Environments


# Environment name -> world class; a world's dataclass fields are its options.
ENVIRONMENTS = {world.name: world for world in (BarrierWorld, CartpoleWorld)}


def make_environment(name: str, **options) -> BarrierWorld | CartpoleWorld:
    if name not in ENVIRONMENTS:
        valid = ", ".join(sorted(ENVIRONMENTS))
        raise ValueError(f"unknown environment {name!r}; valid environments: {valid}")
    return ENVIRONMENTS[name](**options)
