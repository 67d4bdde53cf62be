"""Scalar references for the analytic models' VJPs, and the sweep built on them.

The analytic VJPs were first written per sample, in Python floats. They
are kept here as the oracle that every analytic VJP code must equal bit
for bit: the planners' results were recorded with them.
``oracle_sweep`` chains a per-step VJP from the last step back, in the
order every model's ``adjoint_sweep`` follows (DynamicsModel.adjoint_sweep
sets it out), so it is the reference for each analytic model's sweep and
the sweep of the tests' own toy models.
"""

import math

import numpy as np

from trajplan.dynamics import SMOOTH_EPS, BarrierDynamics, CartpoleDynamics


def scalar_barrier_backward(dyn, s, a, grad_next):
    w = dyn.world
    s = np.asarray(s, dtype=float)
    grad_next = np.asarray(grad_next, dtype=float)
    u = s - dyn._center
    d = math.sqrt(float(u @ u) + SMOOTH_EPS**2)
    grad_s = grad_next.copy()
    if d < w.radius:
        c = w.kappa * (w.radius - d) / d
        jac_f = c * np.eye(2) - (w.kappa * w.radius / d**3) * np.outer(u, u)
        grad_s = grad_s + w.dt * (jac_f @ grad_next)
    grad_a = w.dt * grad_next
    return grad_s, grad_a


def scalar_cartpole_backward(dyn, s, a, grad_next):
    w = dyn.world
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
    g0, g1, g2, g3 = (float(x) for x in g)
    # jac_s = [[1, dt, 0, 0],
    #          [0, 1, dt * dx_acc_dtheta, dt * dx_acc_domega],
    #          [0, 0, 1, dt],
    #          [0, 0, dt * dtheta_acc_dtheta, 1 + dt * dtheta_acc_domega]]
    # jac_a = [0, dt * dx_acc_dforce, 0, dt * dtheta_acc_dforce] * force_scale
    # jac_s.T @ g and jac_a @ g, summed in row order with the zero terms
    # dropped and the ones not multiplied: no BLAS kernel can round these.
    grad_s = [g0,
              dt * g0 + g1,
              dt * dx_acc_dtheta * g1 + g2 + dt * dtheta_acc_dtheta * g3,
              dt * dx_acc_domega * g1 + dt * g2 + (1.0 + dt * dtheta_acc_domega) * g3]
    grad_a = (dt * dx_acc_dforce * w.force_scale * g1
              + dt * dtheta_acc_dforce * w.force_scale * g3)
    return np.array(grad_s), np.array([grad_a])


# Each analytic model's per-step reference.
SCALAR_BACKWARD = {BarrierDynamics: scalar_barrier_backward,
                   CartpoleDynamics: scalar_cartpole_backward}


def oracle_sweep(reference, dyn, states, actions, state_grads):
    """adjoint_sweep's (action_grads, adjoints) from the per-step
    ``reference(dyn, s, a, g) -> (grad_s, grad_a)``: from the last step
    back, g = adjoint + state_grads[t], then step t's VJP at g."""
    action_grads = np.empty_like(actions)
    adjoints = np.empty(state_grads.shape)
    g = np.zeros(state_grads.shape[1])
    for t in range(len(actions) - 1, -1, -1):
        g = g + state_grads[t]
        g, action_grads[t] = reference(dyn, states[t], actions[t], g)
        adjoints[t] = g
    return action_grads, adjoints
