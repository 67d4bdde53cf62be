"""Plan latencies at a fixed reference speed, for a shared host.

On a shared host the same plan can take twice as long from one second to
the next. The work itself runs slower (CPU time moves with wall time), so
no choice of clock takes that out, and a run that happens to fall in a
fast or a slow stretch moves every latency figure by more than any bound
a regression check can use. What does follow the machine closely is a
fixed piece of numpy work timed right next to the plan: back-to-back plan
calls agree in speed far better than plans a few seconds apart.

So in an untraced run every plan call is bracketed by one pass of a fixed
kernel that does not touch trajplan (``Kernel``): one pass right before
the episode's first plan and one right after every plan. A plan's time
divided by the mean of its two brackets is its cost in kernel passes;
multiplied by ``REFERENCE_KERNEL_MS`` it is the plan's latency in ms at
the reference speed, the speed at which one kernel pass takes that long.
A change to trajplan moves the plan time and not the kernel, so it moves
the normalised latency by the same share as the raw one.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np

REFERENCE_KERNEL_MS = 5.0   # one kernel pass at the reference speed
KERNEL_STEPS = 50           # about 4 ms per pass (2.5 to 10 ms) on a shared 2-core Xeon


class Kernel:
    """A fixed mix of the work trajplan's planners do, on its own data.

    Each step is one Euler step of a cartpole-like system on 100 rows
    (small elementwise numpy calls, as in the analytic rollouts) and one
    layer of a 200-wide SiLU network on 10 rows (a small BLAS product, as
    in the MLP replans).
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.x0 = rng.standard_normal((100, 4))
        self.u = rng.standard_normal(100)
        self.h0 = rng.standard_normal((10, 200))
        self.w = rng.standard_normal((200, 200)) / np.sqrt(200.0)
        self()  # the first pass pays numpy's one-off costs

    def __call__(self) -> float:
        """Run one pass and return its wall time in seconds."""
        t0 = time.perf_counter()
        x, h = self.x0, self.h0
        for _ in range(KERNEL_STEPS):
            s, c = np.sin(x[:, 2]), np.cos(x[:, 2])
            acc = (self.u + 0.1 * x[:, 3] ** 2 * s) / (1.1 - 0.1 * c * c)
            x = np.clip(x + 0.02 * np.stack([x[:, 1], acc, x[:, 3], acc * c], axis=1), -5, 5)
            z = h @ self.w
            h = np.tanh(z / (1.0 + np.exp(-z)))
        return time.perf_counter() - t0


class BracketedPolicy:
    """A planner policy whose plan calls are each bracketed by kernel passes.

    ``plan_s`` holds each plan call's own wall time, ``kernel_s`` the mean
    of the kernel passes right before and right after it, and
    ``passes_s`` the time of all kernel passes together.
    """

    def __init__(self, policy, kernel: Kernel):
        self._policy = policy
        self._kernel = kernel
        self._before = None
        self.plan_s: list[float] = []
        self.kernel_s: list[float] = []
        self.passes_s = 0.0

    def reset(self, rng):
        self._policy.reset(rng)
        self._before = self._kernel()
        self.passes_s += self._before

    def plan_step(self, s):
        t0 = time.perf_counter()
        out = self._policy.plan_step(s)
        plan = time.perf_counter() - t0
        after = self._kernel()
        self.plan_s.append(plan)
        self.kernel_s.append(0.5 * (self._before + after))
        self.passes_s += after
        self._before = after
        return out

    def __getattr__(self, name):
        return getattr(self._policy, name)


@contextmanager
def bracketed(kernel: Kernel):
    """Make harness.compare_planners build bracketed policies; yields the list of them.

    Swaps ``trajplan.harness.make_policy``, the name compare_planners
    calls, and puts the original back on the way out.
    """
    from trajplan import harness
    original = harness.make_policy
    policies: list[BracketedPolicy] = []

    def make_policy(*args, **kwargs):
        policies.append(BracketedPolicy(original(*args, **kwargs), kernel))
        return policies[-1]

    harness.make_policy = make_policy
    try:
        yield policies
    finally:
        harness.make_policy = original


def normalised_ms(plan_s, kernel_s) -> list[float]:
    """Plan latencies in ms at the reference speed."""
    return [REFERENCE_KERNEL_MS * p / k for p, k in zip(plan_s, kernel_s)]
