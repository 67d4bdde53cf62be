"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. Criteria 1, 2, 3 and 8
are written; each finishes in seconds. Criteria 4-7 and 9 (the budget
sweep, the sample-efficiency and planner-comparison orderings, the
runtime/memory ordering and the local-optima exhibit) are documented in
README.md but are not tests yet.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from trajplan.cem import VARIANCE_FLOOR, SamplingDistribution, update_distribution
from trajplan.core import PlannerConfig, project, rollout, split_budget
from trajplan.dynamics import make_environment
from trajplan.gradplanner import optimize
from trajplan import harness


def report(num, ok, detail):
    marker = "PASS" if ok else "FAIL"
    print(f"\n[{marker}] criterion {num}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


# ---------------------------------------------------------------------------
# Criterion 1: gradient correctness vs central finite differences


def test_criterion_1_gradient_correctness():
    t0 = time.perf_counter()
    details = []
    ok = True
    for name, tol in harness.GRADCHECK_TOLERANCES.items():
        worst = harness.gradient_check(name, probes=50, horizon=10)
        details.append(f"{name} max rel err {worst:.2e} (tol {tol:.0e})")
        ok = ok and worst < tol
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    report(1, ok, "; ".join(details) + f"; {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 2: distribution update vs brute-force statistics oracle


def test_criterion_2_cem_update_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        T = int(rng.integers(1, 6))
        d = int(rng.integers(1, 4))
        n_elites = int(rng.integers(1, 9))
        dist = SamplingDistribution(rng.normal(size=(T, d)),
                                    rng.uniform(0.0, 2.0, size=(T, d)))
        elites = rng.normal(size=(n_elites, T, d))
        alpha = float(rng.uniform(0.05, 1.0))
        got = update_distribution(dist, elites, alpha)
        for t in range(T):
            for j in range(d):
                vals = [float(elites[e, t, j]) for e in range(n_elites)]
                mu = sum(vals) / n_elites
                var = sum((v - mu) ** 2 for v in vals) / n_elites
                want_mean = (1 - alpha) * dist.mean[t, j] + alpha * mu
                want_var = max((1 - alpha) * dist.variance[t, j] + alpha * var,
                               VARIANCE_FLOOR)
                worst = max(worst, abs(got.mean[t, j] - want_mean),
                            abs(got.variance[t, j] - want_var))
    ok = worst < 1e-12
    report(2, ok, f"1000 elite sets, max entrywise error {worst:.2e} "
                  f"(tol 1e-12); {time.perf_counter() - t0:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 3: monotone improvement over 200 seeded optimize calls


def test_criterion_3_monotone_improvement():
    t0 = time.perf_counter()
    cfg = PlannerConfig()  # published defaults
    violations = 0
    calls = 0
    for name in ("barrier", "cartpole"):
        env = make_environment(name)
        for seed in range(100):
            rng = np.random.default_rng(seed)
            s0 = env.start_state + rng.normal(0, 0.05, size=env.start_state.shape)
            seq = project(rng.normal(0, 1.0, size=(20, env.bounds.d_a)), env.bounds)
            _, trace = optimize(rollout(env.dynamics, env.reward, s0, seq), env.dynamics,
                                env.reward, cfg, env.bounds)
            calls += 1
            last = trace.initial_reward
            for rec in trace.updates:
                if rec.accepted:
                    if not rec.reward_after > last:
                        violations += 1
                    last = rec.reward_after
            if not trace.final_reward >= trace.initial_reward:
                violations += 1
    ok = violations == 0 and calls == 200
    report(3, ok, f"{calls} optimize calls, {violations} monotonicity violations; "
                  f"{time.perf_counter() - t0:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 8: CSV determinism across reruns


def test_criterion_8_csv_determinism(tmp_path):
    # Two fresh processes run the same compare over both envs and all five
    # planners, one with 1 BLAS thread and one with 2; raw.csv must match
    # byte for byte once the wall-time column plan_time_s is dropped.
    t0 = time.perf_counter()
    config = tmp_path / "compare.json"
    config.write_text(json.dumps({
        "version": 1,
        "cells": [{"env": env, "planner": planner} for env in ("barrier", "cartpole")
                  for planner in harness.PLANNER_NAMES],
        "planner_config": {"horizon": 8, "n_init": 100, "m_init": 2, "G": 3},
        "steps": 4,
        "seeds": [0, 1],
    }))
    src = str(Path(harness.__file__).resolve().parents[1])
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    stripped = []
    for threads in ("1", "2"):
        out = tmp_path / f"out{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(path))
        subprocess.run([sys.executable, "-m", "trajplan.cli", "compare", "--config",
                        str(config), "--out", str(out)], env=env, check=True,
                       capture_output=True, timeout=120)
        lines = (out / "raw.csv").read_text().splitlines()
        assert lines[0].split(",")[-1] == "plan_time_s"
        stripped.append([line.rsplit(",", 1)[0] for line in lines])
    rows = len(stripped[0]) - 1
    elapsed = time.perf_counter() - t0
    ok = rows == 2 * 5 * 2 * 4 and stripped[0] == stripped[1] and elapsed < 30.0
    report(8, ok, f"{rows} raw rows, identical without plan_time_s: "
                  f"{stripped[0] == stripped[1]}; {elapsed:.1f}s")
