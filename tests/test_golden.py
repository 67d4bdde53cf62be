"""The results check: a small grid through the CLI, pinned by hash, and
the bits of CEM-GD's replans.

The grid runs every planner id but cem-5000 on both analytic worlds, plus
one barrier cell with a larger dt in which CEM-GD reaches the goal below
the barrier in some episodes, so the success column is exercised too. It
takes about 2 s. A change that must leave results as they are keeps both
hashes; the wall-time columns are left out of them.

A change in the last bits of a gradient need not reach the grid's rows:
both hashes held when every cartpole sweep last changed in its last
bits. So the replans' own bits are pinned too: every plan's optimal
sequence and model reward over 40 steps of the default planner (with a
smaller first plan) on the default barrier, the barrier at dt 0.2 (whose
rollouts and sweeps reach within the rim far more often) and the
cartpole. A change that must leave results as they are keeps these
hashes too.

The grid and barrier hashes hold only under the OpenBLAS kernel they
were made with, which README.md's Determinism section names; they are
marked ``blas_kernel``.
"""

import hashlib
import json
import struct

import numpy as np
import pytest

from trajplan.cemgd import PlannerState, plan
from trajplan.cli import main
from trajplan.core import PlannerConfig, rollout
from trajplan.dynamics import make_environment

CONFIG = {
    "version": 1,
    "planner_config": {"horizon": 10, "n_init": 100, "m_init": 2, "G": 3},
    "steps": 30,
    "seeds": [0, 1],
    "cells": [{"env": env, "planner": planner}
              for env in ("barrier", "cartpole")
              for planner in ("cemgd", "gradient", "cem-50", "cem-500")]
    + [{"id": "cemgd-dt0.2", "env": {"name": "barrier", "dt": 0.2}, "planner": "cemgd"}],
}

# sha256 of `cut -d, -f1-10 raw.csv` (every column but plan_time_s)
RAW_SHA256 = "6469522567993e2ea60f05ac5136b2e4d796b4af9ff5b71b5511f1980b274166"
# sha256 of `cut -d, -f1-5,7- summary.csv` (every column but mean_plan_time_s)
SUMMARY_SHA256 = "0609bd776a762b99a48d7fcd323f13b2a85bce96ba7b434405e0bf8a03171247"


def _cut_sha256(path, keep) -> str:
    lines = path.read_text().splitlines()
    text = "".join(",".join(f for i, f in enumerate(line.split(",")) if keep(i)) + "\n"
                   for line in lines)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.blas_kernel
def test_grid_results_match_pinned_hashes(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(CONFIG))
    assert main(["compare", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    assert "barrier/cemgd-dt0.2: " in capsys.readouterr().out
    assert _cut_sha256(tmp_path / "out" / "raw.csv", lambda i: i < 10) == RAW_SHA256
    assert _cut_sha256(tmp_path / "out" / "summary.csv", lambda i: i != 5) == SUMMARY_SHA256


# sha256 of every plan's optimal_sequence.tobytes() and its model_reward's
# 8 little-endian bytes, in plan order.
@pytest.mark.parametrize("name, options, sha256", [
    pytest.param("barrier", {},
                 "673430d04e264fcfaab62acb90aa02884f6fa0ee6157f0fbf845d0f1856be036",
                 id="barrier", marks=pytest.mark.blas_kernel),
    pytest.param("barrier", {"dt": 0.2},
                 "2148866e83e465b68c5612ed0e26da0a4bce857db5a6f001bca951631af9f66c",
                 id="barrier-dt0.2", marks=pytest.mark.blas_kernel),
    pytest.param("cartpole", {},
                 "c928a3c2d01b99caa6231f3c9088869ec19da29269e4aa73b2ca9133afe30f20",
                 id="cartpole"),
])
def test_replans_match_pinned_hashes(name, options, sha256):
    env = make_environment(name, **options)
    cfg = PlannerConfig(n_init=200, m_init=3)
    rng = np.random.default_rng(3)
    state, s = PlannerState(), env.start_state
    digest = hashlib.sha256()
    for _ in range(40):
        out, state = plan(state, s, env.dynamics, env.reward, cfg, env.bounds, rng)
        digest.update(out.optimal_sequence.tobytes())
        digest.update(struct.pack("<d", out.model_reward))
        s = rollout(env.dynamics, env.reward, s, out.action[None]).states[1]
    assert digest.hexdigest() == sha256
