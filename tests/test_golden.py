"""The results check: a small grid through the CLI, pinned by hash.

The grid runs every planner id but cem-5000 on both analytic worlds, plus
one barrier cell with a larger dt in which CEM-GD reaches the goal below
the barrier in some episodes, so the success column is exercised too. It
takes about 2 s. A change that must leave results as they are keeps both
hashes; the wall-time columns are left out of them.
"""

import hashlib
import json

from trajplan.cli import main

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


def test_grid_results_match_pinned_hashes(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(CONFIG))
    assert main(["compare", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    assert "barrier/cemgd-dt0.2: " in capsys.readouterr().out
    assert _cut_sha256(tmp_path / "out" / "raw.csv", lambda i: i < 10) == RAW_SHA256
    assert _cut_sha256(tmp_path / "out" / "summary.csv", lambda i: i != 5) == SUMMARY_SHA256
