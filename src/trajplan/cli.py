"""Command-line interface: experiment grids, model training, gradient checks.

Configs are JSON with a version field; `--config` accepts a file path or
the name of a built-in preset. Outputs are CSV files in the directory
given by `--out` (default `results`, overridable via the TRAJPLAN_OUT
environment variable).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import harness
from .core import PlannerConfig, split_budget
from .dynamics import (ENVIRONMENTS, MlpModel, TrainingDivergedError,
                       collect_random_rollouts, fit_mlp, make_environment)

CONFIG_VERSION = 1


class ConfigError(ValueError):
    pass


# Every preset runs 20 seeded episodes of 100 steps per cell.
_EPISODES = {"version": 1, "steps": 100, "seeds": list(range(20))}
_LINEUP = {**_EPISODES, "envs": ["barrier", "cartpole"], "planners": harness.PLANNER_NAMES}
PRESETS = {
    # Published hyperparameters throughout.
    "paper_defaults": {**_LINEUP, "planner_config": {}},
    # Same shape at desk scale: smaller first-step budget, shorter horizon.
    "desk": {**_LINEUP, "planner_config": {"n_init": 1000, "m_init": 5, "horizon": 30}},
    # Barrier success fraction vs the first-step budget b = n_init * m_init,
    # the replan budget held at its default.
    "ninit_sweep": {**_EPISODES, "cells": [
        {"id": f"cemgd-ninit{b}", "env": "barrier", "planner": "cemgd",
         "planner_config": dict(zip(("n_init", "m_init"), split_budget(b))),
         "row": {"n_init": b}} for b in (50, 500, 5000)],
        "table": {"file": "ninit_table.csv",
                  "columns": {"success_fraction": "success_rate"}}},
    # Cartpole episode reward vs per-step sample budget b: pure CEM spends b
    # at every step, cemgd spends b per replan after its first-step budget.
    "sample_efficiency": {**_EPISODES, "cells": [
        {"env": "cartpole", "planner": f"cem-{b}", "row": {"planner": "cem", "budget": b}}
        for b in (50, 500)] + [
        {"id": f"cemgd-nr{b}", "env": "cartpole", "planner": "cemgd",
         "planner_config": dict(zip(("n_r", "m_r"), split_budget(b))),
         "row": {"planner": "cemgd", "budget": b}} for b in (50, 500)],
        "table": {"file": "sample_efficiency.csv",
                  "columns": {"mean_reward": "mean_reward", "std_reward": "std_reward"}}},
}

CELL_KEYS = ("env", "id", "planner", "planner_config", "row")
GRID_FORMS = (("cells",), ("env", "planner", "model"), ("envs", "planners"))


def _require(ok: bool, field: str, expected: str, got) -> None:
    """The one config diagnostic: name the field, what it takes and what it got."""
    if not ok:
        raise ConfigError(f"config field '{field}': expected {expected}, got {got!r}")


def load_config(source: str) -> dict:
    """Load a config from a JSON file path or a named preset."""
    if source in PRESETS:
        return json.loads(json.dumps(PRESETS[source]))
    path = Path(source)
    if not path.exists():
        names = ", ".join(sorted(PRESETS))
        raise ConfigError(f"config {source!r} is neither a file nor a preset "
                          f"(presets: {names})")
    try:
        config = json.loads(path.read_text())
    except json.JSONDecodeError as err:
        raise ConfigError(f"config field parse error in {source}: {err}") from None
    if not isinstance(config, dict):
        raise ConfigError("config root must be a JSON object")
    _require(config.get("version") == CONFIG_VERSION, "version", CONFIG_VERSION,
             config.get("version"))
    steps = config.get("steps", harness.DEFAULT_STEPS)
    _require(type(steps) is int and steps >= 1, "steps", "a positive integer", steps)
    _check_list(config, "seeds", "nonnegative integers", lambda s: type(s) is int and s >= 0)
    _check_list(config, "envs", f"environment names ({', '.join(sorted(ENVIRONMENTS))})",
                lambda e: isinstance(e, str) and e in ENVIRONMENTS)
    _check_list(config, "planners", "planner names", lambda p: isinstance(p, str))
    _check_list(config, "cells", "cell objects", lambda c: isinstance(c, dict))
    return config


def _check_list(config: dict, key: str, what: str, valid) -> None:
    """A list field, when present, must be nonempty and hold distinct valid items."""
    if key in config:
        value = config[key]
        _require(isinstance(value, list) and value and all(map(valid, value)), key,
                 f"a nonempty list of {what}", value)
        for i, item in enumerate(value):
            _require(item not in value[:i], key, "no duplicate entries", item)


def planner_config_from(overrides, field: str = "planner_config") -> PlannerConfig:
    overrides = overrides or {}
    _require(isinstance(overrides, dict), field, "an object", overrides)
    names = sorted(f.name for f in dataclasses.fields(PlannerConfig))
    for key in overrides:
        _require(key in names, f"{field}.{key}", f"a planner option ({', '.join(names)})", key)
    try:
        return PlannerConfig(**overrides)
    except ValueError as err:
        raise ConfigError(f"config field '{field}': {err}") from None


def _named_section(config: dict, key: str, field: str | None = None) -> tuple[str, dict]:
    """Accept "name" or {"name": ..., <extra keys>} for the env/planner
    sections; ``field`` is the section's path in errors (default ``key``)."""
    section = config.get(key)
    if isinstance(section, str):
        return section, {}
    _require(isinstance(section, dict) and isinstance(section.get("name"), str),
             field or key, 'a name or {"name": ..., <options>}', section)
    rest = dict(section)
    return rest.pop("name"), rest


def _config_cells(config: dict) -> list[tuple[str, dict]]:
    """The config's grid as (field path prefix, cell) pairs: the ``cells``
    list, a run config's one cell, or a compare config's envs x planners."""
    given = [next(key for key in form if key in config)
             for form in GRID_FORMS if any(key in config for key in form)]
    if len(given) > 1:
        raise ConfigError(f"config field '{given[1]}': cannot be combined with '{given[0]}'")
    if "cells" in config:
        return [(f"cells[{i}].", cell) for i, cell in enumerate(config["cells"])]
    if any(key in config for key in GRID_FORMS[1]):
        name, section = _named_section(config, "planner")
        _require(section.keys() <= {"config"}, "planner", "only 'name' and 'config'", section)
        return [("", {"env": config.get("env"), "planner": name,
                      "planner_config": section.get("config") or {}})]
    return [("", {"env": env, "planner": planner})
            for env in config.get("envs", ["barrier", "cartpole"])
            for planner in config.get("planners", harness.PLANNER_NAMES)]


def _check_cell(where: str, cell: dict, shared: dict) -> dict:
    """Check one cell and return it in full: ``env`` as {"name": ...,
    <overrides>}, ``id`` defaulted to the planner id, ``row`` or None."""
    for key in cell:
        _require(key in CELL_KEYS, where + key, f"a cell key ({', '.join(CELL_KEYS)})", key)
    env_name, env_overrides = _named_section(cell, "env", where + "env")
    _require(env_name in ENVIRONMENTS, where + "env",
             f"an environment name ({', '.join(sorted(ENVIRONMENTS))})", env_name)
    valid = [f.name for f in dataclasses.fields(ENVIRONMENTS[env_name])]
    for key in env_overrides:
        _require(key in valid, f"{where}env.{key}",
                 f"a {env_name} option ({', '.join(valid)})", key)
    try:
        make_environment(env_name, **env_overrides)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"config field '{where}env': {err}") from None
    planner = cell.get("planner")
    cell_id = cell.get("id", planner)
    for key, value in (("planner", planner), ("id", cell_id)):
        _require(isinstance(value, str) and value, where + key, "a nonempty string", value)
    overrides = cell.get("planner_config", {})
    _require(isinstance(overrides, dict), where + "planner_config", "an object", overrides)
    planner_config_from({**shared, **overrides}, where + "planner_config")
    row = cell.get("row")
    _require(row is None or isinstance(row, dict) and row and all(
        isinstance(v, (str, int, float)) and not isinstance(v, bool) for v in row.values()),
        where + "row", "a nonempty object of strings and numbers", row)
    return {"id": cell_id, "env": {"name": env_name, **env_overrides}, "planner": planner,
            "planner_config": overrides, "row": row}


def _check_table(config: dict, cells: list[tuple[str, dict]]) -> None:
    """A ``table`` goes with a ``cells`` list whose rows all have the first
    row's keys; its columns name summary statistics."""
    table = config.get("table")
    if table is None:
        return
    _require("cells" in config and isinstance(table, dict)
             and table.keys() == {"file", "columns"}, "table",
             'an object {"file": ..., "columns": ...} beside a \'cells\' list', table)
    name, columns = table["file"], table["columns"]
    _require(isinstance(name, str) and name and Path(name).name == name
             and name not in ("raw.csv", "summary.csv", "failures.csv"), "table.file",
             "a file name other than raw.csv, summary.csv and failures.csv", name)
    where, first = cells[0]
    _require(first["row"] is not None, where + "row", "a row, as 'table' needs", None)
    keys = list(first["row"])
    for where, cell in cells:
        _require(list(cell["row"] or {}) == keys, where + "row",
                 f"an object with the keys {keys}", cell["row"])
    statistics = [c for c in harness.SUMMARY_COLUMNS if c not in ("env", "planner")]
    _require(isinstance(columns, dict) and columns, "table.columns", "a nonempty object",
             columns)
    for column, statistic in columns.items():
        _require(statistic in statistics and column not in keys, f"table.columns.{column}",
                 f"a summary statistic ({', '.join(statistics)}) under a name that is "
                 f"no row key", statistic)


def _grid_config(args) -> tuple[dict, list[dict], PlannerConfig, dict]:
    """What every grid subcommand runs, all checked before any episode: the
    config, its cells, the shared planner config and the planning models
    by environment name (a run config's ``model`` is its env's)."""
    config = load_config(args.config)
    shared = config.get("planner_config") or {}
    cfg = planner_config_from(shared)
    cells = [(where, _check_cell(where, cell, shared)) for where, cell in _config_cells(config)]
    seen = set()
    for where, cell in cells:
        key = (cell["env"]["name"], cell["id"])
        _require(key not in seen, where + "id", "one cell per (env, id)", cell["id"])
        seen.add(key)
    envs = {env for env, _ in seen}
    _check_table(config, cells)
    models = config.get("models", {})
    _require(isinstance(models, dict), "models", "an object of environment names", models)
    if "model" in config:
        _require("models" not in config, "models", "no 'model' beside it", models)
        models = {cells[0][1]["env"]["name"]: config["model"]}
    for name in models:
        _require(name in envs, f"models.{name}",
                 f"an environment of the grid ({', '.join(sorted(envs))})", name)
    return config, [cell for _, cell in cells], cfg, {
        name: model for name, section in models.items()
        if (model := _load_planning_model(
            section, "model" if "model" in config else f"models.{name}")) is not None}


def _out_dir(args) -> Path:
    out = Path(args.out or os.environ.get("TRAJPLAN_OUT", "results"))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_planning_model(section, field: str):
    """None (ground truth) or an MLP dynamics model loaded from file."""
    if section in (None, "analytic"):
        return None
    _require(isinstance(section, dict) and "path" in section, field,
             '"analytic" or {"path": ...}', section)
    return MlpModel.load_binary(Path(section["path"]))


# ---------------------------------------------------------------------------
# Subcommands


def cmd_grid(args) -> int:
    """``run`` and ``compare``: every config form is a list of cells."""
    config, cells, cfg, models = _grid_config(args)
    seeds = [args.seed] if args.seed is not None else config.get("seeds", list(range(20)))
    result = harness.run_cells(cells, seeds, config.get("steps", harness.DEFAULT_STEPS),
                               cfg, models)
    return _write_grid(args, result, cells, config.get("table"))


def _write_grid(args, result: harness.CompareResult, cells: list[dict], table) -> int:
    """Write a grid's raw.csv, summary.csv, failures.csv (only when an episode
    failed) and ``table`` (one row per cell with a summary row) to ``--out``,
    print one line per summary row, and return the exit code: 1 when an
    episode failed, else 0."""
    out = _out_dir(args)
    harness.write_raw_csv(result.results, out / "raw.csv")
    harness.write_csv(result.summary, harness.SUMMARY_COLUMNS, out / "summary.csv")
    if table is not None:
        summary = {(row["env"], row["planner"]): row for row in result.summary}
        rows = [{**cell["row"], **{column: stats[statistic]
                                   for column, statistic in table["columns"].items()}}
                for cell in cells
                if (stats := summary.get((cell["env"]["name"], cell["id"]))) is not None]
        harness.write_csv(rows, list(cells[0]["row"]) + list(table["columns"]),
                          out / table["file"])
    for row in result.summary:
        success = "" if row["success_rate"] == "" else f", success {row['success_rate']:.2f}"
        print(f"{row['env']}/{row['planner']}: reward {row['mean_reward']:.2f} "
              f"+- {row['std_reward']:.2f}, plan {row['mean_plan_time_s'] * 1e3:.1f} ms"
              f"{success}")
    failures = out / "failures.csv"
    if not result.failures:
        failures.unlink(missing_ok=True)
        return 0
    harness.write_csv(result.failures, harness.FAILURE_COLUMNS, failures)
    print(f"error: {len(result.failures)} episode(s) failed; see {failures}",
          file=sys.stderr)
    return 1


def _check_positive(args, *flags) -> None:
    """Each named integer flag must be at least 1."""
    for flag in flags:
        value = getattr(args, flag)
        if value < 1:
            raise ConfigError(f"--{flag}: expected a positive integer, got {value}")


def cmd_train_model(args) -> int:
    _check_positive(args, "episodes", "steps", "epochs", "batch")
    widths = args.hidden.split(",")
    if not all(w.isdecimal() and int(w) > 0 for w in widths):
        raise ConfigError(f"--hidden: expected comma-separated positive integers, "
                          f"got {args.hidden!r}")
    if not args.lr > 0:
        raise ConfigError(f"--lr: expected a positive number, got {args.lr}")
    env = make_environment(args.env)
    rng = np.random.default_rng(args.seed or 0)
    data = collect_random_rollouts(env.dynamics, env.bounds, env.start_state,
                                   episodes=args.episodes, steps=args.steps, rng=rng)
    hidden = tuple(int(w) for w in widths)
    try:
        model, history = fit_mlp(data, epochs=args.epochs, batch_size=args.batch,
                                 lr=args.lr, hidden=hidden, rng=rng)
    except TrainingDivergedError as err:
        raise ConfigError(f"--lr: {err}") from None
    out = _out_dir(args)
    model.save_binary(out / "model.bin")
    print(f"trained on {data[0].shape[0]} transitions; normalized MSE "
          f"{history[0]:.4f} -> {history[-1]:.6f}")
    print(f"wrote {out / 'model.bin'}")
    return 0


def cmd_gradcheck(args) -> int:
    _check_positive(args, "probes", "horizon")
    worst = harness.gradient_check(args.env, probes=args.probes,
                                   seed=args.seed or 0, horizon=args.horizon)
    tol = harness.GRADCHECK_TOLERANCES[args.env]
    print(f"{args.env}: max relative gradient error {worst:.3e} "
          f"(tolerance {tol:.0e})")
    return 0 if worst < tol else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trajplan",
        description="Trajectory-optimization planners and MPC experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=None,
                       help="the seed; for run and compare, run it only")
        p.add_argument("--out", default=None, help="output directory")
        return p

    p = common(sub.add_parser("run", help="run one experiment config"))
    p.add_argument("--config", required=True, help="experiment JSON file or preset name")
    p.set_defaults(func=cmd_grid)

    p = common(sub.add_parser("compare", help="run a grid, by default the planner lineup"))
    p.add_argument("--config", default="paper_defaults",
                   help="experiment JSON file or preset name")
    p.set_defaults(func=cmd_grid)

    p = common(sub.add_parser("train-model",
                              help="fit MLP dynamics on random rollouts"))
    p.add_argument("--env", default="barrier", choices=sorted(ENVIRONMENTS))
    p.add_argument("--episodes", type=int, default=500)
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--epochs", type=int, default=50)
    p.add_argument("--batch", type=int, default=64)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--hidden", default="200,200,200")
    p.set_defaults(func=cmd_train_model)

    p = common(sub.add_parser("gradcheck",
                              help="finite-difference check of rollout gradients"))
    p.add_argument("--env", default="barrier")
    p.add_argument("--probes", type=int, default=50)
    p.add_argument("--horizon", type=int, default=12)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.seed is not None and args.seed < 0:
        print(f"error: --seed: expected a nonnegative integer, got {args.seed}",
              file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except FileNotFoundError as err:
        print(f"error: file not found: {err.filename}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
