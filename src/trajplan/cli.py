"""Command-line interface: experiment grids, model training, gradient checks.

Configs are JSON with a version field; `--config` accepts a file path or
the name of a built-in preset. Outputs are CSV files in the directory
given by `--out` (default `results`).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import harness
from .core import PlannerConfig, split_budget
from .dynamics import (ENVIRONMENTS, MlpModel, collect_random_rollouts, fit_mlp,
                       make_environment)

CONFIG_VERSION = 1


class ConfigError(ValueError):
    pass


# Every preset runs 20 seeded episodes of 100 steps per cell.
_EPISODES = {"version": 1, "steps": 100, "seeds": list(range(20))}
_LINEUP = {**_EPISODES, "cells": [{"env": e, "planner": p} for e in ("barrier", "cartpole")
                                   for p in harness.PLANNER_NAMES]}
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

CONFIG_KEYS = ("version", "steps", "seeds", "planner_config", "models", "cells", "table")
CELL_KEYS = ("env", "id", "planner", "planner_config", "row")


def _require(ok: bool, field: str, expected: str, got) -> None:
    """The one config diagnostic: name the field, what it takes and what it got."""
    if not ok:
        raise ConfigError(f"config field '{field}': expected {expected}, got {got!r}")


def load_config(source: str) -> dict:
    """Load a config from a JSON file path or a named preset; either is
    checked the same way."""
    if source in PRESETS:
        config = json.loads(json.dumps(PRESETS[source]))
    else:
        path = Path(source)
        if not path.exists():
            names = ", ".join(sorted(PRESETS))
            raise ConfigError(f"config {source!r} is neither a file nor a preset "
                              f"(presets: {names})")
        try:
            config = json.loads(path.read_text())
        except ValueError as err:  # invalid JSON, or bytes that are not UTF-8
            raise ConfigError(f"config field parse error in {source}: {err}") from None
    if not isinstance(config, dict):
        raise ConfigError("config root must be a JSON object")
    for key in config:
        _require(key in CONFIG_KEYS, key, f"a config key ({', '.join(CONFIG_KEYS)})", key)
    version = config.get("version")
    _require(type(version) is int and version == CONFIG_VERSION, "version", CONFIG_VERSION,
             version)
    steps = config.get("steps", harness.DEFAULT_STEPS)
    _require(type(steps) is int and steps >= 1, "steps", "a positive integer", steps)
    if "seeds" in config:
        _check_list(config["seeds"], "seeds", "nonnegative integers",
                    lambda s: type(s) is int and s >= 0)
    _check_list(config.get("cells"), "cells", "cell objects", lambda c: isinstance(c, dict))
    return config


def _check_list(value, key: str, what: str, valid) -> None:
    """A list field must be nonempty and hold distinct valid items."""
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


def _check_cell(where: str, cell: dict, shared: dict) -> dict:
    """Check one cell and build its ``env`` and merged planner ``cfg``; return
    them with its ``planner``, ``id`` (the planner by default) and ``row``."""
    for key in cell:
        _require(key in CELL_KEYS, where + key, f"a cell key ({', '.join(CELL_KEYS)})", key)
    env = cell.get("env")
    env = {"name": env} if isinstance(env, str) else env
    _require(isinstance(env, dict) and isinstance(env.get("name"), str), where + "env",
             'a name or {"name": ..., <options>}', env)
    env_overrides = dict(env)
    env_name = env_overrides.pop("name")
    _require(env_name in ENVIRONMENTS, where + "env",
             f"an environment name ({', '.join(sorted(ENVIRONMENTS))})", env_name)
    valid = [f.name for f in dataclasses.fields(ENVIRONMENTS[env_name])]
    for key in env_overrides:
        _require(key in valid, f"{where}env.{key}",
                 f"a {env_name} option ({', '.join(valid)})", key)
    try:
        env = make_environment(env_name, **env_overrides)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"config field '{where}env': {err}") from None
    planner = cell.get("planner")
    cell_id = cell.get("id", planner)
    for key, value in (("planner", planner), ("id", cell_id)):
        _require(isinstance(value, str) and value, where + key, "a nonempty string", value)
    overrides = cell.get("planner_config", {})
    _require(isinstance(overrides, dict), where + "planner_config", "an object", overrides)
    cfg = planner_config_from({**shared, **overrides}, where + "planner_config")
    row = cell.get("row")
    _require(row is None or isinstance(row, dict) and row and all(
        isinstance(v, (str, int, float)) and not isinstance(v, bool) for v in row.values()),
        where + "row", "a nonempty object of strings and numbers", row)
    return {"env": env, "planner": planner, "id": cell_id, "cfg": cfg, "row": row}


def _check_table(config: dict, cells: list[tuple[str, dict]]) -> None:
    """A ``table`` goes with cells whose rows all have the first row's keys;
    its columns name summary statistics."""
    table = config.get("table")
    if table is None:
        return
    _require(isinstance(table, dict) and table.keys() == {"file", "columns"}, "table",
             'an object {"file": ..., "columns": ...}', table)
    name, columns = table["file"], table["columns"]
    _require(isinstance(name, str) and name and Path(name).name == name
             and name not in ("..", "raw.csv", "summary.csv", "failures.csv"), "table.file",
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


def _grid_config(args) -> tuple[dict, list[dict]]:
    """What ``compare`` runs, all checked before any episode by building
    it: the config and its cells, each with its ``env``, its ``policy``
    (planning with the env's model from ``models``, if any) and ``row``."""
    config = load_config(args.config)
    shared = config.get("planner_config") or {}
    planner_config_from(shared)
    cells = [(f"cells[{i}].", _check_cell(f"cells[{i}].", cell, shared))
             for i, cell in enumerate(config["cells"])]
    seen = set()
    for where, cell in cells:
        key = (cell["env"].name, cell["id"])
        _require(key not in seen, where + "id", "one cell per (env, id)", cell["id"])
        seen.add(key)
    grid = {cell["env"].name: cell["env"] for _, cell in cells}
    _check_table(config, cells)
    models = config.get("models", {})
    _require(isinstance(models, dict), "models", "an object of environment names", models)
    for name in models:
        _require(name in grid, f"models.{name}",
                 f"an environment of the grid ({', '.join(sorted(grid))})", name)
    planning = {name: _load_planning_model(section, grid[name])
                for name, section in models.items()}
    for where, cell in cells:
        env = cell["env"]
        try:
            policy = harness.make_policy(cell["planner"], planning.get(env.name, env.dynamics),
                                         env.reward, cell["cfg"], env.bounds)
        except ValueError as err:  # an unknown planner id
            raise ConfigError(f"config field '{where}planner': {err}") from None
        cell["policy"] = dataclasses.replace(policy, planner_id=cell["id"])
        _check_sizes(where, cell, config.get("steps", harness.DEFAULT_STEPS))
    return config, [cell for _, cell in cells]


def _check_sizes(where: str, cell: dict, steps: int) -> None:
    """A cell's largest arrays, the CEM and line-search blocks and the
    episode buffers, must fit numpy's own size limit, which the grid would
    otherwise meet only once it runs (memory is still found short then)."""
    cfg, env, limit = cell["policy"].cfg, cell["env"], np.iinfo(np.intp).max
    width, length = max(env.dynamics.d_s, env.bounds.d_a), cfg.horizon + 1
    rows = max(cfg.n_init, cfg.n_r, cfg.J if cfg.G else 1)
    exceed = f"numpy's array size limit of {limit} bytes"
    if 8 * rows * length * width > limit:
        by_id = cell["planner"].startswith("cem-") and 8 * length * width <= limit
        raise ConfigError(f"config field '{where}{'planner' if by_id else 'planner_config'}': "
                          f"a block of {rows} x {length} x {width} floats exceeds {exceed}")
    if 8 * (steps + 1) * width > limit:
        raise ConfigError(f"config field 'steps': the episode buffers of {steps + 1} x "
                          f"{width} floats exceed {exceed}")


def _out_dir(args, *names: str) -> Path:
    """Make ``--out``; none of the named files in it may be a directory."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name in names:
        if (out / name).is_dir():
            raise ConfigError(f"{out / name}: Is a directory")
    return out


def _load_planning_model(section, env):
    """The MLP dynamics model of ``{"path": "<model file>"}``, of the
    environment's state and action sizes."""
    field = f"models.{env.name}"
    path = section["path"] if isinstance(section, dict) and section.keys() == {"path"} else None
    _require(isinstance(path, str) and path, field, '{"path": "<model file>"}', section)
    model = MlpModel.load_binary(Path(path))
    sizes = (env.dynamics.d_s, env.dynamics.d_a)
    _require((model.d_s, model.d_a) == sizes, field,
             f"a {env.name} model, with (d_s, d_a) = {sizes}", (model.d_s, model.d_a))
    return model


# ---------------------------------------------------------------------------
# Subcommands


def cmd_grid(args) -> int:
    """``compare``: check the config, make ``--out``, then run the grid."""
    config, cells = _grid_config(args)
    table = config.get("table")
    out = _out_dir(args, "raw.csv", "summary.csv", "failures.csv",
                   *([table["file"]] if table else []))
    seeds = [args.seed] if args.seed is not None else config.get("seeds", list(range(20)))
    result = harness.run_grid([(cell["env"], cell["policy"]) for cell in cells], seeds,
                              config.get("steps", harness.DEFAULT_STEPS))
    return _write_grid(out, result, cells, table)


def _write_grid(out: Path, result: harness.CompareResult, cells: list[dict], table) -> int:
    """Write a grid's raw.csv, summary.csv, failures.csv (only when an episode
    failed) and ``table`` (one row per cell with a summary row) to ``out``,
    print one line per summary row, and return the exit code: 1 when an
    episode failed, else 0."""
    harness.write_raw_csv(result.results, out / "raw.csv")
    harness.write_csv(result.summary, harness.SUMMARY_COLUMNS, out / "summary.csv")
    if table is not None:
        summary = {(row["env"], row["planner"]): row for row in result.summary}
        rows = [{**cell["row"], **{column: stats[statistic]
                                   for column, statistic in table["columns"].items()}}
                for cell in cells
                if (stats := summary.get((cell["env"].name, cell["id"]))) is not None]
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
    _check_positive(args, "episodes", "steps", "epochs")
    widths = args.hidden.split(",")
    if not all(w.isdecimal() and int(w) > 0 for w in widths):
        raise ConfigError(f"--hidden: expected comma-separated positive integers, "
                          f"got {args.hidden!r}")
    out = _out_dir(args, "model.bin")
    env = make_environment(args.env)
    rng = np.random.default_rng(args.seed or 0)
    data = collect_random_rollouts(env.dynamics, env.bounds, env.start_state,
                                   episodes=args.episodes, steps=args.steps, rng=rng)
    hidden = tuple(int(w) for w in widths)
    model, history = fit_mlp(data, epochs=args.epochs, hidden=hidden, rng=rng)
    model.save_binary(out / "model.bin")
    print(f"trained on {data[0].shape[0]} transitions; normalized MSE "
          f"{history[0]:.4f} -> {history[-1]:.6f}")
    print(f"wrote {out / 'model.bin'}")
    return 0


def cmd_gradcheck(args) -> int:
    worst = harness.gradient_check(args.env, seed=args.seed or 0)
    tol = harness.GRADCHECK_TOLERANCES[args.env]
    print(f"{args.env}: max relative gradient error {worst:.3e} "
          f"(tolerance {tol:.0e})")
    return 0 if worst < tol else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trajplan",
        description="Trajectory-optimization planners and MPC experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out=True):
        p.add_argument("--seed", type=int, default=None,
                       help="the seed; for compare, run it only")
        if out:
            p.add_argument("--out", default="results", help="output directory")
        return p

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
    p.add_argument("--hidden", default="200,200,200")
    p.set_defaults(func=cmd_train_model)

    p = common(sub.add_parser("gradcheck",
                              help="finite-difference check of rollout gradients"), out=False)
    p.add_argument("--env", default="barrier")
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
    except (ValueError, MemoryError) as err:   # MemoryError: e.g. a huge steps or budget
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        if err.filename is None:  # not a path the user named
            raise
        print(f"error: {err.filename}: {err.strerror}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
