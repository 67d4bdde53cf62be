"""Command-line interface: experiments, sweeps, model training, gradient checks.

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
from .core import PlannerConfig
from .dynamics import (ENVIRONMENTS, MlpModel, TrainingDivergedError,
                       collect_random_rollouts, fit_mlp, make_environment)

CONFIG_VERSION = 1


class ConfigError(ValueError):
    pass


PRESETS = {
    # Published hyperparameters throughout; 20 seeded episodes per cell.
    "paper_defaults": {
        "version": 1,
        "envs": ["barrier", "cartpole"],
        "planners": list(harness.PLANNER_NAMES),
        "planner_config": {},
        "steps": 100,
        "seeds": list(range(20)),
    },
    # Same shape at desk scale: smaller first-step budget, shorter horizon.
    "desk": {
        "version": 1,
        "envs": ["barrier", "cartpole"],
        "planners": list(harness.PLANNER_NAMES),
        "planner_config": {"n_init": 1000, "m_init": 5, "horizon": 30},
        "steps": 100,
        "seeds": list(range(20)),
    },
}


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
    version = config.get("version")
    if version != CONFIG_VERSION:
        raise ConfigError(f"config field 'version': expected {CONFIG_VERSION}, "
                          f"got {version!r}")
    steps = config.get("steps", harness.DEFAULT_STEPS)
    if not _is_int(steps) or steps < 1:
        raise ConfigError(f"config field 'steps': expected a positive integer, "
                          f"got {steps!r}")
    _check_list(config, "seeds", "nonnegative integers", lambda s: _is_int(s) and s >= 0)
    _check_list(config, "envs", f"environment names ({', '.join(sorted(ENVIRONMENTS))})",
                lambda e: isinstance(e, str) and e in ENVIRONMENTS)
    _check_list(config, "planners", "planner names", lambda p: isinstance(p, str))
    return config


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_list(config: dict, key: str, what: str, valid) -> None:
    """A list field, when present, must be nonempty and hold only valid items."""
    value = config.get(key)
    if key in config and not (isinstance(value, list) and value and all(map(valid, value))):
        raise ConfigError(f"config field '{key}': expected a nonempty list of {what}, "
                          f"got {value!r}")


def planner_config_from(overrides: dict | None) -> PlannerConfig:
    overrides = overrides or {}
    valid = {f.name for f in dataclasses.fields(PlannerConfig)}
    for key in overrides:
        if key not in valid:
            raise ConfigError(f"config field 'planner_config.{key}': unknown "
                              f"planner option (valid: {', '.join(sorted(valid))})")
    try:
        return PlannerConfig(**overrides)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"config field 'planner_config': {err}") from None


def _named_section(config: dict, key: str) -> tuple[str, dict]:
    """Accept "name" or {"name": ..., <extra keys>} for the env/planner sections."""
    section = config.get(key)
    if isinstance(section, str):
        return section, {}
    if isinstance(section, dict):
        rest = dict(section)
        try:
            name = rest.pop("name")
        except KeyError:
            raise ConfigError(f"config field '{key}.name': missing") from None
        return name, rest
    raise ConfigError(f"config field '{key}': expected a name or object, "
                      f"got {section!r}")


def _grid_config(args) -> tuple[dict, PlannerConfig, int, list[int]]:
    """What every grid subcommand reads: the config (``{}`` without
    ``--config``), its planner config, the episode length and the seeds
    (``--seed`` replaces the list).

    A run config nests its planner config in the ``planner`` section; the
    other grids share one top-level ``planner_config``.
    """
    config = load_config(args.config) if args.config else {}
    overrides = config.get("planner_config")
    if "planner" in config:
        _, section = _named_section(config, "planner")
        overrides = section.pop("config", None) or section
    seeds = [args.seed] if args.seed is not None else config.get("seeds", list(range(20)))
    return (config, planner_config_from(overrides),
            config.get("steps", harness.DEFAULT_STEPS), seeds)


def _out_dir(args) -> Path:
    out = Path(args.out or os.environ.get("TRAJPLAN_OUT", "results"))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_planning_model(model_section):
    """None (ground truth) or an MLP dynamics model loaded from file."""
    if model_section in (None, "analytic"):
        return None
    if isinstance(model_section, dict) and "path" in model_section:
        path = Path(model_section["path"])
        if not path.exists():
            raise ConfigError(f"model file not found: {path}")
        return MlpModel.load_binary(path)
    raise ConfigError("config field 'model': expected \"analytic\" or "
                      "{\"path\": ...}")


# ---------------------------------------------------------------------------
# Subcommands


def cmd_run(args) -> int:
    config, cfg, steps, seeds = _grid_config(args)
    env_name, env_overrides = _named_section(config, "env")
    planner_name, _ = _named_section(config, "planner")
    env = make_environment(env_name, **env_overrides)
    model = _load_planning_model(config.get("model")) or env.dynamics
    policy = harness.make_policy(planner_name, model, env.reward, cfg, env.bounds)
    return _write_grid(args, harness.run_grid([(env, policy)], seeds, steps))


def cmd_sweep_ninit(args) -> int:
    _, cfg, steps, _ = _grid_config(args)
    values = [int(v) for v in args.values.split(",")]
    result = harness.ninit_sweep(values, args.trials, cfg=cfg, steps=steps,
                                 base_seed=args.seed or 0)
    table = harness.sweep_table(result.summary, "cemgd-ninit", "success_rate")
    rows = [{"n_init": value, "success_fraction": frac}
            for value, frac in sorted(table.items())]
    return _write_grid(args, result, ("ninit_table.csv", ["n_init", "success_fraction"],
                                      rows))


def cmd_sweep_samples(args) -> int:
    _, cfg, steps, _ = _grid_config(args)
    planners = args.planners.split(",")
    budgets = [int(b) for b in args.budgets.split(",")]
    result = harness.sample_efficiency_sweep(planners, budgets, args.trials,
                                             env_name=args.env, cfg=cfg, steps=steps,
                                             base_seed=args.seed or 0)
    rows = []
    for planner, prefix in (("cem", "cem-"), ("cemgd", "cemgd-nr")):
        means = harness.sweep_table(result.summary, prefix, "mean_reward")
        stds = harness.sweep_table(result.summary, prefix, "std_reward")
        rows += [{"planner": planner, "budget": budget, "mean_reward": means[budget],
                  "std_reward": stds[budget]} for budget in sorted(means)]
    return _write_grid(args, result, ("sample_efficiency.csv",
                                      ["planner", "budget", "mean_reward", "std_reward"],
                                      rows))


def cmd_compare(args) -> int:
    config, cfg, steps, seeds = _grid_config(args)
    planning_models = {env_name: _load_planning_model(section)
                       for env_name, section in (config.get("models") or {}).items()}
    result = harness.compare_planners(config.get("envs", ["barrier", "cartpole"]), seeds,
                                      steps=steps, cfg=cfg,
                                      planners=config.get("planners", harness.PLANNER_NAMES),
                                      planning_models=planning_models or None)
    return _write_grid(args, result)


def _write_grid(args, result: harness.CompareResult, table=None) -> int:
    """Write a grid's raw.csv, summary.csv, failures.csv (only when an episode
    failed) and optional ``(file name, columns, rows)`` table to ``--out``,
    print one line per summary row, and return the exit code: 1 when an
    episode failed, else 0."""
    out = _out_dir(args)
    harness.write_raw_csv(result.results, out / "raw.csv")
    harness.write_csv(result.summary, harness.SUMMARY_COLUMNS, out / "summary.csv")
    if table is not None:
        name, columns, rows = table
        harness.write_csv(rows, columns, out / name)
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


def cmd_train_model(args) -> int:
    env = make_environment(args.env)
    rng = np.random.default_rng(args.seed or 0)
    data = collect_random_rollouts(env.dynamics, env.bounds, env.start_state,
                                   episodes=args.episodes, steps=args.steps, rng=rng)
    hidden = tuple(int(h) for h in args.hidden.split(","))
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
    tol = harness.GRADCHECK_TOLERANCES.get(args.env)
    if tol is None:
        valid = ", ".join(sorted(harness.GRADCHECK_TOLERANCES))
        print(f"error: unknown gradcheck target {args.env!r}; valid targets: {valid}",
              file=sys.stderr)
        return 2
    worst = harness.gradient_check(args.env, probes=args.probes,
                                   seed=args.seed or 0, horizon=args.horizon)
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
                       help="override the config seed list / base seed")
        p.add_argument("--out", default=None, help="output directory")
        return p

    p = common(sub.add_parser("run", help="run one experiment config"))
    p.add_argument("--config", required=True, help="experiment JSON file")
    p.set_defaults(func=cmd_run)

    p = common(sub.add_parser("sweep-ninit",
                              help="barrier success rate vs first-step budget"))
    p.add_argument("--config", default=None, help="optional planner-config JSON")
    p.add_argument("--values", default="50,500,5000",
                   help="comma-separated first-step budgets")
    p.add_argument("--trials", type=int, default=20)
    p.set_defaults(func=cmd_sweep_ninit)

    p = common(sub.add_parser("sweep-samples",
                              help="episode reward vs per-step sample budget"))
    p.add_argument("--config", default=None, help="optional planner-config JSON")
    p.add_argument("--planners", default="cem,cemgd")
    p.add_argument("--budgets", default="50,500")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--env", default="cartpole", choices=sorted(ENVIRONMENTS))
    p.set_defaults(func=cmd_sweep_samples)

    p = common(sub.add_parser("compare", help="run the full planner lineup"))
    p.add_argument("--config", default="paper_defaults",
                   help="compare config file or preset name")
    p.set_defaults(func=cmd_compare)

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
    except (ConfigError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except FileNotFoundError as err:
        print(f"error: file not found: {err.filename}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
