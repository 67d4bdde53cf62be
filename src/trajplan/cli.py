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
from .dynamics import (ENVIRONMENTS, MlpModel, collect_random_rollouts, fit_mlp,
                       make_environment)

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
    if isinstance(steps, bool) or not isinstance(steps, int) or steps < 1:
        raise ConfigError(f"config field 'steps': expected a positive integer, "
                          f"got {steps!r}")
    return config


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


def _seeds_from(config: dict, override: int | None) -> list[int]:
    if override is not None:
        return [int(override)]
    seeds = config.get("seeds", list(range(20)))
    if not isinstance(seeds, list) or not seeds:
        raise ConfigError("config field 'seeds': must be a nonempty list")
    return [int(s) for s in seeds]


def _out_dir(args) -> Path:
    out = Path(args.out or os.environ.get("TRAJPLAN_OUT", "results"))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_planning_model(model_section, env_name: str):
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
    config = load_config(args.config)
    env_name, env_overrides = _named_section(config, "env")
    planner_name, planner_overrides = _named_section(config, "planner")
    cfg = planner_config_from(planner_overrides.pop("config", None) or planner_overrides)
    env = make_environment(env_name, **env_overrides)
    model = _load_planning_model(config.get("model"), env_name) or env.dynamics
    steps = config.get("steps", harness.DEFAULT_STEPS)
    seeds = _seeds_from(config, args.seed)

    results = []
    for seed in seeds:
        policy = harness.make_policy(planner_name, model, env.reward, cfg, env.bounds)
        results.append(harness.run_episode(env, policy, steps, seed))
    out = _out_dir(args)
    harness.write_raw_csv(results, out / "raw.csv")
    harness.write_summary_csv(harness.summarize(results), out / "summary.csv")
    for row in harness.summarize(results):
        print(f"{row['env']}/{row['planner']}: mean reward {row['mean_reward']:.3f} "
              f"over {row['episodes']} episodes")
    return 0


def cmd_sweep_ninit(args) -> int:
    cfg = PlannerConfig()
    steps = harness.DEFAULT_STEPS
    if args.config:
        config = load_config(args.config)
        cfg = planner_config_from(config.get("planner_config"))
        steps = config.get("steps", steps)
    values = [int(v) for v in args.values.split(",")]
    sweep = harness.ninit_sweep(values, args.trials, cfg=cfg, steps=steps,
                                base_seed=args.seed or 0)
    out = _out_dir(args)
    harness.write_raw_csv(sweep.results, out / "raw.csv")
    harness.write_summary_csv(harness.summarize(sweep.results), out / "summary.csv")
    with open(out / "ninit_table.csv", "w") as f:
        f.write("n_init,success_fraction\n")
        for value, frac in sorted(sweep.table.items()):
            f.write(f"{value},{frac!r}\n")
    for value, frac in sorted(sweep.table.items()):
        print(f"first-step budget {value}: success fraction {frac:.2f}")
    return 0


def cmd_sweep_samples(args) -> int:
    cfg = PlannerConfig()
    steps = harness.DEFAULT_STEPS
    if args.config:
        config = load_config(args.config)
        cfg = planner_config_from(config.get("planner_config"))
        steps = config.get("steps", steps)
    planners = args.planners.split(",")
    budgets = [int(b) for b in args.budgets.split(",")]
    sweep = harness.sample_efficiency_sweep(planners, budgets, args.trials,
                                            env_name=args.env, cfg=cfg, steps=steps,
                                            base_seed=args.seed or 0)
    out = _out_dir(args)
    harness.write_raw_csv(sweep.results, out / "raw.csv")
    harness.write_summary_csv(harness.summarize(sweep.results), out / "summary.csv")
    with open(out / "sample_efficiency.csv", "w") as f:
        f.write("planner,budget,mean_reward,std_reward\n")
        for (planner, budget), (mean, std) in sorted(sweep.table.items()):
            f.write(f"{planner},{budget},{mean!r},{std!r}\n")
    for (planner, budget), (mean, std) in sorted(sweep.table.items()):
        print(f"{planner} @ {budget} samples: reward {mean:.2f} +- {std:.2f}")
    return 0


def cmd_compare(args) -> int:
    config = load_config(args.config)
    cfg = planner_config_from(config.get("planner_config"))
    envs = config.get("envs", ["barrier", "cartpole"])
    planners = config.get("planners", list(harness.PLANNER_NAMES))
    steps = config.get("steps", harness.DEFAULT_STEPS)
    seeds = _seeds_from(config, args.seed)

    planning_models = {}
    for env_name, section in (config.get("models") or {}).items():
        planning_models[env_name] = _load_planning_model(section, env_name)

    result = harness.compare_planners(envs, seeds, steps=steps, cfg=cfg,
                                      planners=planners,
                                      planning_models=planning_models or None)
    out = _out_dir(args)
    harness.write_raw_csv(result.results, out / "raw.csv")
    harness.write_summary_csv(result.summary, out / "summary.csv")
    if result.failures:
        harness.write_failures_csv(result.failures, out / "failures.csv")
        print(f"{len(result.failures)} episode(s) failed; see failures.csv",
              file=sys.stderr)
    for row in result.summary:
        print(f"{row['env']}/{row['planner']}: reward {row['mean_reward']:.2f} "
              f"+- {row['std_reward']:.2f}, plan {row['mean_plan_time_s'] * 1e3:.1f} ms")
    return 0


def cmd_train_model(args) -> int:
    env = make_environment(args.env)
    rng = np.random.default_rng(args.seed or 0)
    data = collect_random_rollouts(env.dynamics, env.bounds, env.start_state,
                                   episodes=args.episodes, steps=args.steps, rng=rng)
    hidden = tuple(int(h) for h in args.hidden.split(","))
    model, history = fit_mlp(data, epochs=args.epochs, batch_size=args.batch,
                             lr=args.lr, hidden=hidden, rng=rng)
    out = _out_dir(args)
    model.save_binary(out / "model.bin")
    model.save_json(out / "model.json")
    print(f"trained on {data[0].shape[0]} transitions; normalized MSE "
          f"{history[0]:.4f} -> {history[-1]:.6f}")
    print(f"wrote {out / 'model.bin'} and {out / 'model.json'}")
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
    p.add_argument("--config", default=None, help=argparse.SUPPRESS)
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
    p.add_argument("--config", default=None, help=argparse.SUPPRESS)
    p.add_argument("--env", default="barrier")
    p.add_argument("--probes", type=int, default=50)
    p.add_argument("--horizon", type=int, default=12)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except FileNotFoundError as err:
        print(f"error: file not found: {err.filename}", file=sys.stderr)
        return 2
    except harness.EpisodeError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
