import csv
import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from trajplan.cli import PRESETS, build_parser, load_config, main, planner_config_from
from trajplan.dynamics import MlpModel


def run_config(tmp_path, **overrides):
    config = {
        "version": 1,
        "env": "barrier",
        "planner": {"name": "cemgd", "config": {"horizon": 4, "n_init": 20,
                                                "m_init": 1, "n_r": 10, "m_r": 1}},
        "steps": 3,
        "seeds": [0, 1],
    }
    config.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return str(path)


def diverging_model(tmp_path):
    """A barrier-sized MLP whose weights overflow on the first rollout."""
    model = MlpModel.initialize(2, 2, hidden=(4, 4, 4), rng=0)
    model.weights = [(W * 1e200, b) for W, b in model.weights]
    path = tmp_path / "diverging.bin"
    model.save_binary(path)
    return {"path": str(path)}


class TestConfig:
    def test_presets_load(self):
        for name in PRESETS:
            config = load_config(name)
            assert config["version"] == 1

    def test_unknown_source(self):
        with pytest.raises(ValueError, match="preset"):
            load_config("no_such_config.json")

    def test_version_checked(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": 99}))
        with pytest.raises(ValueError, match="version"):
            load_config(str(path))

    @pytest.mark.parametrize("field, value", [
        ("envs", "barrier"), ("envs", ["barrier", "halfcheetah"]),
        ("planners", "cemgd"), ("planners", [50]),
        ("seeds", ["a"]), ("seeds", [True]), ("seeds", [1.5]), ("seeds", [-1]),
        ("seeds", []), ("seeds", [0, 0]), ("envs", ["barrier", "barrier"]),
        ("planners", ["cem-50", "cem-50"]),
    ])
    def test_bad_list_field_named_before_any_output(self, tmp_path, capsys, field, value):
        cfg = run_config(tmp_path, **{"envs": ["barrier"], "planners": ["cem-50"],
                                      field: value})
        for command in ("run", "compare"):
            code = main([command, "--config", cfg, "--out", str(tmp_path / "r")])
            assert code == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: config field '{field}': ")
            assert err.count("\n") == 1
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("command", ["run", "compare", "train-model", "gradcheck"])
    def test_negative_seed_named_before_any_output(self, tmp_path, capsys, command):
        argv = [command, "--seed", "-1", "--out", str(tmp_path / "r")]
        if command == "run":
            argv += ["--config", run_config(tmp_path)]
        assert main(argv) == 2
        assert capsys.readouterr().err == \
            "error: --seed: expected a nonnegative integer, got -1\n"
        assert not (tmp_path / "r").exists()

    def test_unknown_planner_field_named(self):
        with pytest.raises(ValueError, match="planner_config.krypton"):
            planner_config_from({"krypton": 3})


class TestRunCommand:
    def test_writes_csvs(self, tmp_path, capsys):
        code = main(["run", "--config", run_config(tmp_path),
                     "--out", str(tmp_path / "results")])
        assert code == 0
        with open(tmp_path / "results" / "raw.csv") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 2 * 3
        assert (tmp_path / "results" / "summary.csv").exists()

    def test_unknown_env_lists_valid(self, tmp_path, capsys):
        code = main(["run", "--config", run_config(tmp_path, env="halfcheetah"),
                     "--out", str(tmp_path / "r")])
        assert code != 0
        err = capsys.readouterr().err
        assert "barrier" in err and "cartpole" in err

    def test_seed_override(self, tmp_path):
        code = main(["run", "--config", run_config(tmp_path), "--seed", "7",
                     "--out", str(tmp_path / "r")])
        assert code == 0
        with open(tmp_path / "r" / "raw.csv") as f:
            rows = list(csv.DictReader(f))
        assert {row["seed"] for row in rows} == {"7"}

    def test_missing_model_file_names_path(self, tmp_path, capsys):
        cfg = run_config(tmp_path, model={"path": str(tmp_path / "absent.bin")})
        code = main(["run", "--config", cfg, "--out", str(tmp_path / "r")])
        assert code != 0
        assert "absent.bin" in capsys.readouterr().err

    @pytest.mark.parametrize("steps", [0, -3])
    def test_nonpositive_steps_rejected(self, tmp_path, capsys, steps):
        for command in ("run", "compare"):
            cfg = run_config(tmp_path, steps=steps, envs=["barrier"], planners=["cem-50"])
            code = main([command, "--config", cfg, "--out", str(tmp_path / "r")])
            assert code == 2
            err = capsys.readouterr().err
            assert err.startswith("error: config field 'steps'") and err.count("\n") == 1
        assert not (tmp_path / "r").exists()

    def test_corrupt_model_file_exits_2_naming_path(self, tmp_path, capsys):
        model_path = tmp_path / "model.bin"
        MlpModel.initialize(2, 2, hidden=(4, 4, 4), rng=0).save_binary(model_path)
        data = model_path.read_bytes()
        model_path.write_bytes(data[:16] + (9).to_bytes(4, "little") + data[20:])
        cfg = run_config(tmp_path, model={"path": str(model_path)})
        code = main(["run", "--config", cfg, "--out", str(tmp_path / "r")])
        assert code == 2
        err = capsys.readouterr().err
        assert "model.bin: unknown activation code 9" in err and err.count("\n") == 1

    def test_diverged_episodes_written_as_failures(self, tmp_path, capsys):
        cfg = run_config(tmp_path, model=diverging_model(tmp_path))
        code = main(["run", "--config", cfg, "--out", str(tmp_path / "r")])
        assert code == 1
        with open(tmp_path / "r" / "failures.csv") as f:
            rows = list(csv.DictReader(f))
        assert [(r["env"], r["planner"], r["seed"], r["step"]) for r in rows] == \
            [("barrier", "cemgd", "0", "0"), ("barrier", "cemgd", "1", "0")]
        assert (tmp_path / "r" / "raw.csv").read_text().count("\n") == 1  # header only
        err = capsys.readouterr().err
        assert err.startswith("error: 2 episode(s) failed") and err.count("\n") == 1

    def test_mlp_model_round_trip(self, tmp_path):
        model = MlpModel.initialize(2, 2, hidden=(4, 4, 4), rng=0)
        model_path = tmp_path / "model.bin"
        model.save_binary(model_path)
        cfg = run_config(tmp_path, model={"path": str(model_path)})
        code = main(["run", "--config", cfg, "--out", str(tmp_path / "r")])
        assert code == 0


class TestGradcheck:
    def test_barrier_passes(self, capsys):
        code = main(["gradcheck", "--env", "barrier", "--seed", "7",
                     "--probes", "5", "--horizon", "6"])
        assert code == 0
        out = capsys.readouterr().out
        assert "max relative gradient error" in out

    def test_unknown_target(self, capsys):
        code = main(["gradcheck", "--env", "pusher"])
        assert code == 2
        assert "valid targets" in capsys.readouterr().err


def preset_config(tmp_path, preset, **overrides):
    """A sweep preset's cells and table at test scale."""
    config = dict(PRESETS[preset], planner_config={"horizon": 4, "n_init": 10, "m_init": 1,
                                                   "n_r": 10, "m_r": 1},
                  steps=3, seeds=[0, 1], **overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    return str(path)


def read_csv(path):
    with open(path) as f:
        return list(csv.DictReader(f))


def episode_totals(raw_rows):
    """Per (planner, seed) episode reward, summed in step order, and success."""
    totals = {}
    for row in raw_rows:
        key = (row["planner"], int(row["seed"]))
        total, _ = totals.get(key, (0.0, None))
        totals[key] = (total + float(row["true_reward"]), row["success"])
    return totals


class TestGridTables:
    def test_ninit_preset_writes_table(self, tmp_path):
        code = main(["compare", "--config", preset_config(tmp_path, "ninit_sweep"),
                     "--out", str(tmp_path / "r")])
        assert code == 0
        table = (tmp_path / "r" / "ninit_table.csv").read_text().splitlines()
        assert table[0] == "n_init,success_fraction"
        assert [line.split(",")[0] for line in table[1:]] == ["50", "500", "5000"]

    def test_sample_efficiency_preset_writes_table(self, tmp_path):
        code = main(["compare", "--config", preset_config(tmp_path, "sample_efficiency"),
                     "--out", str(tmp_path / "r")])
        assert code == 0
        lines = (tmp_path / "r" / "sample_efficiency.csv").read_text().splitlines()
        assert lines[0] == "planner,budget,mean_reward,std_reward"
        assert [line.split(",")[:2] for line in lines[1:]] == \
            [["cem", "50"], ["cem", "500"], ["cemgd", "50"], ["cemgd", "500"]]

    def test_single_seed_fraction_is_zero_or_one(self, tmp_path):
        cells = [dict(PRESETS["ninit_sweep"]["cells"][0], row={"n_init": 20},
                      planner_config={"n_init": 4, "m_init": 5})]
        cfg = preset_config(tmp_path, "ninit_sweep", cells=cells)
        assert main(["compare", "--config", cfg, "--seed", "0",
                     "--out", str(tmp_path / "r")]) == 0
        [row] = read_csv(tmp_path / "r" / "ninit_table.csv")
        assert row["n_init"] == "20" and float(row["success_fraction"]) in (0.0, 1.0)

    def test_ninit_table_matches_reaggregation(self, tmp_path):
        out = tmp_path / "r"
        assert main(["compare", "--config", preset_config(tmp_path, "ninit_sweep"),
                     "--out", str(out)]) == 0
        successes = {}
        for (planner, _), (_, success) in episode_totals(read_csv(out / "raw.csv")).items():
            successes.setdefault(int(planner.removeprefix("cemgd-ninit")), []).append(
                int(success))
        table = {int(row["n_init"]): float(row["success_fraction"])
                 for row in read_csv(out / "ninit_table.csv")}
        assert table == {budget: np.mean(s) for budget, s in successes.items()}

    def test_sample_efficiency_table_matches_raw(self, tmp_path):
        out = tmp_path / "r"
        assert main(["compare", "--config", preset_config(tmp_path, "sample_efficiency"),
                     "--out", str(out)]) == 0
        raw = read_csv(out / "raw.csv")
        assert all(row["samples_used"] == "50" for row in raw if row["planner"] == "cem-50")
        totals = episode_totals(raw)
        for row in read_csv(out / "sample_efficiency.csv"):
            cell = {"cem": "cem-", "cemgd": "cemgd-nr"}[row["planner"]] + row["budget"]
            rewards = [total for (planner, _), (total, _) in totals.items()
                       if planner == cell]
            assert len(rewards) == 2
            assert float(row["mean_reward"]) == np.mean(rewards)
            assert float(row["std_reward"]) == np.std(rewards)


class TestConfigErrors:
    """Each bad config ends in one `error: config field '<field>': ...` line,
    exit 2 and no output directory."""

    CELL = {"env": "barrier", "planner": "cem-50"}

    @pytest.mark.parametrize("field, overrides", [
        ("env.bogus", {"env": {"name": "barrier", "bogus": 1}}),
        ("cells[1].env.bogus", {"cells": [CELL, dict(CELL, id="b", env={"name": "barrier",
                                                                         "bogus": 1})]}),
        ("cells[0].planner_config", {"cells": [dict(CELL, planner_config={"k": "2"})]}),
        ("envs", {"cells": [CELL], "envs": ["barrier"]}),
        ("cells[1].id", {"cells": [CELL, dict(CELL, planner_config={"G": 0})]}),
        ("models.cartpole", {"envs": ["barrier"], "models": {"cartpole": "analytic"}}),
        ("table", {"table": {"file": "t.csv", "columns": {"r": "mean_reward"}}}),
        ("cells[0].row", {"cells": [CELL], "table": {"file": "t.csv",
                                                     "columns": {"r": "mean_reward"}}}),
        ("env", {"env": {"name": "barrier", "radius": "wide"}}),
        *[("planner_config", {"planner_config": {"horizon": value}})
          for value in ("3", 3.5, True, None)],
        ("table.columns.r", {"cells": [dict(CELL, row={"budget": 50})],
                             "table": {"file": "t.csv", "columns": {"r": "reward"}}}),
        ("cells[1].row", {"cells": [dict(CELL, row={"budget": 50}), dict(CELL, id="b")],
                          "table": {"file": "t.csv", "columns": {"r": "mean_reward"}}}),
    ])
    def test_named_before_any_output(self, tmp_path, capsys, field, overrides):
        config = {"version": 1, "planner_config": {"horizon": 3}, "steps": 2, "seeds": [0]}
        if not {"cells", "envs", "planners"} & set(overrides):
            config.update(env="barrier", planner="cem-50")
        config.update(overrides)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        assert main(["compare", "--config", str(path), "--out", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config field '{field}': ") and err.count("\n") == 1
        assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("argv", [
    ["train-model", "--hidden", "0"], ["train-model", "--hidden", "8,x"],
    ["train-model", "--batch", "0"], ["train-model", "--epochs", "-1"],
    ["train-model", "--episodes", "0"], ["train-model", "--steps", "0"],
    ["train-model", "--lr", "0"],
    ["gradcheck", "--probes", "0"], ["gradcheck", "--horizon", "0"],
])
def test_numeric_flag_named_before_any_output(tmp_path, capsys, argv):
    assert main(argv + ["--out", str(tmp_path / "r")]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {argv[1]}: ") and err.count("\n") == 1
    assert not (tmp_path / "r").exists()


def test_readme_cli_lines_parse():
    """Every `trajplan ...` line in README's CLI block names a subcommand and
    flags that exist (the commands are parsed, not run)."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("trajplan ")]
    assert lines
    for line in lines:
        build_parser().parse_args(shlex.split(line)[1:])


class TestCompareCommand:
    def compare_config(self, tmp_path):
        path = tmp_path / "compare.json"
        path.write_text(json.dumps({
            "version": 1,
            "envs": ["barrier"],
            "planners": ["cem-50", "cemgd"],
            "planner_config": {"horizon": 4, "n_init": 20, "m_init": 1,
                               "n_r": 10, "m_r": 1},
            "steps": 3,
            "seeds": [0, 1],
        }))
        return str(path)

    def test_writes_documented_outputs(self, tmp_path):
        code = main(["compare", "--config", self.compare_config(tmp_path),
                     "--out", str(tmp_path / "results")])
        assert code == 0
        with open(tmp_path / "results" / "raw.csv") as f:
            header = f.readline().strip().split(",")
        from trajplan.harness import RAW_COLUMNS, SUMMARY_COLUMNS
        assert header == RAW_COLUMNS
        with open(tmp_path / "results" / "summary.csv") as f:
            sheader = f.readline().strip().split(",")
        assert sheader == SUMMARY_COLUMNS

    def test_diverged_cell_recorded_and_others_kept(self, tmp_path, capsys):
        path = tmp_path / "cmp.json"
        path.write_text(json.dumps({
            "version": 1,
            "envs": ["barrier", "cartpole"],
            "planners": ["cem-50"],
            "planner_config": {"horizon": 3, "n_init": 10, "m_init": 1,
                               "n_r": 10, "m_r": 1},
            "steps": 2,
            "seeds": [0, 1],
            "models": {"barrier": diverging_model(tmp_path)},
        }))
        out = tmp_path / "r"
        code = main(["compare", "--config", str(path), "--out", str(out)])
        assert code == 1
        with open(out / "failures.csv") as f:
            failed = [(r["env"], r["seed"]) for r in csv.DictReader(f)]
        assert failed == [("barrier", "0"), ("barrier", "1")]
        with open(out / "raw.csv") as f:
            finished = {(r["env"], r["seed"]) for r in csv.DictReader(f)}
        assert finished == {("cartpole", "0"), ("cartpole", "1")}
        err = capsys.readouterr().err
        assert err.startswith("error: 2 episode(s) failed") and err.count("\n") == 1
        # A clean rerun into the same directory leaves no stale failures.csv.
        config = json.loads(path.read_text())
        del config["models"]
        path.write_text(json.dumps(config))
        assert main(["compare", "--config", str(path), "--out", str(out)]) == 0
        assert not (out / "failures.csv").exists()

    def test_train_model_diverging_lr_exits_2_and_writes_nothing(self, tmp_path, capsys):
        # Under the suite's error::RuntimeWarning filter a leaked numpy
        # overflow warning would surface here as an exception.
        code = main(["train-model", "--env", "barrier", "--episodes", "2",
                     "--steps", "30", "--epochs", "30", "--hidden", "6,6",
                     "--lr", "1e6", "--out", str(tmp_path / "m")])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: --lr: training diverged in epoch ") \
            and err.count("\n") == 1
        assert not (tmp_path / "m" / "model.bin").exists()

    def test_train_model_then_compare_with_it(self, tmp_path):
        code = main(["train-model", "--env", "barrier", "--episodes", "2",
                     "--steps", "30", "--epochs", "1", "--hidden", "6,6",
                     "--out", str(tmp_path / "m")])
        assert code == 0
        model_path = tmp_path / "m" / "model.bin"
        assert model_path.exists()
        assert MlpModel.load_binary(model_path).d_s == 2
        config = json.loads((tmp_path / "compare.json").read_text()
                            if (tmp_path / "compare.json").exists() else "{}")
        path = tmp_path / "cmp.json"
        path.write_text(json.dumps({
            "version": 1,
            "envs": ["barrier"],
            "planners": ["cemgd"],
            "planner_config": {"horizon": 3, "n_init": 10, "m_init": 1,
                               "n_r": 10, "m_r": 1},
            "steps": 2,
            "seeds": [0],
            "models": {"barrier": {"path": str(model_path)}},
        }))
        code = main(["compare", "--config", str(path), "--out", str(tmp_path / "r")])
        assert code == 0
