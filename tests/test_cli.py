import argparse
import csv
import json
import shlex
import struct
from pathlib import Path

import numpy as np
import pytest

from trajplan import cli, harness
from trajplan.cli import (CONFIG_KEYS, PRESETS, _grid_config, build_parser, load_config, main,
                          planner_config_from)
from trajplan.dynamics import MlpModel, TrainingDivergedError


def run_config(tmp_path, cell=None, **overrides):
    """A one-cell barrier cemgd grid at test scale: ``cell`` updates its
    cell, ``overrides`` the config's top-level keys (None drops a key)."""
    config = {
        "version": 1,
        "cells": [{"env": "barrier", "planner": "cemgd",
                   "planner_config": {"horizon": 4, "n_init": 20, "m_init": 1,
                                      "n_r": 10, "m_r": 1}, **(cell or {})}],
        "steps": 3,
        "seeds": [0, 1],
    }
    config.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({k: v for k, v in config.items() if v is not None}))
    return str(path)


def diverging_model(tmp_path):
    """A barrier-sized MLP whose weights overflow on the first rollout."""
    model = MlpModel.initialize(2, 2, hidden=(4, 4, 4), rng=0)
    model.weights = [(W * 1e200, b) for W, b in model.weights]
    path = tmp_path / "diverging.bin"
    model.save_binary(path)
    return {"path": str(path)}


README = Path(__file__).resolve().parents[1] / "README.md"

CELL = {"env": "barrier", "planner": "cem-50"}


@pytest.fixture
def episodes(monkeypatch):
    """The arguments of every harness.run_episode call the test makes."""
    calls = []
    run_episode = harness.run_episode
    monkeypatch.setattr(harness, "run_episode",
                        lambda *args: calls.append(args) or run_episode(*args))
    return calls


class TestConfig:
    def test_presets_load(self):
        for name in PRESETS:
            config = load_config(name)
            assert config["version"] == 1
            _grid_config(argparse.Namespace(config=name))

    @pytest.mark.parametrize("preset", ["paper_defaults", "desk"])
    def test_lineup_presets_are_ten_cells_env_major(self, preset):
        # The desk results hash depends on this cell order.
        assert PRESETS[preset]["cells"] == [
            {"env": env, "planner": planner} for env in ("barrier", "cartpole")
            for planner in ("cemgd", "gradient", "cem-50", "cem-500", "cem-5000")]

    def test_readme_configs_load(self, tmp_path):
        blocks = [part.split("```", 1)[0] for part in README.read_text().split("```json")[1:]]
        assert len(blocks) == 2
        for i, block in enumerate(blocks):
            path = tmp_path / f"readme{i}.json"
            path.write_text(block)
            assert load_config(str(path))["version"] == 1
            _grid_config(argparse.Namespace(config=str(path)))

    @pytest.mark.parametrize("key, config", [
        ("planer_config", {"planer_config": {"horizon": 3}}),
        # A one-cell grid given by top-level env/planner keys, which are
        # cell keys and no config keys.
        ("env", {"cells": None, "env": "barrier",
                 "planner": {"name": "cemgd", "config": {"horizon": 4}}}),
        # The grid has one form, a cells list; envs x planners is no config.
        ("envs", {"envs": ["barrier"]}),
        ("planners", {"planners": ["cem-50"]}),
    ], ids=["misspelt", "cell-keys-at-top-level", "envs", "planners"])
    def test_unknown_top_level_key_named_before_any_output(self, tmp_path, capsys, key,
                                                           config):
        path = run_config(tmp_path, **config)
        assert main(["compare", "--config", path, "--out", str(tmp_path / "r")]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == (
            f"error: config field '{key}': expected a config key "
            f"({', '.join(CONFIG_KEYS)}), got '{key}'\n")
        assert CONFIG_KEYS == ("version", "steps", "seeds", "planner_config", "models",
                               "cells", "table")
        assert not (tmp_path / "r").exists()

    def test_unknown_source(self):
        with pytest.raises(ValueError, match="preset"):
            load_config("no_such_config.json")

    def test_version_checked(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": 99}))
        with pytest.raises(ValueError, match="version"):
            load_config(str(path))

    @pytest.mark.parametrize("field, value", [
        ("cells", "barrier"), ("cells", [CELL, "halfcheetah"]),
        ("cells", CELL), ("cells", [50]),
        ("seeds", ["a"]), ("seeds", [True]), ("seeds", [1.5]), ("seeds", [-1]),
        ("seeds", []), ("seeds", [0, 0]), ("cells", []), ("cells", [CELL, CELL]),
    ])
    def test_bad_list_field_named_before_any_output(self, tmp_path, capsys, field, value):
        cfg = run_config(tmp_path, **{"cells": [CELL], field: value})
        code = main(["compare", "--config", cfg, "--out", str(tmp_path / "r")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config field '{field}': ")
        assert err.count("\n") == 1
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("command", ["compare", "train-model", "gradcheck"])
    def test_negative_seed_named_before_any_output(self, tmp_path, capsys, command):
        argv = [command, "--seed", "-1"]
        if command != "gradcheck":
            argv += ["--out", str(tmp_path / "r")]
        assert main(argv) == 2
        assert capsys.readouterr().err == \
            "error: --seed: expected a nonnegative integer, got -1\n"
        assert not (tmp_path / "r").exists()

    def test_integer_planner_option_past_the_float_range_is_accepted(self, tmp_path):
        # Its elite count is exact integer arithmetic, so the option builds;
        # the grid check then finds its block past numpy's size limit.
        assert planner_config_from({"n_r": 10**400}).n_r == 10**400
        cfg = run_config(tmp_path, cell={"planner_config": {"n_r": 10**400}})
        with pytest.raises(cli.ConfigError, match=r"^config field 'cells\[0\]\.planner_config': "
                           r"a block of 10{400} x 46 x 2 floats exceeds numpy's"):
            _grid_config(argparse.Namespace(config=cfg))

    def test_unknown_planner_field_named(self):
        with pytest.raises(ValueError, match="planner_config.krypton"):
            planner_config_from({"krypton": 3})


class TestOneCellGrid:
    def test_writes_csvs(self, tmp_path, capsys):
        code = main(["compare", "--config", run_config(tmp_path),
                     "--out", str(tmp_path / "results")])
        assert code == 0
        with open(tmp_path / "results" / "raw.csv") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 2 * 3
        assert (tmp_path / "results" / "summary.csv").exists()

    def test_unknown_env_lists_valid(self, tmp_path, capsys):
        code = main(["compare", "--config", run_config(tmp_path, cell={"env": "halfcheetah"}),
                     "--out", str(tmp_path / "r")])
        assert code != 0
        err = capsys.readouterr().err
        assert "barrier" in err and "cartpole" in err

    def test_seed_override(self, tmp_path):
        code = main(["compare", "--config", run_config(tmp_path), "--seed", "7",
                     "--out", str(tmp_path / "r")])
        assert code == 0
        with open(tmp_path / "r" / "raw.csv") as f:
            rows = list(csv.DictReader(f))
        assert {row["seed"] for row in rows} == {"7"}

    def test_missing_model_file_names_path(self, tmp_path, capsys):
        cfg = run_config(tmp_path, models={"barrier": {"path": str(tmp_path / "absent.bin")}})
        code = main(["compare", "--config", cfg, "--out", str(tmp_path / "r")])
        assert code != 0
        assert "absent.bin" in capsys.readouterr().err

    @pytest.mark.parametrize("steps", [0, -3])
    def test_nonpositive_steps_rejected(self, tmp_path, capsys, steps):
        cfg = run_config(tmp_path, steps=steps)
        code = main(["compare", "--config", cfg, "--out", str(tmp_path / "r")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config field 'steps'") and err.count("\n") == 1
        assert not (tmp_path / "r").exists()

    def test_corrupt_model_file_exits_2_naming_path(self, tmp_path, capsys):
        model_path = tmp_path / "model.bin"
        MlpModel.initialize(2, 2, hidden=(4, 4, 4), rng=0).save_binary(model_path)
        data = model_path.read_bytes()
        model_path.write_bytes(data[:16] + (9).to_bytes(4, "little") + data[20:])
        cfg = run_config(tmp_path, models={"barrier": {"path": str(model_path)}})
        code = main(["compare", "--config", cfg, "--out", str(tmp_path / "r")])
        assert code == 2
        err = capsys.readouterr().err
        assert "model.bin: unknown activation code 9" in err and err.count("\n") == 1

    def test_model_layers_that_do_not_chain_exit_2_naming_path(self, tmp_path, capsys):
        # A right-sized barrier model file whose layers go 4 -> 8, then 7 -> 2.
        model_path = tmp_path / "model.bin"
        header = b"TJPM" + struct.pack("<9I", 1, 2, 2, 0, 2, 4, 8, 7, 2)
        floats = 2 * 4 + 2 * 2 + (4 * 8 + 8) + (7 * 2 + 2)
        model_path.write_bytes(header + np.ones(floats).tobytes())
        cfg = run_config(tmp_path, models={"barrier": {"path": str(model_path)}})
        code = main(["compare", "--config", cfg, "--out", str(tmp_path / "r")])
        assert code == 2
        assert capsys.readouterr().err == (f"error: {model_path}: layer 1 takes 7 inputs, "
                                           "expected layer 0's 8 outputs\n")
        assert not (tmp_path / "r").exists()

    def test_model_with_zero_in_std_exits_2_naming_path(self, tmp_path, capsys):
        # Planned on, a zero in_std would make every episode fail at its
        # first rollout step; the model file is rejected before --out.
        model = MlpModel.initialize(2, 2, hidden=(4, 4, 4), rng=0, in_std=[0.0, 1.0, 1.0, 1.0])
        model_path = tmp_path / "model.bin"
        model.save_binary(model_path)
        cfg = run_config(tmp_path, models={"barrier": {"path": str(model_path)}})
        code = main(["compare", "--config", cfg, "--out", str(tmp_path / "r")])
        assert code == 2
        assert capsys.readouterr().err == (f"error: {model_path}: in_std holds an entry "
                                           "that is not positive\n")
        assert not (tmp_path / "r").exists()

    def test_diverged_episodes_written_as_failures(self, tmp_path, capsys):
        cfg = run_config(tmp_path, models={"barrier": diverging_model(tmp_path)})
        code = main(["compare", "--config", cfg, "--out", str(tmp_path / "r")])
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
        cfg = run_config(tmp_path, models={"barrier": {"path": str(model_path)}})
        code = main(["compare", "--config", cfg, "--out", str(tmp_path / "r")])
        assert code == 0


class TestGridCells:
    """A ``cells`` list, checked and built by ``_grid_config``, runs through
    ``harness.run_grid``."""

    TINY = {"horizon": 5, "n_init": 20, "m_init": 2, "n_r": 10, "m_r": 1}

    def grid(self, tmp_path, cells, seeds, steps):
        path = tmp_path / "cells.json"
        path.write_text(json.dumps({"version": 1, "planner_config": self.TINY, "cells": cells}))
        _, built = _grid_config(argparse.Namespace(config=str(path)))
        return harness.run_grid([(cell["env"], cell["policy"]) for cell in built], seeds, steps)

    def test_single_seed_fraction_is_zero_or_one(self, tmp_path):
        cell = {"id": "cemgd-ninit20", "env": "barrier", "planner": "cemgd",
                "planner_config": {"n_init": 4, "m_init": 5}}
        [row] = self.grid(tmp_path, [cell], seeds=[0], steps=5).summary
        assert row["planner"] == "cemgd-ninit20" and row["success_rate"] in (0.0, 1.0)

    def test_success_rate_matches_reaggregation(self, tmp_path):
        cells = [{"id": f"cemgd-ninit{b}", "env": "barrier", "planner": "cemgd",
                  "planner_config": {"n_init": b, "m_init": 1}} for b in (10, 20)]
        grid = self.grid(tmp_path, cells, seeds=[0, 1], steps=5)
        assert [row["planner"] for row in grid.summary] == ["cemgd-ninit10", "cemgd-ninit20"]
        for row in grid.summary:
            successes = [r.success for r in grid.results if r.planner_id == row["planner"]]
            assert len(successes) == 2 and row["success_rate"] == np.mean(successes)

    def test_cell_budgets_ids_and_env_overrides(self, tmp_path):
        cells = [{"env": "cartpole", "planner": "cem-10"},
                 {"env": "cartpole", "planner": "cem-20"},
                 {"id": "cemgd-nr10", "env": {"name": "cartpole"}, "planner": "cemgd",
                  "planner_config": {"n_r": 2, "m_r": 5}},
                 {"id": "moved", "env": {"name": "barrier", "start": [-0.5, 0.0]},
                  "planner": "cem-10"}]
        grid = self.grid(tmp_path, cells, seeds=[0, 1], steps=3)
        assert [(row["env"], row["planner"]) for row in grid.summary] == \
            [("barrier", "moved"), ("cartpole", "cem-10"), ("cartpole", "cem-20"),
             ("cartpole", "cemgd-nr10")]
        cem = [r for r in grid.results if r.planner_id == "cem-10"]
        assert all(list(r.samples_used) == [10, 10, 10] for r in cem)
        hybrid = [r for r in grid.results if r.planner_id == "cemgd-nr10"]
        assert all(list(r.samples_used) == [40, 10, 10] for r in hybrid)
        row = next(row for row in grid.summary if row["planner"] == "cem-10")
        rewards = [r.episode_reward for r in cem]
        assert row["mean_reward"] == np.mean(rewards) and row["std_reward"] == np.std(rewards)
        moved = [r for r in grid.results if r.planner_id == "moved"]
        assert all(list(r.states[0]) == [-0.5, 0.0] for r in moved)

    def test_each_cell_built_once(self, tmp_path, monkeypatch, episodes):
        built = []
        for module, name in ((cli, "make_environment"), (harness, "make_environment"),
                             (harness, "make_policy")):
            original = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *args, original=original, **kw:
                                built.append(original.__name__) or original(*args, **kw))
        cfg = run_config(tmp_path, cells=[{"env": "barrier", "planner": "cem-50"},
                                          {"env": "cartpole", "planner": "cemgd"}],
                         planner_config={"horizon": 4, "n_init": 20, "m_init": 1})
        assert main(["compare", "--config", cfg, "--out", str(tmp_path / "r")]) == 0
        assert sorted(built) == ["make_environment"] * 2 + ["make_policy"] * 2
        assert len(episodes) == 2 * 2


class TestGradcheck:
    def test_barrier_passes(self, capsys):
        code = main(["gradcheck", "--env", "barrier", "--seed", "7"])
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

    UNKNOWN = "unknown planner {!r}; valid planners: cemgd, gradient, cem-<budget>"

    @pytest.mark.parametrize("field, overrides, detail", [*[
        pytest.param(field, overrides, None, id=f"{field}-overrides{i}")
        for i, (field, overrides) in enumerate([
        ("cells[0].env.bogus", {"cells": [dict(CELL, env={"name": "barrier", "bogus": 1})]}),
        ("cells[1].env.bogus", {"cells": [CELL, dict(CELL, id="b", env={"name": "barrier",
                                                                         "bogus": 1})]}),
        ("cells[0].planner_config", {"cells": [dict(CELL, planner_config={"k": "2"})]}),
        ("envs", {"cells": [CELL], "envs": ["barrier"]}),
        ("cells[1].id", {"cells": [CELL, dict(CELL, planner_config={"G": 0})]}),
        ("models.cartpole", {"models": {"cartpole": {"path": "cartpole.bin"}}}),
        ("table", {"table": {"file": "t.csv"}}),
        ("cells[0].row", {"cells": [CELL], "table": {"file": "t.csv",
                                                     "columns": {"r": "mean_reward"}}}),
        ("cells[0].env", {"cells": [dict(CELL, env={"name": "barrier", "radius": "wide"})]}),
        *[("planner_config", {"planner_config": {"horizon": value}})
          for value in ("3", 3.5, True, None)],
        # json writes these as the NaN/Infinity/-Infinity literals it also parses.
        *[("planner_config", {"planner_config": {name: value}})
          for name in ("alpha", "eta_init", "rho")
          for value in (float("nan"), float("inf"), float("-inf"))],
        ("table.columns.r", {"cells": [dict(CELL, row={"budget": 50})],
                             "table": {"file": "t.csv", "columns": {"r": "reward"}}}),
        ("cells[1].row", {"cells": [dict(CELL, row={"budget": 50}), dict(CELL, id="b")],
                          "table": {"file": "t.csv", "columns": {"r": "mean_reward"}}}),
        # World vectors of the wrong length, and a nonpositive cartpole field.
        ("cells[0].env", {"cells": [dict(CELL, env={"name": "cartpole", "start": [0, 0]})]}),
        ("cells[0].env", {"cells": [dict(CELL, env={"name": "barrier", "center": [0]})]}),
        ("cells[0].env", {"cells": [dict(CELL, env={"name": "barrier", "start": [0, 0, 0]})]}),
        ("cells[0].env", {"cells": [dict(CELL, env={"name": "barrier", "goal": [1]})]}),
        ("cells[0].env", {"cells": [dict(CELL, env={"name": "cartpole", "half_length": 0})]}),
        # k above the default elite count of n_r = 10, whatever the planners.
        ("planner_config", {"planner_config": {"k": 2}}),
        # Every world scalar is a finite number.
        ("cells[0].env", {"cells": [dict(CELL, env={"name": "cartpole", "force_scale": "x"})]}),
        ("cells[0].env", {"cells": [dict(CELL, env={"name": "cartpole", "gravity": True})]}),
        # ".." passes as its own base name but names a directory.
        ("table.file", {"cells": [dict(CELL, row={"budget": 50})],
                        "table": {"file": "..", "columns": {"r": "mean_reward"}}}),
    ])],
        # Planner ids are checked by building each cell's policy.
        *[pytest.param(field, overrides, detail, id=f"{field}-{planner}")
          for field, overrides, planner, detail in [
              ("cells[0].planner", {"cells": [dict(CELL, planner="bogus")]}, "bogus",
               UNKNOWN.format("bogus")),
              ("cells[0].planner", {"cells": [dict(CELL, planner="cem-0")]}, "cem-0",
               UNKNOWN.format("cem-0")),
              ("cells[0].planner", {"cells": [dict(CELL, planner="cem-abc")]}, "cem-abc",
               UNKNOWN.format("cem-abc")),
              ("cells[0].planner", {"cells": [dict(CELL, planner="")]}, "empty",
               "expected a nonempty string, got ''"),
              # One id per budget: no leading zeros, ASCII digits only.
              ("cells[0].planner", {"cells": [dict(CELL, planner="cem-050")]}, "cem-050",
               UNKNOWN.format("cem-050")),
              ("cells[0].planner", {"cells": [dict(CELL, planner="cem-\u0665\u0660")]},
               "cem-arabic-indic", UNKNOWN.format("cem-\u0665\u0660")),
              # More digits than Python's int-conversion limit.
              ("cells[0].planner", {"cells": [dict(CELL, planner="cem-" + "9" * 5000)]},
               "cem-5000-digits", UNKNOWN.format("cem-" + "9" * 5000))]],
        # Planner numbers are finite reals, not bools, and fit a float.
        *[pytest.param("planner_config", {"planner_config": {"eta_init": value}},
                       f"eta_init must be a finite number, got {value!r}",
                       id=f"planner_config-eta_init-{label}")
          for label, value in (("true", True), ("400-digit-int", 10**399))],
        # The barrier's smoothing distance is a constant, not an option, and
        # a radius within it leaves a world with no barrier.
        pytest.param("cells[0].env.smooth_eps",
                     {"cells": [dict(CELL, env={"name": "barrier", "smooth_eps": 1e-6})]},
                     "expected a barrier option (center, radius, kappa, goal, dt, start, "
                     "action_limit, action_cost), got 'smooth_eps'", id="smooth_eps-key"),
        pytest.param("cells[0].env",
                     {"cells": [dict(CELL, env={"name": "barrier", "radius": 1e-7})]},
                     "radius must exceed the smoothing distance 1e-06 or the world has no "
                     "barrier, got 1e-07", id="radius-within-smoothing"),
        *[pytest.param("version", {"version": value}, f"expected 1, got {value!r}",
                       id=f"version-{value!r}") for value in (True, 1.0)],
        # A planning model is a model file; the world's own dynamics are
        # the default, named by leaving the entry out.
        *[pytest.param("models.barrier", {"models": {"barrier": section}},
                       f'expected {{"path": "<model file>"}}, got {section!r}',
                       id=f"models.barrier-{label}")
          for label, section in (("path-5", {"path": 5}), ("path-''", {"path": ""}),
                                 ("analytic", "analytic"), ("null", None),
                                 ("extra-key", {"path": "model.bin", "typo": 1}))],
        # CEM's elite count is 10% of its samples, not an option.
        pytest.param("planner_config.k_elite", {"planner_config": {"k_elite": 3}},
                     "expected a planner option (G, J, alpha, eta_init, horizon, k, m_init, "
                     "m_r, n_init, n_r, rho), got 'k_elite'", id="k_elite"),
        # A world's bounds are built with it, so a bad action limit names
        # the env, not the planner whose policy first reads the bounds.
        pytest.param("cells[0].env",
                     {"cells": [dict(CELL, env={"name": "barrier", "action_limit": -0.5})]},
                     "lower bound exceeds upper bound", id="action_limit-negative"),
        pytest.param("cells", {"cells": None}, "expected a nonempty list of cell objects, "
                     "got None", id="no-cells"),
        # Arrays past numpy's own size limit, named by the field that sizes
        # them (the test config's horizon is 3, so blocks of 4 steps).
        *[pytest.param(field, overrides, f"{size} exceed{'s' * (field != 'steps')} numpy's "
                       f"array size limit of {2**63 - 1} bytes", id=f"{field}-{label}")
          for field, label, overrides, size in [
              ("cells[0].planner", "cem-20-nines",
               {"cells": [dict(CELL, planner="cem-" + "9" * 20)]},
               f"a block of {'9' * 20} x 4 x 2 floats"),
              ("cells[0].planner_config", "n_r",
               {"cells": [dict(CELL, planner="cemgd", planner_config={"n_r": 10**20})]},
               f"a block of {10**20} x 4 x 2 floats"),
              ("cells[0].planner_config", "J",
               {"cells": [dict(CELL, planner="cemgd", planner_config={"J": 10**18})]},
               f"a block of {10**18} x 4 x 2 floats"),
              ("cells[0].planner_config", "cem-horizon",
               {"planner_config": {"horizon": 10**18}},
               f"a block of 10 x {10**18 + 1} x 2 floats"),
              ("steps", "steps", {"steps": 10**18},
               f"the episode buffers of {10**18 + 1} x 2 floats")]],
    ])
    def test_named_before_any_output(self, tmp_path, capsys, field, overrides, detail):
        config = {"version": 1, "planner_config": {"horizon": 3}, "steps": 2, "seeds": [0],
                  "cells": [CELL], **overrides}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({k: v for k, v in config.items() if v is not None}))
        assert main(["compare", "--config", str(path), "--out", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config field '{field}': ") and err.count("\n") == 1
        if detail is not None:
            assert err == f"error: config field '{field}': {detail}\n"
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("text", [
        "[" * 200_000,
        '{"version": 1, "cells": [{"env": "barrier", "planner": "cem-50", "row": {"r": '
        + "[" * 100_000 + "]" * 100_000 + "}}]}"], ids=["root", "cell-row"])
    def test_nesting_past_the_recursion_limit_is_a_parse_error(self, tmp_path, capsys, text):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        assert main(["compare", "--config", str(path), "--out", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config field parse error in {path}: ")
        assert err.count("\n") == 1
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("field, form", [
        ("models.barrier", lambda path: {"cells": [{"env": "barrier", "planner": "cem-50"},
                                                   {"env": "cartpole", "planner": "cem-50"}],
                                         "models": {"barrier": {"path": path}}}),
    ])
    def test_model_of_another_environment_named_before_any_output(self, tmp_path, capsys,
                                                                 field, form):
        path = tmp_path / "cartpole.bin"
        MlpModel.initialize(4, 1, hidden=(4, 4, 4), rng=0).save_binary(path)
        config = {"version": 1, "planner_config": {"horizon": 3}, "steps": 2, "seeds": [0],
                  **form(str(path))}
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        assert main(["compare", "--config", str(tmp_path / "cfg.json"),
                     "--out", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err
        assert err == (f"error: config field '{field}': expected a barrier model, with "
                       f"(d_s, d_a) = (2, 2), got (4, 1)\n")
        assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("budget, ok", [(2**57 - 1, True), (2**57, False)])
def test_size_check_stops_at_numpys_limit(tmp_path, budget, ok):
    # One CEM iteration of `budget` rows (neither is a multiple of 5): 4
    # steps of 2 floats a row make 2**57 rows exactly 2**63 bytes, one byte
    # past the limit. Only the check runs; nothing of that size is made.
    path = run_config(tmp_path, {"planner": f"cem-{budget}", "planner_config": {"horizon": 3}})
    args = argparse.Namespace(config=path)
    if ok:
        _grid_config(args)
    else:
        with pytest.raises(cli.ConfigError, match=r"^config field 'cells\[0\]\.planner': "):
            _grid_config(args)


@pytest.mark.parametrize("argv", [
    ["train-model", "--hidden", "0"], ["train-model", "--hidden", "8,x"],
    ["train-model", "--epochs", "-1"], ["train-model", "--episodes", "0"],
    ["train-model", "--steps", "0"],
])
def test_numeric_flag_named_before_any_output(tmp_path, capsys, argv):
    assert main(argv + ["--out", str(tmp_path / "r")]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {argv[1]}: ") and err.count("\n") == 1
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("flag", ["--probes", "--horizon"])
def test_gradcheck_has_no_probes_flag(capsys, flag):
    # gradcheck runs gradient_check's fixed probes: 50 of horizon 12.
    with pytest.raises(SystemExit) as exit_info:
        main(["gradcheck", flag, "5"])
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {flag} 5" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--lr", "--batch"])
def test_train_model_has_no_lr_or_batch_flag(tmp_path, capsys, flag):
    # train-model fits at fit_mlp's defaults: batches of 64 at lr 1e-3.
    with pytest.raises(SystemExit) as exit_info:
        main(["train-model", "--episodes", "1", "--steps", "2", "--epochs", "0",
              "--hidden", "2", flag, "1", "--out", str(tmp_path / "m")])
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err
    assert not (tmp_path / "m").exists()


def test_failed_allocation_is_one_line(tmp_path, capsys, monkeypatch):
    # As numpy's MemoryError for a huge "steps" reads; no real request is
    # made, since a host that overcommits memory could grant it.
    message = ("Unable to allocate 1.46 TiB for an array with shape (100000000001, 2) "
               "and data type float64")

    def run_episode(*args):
        raise MemoryError(message)

    monkeypatch.setattr(harness, "run_episode", run_episode)
    assert main(["compare", "--config", run_config(tmp_path), "--out", str(tmp_path / "r")]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"


@pytest.mark.parametrize("make, argv", [
    (Path.mkdir, lambda tmp_path, bad: ["--config", str(bad)]),
    (Path.mkdir, lambda tmp_path, bad: [
        "--config", run_config(tmp_path, models={"barrier": {"path": str(bad)}})]),
    (lambda bad: bad.write_text("kept"), lambda tmp_path, bad: [
        "--config", run_config(tmp_path), "--out", str(bad)]),
    (lambda bad: bad.write_bytes(b'{"version": 1, "steps": "\xff"}'),
     lambda tmp_path, bad: ["--config", str(bad)]),
], ids=["config-is-directory", "model-is-directory", "out-is-file", "config-not-utf8"])
def test_path_error_named_before_any_episode(tmp_path, capsys, episodes, make, argv):
    """A path the user named that cannot be read or made a directory ends
    in one line naming it and exit 2, and no episode runs."""
    bad = tmp_path / "bad"
    make(bad)
    argv = ["compare", "--out", str(tmp_path / "r")] + argv(tmp_path, bad)
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert str(bad) in err
    assert episodes == []
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("name, config", [
    ("raw.csv", {}), ("summary.csv", {}), ("failures.csv", {}),
    ("t.csv", {"cell": {"row": {"budget": 1}},
               "table": {"file": "t.csv", "columns": {"r": "mean_reward"}}}),
])
def test_output_path_that_is_a_directory_named_before_any_episode(tmp_path, capsys, episodes,
                                                                  name, config):
    out = tmp_path / "r"
    (out / name).mkdir(parents=True)
    assert main(["compare", "--config", run_config(tmp_path, **config), "--out", str(out)]) == 2
    stdout, err = capsys.readouterr()
    assert stdout == "" and err == f"error: {out / name}: Is a directory\n"
    assert episodes == []
    assert sorted(p.name for p in out.iterdir()) == [name]


@pytest.mark.parametrize("make, bad, strerror", [
    (lambda out: out.write_text("kept"), "", "File exists"),
    (lambda out: (out / "model.bin").mkdir(parents=True), "model.bin", "Is a directory"),
], ids=["out-is-file", "model-is-directory"])
def test_train_model_output_path_named_before_training(tmp_path, capsys, monkeypatch, make,
                                                        bad, strerror):
    fits = []
    fit_mlp = cli.fit_mlp
    monkeypatch.setattr(cli, "fit_mlp", lambda *args, **kw: fits.append(args) or
                        fit_mlp(*args, **kw))
    out = tmp_path / "m"
    make(out)
    assert main(["train-model", "--episodes", "2", "--steps", "30", "--epochs", "1",
                 "--hidden", "6,6", "--out", str(out)]) == 2
    stdout, err = capsys.readouterr()
    assert stdout == "" and err == f"error: {out / bad}: {strerror}\n"
    assert fits == []


def test_readme_cli_lines_parse():
    """Every `trajplan ...` line in README's CLI block names a subcommand and
    flags that exist (the commands are parsed, not run)."""
    block = README.read_text().split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("trajplan ")]
    assert lines
    for line in lines:
        build_parser().parse_args(shlex.split(line)[1:])


class TestCompareCommand:
    def compare_config(self, tmp_path):
        path = tmp_path / "compare.json"
        path.write_text(json.dumps({
            "version": 1,
            "cells": [{"env": "barrier", "planner": "cem-50"},
                      {"env": "barrier", "planner": "cemgd"}],
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
            "cells": [{"env": "barrier", "planner": "cem-50"},
                      {"env": "cartpole", "planner": "cem-50"}],
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

    def test_train_model_diverging_fit_exits_2_and_writes_nothing(self, tmp_path, capsys,
                                                                  monkeypatch):
        # A real divergence (lr=1e6) is tested on fit_mlp in test_mlp.py.
        message = ("training diverged in epoch 3 of 30 (normalized MSE nan); use a smaller "
                   "learning rate than 0.001")

        def fit_mlp(*args, **kw):
            raise TrainingDivergedError(message)

        monkeypatch.setattr(cli, "fit_mlp", fit_mlp)
        code = main(["train-model", "--env", "barrier", "--episodes", "2",
                     "--steps", "30", "--epochs", "30", "--hidden", "6,6",
                     "--out", str(tmp_path / "m")])
        assert code == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not (tmp_path / "m" / "model.bin").exists()

    def test_train_model_then_compare_with_it(self, tmp_path):
        code = main(["train-model", "--env", "barrier", "--episodes", "2",
                     "--steps", "30", "--epochs", "1", "--hidden", "6,6",
                     "--out", str(tmp_path / "m")])
        assert code == 0
        model_path = tmp_path / "m" / "model.bin"
        assert model_path.exists()
        assert MlpModel.load_binary(model_path).d_s == 2
        path = tmp_path / "cmp.json"
        path.write_text(json.dumps({
            "version": 1,
            "cells": [{"env": "barrier", "planner": "cemgd"}],
            "planner_config": {"horizon": 3, "n_init": 10, "m_init": 1,
                               "n_r": 10, "m_r": 1},
            "steps": 2,
            "seeds": [0],
            "models": {"barrier": {"path": str(model_path)}},
        }))
        code = main(["compare", "--config", str(path), "--out", str(tmp_path / "r")])
        assert code == 0
