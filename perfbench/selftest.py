"""Self-tests of the benchmark's own code (not part of the library's test suite).

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import calibration  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workload as wl  # noqa: E402

wl.import_trajplan()


# -- percentile helper -------------------------------------------------------


@pytest.mark.parametrize("n, beyond, ok", [(99, 9, False), (100, 10, True), (250, 25, True)])
def test_p90_flags_a_tail_with_fewer_than_ten_samples_beyond_it(n, beyond, ok):
    p = stats.nearest_rank(range(1, n + 1), 0.90)
    assert p.beyond == beyond
    assert p.tail_ok is ok
    assert p.value == n - beyond


def test_nearest_rank_picks_a_sample_and_handles_empty_input():
    assert stats.nearest_rank([3.0, 1.0, 2.0], 0.5).value == 2.0
    assert stats.nearest_rank([5.0], 0.9) == stats.Percentile(5.0, 0)
    assert stats.nearest_rank([], 0.9).tail_ok is False


# -- self time -------------------------------------------------------------


def test_self_time_subtracts_child_coverage_once():
    # root [0, 10]; children [1, 4] and [3, 6] overlap on [3, 4];
    # a grandchild [2, 3] is covered by its own parent, not the root;
    # a child [9, 12] sticks out of the root and is clipped to [9, 10].
    parent = [-1, 0, 0, 1, 0]
    start = [0.0, 1.0, 3.0, 2.0, 9.0]
    end = [10.0, 4.0, 6.0, 3.0, 12.0]
    own = tracing.self_times(parent, start, end)
    assert own.tolist() == pytest.approx([10 - 5 - 1, 3 - 1, 3, 1, 3])


def test_self_times_of_nested_wrapped_calls_add_up_to_the_root():
    tracer = tracing.Tracer("synthetic")
    leaf = tracer.wrap(lambda: sum(range(1000)), "leaf")
    mid = tracer.wrap(lambda: [leaf() for _ in range(3)], "mid")
    root = tracer.wrap(lambda: (mid(), leaf()), "root")
    root()
    name_id, parent, _, start, end = tracer.arrays()
    own = tracing.self_times(parent, start, end)
    assert [tracer.names[i] for i in name_id] == ["root", "mid", "leaf", "leaf", "leaf", "leaf"]
    assert parent.tolist() == [-1, 0, 1, 1, 1, 0]
    assert own.sum() == pytest.approx(end[0] - start[0], rel=1e-9)
    assert (own >= 0).all()


# -- wrapper install / restore ------------------------------------------------


def _attributes():
    snapshot = {}
    for patch in tracing.PATCHES:
        module_name, _, cls = patch.owner.partition(":")
        module = importlib.import_module(module_name)
        owner = getattr(module, cls) if cls else module
        for name, value in vars(owner).items():
            snapshot[(patch.owner, name)] = value
    return snapshot


def test_install_then_restore_leaves_trajplan_attributes_identical():
    before = _attributes()
    tracer = tracing.Tracer("restore")
    with tracing.installed(tracer) as patched:
        assert patched.missing == []
        during = _attributes()
        changed = {key for key in before if during[key] is not before[key]}
        assert changed == {(p.owner, p.attr) for p in tracing.PATCHES}
    after = _attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_restore_happens_when_the_traced_code_raises():
    from trajplan import harness
    original = harness.run_episode
    with pytest.raises(RuntimeError):
        with tracing.installed(tracing.Tracer("raise")):
            assert harness.run_episode is not original
            raise RuntimeError("boom")
    assert harness.run_episode is original


def test_a_patch_point_that_no_longer_exists_is_skipped_and_reported():
    from trajplan import harness
    original = harness.run_episode
    patches = [tracing.Patch("trajplan.harness", "no_such_name", "x"),
               tracing.Patch("trajplan.no_such_module", "f", "x"),
               tracing.Patch("trajplan.harness", "run_episode", "harness.run_episode")]
    with tracing.installed(tracing.Tracer("missing"), patches) as patched:
        assert harness.run_episode is not original
    assert patched.missing == ["trajplan.harness.no_such_name", "trajplan.no_such_module.f"]
    assert harness.run_episode is original
    assert not hasattr(harness, "no_such_name")


def test_traced_episode_matches_untraced_and_counts_are_exact(tmp_path):
    workload = wl.Workload(name="tiny", env="barrier", planner="cemgd",
                           planner_config={"horizon": 5, "n_init": 20, "m_init": 2,
                                           "n_r": 10, "m_r": 2, "G": 2, "J": 3},
                           steps=4, pool=(0,), held_out=(1,), trace_pairs=1)
    prepared = wl.setup(workload, tmp_path)
    plain = wl.run_one_episode(workload, prepared, 0, tmp_path)
    tracer = tracing.Tracer("tiny")
    with tracing.installed(tracer):
        traced = wl.run_one_episode(workload, prepared, 0, tmp_path)
    assert traced["hash"] == plain["hash"]
    layer = tracing.per_layer_metrics(tracing.Tracer("setup"), tracer, 1, 1.0)
    assert list(layer) == [name for name, _, _ in tracing.PER_LAYER]
    assert layer["cemgd.plan.calls"] == 4
    assert layer["cem.run_cem.calls"] == 4
    assert layer["cem.samples"] == 20 * 2 + 3 * 10 * 2
    assert layer["gradplanner.line_search_update.calls"] == 4 * 2
    assert layer["core.rollout_batch.rows"] == 20 * 2 + 3 * 10 * 2 + 4 * 2 * 3
    assert layer["core.rollout.calls_under_plan"] == 4
    # rollouts: CEM samples + line-search candidates, 5 steps each, plus the
    # rollouts in optimize and plan (B=1) and the true-env steps (B=1).
    assert layer["dynamics.step.rows"] == 5 * (40 + 60 + 24) + 5 * 4 * 2 + 4
    assert 0.0 <= layer["gradplanner.line_search.accept_ratio"] <= 1.0


# -- calibration ---------------------------------------------------------------


def test_bracketed_episode_matches_plain_and_restores_make_policy(tmp_path):
    from trajplan import harness
    workload = wl.Workload(name="tiny", env="barrier", planner="cemgd",
                           planner_config={"horizon": 5, "n_init": 20, "m_init": 2,
                                           "n_r": 10, "m_r": 2, "G": 2, "J": 3},
                           steps=4, pool=(0,), held_out=(1,), trace_pairs=1)
    prepared = wl.setup(workload, tmp_path)
    original = harness.make_policy
    plain = wl.run_one_episode(workload, prepared, 0, tmp_path)
    bracketed = wl.run_one_episode(workload, prepared, 0, tmp_path, calibration.Kernel())
    assert harness.make_policy is original
    assert bracketed["hash"] == plain["hash"]
    assert len(bracketed["plan_times"]) == len(bracketed["kernel_times"]) == 4
    assert all(k > 0.0 for k in bracketed["kernel_times"])
    # one pass before the first plan and one after each plan
    assert bracketed["kernel_s"] > 4 * min(bracketed["kernel_times"])
    with pytest.raises(RuntimeError):
        with calibration.bracketed(calibration.Kernel()):
            raise RuntimeError("boom")
    assert harness.make_policy is original


def test_normalised_latency_is_plan_time_over_kernel_time():
    ref = calibration.REFERENCE_KERNEL_MS
    assert calibration.normalised_ms([0.2, 0.1], [0.01, 0.005]) == [20 * ref, 20 * ref]


# -- workload inputs ------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_workload_inputs_are_deterministic_by_seed(name):
    workload = wl.WORKLOADS[name]
    assert wl.episode_order(workload, 3) == wl.episode_order(workload, 3)
    orders = {tuple(wl.episode_order(workload, seed)) for seed in range(10)}
    assert len(orders) > 1
    assert all(sorted(order) == sorted(workload.pool) for order in orders)
    held = wl.episode_order(workload, wl.HELD_OUT_FROM)
    assert sorted(held) == sorted(workload.held_out)
    assert not set(workload.pool) & set(workload.held_out)
    assert workload.min_episodes * (workload.steps - 1) >= wl.MIN_REPLANS


def test_every_workload_has_a_reference_for_every_episode_seed():
    for name, workload in wl.WORKLOADS.items():
        ref = wl.load_reference(name)
        assert ref is not None, name
        assert set(ref["episodes"]) == {str(s) for s in workload.pool + workload.held_out}


def test_deterministic_hash_ignores_plan_time_only(tmp_path):
    a, b, c = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
    a.write_text("env,step,plan_time_s\nbarrier,0,0.1\n")
    b.write_text("env,step,plan_time_s\nbarrier,0,0.2\n")
    c.write_text("env,step,plan_time_s\nbarrier,1,0.1\n")
    assert wl.deterministic_hash(a) == wl.deterministic_hash(b) != wl.deterministic_hash(c)


def test_benchmark_json_lists_the_metrics_the_benchmark_reports():
    import run
    bench = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == dict(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == tracing.PER_LAYER
