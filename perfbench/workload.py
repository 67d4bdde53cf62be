"""One benchmark workload in one fresh process.

Run by ``run.py``; not meant to be started by hand. The process imports
trajplan from the checkout's ``src``, sets the workload up (for
``mlp_cemgd`` that trains, saves and reloads the planning model), then
runs seeded MPC episodes through ``harness.compare_planners`` until the
measuring time is used up, with every plan call bracketed by passes of
the calibration kernel (calibration.py), checks every episode's results
and writes one JSON record to ``--out``. With ``--setup-only`` it stops
after set-up and times the kernel instead.

With ``--trace 1`` it instead runs a fixed number of episode pairs: each
episode once untraced and once under the span wrappers of ``tracing``,
so that the per-layer counts repeat exactly and the traced results can
be compared with the untraced ones.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import cycle
from pathlib import Path

import numpy as np

import tracing
from calibration import Kernel, bracketed

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_DIR = BENCH_DIR / "reference"
WORK_DIR = ROOT / ".perfbench"

HELD_OUT_FROM = 1000       # benchmark seeds >= this draw from the held-out episode pool
MIN_REPLANS = 100          # so that >= 10 replan samples lie beyond p90
MLP_REWARD_RTOL = 1e-6     # see README.md, "Results check"
SETUP_KERNEL_PASSES = 7    # kernel passes after a set-up-only child's set-up; median used


@dataclass(frozen=True)
class Workload:
    name: str
    env: str
    planner: str
    planner_config: dict
    steps: int
    pool: tuple            # episode seeds for benchmark seeds < HELD_OUT_FROM
    held_out: tuple        # episode seeds for benchmark seeds >= HELD_OUT_FROM
    trace_pairs: int       # untraced + traced episode pairs in a traced run
    mlp: dict = field(default_factory=dict)

    @property
    def min_episodes(self) -> int:
        return math.ceil(MIN_REPLANS / (self.steps - 1))


WORKLOADS = {
    # Gradient refinement at small batches (B=1 backward, B=8 line search,
    # B=10 CEM) with the paper's defaults: per-call overhead dominates.
    "barrier_cemgd": Workload(
        name="barrier_cemgd", env="barrier", planner="cemgd", planner_config={},
        steps=100, pool=tuple(range(12)), held_out=tuple(range(12, 16)), trace_pairs=2),
    # Batched rollouts with no gradients: 100 samples x 50 iterations per step.
    "cartpole_cem5000": Workload(
        name="cartpole_cem5000", env="cartpole", planner="cem-5000", planner_config={},
        steps=100, pool=tuple(range(6)), held_out=tuple(range(6, 8)), trace_pairs=1),
    # The only workload on MlpModel: planning with it in the run, training
    # it (batch-64 parameter gradients) in set-up. Desk budgets; 101 steps
    # give 100 replans in one episode.
    "mlp_cemgd": Workload(
        name="mlp_cemgd", env="barrier", planner="cemgd",
        planner_config={"n_init": 1000, "m_init": 5, "horizon": 30},
        steps=101, pool=tuple(range(6)), held_out=tuple(range(6, 8)), trace_pairs=1,
        mlp={"data_seed": 0, "episodes": 20, "steps": 50, "epochs": 5,
             "batch_size": 64, "hidden": (200, 200, 200)}),
}


def episode_order(workload: Workload, seed: int) -> list[int]:
    """The episode seeds a run takes, in order; a pure function of the benchmark seed."""
    pool = workload.held_out if seed >= HELD_OUT_FROM else workload.pool
    return [int(s) for s in np.random.default_rng(seed).permutation(pool)]


# ---------------------------------------------------------------------------
# Environment record


def _blas_runtime():
    """(config string, thread count) of the loaded OpenBLAS, or (None, None)."""
    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return None, None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if get_config is not None and get_threads is not None:
                    get_config.restype = ctypes.c_char_p
                    get_config.argtypes = []
                    get_threads.restype = ctypes.c_int
                    get_threads.argtypes = []
                    return get_config().decode(), int(get_threads())
    return None, None


def _git_commit(root: Path):
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref_path = root / ".git" / ref[5:]
        if ref_path.exists():
            return ref_path.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment_record(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    runtime_config, threads = _blas_runtime()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "runtime": runtime_config, "threads": threads,
                 "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "git_commit": _git_commit(ROOT),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# Set-up


def import_trajplan():
    """Import trajplan from this checkout's src, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "trajplan" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no trajplan sources under {src}")
    sys.path.insert(0, str(src))
    import trajplan
    if Path(trajplan.__file__).resolve().parent != (src / "trajplan").resolve():
        raise SystemExit(f"perfbench: imported trajplan from {trajplan.__file__}, "
                         f"not from {src}")
    return trajplan


@dataclass
class Prepared:
    planner_config: object
    planning_models: dict | None = None
    trained: object = None          # the MLP as fit_mlp returned it
    model_path: Path | None = None  # where it was saved and loaded from


def setup(workload: Workload, work_dir: Path) -> Prepared:
    """Everything before the first plan call: config and, for the MLP, the model."""
    from trajplan import dynamics, harness  # noqa: F401  (imports count as set-up)
    from trajplan.core import PlannerConfig

    cfg = PlannerConfig(**workload.planner_config)
    if not workload.mlp:
        return Prepared(cfg)
    spec = workload.mlp
    env = dynamics.make_environment(workload.env)
    rng = np.random.default_rng(spec["data_seed"])
    data = dynamics.collect_random_rollouts(env.dynamics, env.bounds, env.start_state,
                                            episodes=spec["episodes"], steps=spec["steps"],
                                            rng=rng)
    trained, _ = dynamics.fit_mlp(data, epochs=spec["epochs"], batch_size=spec["batch_size"],
                                  hidden=spec["hidden"], rng=rng)
    path = work_dir / "model.bin"
    trained.save_binary(path)
    model = dynamics.MlpModel.load_binary(path)
    return Prepared(cfg, {workload.env: model}, trained, path)


def check_round_trip(prepared: Prepared, work_dir: Path) -> bool:
    """The loaded model equals the trained one bit for bit and re-saves to the same bytes."""
    trained, path = prepared.trained, prepared.model_path
    (model,) = prepared.planning_models.values()
    again = work_dir / "model.resaved.bin"
    model.save_binary(again)
    arrays = lambda m: [m.in_mean, m.in_std, m.out_mean, m.out_std,  # noqa: E731
                        *[a for layer in m.weights for a in layer]]
    same_arrays = all(a.dtype == b.dtype and a.shape == b.shape and
                      np.array_equal(a.view(np.uint64), b.view(np.uint64))
                      for a, b in zip(arrays(trained), arrays(model)))
    return same_arrays and path.read_bytes() == again.read_bytes()


# ---------------------------------------------------------------------------
# Episodes


def deterministic_hash(raw_csv: Path) -> str:
    """sha256 of raw.csv with the plan_time_s column removed."""
    digest = hashlib.sha256()
    with open(raw_csv, newline="") as f:
        reader = csv.reader(f)
        header = next(reader)
        keep = [i for i, col in enumerate(header) if col != "plan_time_s"]
        for row in [header, *reader]:
            digest.update((",".join(row[i] for i in keep) + "\n").encode())
    return digest.hexdigest()


def run_one_episode(workload: Workload, prepared: Prepared, seed: int, work_dir: Path,
                    kernel: Kernel | None = None) -> dict:
    """One seeded episode through the harness entry point, plus its raw.csv.

    With a calibration ``kernel``, every plan call is bracketed by kernel
    passes (see calibration.py): ``plan_times`` are then the plan calls'
    own times, ``kernel_times`` their brackets, and ``kernel_s`` the
    episode's total kernel time. Without one, ``plan_times`` are the
    harness's own.
    """
    from trajplan import harness
    raw = work_dir / "raw.csv"
    t0 = time.perf_counter()
    with bracketed(kernel) if kernel is not None else nullcontext() as policies:
        result = harness.compare_planners([workload.env], [seed], steps=workload.steps,
                                          cfg=prepared.planner_config,
                                          planners=[workload.planner],
                                          planning_models=prepared.planning_models)
    harness.write_raw_csv(result.results, raw)
    wall = time.perf_counter() - t0
    record = {"seed": seed, "wall_s": wall, "failed": bool(result.failures)}
    if result.failures:
        record.update(steps=int(result.failures[0]["step"]), error=result.failures[0]["error"])
        return record
    (episode,) = result.results
    plan_times = [float(x) for x in episode.plan_times]
    if kernel is not None:
        (policy,) = policies
        plan_times = policy.plan_s
        record.update(kernel_times=policy.kernel_s, kernel_s=policy.passes_s)
    record.update(steps=int(episode.true_rewards.shape[0]),
                  plan_times=plan_times,
                  reward=float(episode.episode_reward),
                  success=episode.success,
                  hash=deterministic_hash(raw))
    return record


def check_episode(workload: Workload, record: dict, reference: dict) -> bool:
    """The episode's results match the reference stored for its episode seed.

    Analytic workloads: the deterministic raw.csv hash is equal. MLP: the
    episode reward is within MLP_REWARD_RTOL, because MLP bits depend on
    the BLAS kernel and batch shape.
    """
    if record["failed"]:
        return False
    expected = reference["episodes"][str(record["seed"])]
    if workload.mlp:
        return abs(record["reward"] - expected["reward"]) <= MLP_REWARD_RTOL * abs(expected["reward"])
    return record["hash"] == expected["hash"]


def reference_path(name: str) -> Path:
    return REFERENCE_DIR / f"{name}.json"


def load_reference(name: str) -> dict | None:
    path = reference_path(name)
    return json.loads(path.read_text()) if path.exists() else None


def measure(workload: Workload, prepared: Prepared, order: list[int], seconds: float,
            work_dir: Path) -> list[dict]:
    """Whole episodes, each plan bracketed by kernel passes, until the next
    episode would end past the deadline.

    At least ``min_episodes`` run, so every run has MIN_REPLANS replans.
    """
    records = []
    kernel = Kernel()
    start = time.perf_counter()
    deadline = start + seconds
    for seed in cycle(order):
        records.append(run_one_episode(workload, prepared, seed, work_dir, kernel))
        now = time.perf_counter()
        if len(records) >= workload.min_episodes:
            if now + (now - start) / len(records) > deadline:
                break
    return records


def measure_traced(workload: Workload, prepared: Prepared, order: list[int], run_id: str,
                   work_dir: Path):
    """Episode pairs, untraced then traced.

    Returns both record lists, the tracer and the patch points that could
    not be installed.
    """
    tracer = tracing.Tracer(run_id)
    untraced, traced, missing = [], [], set()
    for seed in order[: workload.trace_pairs]:
        untraced.append(run_one_episode(workload, prepared, seed, work_dir))
        with tracing.installed(tracer) as patched:
            traced.append(run_one_episode(workload, prepared, seed, work_dir))
        missing.update(patched.missing)
    return untraced, traced, tracer, missing


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    spawned = float(os.environ.get("PERFBENCH_SPAWN_T", time.monotonic()))
    workload = WORKLOADS[args.workload]
    import_trajplan()
    work_dir = WORK_DIR / f"{workload.name}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        out = run(workload, args, spawned, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    Path(args.out).write_text(json.dumps(out))
    return 0


def run(workload: Workload, args, spawned: float, work_dir: Path) -> dict:
    run_id = f"{workload.name}-seed{args.seed}-{os.getpid()}-{time.time_ns()}"

    if args.trace:
        setup_tracer = tracing.Tracer(run_id)
        with tracing.installed(setup_tracer) as patched:
            prepared = setup(workload, work_dir)
        missing = set(patched.missing)
    else:
        prepared = setup(workload, work_dir)
    setup_s = time.monotonic() - spawned
    out = {"workload": workload.name, "setup_s": setup_s}
    if args.setup_only:
        # The machine's speed right after set-up, to normalise setup_s by.
        kernel = Kernel()
        out["kernel_s"] = statistics.median(kernel() for _ in range(SETUP_KERNEL_PASSES))
        return out

    reference = load_reference(workload.name)
    if reference is None:
        raise SystemExit(f"perfbench: no reference file {reference_path(workload.name)}")
    made_for = (reference["steps"], reference["planner"], reference["planner_config"])
    if made_for != (workload.steps, workload.planner, workload.planner_config):
        raise SystemExit(f"perfbench: {reference_path(workload.name)} was made for another "
                         f"definition of {workload.name}; regenerate it")
    checks = {}
    if workload.mlp:
        checks["model_round_trip"] = check_round_trip(prepared, work_dir)
    order = episode_order(workload, args.seed)

    if args.trace:
        untraced, traced, tracer, missing_now = measure_traced(workload, prepared, order,
                                                               run_id, work_dir)
        out["untraced_points"] = sorted(missing | missing_now)
        records = untraced + traced
        pairs_equal = all(u.get("hash") == t.get("hash") and u["steps"] == t["steps"]
                          for u, t in zip(untraced, traced))
        checks["traced_hash_equals_untraced"] = pairs_equal
        overhead = sum(r["wall_s"] for r in traced) / sum(r["wall_s"] for r in untraced)
        out["per_layer"] = tracing.per_layer_metrics(setup_tracer, tracer, len(traced),
                                                     overhead)
        trace_dir = WORK_DIR / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        tracer.save(trace_dir / f"{workload.name}-episodes.npz")
        setup_tracer.save(trace_dir / f"{workload.name}-setup.npz")
        out["spans"] = len(tracer) + len(setup_tracer)
    else:
        records = measure(workload, prepared, order, args.seconds, work_dir)

    for r in records:
        r["correct"] = check_episode(workload, r, reference)
    out.update(
        episodes=records,
        checks=checks,
        peak_rss_kib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        environment=environment_record(args.seed),
        run_id=run_id,
    )
    return out


if __name__ == "__main__":
    sys.exit(main())
