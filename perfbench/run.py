"""trajplan MPC benchmark: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload barrier_cemgd --seed 0 --seconds 30 --trace 0

Run from the root of a checkout. Each workload runs in fresh child
processes with one BLAS thread: several set-up-only children time
``setup_s`` (median reported), then one child measures MPC episodes for
``--seconds``. Timings in the JSON line are at a fixed reference speed
(calibration.py), so that the speed drift of a shared host does not move
them; the wall-clock ones are printed beside them. With ``--trace 0`` the
end-to-end metrics are printed;
with ``--trace 1`` the child runs its fixed traced episode pairs and the
per-layer metrics are printed instead. The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics;
the full record (episodes, checks, environment) is written under
``.perfbench/results``. See README.md next to this file.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS_DIR = ROOT / ".perfbench" / "results"

SETUP_SAMPLES = 7          # set-up-only children
CHILD_TIMEOUT_S = 170      # a run must end within 180 s
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

sys.path.insert(0, str(BENCH_DIR))
from calibration import normalised_ms  # noqa: E402
from stats import nearest_rank  # noqa: E402
from tracing import PER_LAYER  # noqa: E402
from workload import WORKLOADS  # noqa: E402

# End-to-end metrics with a bound in BENCHMARK.json, reported in the JSON line.
# The timings are at the reference speed of calibration.py.
END_TO_END = [
    ("setup_s", "s"),
    ("replan_norm_ms.p50", "ms"),
    ("replan_norm_ms.p90", "ms"),
    ("peak_rss_mb", "MiB"),
]
# Printed for every run, without a bound: the wall-clock timings move with
# the speed of a shared host, and the normalised first plan is one sample
# per episode whose long BLAS products the kernel does not track (see
# README.md, "Bounds and steadiness").
PRINTED_TIMINGS = [
    ("first_plan_norm_ms.p50", "ms"),
    ("setup_wall_s", "s"),
    ("first_plan_ms.p50", "ms"),
    ("replan_ms.p50", "ms"),
    ("replan_ms.p90", "ms"),
    ("mpc_steps_per_s", "steps/s"),
]
# Printed for every run; the results check holds them to the references.
QUALITY = [
    ("episode_reward.mean", "reward"),
    ("success_rate", "fraction"),
    ("failed_ratio", "fraction"),
]


class ChildFailed(RuntimeError):
    pass


def run_child(args: list[str], out: Path, deadline: float) -> dict:
    """Run workload.py in a fresh process and return the record it wrote."""
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    env["PERFBENCH_SPAWN_T"] = repr(time.monotonic())
    cmd = [sys.executable, str(BENCH_DIR / "workload.py"), *args, "--out", str(out)]
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=sys.stderr)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"workload child exceeded the {CHILD_TIMEOUT_S} s limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        raise ChildFailed(f"workload child exited with code {code}")
    record = json.loads(out.read_text())
    out.unlink()
    return record


def end_to_end(record: dict, setup_wall: list[float],
               setup_kernel: list[float]) -> tuple[dict, dict]:
    """End-to-end metrics and the quality figures of one untraced record.

    ``setup_wall`` holds the set-up times of the set-up-only children and
    ``setup_kernel`` the kernel time each of them measured right after its
    set-up.
    """
    episodes = record["episodes"]
    done = [e for e in episodes if not e["failed"]]
    first = [e["plan_times"][0] * 1e3 for e in done]
    replans = [t * 1e3 for e in done for t in e["plan_times"][1:]]
    first_norm = [normalised_ms(e["plan_times"][:1], e["kernel_times"][:1])[0] for e in done]
    replans_norm = [t for e in done
                    for t in normalised_ms(e["plan_times"][1:], e["kernel_times"][1:])]
    p90 = nearest_rank(replans_norm, 0.90)
    metrics = {
        "setup_s": statistics.median(normalised_ms(setup_wall, setup_kernel)) / 1e3,
        "setup_wall_s": statistics.median(setup_wall),
        "mpc_steps_per_s": sum(e["steps"] for e in episodes)
        / sum(e["wall_s"] - e.get("kernel_s", 0.0) for e in episodes),
        "first_plan_ms.p50": statistics.median(first) if first else 0.0,
        "replan_ms.p50": statistics.median(replans) if replans else 0.0,
        "replan_ms.p90": nearest_rank(replans, 0.90).value,
        "first_plan_norm_ms.p50": statistics.median(first_norm) if first_norm else 0.0,
        "replan_norm_ms.p50": statistics.median(replans_norm) if replans_norm else 0.0,
        "replan_norm_ms.p90": p90.value,
        "peak_rss_mb": record["peak_rss_kib"] / 1024.0,
    }
    successes = [e["success"] for e in done if e["success"] is not None]
    quality = {
        "episode_reward.mean": statistics.fmean(e["reward"] for e in done) if done else 0.0,
        "success_rate": statistics.fmean(successes) if successes else None,
        "failed_ratio": sum(not e["correct"] for e in episodes) / len(episodes),
    }
    samples = {
        "setup_s": len(setup_wall), "first_plan": len(first), "replans": len(replans),
        "p90.beyond": p90.beyond, "p90.tail_ok": p90.tail_ok,
    }
    return metrics, {"quality": quality, "samples": samples}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="trajplan MPC benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "trajplan" / "__init__.py").is_file():
        print(f"perfbench: no trajplan sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # SIGTERM unwinds through run_child's finally, which kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    child_out = RESULTS_DIR / f"{tag}.{os.getpid()}.child.json"
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setup_wall, setup_kernel = [], []
        if not args.trace:
            for _ in range(SETUP_SAMPLES):
                sample = run_child(common + ["--setup-only"], child_out, deadline)
                setup_wall.append(sample["setup_s"])
                setup_kernel.append(sample["kernel_s"])
        record = run_child(common + ["--seconds", str(args.seconds),
                                     "--trace", str(args.trace)], child_out, deadline)
    except (ChildFailed, OSError, ValueError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1

    episodes = record["episodes"]
    attempted = len(episodes)
    failed = sum(not e["correct"] for e in episodes)
    correct = failed == 0 and all(record["checks"].values())
    if args.trace:
        metrics = record["per_layer"]
        units = {name: unit for name, unit, _ in PER_LAYER}
        detail = {"spans": record["spans"], "untraced_points": record["untraced_points"]}
    else:
        measured, detail = end_to_end(record, setup_wall, setup_kernel)
        metrics = {name: measured[name] for name, _ in END_TO_END}
        units = dict(END_TO_END)
        detail["printed"] = {name: measured[name] for name, _ in PRINTED_TIMINGS}
        detail["setup_samples"] = {"wall_s": setup_wall, "kernel_s": setup_kernel}

    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "correct": correct, "attempted": attempted,
        "failed": failed, "checks": record["checks"], "metrics": metrics, **detail,
        "environment": record["environment"], "run_id": record["run_id"],
        "episodes": episodes,
    }
    (RESULTS_DIR / f"{tag}.json").write_text(json.dumps(summary, indent=1))

    for name, value in metrics.items():
        print(f"{args.workload}  {name:44s} {value:14.6g} {units[name]}")
    if not args.trace:
        for name, unit in PRINTED_TIMINGS:
            print(f"{args.workload}  {name:44s} {detail['printed'][name]:14.6g} {unit}")
        for name, unit in QUALITY:
            value = detail["quality"][name]
            shown = "n/a" if value is None else f"{value:.6g}"
            print(f"{args.workload}  {name:44s} {shown:>14s} {unit}")
        print(f"{args.workload}  samples {json.dumps(detail['samples'])}")
    if args.trace and detail["untraced_points"]:
        print(f"{args.workload}  not traced (names gone from trajplan): "
              f"{', '.join(detail['untraced_points'])}")
    checks = ", ".join(f"{k}={v}" for k, v in record["checks"].items())
    print(f"{args.workload}  correct={correct} attempted={attempted} failed={failed}"
          + (f" ({checks})" if checks else ""))
    env = record["environment"]
    print(f"{args.workload}  env python={env['python']} numpy={env['numpy']} "
          f"blas={env['blas']['name']} {env['blas']['version']} "
          f"threads={env['blas']['threads']} nproc={env['nproc']} cpu={env['cpu']!r} "
          f"commit={env['git_commit']} seed={env['seed']}")
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
