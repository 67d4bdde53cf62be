"""Regenerate the results-check references of one or all workloads.

    python3 perfbench/make_reference.py [--workload NAME]

Runs every episode seed of the workload's pool and held-out pool once,
with one BLAS thread as in the benchmark, and writes
``perfbench/reference/<workload>.json``: per episode seed, the sha256 of
the deterministic raw.csv columns, the episode reward and the success
flag. Only regenerate when a change is meant to alter results, and say so
in the change.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

import workload as wl  # noqa: E402


def make_reference(workload: wl.Workload) -> dict:
    work_dir = wl.WORK_DIR / f"reference-{workload.name}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        prepared = wl.setup(workload, work_dir)
        episodes = {}
        for seed in workload.pool + workload.held_out:
            record = wl.run_one_episode(workload, prepared, seed, work_dir)
            if record["failed"]:
                raise SystemExit(f"{workload.name}: episode {seed} failed: {record['error']}")
            episodes[str(seed)] = {"hash": record["hash"], "reward": record["reward"],
                                   "success": record["success"]}
            print(f"{workload.name} episode {seed}: reward {record['reward']:.6f} "
                  f"({record['wall_s']:.1f} s)", file=sys.stderr)
        ref = {"workload": workload.name, "steps": workload.steps,
               "planner": workload.planner, "planner_config": workload.planner_config,
               "episodes": episodes}
        if workload.mlp:
            ref["model_sha256"] = hashlib.sha256(
                prepared.model_path.read_bytes()).hexdigest()
        return ref
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    args = parser.parse_args(argv)
    wl.import_trajplan()
    names = [args.workload] if args.workload else sorted(wl.WORKLOADS)
    wl.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names:
        ref = make_reference(wl.WORKLOADS[name])
        wl.reference_path(name).write_text(json.dumps(ref, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
