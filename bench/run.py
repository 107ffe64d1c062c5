"""Benchmark entry point.

    python3 bench/run.py --workload {survey,fit,city} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout. The program is imported from
``src/``; nothing is installed. Each run makes its inputs from the seed in
a set-up process, then times whole rounds of the workload for S seconds in
a fresh process, single-threaded, and checks every round's outputs.

--trace 0 prints the end-to-end metrics; --trace 1 runs the rounds once
untraced and once traced (S/2 seconds each) and prints the per-layer
metrics and the tracing overhead. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. The full
record (environment, every round, every set-up) goes to
.bench_results/.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracing import PER_LAYER  # noqa: E402

WORKLOADS = ("survey", "fit", "city")
END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"),
              ("setup_s", "s"), ("km_per_s", "km/s"))
SETUP_REPEATS = 3
DEADLINE_S = 170.0
# One thread for every BLAS/OpenMP pool and a fixed hash seed, so that the
# figures measure the program and not the scheduler or dict ordering.
CHILD_ENV = {"PYTHONHASHSEED": "0", "OMP_NUM_THREADS": "1",
             "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class ChildError(RuntimeError):
    pass


def child(args: list, deadline: float) -> dict:
    """Run worker.py with ``args``; its last stdout line is its result."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise ChildError("out of time before starting a child process")
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *map(str, args)],
        stdout=subprocess.PIPE, text=True, timeout=timeout,
        env={**os.environ, **CHILD_ENV})
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildError(f"worker {args[0]} exited with {proc.returncode}")
    return json.loads(lines[-1])


def end_to_end(setup: dict, timed: dict) -> dict:
    """Medians over the run's rounds and set-ups, in reference seconds
    (hostspeed.py)."""
    rounds = timed["rounds"]
    wall = statistics.median(r["wall_ref_s"] for r in rounds)
    return {
        "wall_s": wall,
        "cpu_s": statistics.median(r["cpu_ref_s"] for r in rounds),
        "peak_rss_mb": timed["peak_rss_mb"],
        "setup_s": statistics.median(setup["setup_ref_s"]),
        "km_per_s": timed["km"] / wall,
    }


def per_layer(plain: dict, traced: dict) -> dict:
    layers = dict(traced["layers"])
    untraced = statistics.median(r["wall_s"] for r in plain["rounds"])
    layers["trace.overhead_s"] = layers["trace.wall_s"] - untraced
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "roadroughness" / "cli" / "pipeline.py").is_file():
        print(f"no program source under {root / 'src'}; run from the root "
              f"of a roadroughness checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    common = [args.workload, args.seed, work]
    try:
        setup = child(["setup", *common,
                       1 if args.trace else SETUP_REPEATS], deadline)
        if args.trace:
            half = max(1.0, args.seconds / 2)
            runs = [child(["timed", *common, half, 0], deadline),
                    child(["timed", *common, half, 1], deadline)]
        else:
            runs = [child(["timed", *common, args.seconds, 0], deadline)]
    except (ChildError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = all(r["correct"] for r in runs)
    rounds = [x for r in runs for x in r["rounds"]]
    if not correct:
        metrics = {}
    elif args.trace:
        values = per_layer(*runs)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in PER_LAYER}
    else:
        values = end_to_end(setup, runs[0])
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    result = {"correct": correct,
              "attempted": sum(r["attempted"] for r in rounds),
              "failed": sum(r["failed"] for r in rounds),
              "metrics": metrics}

    record_dir = root / ".bench_results"
    record_dir.mkdir(exist_ok=True)
    record = {"args": vars(args), "setup": setup, "runs": runs,
              "result": result}
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (record_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}-"
                  f"{stamp}-{os.getpid()}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for r in runs:
        if not r["correct"]:
            print(f"check failed: {r['error']}", file=sys.stderr)
    env = runs[0]["env"]
    print("env: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
