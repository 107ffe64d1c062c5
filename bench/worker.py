"""One child process of the benchmark: the set-up of a workload, or its
timed rounds. Started by run.py; prints one JSON object as its last line.

    python3 bench/worker.py setup <workload> <seed> <workdir> <repeats>
    python3 bench/worker.py timed <workload> <seed> <workdir> <seconds> <trace>
"""
from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from checks import CheckError  # noqa: E402

import roadroughness.cli.pipeline  # noqa: E402,F401  (import before timing)

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_MIN_S = 1.0
# A fit round takes 9-16 s; without a floor a 16 s run on a slow host holds
# one round, and its "median" is that round alone.
MIN_ROUNDS = 2


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
            **{k.lower(): os.environ.get(k) for k in THREAD_VARS}}


def setup(workload, repeats: int) -> dict:
    """Build the inputs at least ``repeats`` times and for at least
    SETUP_MIN_S, so that a set-up of milliseconds still gives a steady
    median; the last build is kept. Each build is timed in host seconds and
    in reference seconds (hostspeed.py). The inputs that only the checks
    read are built once, afterwards."""
    hostspeed.warm_up()
    times, ref_times = [], []
    while len(times) < repeats or sum(times) < SETUP_MIN_S:
        watch = hostspeed.Stopwatch()
        workload.setup(tracing.Tracer(False), watch.mark)
        watch.mark()
        times.append(watch.wall)
        ref_times.append(watch.wall_ref)
    workload.setup_checks()
    return {"setup_s": times, "setup_ref_s": ref_times}


def timed(workload, seconds: float, traced: bool) -> dict:
    """Whole rounds until ``seconds`` have passed, and at least MIN_ROUNDS
    of them, each checked after its timing stops. Each round is timed in
    host seconds and in reference seconds (hostspeed.py)."""
    tracer = tracing.Tracer(traced)
    if traced:
        tracing.install(tracer)
    workload.load()
    hostspeed.warm_up()
    rounds, quality = [], {}
    start = time.perf_counter()
    while True:
        watch = hostspeed.Stopwatch()
        tracer.enabled = traced
        out = workload.round(tracer, watch.mark)
        tracer.enabled = False
        watch.mark()
        rounds.append({"wall_s": watch.wall, "cpu_s": watch.cpu,
                       "wall_ref_s": watch.wall_ref,
                       "cpu_ref_s": watch.cpu_ref,
                       "attempted": out["attempted"],
                       "failed": out["failed"]})
        try:
            quality = workload.check(out)
        except CheckError as exc:
            return {"correct": False, "error": str(exc), "rounds": rounds}
        if (time.perf_counter() - start >= seconds
                and len(rounds) >= MIN_ROUNDS):
            break
    result = {"correct": True, "rounds": rounds, "km": workload.km,
              "peak_rss_mb": resource.getrusage(
                  resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if traced:
        wall = sum(r["wall_s"] for r in rounds)
        result["layers"] = tracing.layer_metrics(tracer, len(rounds), wall,
                                               quality)
        result["layers"]["trace.wall_s"] = statistics.median(
            r["wall_s"] for r in rounds)
    return result


def main(argv: list[str]) -> int:
    role, name, seed, workdir = argv[0], argv[1], int(argv[2]), Path(argv[3])
    workload = workloads.WORKLOADS[name](workdir, seed)
    if role == "setup":
        result = setup(workload, int(argv[4]))
    else:
        result = timed(workload, float(argv[4]), argv[5] == "1")
    result["env"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
