"""Alternating parent/change pairs of the benchmark, and the claim verdict.

    python3 tools/bench_pairs.py --label NAME [--parent REV] [--seed 1911]
        [--pairs 10] [--workloads survey,fit,city] [--seconds 16]
        [--trace 0|1] [--claim survey:wall_s] [--what TEXT]

Run from the root of a checkout: that tree is the change. The parent is
commit REV (default HEAD), exported with ``git archive`` into a temporary
directory, so the repository itself is left as it was. Each pair runs
``bench/run.py`` once on each side with the same seed (seeds count up from
--seed), and the side that runs first alternates from pair to pair. Each
side runs its own ``bench/``.

The result goes to BENCH_<label>.json: every run, and per workload and
metric each side's quartiles over its correct runs, the pairs the change
won and lost, and the verdict of ``verdict``. A run stopped by SIGTERM or
Ctrl-C kills the running benchmark with its workers and removes the
exported parent. Standard library only.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

# A gain is claimed when the change wins at least this share of the pairs
# (ties count for neither side) and its median beats the parent's by more
# than the parent's interquartile range.
WIN_SHARE = 0.9


def quartiles(values: list[float]) -> list[float]:
    """[q1, median, q3], with quartiles interpolated between the data."""
    if len(values) == 1:
        return [values[0]] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q2, q3]


def verdict(parent: list[float], change: list[float], better: str) -> dict:
    """Compare paired runs of one metric; ``parent[i]`` and ``change[i]``
    ran with the same seed. ``better`` is "lower" or "higher".

    The claim holds when the change is better in at least WIN_SHARE of the
    pairs and the medians differ, in the better direction, by more than the
    parent's interquartile range.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of parent and "
                         "change runs")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    sign = 1.0 if better == "lower" else -1.0
    gains = [sign * (p - c) for p, c in zip(parent, change)]
    p_q, c_q = quartiles(parent), quartiles(change)
    gap = sign * (p_q[1] - c_q[1])
    wins = sum(g > 0 for g in gains)
    return {
        "parent_q1_median_q3": p_q,
        "change_q1_median_q3": c_q,
        "change_over_parent_median": c_q[1] / p_q[1] if p_q[1] else None,
        "change_better_in_pairs": wins,
        "change_worse_in_pairs": sum(g < 0 for g in gains),
        "pairs": len(parent),
        "parent_iqr": p_q[2] - p_q[0],
        "median_gap": gap,
        "claim_met": wins >= WIN_SHARE * len(parent) and gap > p_q[2] - p_q[0],
    }


def exit_on_sigterm() -> None:
    """Make SIGTERM raise SystemExit, so that a stopped run unwinds like an
    interrupted one: ``with`` blocks remove their temporary directories and
    ``child_group`` kills the running child."""
    signal.signal(signal.SIGTERM,
                  lambda signum, frame: sys.exit(128 + signum))


@contextlib.contextmanager
def child_group(argv: list, **popen_kwargs):
    """A child process in a process group of its own. If the block is left
    by an exception, the whole group is killed, so that no grandchild (a
    benchmark worker) outlives the tool."""
    proc = subprocess.Popen(argv, start_new_session=True, **popen_kwargs)
    try:
        yield proc
    except BaseException:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def run_side(root: Path, workload: str, seed: int, seconds: float,
             trace: int) -> dict:
    """One ``bench/run.py`` run from the checkout at ``root``: its last
    standard output line, with the metric values unwrapped."""
    with child_group(
            [sys.executable, "bench/run.py", "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace)],
            cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True) as proc:
        stdout, stderr = proc.communicate()
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "attempted": 0, "failed": 0,
                  "metrics": {}}
    out = {"exit": proc.returncode, "correct": bool(result["correct"]),
           "attempted": result["attempted"], "failed": result["failed"],
           **{k: v["value"] for k, v in result["metrics"].items()}}
    if proc.returncode != 0:
        out["stderr"] = stderr.strip().splitlines()[-3:]
    return out


def export_parent(rev: str, dest: Path) -> None:
    """Write the tree of commit ``rev`` into ``dest`` with ``git archive``."""
    archive = dest / "parent.tar"
    subprocess.run(["git", "archive", "--format=tar", "-o", str(archive),
                    rev], check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(dest / "tree", filter="data")
    archive.unlink()


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per metric, the verdict over the pairs where both sides were
    correct and reported it, and the incorrect runs of each side."""
    out = {"incorrect_runs": {side: sum(not p[side]["correct"]
                                        for p in pairs)
                              for side in ("parent", "change")}}
    for m in metrics:
        name = m["name"]
        both = [p for p in pairs
                if p["parent"]["correct"] and p["change"]["correct"]
                and name in p["parent"] and name in p["change"]]
        if both:
            out[name] = verdict([p["parent"][name] for p in both],
                                [p["change"][name] for p in both],
                                m["better"])
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--parent", default="HEAD")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workloads")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--claim", help="WORKLOAD:METRIC")
    parser.add_argument("--what", default="")
    args = parser.parse_args(argv)
    exit_on_sigterm()

    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seconds = args.seconds or spec["run_seconds"]
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    record = {"label": args.label, "what": args.what,
              "parent": args.parent, "seconds": seconds,
              "trace": args.trace, "pairs": {}, "summary": {}}
    with tempfile.TemporaryDirectory() as tmp:
        export_parent(args.parent, Path(tmp))
        sides = {"parent": Path(tmp) / "tree", "change": root}
        for workload in workloads:
            runs = []
            for i in range(args.pairs):
                seed = args.seed + i
                order = ("parent", "change") if i % 2 == 0 else (
                    "change", "parent")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_side(sides[side], workload, seed,
                                          seconds, args.trace)
                runs.append(pair)
                print(f"{workload} seed {seed}: " + ", ".join(
                    f"{s} {pair[s].get('wall_s', pair[s].get('trace.wall_s'))}"
                    f"{'' if pair[s]['correct'] else ' (failed)'}"
                    for s in order), file=sys.stderr)
            record["pairs"][workload] = runs
            record["summary"][workload] = summarize(runs, metrics)
    if args.claim:
        workload, metric = args.claim.split(":")
        record["claim"] = {"workload": workload, "metric": metric,
                           **record["summary"][workload].get(metric, {})}
    out = root / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
