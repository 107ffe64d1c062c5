"""Wall time and peak RSS of each CLI stage run alone as its own process.

    python3 tools/stage_processes.py --config CONFIG.json --label NAME
        [--parent REV] [--repeats 5]

Run from the root of a checkout: that tree is the change, the parent is
commit REV (default HEAD), exported as ``tools/bench_pairs.py`` does. Each
repeat runs, on each side and in a fresh work directory, ``roadroughness
--help`` and then every stage and ``report`` as separate processes in
pipeline order; the side that runs first alternates. A process's peak RSS
is its own ``ru_maxrss``, from ``os.wait4``. The benchmark's harness times
stages inside one process, so it does not see what a process pays to start.

The record goes under ``stage_processes`` in BENCH_<label>.json, which is
created if missing: every run, and per side and command the quartiles of
wall time and peak RSS. A run stopped by SIGTERM or Ctrl-C kills the
running command and removes the exported parent and the work directories.
Standard library only.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench_pairs import (child_group, exit_on_sigterm, export_parent,
                         quartiles)

COMMANDS = ("--help", "simulate", "match", "align", "featurize", "select",
            "train", "evaluate", "report")


def run_command(src: Path, command: str, config: Path, workdir: Path) -> dict:
    """One CLI process on the source tree ``src``: its wall time in
    seconds and peak RSS in MB."""
    argv = [sys.executable, "-m", "roadroughness.cli.main", command]
    if command != "--help":
        argv += ["--config", str(config), "--out", str(workdir)]
    env = dict(os.environ, PYTHONPATH=str(src))
    start = time.perf_counter()
    with child_group(argv, env=env, stdout=subprocess.DEVNULL,
                     stderr=subprocess.DEVNULL) as proc:
        _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError(f"{command} failed on {src}")
    return {"wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--config", required=True, type=Path)
    parser.add_argument("--label", required=True)
    parser.add_argument("--parent", default="HEAD")
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    exit_on_sigterm()

    root = Path.cwd()
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        export_parent(args.parent, Path(tmp))
        sides = {"parent": Path(tmp) / "tree" / "src", "change": root / "src"}
        for i in range(args.repeats):
            order = ("parent", "change") if i % 2 == 0 else (
                "change", "parent")
            for side in order:
                workdir = Path(tmp) / f"run_{i}_{side}"
                runs.append({"repeat": i, "side": side, **{
                    command: run_command(sides[side], command,
                                         args.config.resolve(), workdir)
                    for command in COMMANDS}})
                print(f"repeat {i} {side}: " + ", ".join(
                    f"{c} {runs[-1][c]['wall_s']:.2f} s "
                    f"{runs[-1][c]['peak_rss_mb']:.0f} MB"
                    for c in COMMANDS), file=sys.stderr)
    summary = {side: {command: {
        metric: quartiles([r[command][metric] for r in runs
                           if r["side"] == side])
        for metric in ("wall_s", "peak_rss_mb")} for command in COMMANDS}
        for side in ("parent", "change")}
    out = root / f"BENCH_{args.label}.json"
    record = (json.loads(out.read_text(encoding="utf-8")) if out.exists()
              else {"label": args.label})
    record["stage_processes"] = {
        "parent": args.parent, "config": json.loads(
            args.config.read_text(encoding="utf-8")),
        "repeats": args.repeats, "summary_q1_median_q3": summary,
        "runs": runs}
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
