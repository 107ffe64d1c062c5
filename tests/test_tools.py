"""The verdict of tools/bench_pairs.py, which decides whether paired
benchmark runs show a gain, and the clean-up of the paired-run tools when
they are stopped."""
import importlib.util
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

_TOOLS = Path(__file__).resolve().parents[1] / "tools"
_PATH = _TOOLS / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)
verdict = bench_pairs.verdict


PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.01, 0.99]


class TestVerdict:
    def test_clear_gain_is_met(self):
        v = verdict(PARENT, [p - 0.1 for p in PARENT], "lower")
        assert v["change_better_in_pairs"] == 10
        assert v["change_worse_in_pairs"] == 0
        assert v["pairs"] == 10
        assert v["median_gap"] == pytest.approx(0.1)
        assert v["claim_met"]

    def test_nine_of_ten_is_enough_and_eight_is_not(self):
        nine = [p - 0.1 for p in PARENT[:9]] + [PARENT[9] + 0.1]
        assert verdict(PARENT, nine, "lower")["claim_met"]
        eight = [p - 0.1 for p in PARENT[:8]] + [p + 0.1 for p in PARENT[8:]]
        v = verdict(PARENT, eight, "lower")
        assert v["change_better_in_pairs"] == 8
        assert not v["claim_met"]

    def test_ties_count_for_neither_side(self):
        change = [p - 0.1 for p in PARENT[:8]] + PARENT[8:]
        v = verdict(PARENT, change, "lower")
        assert (v["change_better_in_pairs"], v["change_worse_in_pairs"]) \
            == (8, 0)
        assert not v["claim_met"]

    def test_gap_within_the_parent_iqr_is_not_a_gain(self):
        # Every pair won by a hair: the median gap is far below the IQR.
        v = verdict(PARENT, [p - 0.001 for p in PARENT], "lower")
        assert v["change_better_in_pairs"] == 10
        assert v["median_gap"] < v["parent_iqr"]
        assert not v["claim_met"]

    def test_higher_is_better(self):
        up = [p + 0.1 for p in PARENT]
        assert verdict(PARENT, up, "higher")["claim_met"]
        assert not verdict(PARENT, up, "lower")["claim_met"]
        assert verdict(PARENT, up, "lower")["change_worse_in_pairs"] == 10

    def test_quartiles_and_ratio(self):
        v = verdict([1.0, 2.0, 3.0, 4.0, 5.0], [1.0, 1.0, 1.0, 1.0, 1.0],
                    "lower")
        assert v["parent_q1_median_q3"] == [2.0, 3.0, 4.0]
        assert v["parent_iqr"] == 2.0
        assert v["change_over_parent_median"] == pytest.approx(1 / 3)

    def test_bad_input_is_named(self):
        with pytest.raises(ValueError, match="same positive number"):
            verdict([1.0], [1.0, 2.0], "lower")
        with pytest.raises(ValueError, match="same positive number"):
            verdict([], [], "lower")
        with pytest.raises(ValueError, match="better must be"):
            verdict([1.0], [1.0], "smaller")


def test_summary_counts_incorrect_runs_and_skips_their_pairs():
    ok = {"correct": True, "wall_s": 1.0}
    fast = {"correct": True, "wall_s": 0.5}
    bad = {"correct": False}
    pairs = [{"parent": ok, "change": fast}, {"parent": ok, "change": bad},
             {"parent": bad, "change": fast}]
    s = bench_pairs.summarize(pairs, [{"name": "wall_s", "better": "lower"}])
    assert s["incorrect_runs"] == {"parent": 1, "change": 1}
    assert s["wall_s"]["pairs"] == 1


# Stands in for the benchmark or a CLI stage: it starts a grandchild, as
# bench/run.py starts its worker, records both pids and waits.
_SLOW_CHILD = """\
import os, subprocess, sys, time
grandchild = subprocess.Popen([sys.executable, "-c",
                               "import time; time.sleep(120)"])
with open(os.environ["PIDS_FILE"], "a") as f:
    f.write(f"{os.getpid()} {grandchild.pid}\\n")
time.sleep(120)
"""


def _running(pid: int) -> bool:
    """Whether ``pid`` is a process that has not exited (a zombie has)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rpartition(")")[2].split()[0] != "Z"


@pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                    reason="reads process states from /proc")
@pytest.mark.parametrize("tool,child,args", [
    ("bench_pairs.py", "bench/run.py", ["--label", "t"]),
    ("stage_processes.py", "src/roadroughness/cli/main.py",
     ["--label", "t", "--config", "c.json"]),
])
def test_sigterm_removes_the_parent_tree_and_kills_the_child(
        tmp_path, tool, child, args):
    """A stopped run used to leave the exported parent in the temporary
    directory, and its child running."""
    repo, temp, pids = tmp_path / "repo", tmp_path / "tmp", tmp_path / "pids"
    for name, text in (("BENCHMARK.json", json.dumps({
            "workloads": [{"name": "w"}], "run_seconds": 1,
            "end_to_end": []})), ("c.json", "{}"),
            ("src/roadroughness/__init__.py", ""),
            ("src/roadroughness/cli/__init__.py", ""), (child, _SLOW_CHILD)):
        (repo / name).parent.mkdir(parents=True, exist_ok=True)
        (repo / name).write_text(text, encoding="utf-8")
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-c",
           "commit.gpgsign=false"]
    for command in (["init", "-q"], ["add", "."], ["commit", "-qm", "c"]):
        subprocess.run(git + command, cwd=repo, check=True)
    temp.mkdir()
    proc = subprocess.Popen(
        [sys.executable, str(_TOOLS / tool), *args], cwd=repo,
        env=dict(os.environ, TMPDIR=str(temp), PIDS_FILE=str(pids)),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    started = []
    try:
        deadline = time.monotonic() + 60
        while not pids.exists() or not pids.read_text().endswith("\n"):
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.05)
        started = [int(pid) for pid in pids.read_text().split()]
        assert any(temp.iterdir())  # the exported parent
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60) == 128 + signal.SIGTERM
        assert not any(temp.iterdir())
        deadline = time.monotonic() + 10
        while any(map(_running, started)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_running, started))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        for pid in filter(_running, started):
            os.kill(pid, signal.SIGKILL)
