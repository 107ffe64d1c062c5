"""The verdict of tools/bench_pairs.py, which decides whether paired
benchmark runs show a gain."""
import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
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
