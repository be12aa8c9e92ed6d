"""The repository's tools: the parent/change pairs summary."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def result(mission_s, rss_mb, failed=0):
    return {
        "correct": True, "attempted": 8, "failed": failed,
        "metrics": {"mission_s": {"value": mission_s, "unit": "s"},
                    "peak_rss_mb": {"value": rss_mb, "unit": "MB"}},
    }


PAIRS = [
    {"seed": 901 + i, "first": ("parent", "change")[i % 2],
     "parent": result(parent, 50.0), "change": result(change, rss, failed=i % 2)}
    for i, (parent, change, rss) in enumerate([
        (0.060, 0.050, 50.0), (0.070, 0.055, 51.0), (0.064, 0.066, 50.0),
        (0.062, 0.051, 49.0), (0.066, 0.052, 50.0),
    ])
]


def test_summary_of_fixed_pairs():
    summary = bench_pairs.summarize(
        PAIRS, {"mission_s": "lower", "peak_rss_mb": "lower"})
    mission = summary["metrics"]["mission_s"]
    assert mission["unit"] == "s"
    assert mission["pairs"] == 5
    assert mission["parent"]["values"] == [0.060, 0.070, 0.064, 0.062, 0.066]
    assert mission["parent"]["median"] == pytest.approx(0.064)
    assert mission["parent"]["q1"] == pytest.approx(0.062)
    assert mission["parent"]["q3"] == pytest.approx(0.066)
    assert mission["change"]["median"] == pytest.approx(0.052)
    assert mission["change_over_parent"] == pytest.approx(0.052 / 0.064)
    assert mission["change_wins"] == 4  # pair 2 is a loss
    assert mission["beats_parent_spread"]  # 0.012 > 0.066 - 0.062
    rss = summary["metrics"]["peak_rss_mb"]
    assert rss["change_wins"] == 1  # three ties count for neither side
    assert not rss["beats_parent_spread"]
    assert [run["change"]["failed"] for run in summary["runs"]] == [0, 1, 0, 1, 0]
    assert [run["first"] for run in summary["runs"]] == [
        "parent", "change", "parent", "change", "parent"]
    assert summary["runs"][0]["parent"] == {"correct": True, "attempted": 8, "failed": 0}


def test_higher_is_better_counts_the_other_way():
    summary = bench_pairs.summarize(PAIRS, {"mission_s": "higher"})
    mission = summary["metrics"]["mission_s"]
    assert mission["change_wins"] == 1
    assert not mission["beats_parent_spread"]


def test_one_pair_has_degenerate_quartiles():
    summary = bench_pairs.summarize(PAIRS[:1], {"mission_s": "lower"})
    parent = summary["metrics"]["mission_s"]["parent"]
    assert parent["q1"] == parent["median"] == parent["q3"] == 0.060
