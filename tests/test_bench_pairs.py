"""The gain rule and the regression bound of scripts/bench_pairs.py."""

import importlib.util
from pathlib import Path

import pytest

_path = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _path)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

OP_S = {"name": "op_s", "unit": "s", "better": "lower", "bound": 0.24}
PARENT = [0.50, 0.52, 0.48, 0.51, 0.49, 0.50, 0.53, 0.47, 0.50, 0.52]  # median 0.50, IQR 0.025


def _change(lower: int, ties: int = 0, gap: float = 0.1) -> list[float]:
    """Runs that read `gap` below the parent in `lower` pairs, equal in
    `ties` pairs and `gap` above it in the rest."""
    return [p - gap if i < lower else p if i < lower + ties else p + gap
            for i, p in enumerate(PARENT)]


def test_nine_of_ten_with_a_gap_above_the_iqr_is_a_gain():
    v = bench_pairs.verdict(PARENT, _change(9), OP_S)
    assert v["change_lower_in_pairs"] == "9/10"
    assert v["median_gap"] > v["parent_iqr"]
    assert v["gain"] and not v["past_bound"]


def test_eight_of_ten_is_no_gain():
    assert not bench_pairs.verdict(PARENT, _change(8), OP_S)["gain"]


@pytest.mark.parametrize("lower, ties, gain", [(9, 1, True), (8, 2, False)])
def test_a_tie_counts_for_neither_side(lower, ties, gain):
    v = bench_pairs.verdict(PARENT, _change(lower, ties), OP_S)
    assert v["change_lower_in_pairs"] == f"{lower}/10"
    assert v["gain"] == gain


@pytest.mark.parametrize("gap", [0.01, 0.025])
def test_a_gap_at_or_below_the_iqr_is_no_gain(gap):
    v = bench_pairs.verdict(PARENT, [p - gap for p in PARENT], OP_S)
    assert v["change_lower_in_pairs"] == "10/10"
    assert v["median_gap"] <= v["parent_iqr"] == 0.025
    assert not v["gain"]


def test_a_median_past_the_bound_is_flagged():
    assert not bench_pairs.verdict(PARENT, [p * 1.2 for p in PARENT], OP_S)["past_bound"]
    v = bench_pairs.verdict(PARENT, [p + 0.50 * 0.25 for p in PARENT], OP_S)
    assert v["past_bound"] and not v["gain"] and v["bound"] == 0.24



def test_each_pair_records_its_ratio():
    # a load drift moves both sides of a pair and leaves its ratio; here the
    # change reads 0.9 of the parent in every pair but the last, which ties
    change = [round(p * 0.9, 4) for p in PARENT[:-1]] + PARENT[-1:]
    v = bench_pairs.verdict(PARENT, change, OP_S)
    assert v["pair_ratios"] == [0.9] * 9 + [1.0]
    assert v["change_lower_in_pairs"] == "9/10"


def test_a_parent_that_reads_zero_has_no_ratio():
    v = bench_pairs.verdict([0.0, 0.5, 0.5, 0.5], [0.1, 0.25, 0.5, 0.6], OP_S)
    assert v["pair_ratios"] == [None, 0.5, 1.0, 1.2]
