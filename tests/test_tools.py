"""The gate verdict that ``tools/ab.py`` prints, on hand-made samples."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "ab", Path(__file__).resolve().parent.parent / "tools" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

# ten parent runs with median 100 and quartiles 99 and 101
PARENT = [98.0, 99.0, 99.0, 100.0, 100.0, 100.0, 100.0, 101.0, 101.0, 102.0]


def shifted(by, runs=PARENT):
    return [run + by for run in runs]


@pytest.mark.parametrize("change,better,expected", [
    (shifted(5.0), "higher", "gain shown"),
    # nine wins and a tie: the tie counts for neither side
    (shifted(5.0)[:9] + PARENT[9:], "higher", "gain shown"),
    # eight wins and two ties
    (shifted(5.0)[:8] + PARENT[8:], "higher", "within bound"),
    # every pair won, but by no more than the parent's interquartile distance
    (shifted(1.0), "higher", "within bound"),
    (shifted(-5.0), "lower", "gain shown"),
    (shifted(5.0), "lower", "within bound"),
    (shifted(-30.0), "higher", "worse beyond bound"),
    (shifted(30.0), "lower", "worse beyond bound"),
])
def test_verdict_on_a_tight_parent(change, better, expected):
    assert ab.verdict(PARENT, change, better, 0.25) == expected


def test_a_parent_spread_past_the_bound_is_unresolved_unless_the_change_clears_it():
    wide = [50.0, 60.0, 80.0, 100.0, 100.0, 100.0, 100.0, 120.0, 140.0, 150.0]
    assert ab.verdict(wide, shifted(5.0, wide), "higher", 0.25) == "unresolved"
    assert ab.verdict(wide, [10.0] * 10, "lower", 0.25) == "gain shown"
    # every change run beats every parent run, but the median by less than the spread
    high = [50.0, 60.0, 70.0, 80.0, 100.0, 100.0, 100.0, 100.0, 100.0, 101.0]
    assert ab.verdict(high, [102.0] * 10, "higher", 0.25) == "within bound"
    assert ab.verdict(high, [101.0] * 10, "higher", 0.25) == "unresolved"
