"""The verdict rules of `bench/compare.py`, pinned on constructed result sets.

Each case builds one parent and one change set of ten runs so that exactly
one branch of `verdict()` decides it. A change to a rule shows here.
"""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "bench" / "compare.py"
_spec = importlib.util.spec_from_file_location("bench_compare", _PATH)
compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare)

BOUND = 0.24
# spread (IQR / median) 2%, well within the bound
QUIET = [100.0, 101.0, 99.0, 100.0, 102.0, 98.0, 100.0, 101.0, 99.0, 100.0]
# spread 45%, well past the bound
NOISY = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]


def verdict(parent, change, better="higher"):
    return compare.verdict(parent, change, better, BOUND)[0]


def with_losses(base, gain, losses):
    """base + gain, except that the first `losses` runs fall below their parent."""
    return [p - 1.0 if i < losses else p + gain for i, p in enumerate(base)]


def test_better_by_nine_of_ten_wins():
    change = with_losses(QUIET, 10.0, 1)
    _, _, _, spread, wins, n = compare.verdict(QUIET, change, "higher", BOUND)
    assert (wins, n) == (9, 10) and spread <= BOUND
    assert verdict(QUIET, change) == "better"


def test_eight_of_ten_wins_is_not_better():
    assert verdict(QUIET, with_losses(QUIET, 10.0, 2)) == "within bound"


def test_better_by_every_run_on_a_noisy_set():
    assert verdict(NOISY, [max(NOISY) + 1.0 + i for i in range(10)]) == "better"
    assert verdict(NOISY, [min(NOISY) - 1.0 - i for i in range(10)], "lower") == "better"


def test_worse():
    assert verdict(QUIET, [p * 0.7 for p in QUIET]) == "worse"
    assert verdict(QUIET, [p * 1.3 for p in QUIET], "lower") == "worse"


def test_unresolved():
    assert verdict(NOISY, [p + 1.0 for p in NOISY[::-1]]) == "unresolved"


def test_within_bound():
    assert verdict(QUIET, [p * 0.9 for p in QUIET[::-1]]) == "within bound"


@pytest.mark.parametrize("better, factor", [("higher", 0.5), ("lower", 2.0)])
def test_noisy_set_never_reads_worse(better, factor):
    # The rule has no mirror of "better by every run": a change twice as bad on
    # every run of a set whose spread exceeds the bound reads unresolved.
    change = [p * factor for p in NOISY]
    assert verdict(NOISY, change, better) == "unresolved"
