"""Unit and property tests for the statistics helpers."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.stats import (
    mean,
    mean_ci95,
    proportion,
    sample_std,
    t_critical_95,
)

# scipy.stats.t.ppf(0.975, dof) for dof 1-2000, 5000, 10000 and
# 100000, generated once with SciPy 1.17.1 (see the "generator" key);
# the tests read it without SciPy installed.
T975_GOLDEN = Path(__file__).parent / "data" / "t975.json"

FLOATS = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    min_size=2, max_size=50,
)


def test_mean_simple():
    assert mean([1.0, 2.0, 3.0]) == 2.0


def test_mean_of_nothing_rejected():
    with pytest.raises(ValueError):
        mean([])


def test_sample_std_known_value():
    assert sample_std([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]) == \
        pytest.approx(2.138, abs=1e-3)


def test_sample_std_singleton_is_zero():
    assert sample_std([5.0]) == 0.0


def test_t_critical_matches_normal_for_large_dof():
    assert t_critical_95(10_000) == pytest.approx(1.96, abs=0.01)


def test_t_critical_small_dof():
    assert t_critical_95(1) == pytest.approx(12.706, abs=0.01)
    assert t_critical_95(9) == pytest.approx(2.262, abs=0.01)


def test_t_critical_rejects_nonpositive_dof():
    with pytest.raises(ValueError):
        t_critical_95(0)


def test_t_critical_matches_the_scipy_golden_values():
    golden = json.loads(T975_GOLDEN.read_text())["t975"]
    assert len(golden) == 2003
    for dof, expected in golden.items():
        value = t_critical_95(int(dof))
        assert abs(value - expected) <= 1e-10 * expected, f"dof={dof}"


def test_import_loads_no_numerical_stack():
    # A fresh interpreter: this test process may have imported SciPy
    # through some other test or plugin.
    root = Path(__file__).resolve().parents[2]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    probe = ("import sys, repro, repro.load, repro.serve; "
             "print(sorted(name for name in sys.modules "
             "if name.split('.')[0] in ('scipy', 'numpy')))")
    output = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    assert output.stdout.strip() == "[]"


class TestMeanCI:
    def test_empty_sample_is_none(self):
        assert mean_ci95([]) is None

    def test_singleton_has_zero_width(self):
        ci = mean_ci95([42.0])
        assert ci.mean == 42.0
        assert ci.half_width == 0.0
        assert ci.count == 1

    def test_known_interval(self):
        ci = mean_ci95([10.0, 12.0, 14.0, 16.0, 18.0])
        assert ci.mean == 14.0
        # s = sqrt(10), t(4) = 2.776 -> hw = 2.776*sqrt(10)/sqrt(5)
        assert ci.half_width == pytest.approx(
            2.776 * math.sqrt(10.0) / math.sqrt(5.0), rel=1e-3)
        assert ci.low == ci.mean - ci.half_width
        assert ci.high == ci.mean + ci.half_width

    @given(FLOATS)
    def test_interval_contains_mean(self, values):
        ci = mean_ci95(values)
        assert ci.low <= ci.mean <= ci.high

    @given(FLOATS)
    def test_constant_shift_moves_mean_not_width(self, values):
        base = mean_ci95(values)
        shifted = mean_ci95([v + 100.0 for v in values])
        assert shifted.mean == pytest.approx(base.mean + 100.0, abs=1e-6)
        assert shifted.half_width == pytest.approx(base.half_width, abs=1e-6)

    @given(st.lists(st.floats(min_value=0, max_value=1000,
                              allow_nan=False), min_size=2, max_size=30))
    def test_identical_values_zero_width(self, values):
        constant = [values[0]] * len(values)
        assert mean_ci95(constant).half_width == pytest.approx(0.0, abs=1e-9)


def test_proportion():
    assert proportion(1, 4) == 0.25
    assert proportion(0, 0) == 0.0
    assert proportion(5, 0) == 0.0
