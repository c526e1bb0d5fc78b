import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mvhash.linalg import sigmoid


def test_unary_examples():
    assert sigmoid([0.0])[0] == 0.5


def test_sigmoid_extreme_negative_is_finite():
    val = sigmoid([-1000.0])[0]
    assert np.isfinite(val)
    assert 0.0 <= val <= 1e-300


def test_sigmoid_extreme_positive_saturates():
    assert sigmoid([1000.0])[0] == 1.0


def test_sigmoid_symmetry():
    x = np.linspace(-30, 30, 601)
    assert np.all(np.abs(sigmoid(x) + sigmoid(-x) - 1.0) <= 1e-12)


@settings(max_examples=50, deadline=None)
@given(arrays(np.float64, st.integers(1, 16),
              elements=st.floats(-700, 700, allow_nan=False)))
def test_no_nan_on_finite_input(v):
    assert np.isfinite(sigmoid(v)).all()
