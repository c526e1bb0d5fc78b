import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mvhash.linalg import ShapeError, matmul, sigmoid


def test_matmul_identity():
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(matmul(np.eye(2), m), m)


def test_matmul_hand_expansion():
    out = matmul([[1.0, 2.0], [3.0, 4.0]], [[5.0], [6.0]])
    assert np.array_equal(out, [[17.0], [39.0]])


def test_matmul_annihilator():
    out = matmul(np.zeros((1, 3)), np.arange(12.0).reshape(3, 4))
    assert out.shape == (1, 4)
    assert np.all(out == 0.0)


def test_matmul_shape_error():
    with pytest.raises(ShapeError):
        matmul(np.ones((2, 3)), np.ones((2, 3)))


def test_unary_examples():
    assert sigmoid([0.0])[0] == 0.5


def test_sigmoid_extreme_negative_is_finite():
    val = sigmoid([-1000.0])[0]
    assert np.isfinite(val)
    assert 0.0 <= val <= 1e-300


def test_sigmoid_extreme_positive_saturates():
    assert sigmoid([1000.0])[0] == 1.0


def test_matmul_associativity():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = rng.normal(size=(4, 3))
        b = rng.normal(size=(3, 5))
        c = rng.normal(size=(5, 2))
        left = matmul(a, matmul(b, c))
        right = matmul(matmul(a, b), c)
        assert np.allclose(left, right, rtol=1e-9, atol=0)


def test_sigmoid_symmetry():
    x = np.linspace(-30, 30, 601)
    assert np.all(np.abs(sigmoid(x) + sigmoid(-x) - 1.0) <= 1e-12)


@settings(max_examples=50, deadline=None)
@given(arrays(np.float64, st.integers(1, 16),
              elements=st.floats(-700, 700, allow_nan=False)))
def test_no_nan_on_finite_input(v):
    assert np.isfinite(sigmoid(v)).all()
