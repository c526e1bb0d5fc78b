"""Shape errors and the logistic function."""

import numpy as np

__all__ = ["ShapeError", "sigmoid"]


class ShapeError(ValueError):
    """Operand dimensions do not conform."""


def sigmoid(x) -> np.ndarray:
    """Logistic function as 0.5 * (1 + tanh(x / 2)); tanh saturates, so it never overflows."""
    s = np.multiply(x, 0.5, dtype=np.float64)
    np.tanh(s, out=s)
    s += 1.0
    s *= 0.5
    return s
