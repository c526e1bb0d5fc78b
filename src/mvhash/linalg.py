"""Shape errors and the numerically stable sigmoid."""

import numpy as np

__all__ = ["ShapeError", "sigmoid"]


class ShapeError(ValueError):
    """Operand dimensions do not conform."""


def sigmoid(x) -> np.ndarray:
    """Numerically stable logistic function: exp only of -|x|, so it never overflows.

    1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below, both from e = e^-|x|.
    """
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)
