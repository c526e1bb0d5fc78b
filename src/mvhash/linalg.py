"""Shape errors, a checked matrix product and the numerically stable sigmoid."""

import numpy as np

__all__ = ["ShapeError", "as_matrix", "matmul", "sigmoid"]


class ShapeError(ValueError):
    """Operand dimensions do not conform."""


def as_matrix(a) -> np.ndarray:
    m = np.ascontiguousarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise ValueError("matrix contains non-finite values")
    return m


def matmul(a, b) -> np.ndarray:
    """Matrix product; (r_a, c_a) x (c_a, c_b) -> (r_a, c_b)."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dims differ ({a.shape} x {b.shape})")
    return a @ b


def sigmoid(x) -> np.ndarray:
    """Numerically stable logistic function: exp only of -|x|, so it never overflows.

    1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below, both from e = e^-|x|.
    """
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)
