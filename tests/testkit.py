"""Numerical helpers used only by the tests: a finite-difference gradient
check and the differentiable dynamic factor of a low-rank factor."""

from typing import Callable

import numpy as np

from graft import GraftError


def finite_diff_grad(f: Callable[[np.ndarray], float], x: np.ndarray, h: float) -> np.ndarray:
    """Central-difference gradient of a scalar function, entry by entry."""
    if not h > 0:
        raise GraftError(f"step size h must be positive, got {h}")
    x = np.asarray(x, dtype=float)
    grad = np.empty_like(x)
    for idx in np.ndindex(x.shape):
        step = np.zeros_like(x)
        step[idx] = h
        fp = float(f(x + step))
        fm = float(f(x - step))
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise GraftError(f"function value is not finite at perturbation of index {idx}")
        grad[idx] = (fp - fm) / (2.0 * h)
    return grad


def soft_dynamic_factor(u: np.ndarray, adj: np.ndarray) -> float:
    """Differentiable counterpart of the dynamic factor: ||u u^T - adj||_F^2 / (n (n-1))."""
    n = adj.shape[0]
    diff = u @ u.T - adj
    return float((diff * diff).sum()) / (n * (n - 1))
