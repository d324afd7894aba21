"""Dense float64 tensor helpers shared by every other module.

Tensors are plain numpy float64 arrays of rank 1 to 3, row-major. The
functions here are the LSTM gate activations and seeded initialization;
the arithmetic itself is numpy's.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .rng import RngState


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function, stable for large |x|."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def tanh(x: np.ndarray) -> np.ndarray:
    return np.tanh(np.asarray(x, dtype=np.float64))


def randn(shape, scale: float, rng: RngState) -> np.ndarray:
    """I.i.d. normal(0, scale^2) entries from the seeded generator."""
    if not scale > 0:
        raise ConfigError(f"randn scale must be positive, got {scale}")
    dims = tuple(int(d) for d in np.atleast_1d(shape))
    n = int(np.prod(dims)) if dims else 1
    return (rng.normal(n) * float(scale)).reshape(dims)
