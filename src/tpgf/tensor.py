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
    """Logistic function, stable for large |x|, in one pass.

    Per element this is 1/(1 + exp(-x)) for x >= 0 and
    exp(x)/(1 + exp(x)) otherwise, so exp never overflows. min(x, -x)
    is -|x| except that it keeps the sign of a nan.
    """
    x = np.asarray(x, dtype=np.float64)
    e = np.minimum(x, -x)
    np.exp(e, out=e)
    out = np.where(x >= 0, 1.0, e)
    e += 1.0
    np.divide(out, e, out=out)
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
