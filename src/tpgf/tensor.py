"""Dense float64 tensor helpers shared by every other module.

Tensors are plain numpy float64 arrays of rank 1 to 3, row-major. The
functions here are the LSTM gate activations and seeded initialization;
the arithmetic itself is numpy's.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .rng import RngState


def sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic function, stable for large |x|, without a select.

    Per element this is 1/(1 + exp(-x)) for x >= 0 and
    exp(x)/(1 + exp(x)) otherwise, so exp never overflows. The
    numerator exp(min(x, 0)) is exactly 1 where x >= 0; the denominator
    uses min(x, -x), which is -|x| except that it keeps the sign of a
    nan. The result goes into `out` when given.
    """
    x = np.asarray(x, dtype=np.float64)
    num = np.minimum(x, 0.0, out=out)
    np.exp(num, out=num)
    den = np.minimum(x, -x)
    np.exp(den, out=den)
    den += 1.0
    np.divide(num, den, out=num)
    return num


def tanh(x: np.ndarray) -> np.ndarray:
    return np.tanh(np.asarray(x, dtype=np.float64))


def randn(shape, scale: float, rng: RngState) -> np.ndarray:
    """I.i.d. normal(0, scale^2) entries from the seeded generator."""
    if not scale > 0:
        raise ConfigError(f"randn scale must be positive, got {scale}")
    dims = tuple(int(d) for d in np.atleast_1d(shape))
    n = int(np.prod(dims)) if dims else 1
    return (rng.normal(n) * float(scale)).reshape(dims)
