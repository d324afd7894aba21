"""Evaluation measures: RMSE, MAE, per-frame SSIM.

SSIM uses the conventional defaults: 11x11 Gaussian window with sigma
1.5 (applied as two 1-d passes, since it is separable), C1 = (0.01 L)^2,
C2 = (0.03 L)^2, dynamic range L fixed at 1.0 for normalized frames,
reflected-edge padding. Frames smaller than the window fall back to a
single global window over the whole frame.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError

_WIN = 11
_SIGMA = 1.5
_C1 = (0.01 * 1.0) ** 2
_C2 = (0.03 * 1.0) ** 2


def _check_shapes(pred, target, what):
    if pred.shape != target.shape:
        raise DimensionError(
            f"{what} shapes differ: {list(pred.shape)} vs {list(target.shape)}")


def rmse(pred: np.ndarray, target: np.ndarray) -> float:
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    _check_shapes(pred, target, "rmse")
    d = pred - target
    return float(np.sqrt(np.mean(d * d)))


def mae(pred: np.ndarray, target: np.ndarray) -> float:
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    _check_shapes(pred, target, "mae")
    return float(np.mean(np.abs(pred - target)))


def _gaussian_taps():
    half = _WIN // 2
    coords = np.arange(-half, half + 1, dtype=np.float64)
    g = np.exp(-(coords ** 2) / (2.0 * _SIGMA ** 2))
    return g / g.sum()


# the 11x11 window is outer(_TAPS, _TAPS): separable into two 1-d passes
_TAPS = _gaussian_taps()


def _band(n: int) -> np.ndarray:
    """[n + WIN - 1, n] matrix whose column j holds the taps at rows
    j..j + WIN - 1: a padded row times it is the row filtered."""
    band = np.zeros((n + _WIN - 1, n))
    for j in range(n):
        band[j:j + _WIN, j] = _TAPS
    return band


def _ssim_global(x: np.ndarray, y: np.ndarray) -> float:
    # single uniform window over the whole frame; population statistics
    mx, my = x.mean(), y.mean()
    vx = (x * x).mean() - mx * mx
    vy = (y * y).mean() - my * my
    cov = (x * y).mean() - mx * my
    num = (2 * mx * my + _C1) * (2 * cov + _C2)
    den = (mx * mx + my * my + _C1) * (vx + vy + _C2)
    return float(num / den)


def ssim_per_frame(pred: np.ndarray, target: np.ndarray):
    """Mean SSIM over sliding Gaussian windows, one value per frame.

    An [H, W] frame pair gives a float; an [N, H, W] stack gives an
    array of N values, each with the same bits as the frame on its own.
    """
    x = np.asarray(pred, dtype=np.float64)
    y = np.asarray(target, dtype=np.float64)
    _check_shapes(x, y, "ssim")
    if x.ndim not in (2, 3):
        raise DimensionError(
            f"ssim expects an [H, W] frame or an [N, H, W] stack, "
            f"got shape {list(x.shape)}")
    if x.ndim == 2:
        return float(_ssim_stack(x[None], y[None])[0])
    return _ssim_stack(x, y)


def _ssim_stack(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SSIM of each frame of two [N, H, W] stacks.

    Each of the five maps x, y, x*x, y*y and x*y is filtered with the
    separable window as two batched matmuls against banded matrices,
    every map with the same call shapes. So ssim(x, x) is exactly 1, the
    measure is exactly symmetric, and every frame of a stack has the
    bits it has on its own (matmul forms each frame's product alone).
    """
    if x.shape[1] < _WIN or x.shape[2] < _WIN:
        return np.array([_ssim_global(a, b) for a, b in zip(x, y)])

    n, h, w = x.shape
    half = _WIN // 2
    pad = ((0, 0), (half, half), (half, half))
    xp = np.pad(x, pad, mode="reflect")
    yp = np.pad(y, pad, mode="reflect")
    rows = _band(w)  # [W + 10, W]
    cols = _band(h).T  # [H, H + 10]

    def filt(img):
        return cols @ (img @ rows)

    mx = filt(xp)
    my = filt(yp)
    mxx = filt(xp * xp)
    myy = filt(yp * yp)
    mxy = filt(xp * yp)
    vx = mxx - mx * mx
    vy = myy - my * my
    cov = mxy - mx * my

    num = (2 * mx * my + _C1) * (2 * cov + _C2)
    den = (mx * mx + my * my + _C1) * (vx + vy + _C2)
    return (num / den).reshape(n, h * w).mean(axis=1)
