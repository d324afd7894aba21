"""Evaluation measures: MSE, RMSE, MAE, per-frame SSIM.

SSIM uses the conventional defaults: 11x11 Gaussian window with sigma
1.5, C1 = (0.01 L)^2, C2 = (0.03 L)^2, dynamic range L fixed at 1.0 for
normalized frames, reflected-edge padding. Frames smaller than the
window fall back to a single global window over the whole frame.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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


def mse_per_frame(pred: np.ndarray, target: np.ndarray) -> np.ndarray:
    """One MSE per leading-axis frame; the mean of the result equals the
    composite MSE over all frames."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    _check_shapes(pred, target, "mse_per_frame")
    if pred.ndim < 2:
        raise DimensionError(
            f"expected at least [frames, values], got shape {list(pred.shape)}")
    d = (pred - target).reshape(pred.shape[0], -1)
    return np.mean(d * d, axis=1)


def _gaussian_window():
    half = _WIN // 2
    coords = np.arange(-half, half + 1, dtype=np.float64)
    g = np.exp(-(coords ** 2) / (2.0 * _SIGMA ** 2))
    w = np.outer(g, g)
    return w / w.sum()


_WINDOW = _gaussian_window()


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
    if x.shape[1] < _WIN or x.shape[2] < _WIN:
        return np.array([_ssim_global(a, b) for a, b in zip(x, y)])

    half = _WIN // 2
    pad = ((0, 0), (half, half), (half, half))
    xp = np.pad(x, pad, mode="reflect")
    yp = np.pad(y, pad, mode="reflect")

    def filt(img):
        views = sliding_window_view(img, (_WIN, _WIN), axis=(1, 2))
        return np.einsum("nijkl,kl->nij", views, _WINDOW)

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
    # one mean per [H, W] frame keeps the bits of the per-frame sum order
    return np.array([np.mean(r) for r in num / den])
