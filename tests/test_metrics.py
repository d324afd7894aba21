import math

import numpy as np
import numpy.testing as npt
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from tpgf.errors import DimensionError
from tpgf import metrics as mt
from tpgf.rng import RngState


def test_rmse_hand_cases():
    x = np.array([1.0, 2.0, 3.0])
    assert mt.rmse(x, x) == 0.0
    assert mt.rmse(x + 3.0, x) == 3.0
    assert mt.rmse(np.array([3.0, 4.0]), np.zeros(2)) == math.sqrt(25.0 / 2.0)


def test_mae_hand_cases():
    x = np.array([5.0, -2.0])
    assert mt.mae(x, x) == 0.0
    assert mt.mae(np.array([-1.0, 3.0]), np.zeros(2)) == 2.0


def test_mae_le_rmse():
    rng = RngState(42)
    for _ in range(20):
        a = rng.normal(50)
        b = rng.normal(50)
        assert mt.mae(a, b) <= mt.rmse(a, b) + 1e-15


def test_shape_errors():
    with pytest.raises(DimensionError):
        mt.rmse(np.zeros(3), np.zeros(4))
    with pytest.raises(DimensionError):
        mt.mae(np.zeros((2, 2)), np.zeros(4))
    with pytest.raises(DimensionError):
        mt.mse_per_frame(np.zeros((2, 3)), np.zeros((3, 3)))


def test_mse_per_frame():
    target = np.zeros((3, 4, 4))
    pred = target.copy()
    npt.assert_array_equal(mt.mse_per_frame(pred, target), np.zeros(3))
    pred[1] += 2.0
    per = mt.mse_per_frame(pred, target)
    npt.assert_allclose(per, [0.0, 4.0, 0.0])
    # mean of per-frame values equals the composite mse
    composite = np.mean((pred - target) ** 2)
    assert abs(per.mean() - composite) < 1e-15


def test_rmse_squared_equals_composite_mse():
    rng = RngState(3)
    a = rng.normal(60).reshape(3, 20)
    b = rng.normal(60).reshape(3, 20)
    assert abs(mt.rmse(a, b) ** 2 - mt.mse_per_frame(a, b).mean()) < 1e-14


def test_time_reorder_invariance():
    rng = RngState(8)
    a = rng.uniform(5 * 6).reshape(5, 6)
    b = rng.uniform(5 * 6).reshape(5, 6)
    perm = [4, 2, 0, 3, 1]
    # aggregates match up to summation order
    assert abs(mt.rmse(a, b) - mt.rmse(a[perm], b[perm])) < 1e-15
    assert abs(mt.mae(a, b) - mt.mae(a[perm], b[perm])) < 1e-15
    npt.assert_array_equal(mt.mse_per_frame(a, b)[perm],
                           mt.mse_per_frame(a[perm], b[perm]))


def _oracle_ssim(x, y):
    """Nested-loop reference: 11x11 Gaussian window, sigma 1.5,
    reflected-edge indexing, population statistics per window."""
    h, w = x.shape
    half = 5
    win = [[math.exp(-((a - half) ** 2 + (b - half) ** 2) / (2 * 1.5 ** 2))
            for b in range(11)] for a in range(11)]
    tot = sum(sum(r) for r in win)
    win = [[v / tot for v in r] for r in win]
    c1 = 0.01 ** 2
    c2 = 0.03 ** 2

    def refl(i, n):
        if i < 0:
            return -i
        if i >= n:
            return 2 * n - 2 - i
        return i

    vals = []
    for ci in range(h):
        for cj in range(w):
            mx = my = mxx = myy = mxy = 0.0
            for a in range(11):
                for b in range(11):
                    xi = refl(ci + a - half, h)
                    yj = refl(cj + b - half, w)
                    px = x[xi, yj]
                    py = y[xi, yj]
                    wt = win[a][b]
                    mx += wt * px
                    my += wt * py
                    mxx += wt * px * px
                    myy += wt * py * py
                    mxy += wt * px * py
            vx = mxx - mx * mx
            vy = myy - my * my
            cov = mxy - mx * my
            vals.append(((2 * mx * my + c1) * (2 * cov + c2))
                        / ((mx * mx + my * my + c1) * (vx + vy + c2)))
    return sum(vals) / len(vals)


def test_ssim_identical_is_one():
    rng = RngState(12)
    x = rng.uniform(16 * 16).reshape(16, 16)
    assert mt.ssim_per_frame(x, x.copy()) == 1.0


def test_ssim_matches_oracle_random():
    rng = RngState(21)
    x = rng.uniform(14 * 13).reshape(14, 13)
    y = rng.uniform(14 * 13).reshape(14, 13)
    got = mt.ssim_per_frame(x, y)
    want = _oracle_ssim(x, y)
    assert abs(got - want) < 1e-12


def test_ssim_checkerboard_negative():
    ii, jj = np.meshgrid(np.arange(16), np.arange(16), indexing="ij")
    x = ((ii + jj) % 2).astype(np.float64)
    y = 1.0 - x
    v = mt.ssim_per_frame(x, y)
    assert v < 0.0
    assert abs(v - _oracle_ssim(x, y)) < 1e-12


def test_ssim_constant_frames_closed_form():
    for a, b in ((0.3, 0.7), (0.0, 1.0), (0.5, 0.5)):
        x = np.full((16, 16), a)
        y = np.full((16, 16), b)
        want = (2 * a * b + 0.01 ** 2) / (a * a + b * b + 0.01 ** 2)
        assert abs(mt.ssim_per_frame(x, y) - want) < 1e-12


def test_ssim_small_frame_fallback():
    rng = RngState(30)
    x = rng.uniform(8 * 8).reshape(8, 8)
    assert mt.ssim_per_frame(x, x.copy()) == 1.0
    a, b = 0.2, 0.9
    want = (2 * a * b + 0.01 ** 2) / (a * a + b * b + 0.01 ** 2)
    got = mt.ssim_per_frame(np.full((5, 5), a), np.full((5, 5), b))
    assert abs(got - want) < 1e-12


def test_ssim_symmetry_and_bound():
    rng = RngState(44)
    for _ in range(5):
        x = rng.uniform(16 * 16).reshape(16, 16)
        y = rng.uniform(16 * 16).reshape(16, 16)
        assert mt.ssim_per_frame(x, y) == mt.ssim_per_frame(y, x)
        assert mt.ssim_per_frame(x, y) < 1.0


def test_ssim_rejects_bad_rank():
    with pytest.raises(DimensionError):
        mt.ssim_per_frame(np.zeros(16), np.zeros(16))
    with pytest.raises(DimensionError):
        mt.ssim_per_frame(np.zeros((2, 2, 16, 16)), np.zeros((2, 2, 16, 16)))


def _single_frame_ssim(x, y):
    """The one-frame form: 2-d sliding windows and one mean per frame."""
    if x.shape[0] < 11 or x.shape[1] < 11:
        return mt._ssim_global(x, y)
    xp = np.pad(x, 5, mode="reflect")
    yp = np.pad(y, 5, mode="reflect")

    def filt(img):
        views = sliding_window_view(img, (11, 11))
        return np.einsum("ijkl,kl->ij", views, mt._WINDOW)

    mx, my = filt(xp), filt(yp)
    vx = filt(xp * xp) - mx * mx
    vy = filt(yp * yp) - my * my
    cov = filt(xp * yp) - mx * my
    num = (2 * mx * my + mt._C1) * (2 * cov + mt._C2)
    den = (mx * mx + my * my + mt._C1) * (vx + vy + mt._C2)
    return float(np.mean(num / den))


@pytest.mark.parametrize("shape", [(120, 16, 16), (1, 16, 16), (7, 11, 11),
                                   (5, 13, 17), (3, 64, 64), (4, 8, 12)])
def test_ssim_stack_bit_exact_against_single_frames(shape):
    rng = RngState(sum(shape))
    n = int(np.prod(shape))
    x = rng.uniform(n).reshape(shape)
    y = np.clip(x + 0.2 * rng.normal(n).reshape(shape), 0.0, 1.0)
    got = mt.ssim_per_frame(x, y)
    assert isinstance(got, np.ndarray) and got.shape == (shape[0],)
    want = np.array([_single_frame_ssim(a, b) for a, b in zip(x, y)])
    npt.assert_array_equal(got.view(np.int64), want.view(np.int64))
    each = np.array([mt.ssim_per_frame(a, b) for a, b in zip(x, y)])
    npt.assert_array_equal(got.view(np.int64), each.view(np.int64))
