import numpy as np
import numpy.testing as npt
import pytest

from tpgf.errors import ConfigError
from tpgf.rng import RngState
from tpgf import tensor as tc


def test_elementwise_basics():
    assert tc.sigmoid(np.array([0.0]))[0] == 0.5
    x = np.linspace(-3.0, 3.0, 24).reshape(2, 3, 4)
    s = tc.sigmoid(x)
    assert s.shape == x.shape and s.dtype == np.float64
    npt.assert_allclose(s, 1.0 / (1.0 + np.exp(-x)), rtol=1e-14)
    npt.assert_allclose(s + tc.sigmoid(-x), np.ones_like(x), rtol=1e-15)


def test_sigmoid_stable_extremes():
    x = np.array([-1000.0, -50.0, 50.0, 1000.0])
    y = tc.sigmoid(x)
    assert np.isfinite(y).all()
    assert y[0] == 0.0 and y[3] == 1.0
    npt.assert_allclose(y[1], np.exp(-50) / (1 + np.exp(-50)), rtol=1e-12)


def _two_branch_sigmoid(x):
    """The masked two-branch form: 1/(1+exp(-x)) where x >= 0, and
    exp(x)/(1+exp(x)) elsewhere."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_sigmoid_bit_exact_against_two_branch_form():
    tiny = np.finfo(np.float64).tiny
    special = np.array([0.0, -0.0, 745.0, -745.0, 746.0, -746.0, 1e308,
                        -1e308, np.inf, -np.inf, np.nan, -np.nan, 5e-324,
                        -5e-324, tiny / 3, -tiny / 3, tiny, -tiny, 36.7,
                        -36.7, 709.7, -709.7, 1.0, -1.0])
    sweep = np.concatenate([
        special,
        np.linspace(-60.0, 60.0, 1000),
        tc.randn((32 * 128 - 1000 - special.size,), 8.0, RngState(3)),
    ]).reshape(32, 128)  # one [B, 4H] gate pre-activation
    with np.errstate(over="ignore", invalid="ignore"):
        want = _two_branch_sigmoid(sweep)
    got = tc.sigmoid(sweep)
    # int64 views compare bits: signed zeros and nan payloads included
    npt.assert_array_equal(got.view(np.int64), want.view(np.int64))
    # a row, a column and a 1-d input give the same bits as the whole
    npt.assert_array_equal(tc.sigmoid(sweep[3]).view(np.int64),
                           want[3].view(np.int64))
    npt.assert_array_equal(tc.sigmoid(sweep[:, 5]).view(np.int64),
                           want[:, 5].view(np.int64))


def test_randn_deterministic():
    a = tc.randn((4,), 1.0, RngState(42))
    b = tc.randn((4,), 1.0, RngState(42))
    npt.assert_array_equal(a, b)
    assert a.shape == (4,)


def test_randn_moments():
    x = tc.randn((1_000_000,), 1.0, RngState(2024))
    assert abs(x.mean()) < 0.01
    y = tc.randn((1_000_000,), 0.5, RngState(2025))
    assert abs(y.var() - 0.25) < 0.01


def test_randn_bad_scale():
    with pytest.raises(ConfigError):
        tc.randn((2,), 0.0, RngState(1))
    with pytest.raises(ConfigError):
        tc.randn((2,), -1.0, RngState(1))
