import math

import numpy as np
import numpy.testing as npt
import pytest

from tpgf.errors import ConfigError
from tpgf.rng import RngState


def test_uniform_deterministic_frozen():
    # values frozen from the counter-based splitmix64 definition; these
    # must never change across platforms or releases
    r = RngState(42)
    npt.assert_array_equal(
        r.uniform(4),
        np.array([
            0.7415648787718233,
            0.1599103928769201,
            0.27860113025513866,
            0.34419071652363753,
        ]),
    )


def test_uniform_repeatable():
    a = RngState(42).uniform(16)
    b = RngState(42).uniform(16)
    npt.assert_array_equal(a, b)


def test_counter_advances_like_one_stream():
    r = RngState(11)
    chunked = np.concatenate([r.uniform(2), r.uniform(2)])
    npt.assert_array_equal(chunked, RngState(11).uniform(4))


def test_normal_frozen():
    r = RngState(42)
    npt.assert_allclose(
        r.normal(4),
        np.array([
            -0.1382191562592689,
            -1.068184885755271,
            0.7608421084500518,
            1.5891080454601363,
        ]),
        rtol=1e-12,
    )


def test_normal_odd_count():
    assert RngState(5).normal(7).shape == (7,)


def _normal_unblocked(r, n):
    # Box-Muller over the whole draw at once: u1 from the first half of
    # the words, u2 from the second, cosines then sines
    pairs = (n + 1) // 2
    w = r._words(2 * pairs)
    u1 = ((w[:pairs] >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0 ** -53
    u2 = (w[pairs:] >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
    rad = np.sqrt(-2.0 * np.log(u1))
    theta = (2.0 * math.pi) * u2
    return np.concatenate([rad * np.cos(theta), rad * np.sin(theta)])[:n]


@pytest.mark.parametrize("n", [1, 2, 8191, 16385, 100001])
def test_normal_blocks_match_unblocked_formula(n):
    # normal() runs Box-Muller over blocks of pairs; the words, their
    # order and the bits must be those of one pass over the whole draw
    got, want = RngState(77), RngState(77)
    got.uniform(5)
    want.uniform(5)
    x = got.normal(n)
    y = _normal_unblocked(want, n)
    assert x.shape == (n,)
    npt.assert_array_equal(x.view(np.int64), y.view(np.int64))
    assert got.counter == want.counter == 5 + 2 * ((n + 1) // 2)
    # the next draw continues the stream where the unblocked one does
    npt.assert_array_equal(got.uniform(3), want.uniform(3))


def test_normal_moments():
    x = RngState(2024).normal(1_000_000)
    assert abs(x.mean()) < 0.01
    assert abs(x.var() - 1.0) < 0.01
    y = 0.5 * RngState(2025).normal(1_000_000)
    assert abs(y.var() - 0.25) < 0.01


def test_uniform_moments():
    u = RngState(99).uniform(1_000_000)
    assert abs(u.mean() - 0.5) < 0.01
    assert abs(u.var() - 1.0 / 12.0) < 0.001
    assert u.min() >= 0.0 and u.max() < 1.0


def test_bernoulli_frozen_and_rate():
    r = RngState(7)
    assert r.bernoulli(0.5, 8).tolist() == [
        True, True, False, False, True, True, True, True,
    ]
    draws = RngState(31).bernoulli(0.3, 100_000)
    assert abs(draws.mean() - 0.3) < 0.01


def test_bernoulli_degenerate():
    assert not RngState(1).bernoulli(0.0, 100).any()
    assert RngState(1).bernoulli(1.0, 100).all()


def test_bernoulli_bad_p():
    with pytest.raises(ConfigError):
        RngState(1).bernoulli(1.5, 4)
    with pytest.raises(ConfigError):
        RngState(1).bernoulli(-0.1, 4)


def test_randint_below():
    r = RngState(123)
    v = r.randint_below(10, 8)
    assert v.tolist() == [7, 9, 8, 6, 6, 6, 9, 4]
    big = RngState(55).randint_below(3, 30_000)
    assert set(big.tolist()) == {0, 1, 2}
    counts = np.bincount(big)
    assert (abs(counts / 30_000 - 1 / 3) < 0.02).all()


def test_randint_bad_bound():
    with pytest.raises(ConfigError):
        RngState(1).randint_below(0, 4)


def test_split_streams_differ():
    base = RngState(42)
    a = base.split(1).uniform(8)
    b = base.split(2).uniform(8)
    assert not np.array_equal(a, b)
    # splitting must not consume from the parent
    npt.assert_array_equal(base.uniform(4), RngState(42).uniform(4))


def test_seed_validation():
    RngState(0)
    RngState((1 << 64) - 1)
    with pytest.raises(ConfigError):
        RngState(-1)
    with pytest.raises(ConfigError):
        RngState(1 << 64)
