import math

import numpy as np
import numpy.testing as npt
import pytest

from tpgf.errors import ConfigError, DimensionError
from tpgf.rng import RngState
from tpgf import sampling as sp


def test_inverse_sigmoid_at_zero():
    # exp(0) = 1, so the ceiling is lam/(lam+1)
    assert sp.inverse_sigmoid_epsilon(0, 3000.0) == 3000.0 / 3001.0
    assert abs(sp.inverse_sigmoid_epsilon(0, 3000.0) - 0.999667) < 1e-6


def test_inverse_sigmoid_halfway_point():
    # at i = lam*ln(lam) the exponential equals lam, giving exactly 0.5
    for lam in (10.0, 500.0, 3000.0):
        i = lam * math.log(lam)
        assert abs(sp.inverse_sigmoid_epsilon(i, lam) - 0.5) < 1e-12


def test_inverse_sigmoid_limit_and_overflow():
    assert sp.inverse_sigmoid_epsilon(10_000_000, 100.0) == 0.0
    # just under the guard still finite and positive
    assert sp.inverse_sigmoid_epsilon(int(100 * 699), 100.0) > 0.0


def test_inverse_sigmoid_strictly_decreasing():
    lam = 100.0
    prev = sp.inverse_sigmoid_epsilon(0, lam)
    for i in range(1, 10_000):
        cur = sp.inverse_sigmoid_epsilon(i, lam)
        assert cur < prev
        prev = cur


def test_inverse_sigmoid_validation():
    with pytest.raises(ConfigError):
        sp.inverse_sigmoid_epsilon(-1, 10.0)


def test_index_aware_at_zero_ignores_v():
    lam = 50.0
    vals = {sp.index_aware_epsilon(0, v, lam) for v in (2, 3, 10, 1000)}
    assert vals == {lam / (lam + 1.0)}


def test_index_aware_monotone_in_v():
    lam = 100.0
    for i in (1, 10, 500):
        assert sp.index_aware_epsilon(i, 4, lam) < sp.index_aware_epsilon(i, 2, lam)


def test_index_aware_hand_value():
    # i=lam, v=2: exponent is log 2, exp gives 2
    assert abs(sp.index_aware_epsilon(1000, 2, 1000.0) - 1000.0 / 1002.0) < 1e-15


def test_index_aware_decreasing_in_i_and_vanishing():
    lam = 100.0
    for v in (2, 5, 37):
        prev = sp.index_aware_epsilon(0, v, lam)
        for i in range(1, 2000):
            cur = sp.index_aware_epsilon(i, v, lam)
            assert cur < prev
            prev = cur
        assert sp.index_aware_epsilon(100_000_000, v, lam) == 0.0


def test_index_aware_validation():
    with pytest.raises(ConfigError):
        sp.index_aware_epsilon(5, 1, 100.0)


def test_epsilon_for_dispatch():
    tf = sp.ScheduleConfig(strategy=sp.Strategy.TEACHER_FORCING)
    assert sp.epsilon_for(tf, 0, 2) == 1.0
    assert sp.epsilon_for(tf, 999_999, 37) == 1.0

    ss = sp.ScheduleConfig(strategy=sp.Strategy.SCHEDULED_SAMPLING, lam=200.0)
    assert sp.epsilon_for(ss, 0, 2) == 200.0 / 201.0
    assert sp.epsilon_for(ss, 100, 2) == sp.inverse_sigmoid_epsilon(100, 200.0)

    tpg = sp.ScheduleConfig(strategy=sp.Strategy.TPG, lam=100.0,
                            stage1_iters=50)
    assert sp.epsilon_for(tpg, 0, 2) == 1.0
    assert sp.epsilon_for(tpg, 49, 9) == 1.0
    assert sp.epsilon_for(tpg, 50, 3) == sp.index_aware_epsilon(0, 3, 100.0)
    assert sp.epsilon_for(tpg, 80, 3) == sp.index_aware_epsilon(30, 3, 100.0)

    flat = sp.ScheduleConfig(strategy=sp.Strategy.TPG, lam=100.0,
                             index_aware=False, stage1_iters=50)
    assert sp.epsilon_for(flat, 80, 9) == sp.inverse_sigmoid_epsilon(30, 100.0)


def test_schedule_config_validation():
    # the schedules read lam unchecked: the config is where it is refused
    for strategy in sp.Strategy:
        for lam in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ConfigError, match="lam"):
                sp.ScheduleConfig(strategy=strategy, lam=lam)
    with pytest.raises(ConfigError):
        sp.ScheduleConfig(strategy=sp.Strategy.TPG, stage1_iters=0)


def test_subsample_basic():
    seq = np.arange(6.0).reshape(6, 1)
    odd, even = sp.subsample_odd_even(seq)
    npt.assert_array_equal(odd[:, 0], [0.0, 2.0, 4.0])
    npt.assert_array_equal(even[:, 0], [1.0, 3.0, 5.0])


def test_subsample_paper_lengths():
    odd, even = sp.subsample_odd_even(np.zeros((37, 2, 3)))
    assert odd.shape[0] == 19 and even.shape[0] == 18


def test_subsample_degenerate_and_empty():
    odd, even = sp.subsample_odd_even(np.ones((1, 2)))
    assert odd.shape[0] == 1 and even.shape[0] == 0
    with pytest.raises(DimensionError):
        sp.subsample_odd_even(np.zeros((0, 2)))


def test_interleave_roundtrip_all_lengths():
    rng = RngState(55)
    for t in range(1, 101):
        seq = rng.uniform(t * 3).reshape(t, 3)
        odd, even = sp.subsample_odd_even(seq)
        back = sp.interleave_odd_even(odd, even)
        npt.assert_array_equal(back, seq)


def test_interleave_length_mismatch():
    with pytest.raises(DimensionError):
        sp.interleave_odd_even(np.zeros((2, 1)), np.zeros((4, 1)))


def test_m1_source_index():
    # train_tpg merges m1's half-timescale outputs [B, K_half, F] with
    # interleave_odd_even along the time axis: full target step j (1-based)
    # reads the odd half at (j+1)//2 when j is odd, the even half otherwise
    b, k, f = 2, 8, 3
    m1_odd = np.broadcast_to(1000.0 + np.arange(1, 5)[None, :, None], (b, 4, f))
    m1_even = np.broadcast_to(2000.0 + np.arange(1, 5)[None, :, None], (b, 4, f))
    full = sp.interleave_odd_even(m1_odd.swapaxes(0, 1),
                                  m1_even.swapaxes(0, 1)).swapaxes(0, 1)
    assert full.shape == (b, k, f)
    assert (full[:, 0] == 1001.0).all()  # j=1 -> odd half, index 1
    assert (full[:, 1] == 2001.0).all()  # j=2 -> even half, index 1
    assert (full[:, 6] == 1004.0).all()  # j=7 -> odd half, index 4
    assert (full[:, 7] == 2004.0).all()  # j=8 -> even half, index 4


def test_m1_source_index_covers_both_halves():
    # every index of both halves lands in the full sequence exactly once,
    # for the 19/18 split of T=37
    odd = 1000 + np.arange(1, 20)
    even = 2000 + np.arange(1, 19)
    full = sp.interleave_odd_even(odd, even)
    assert full.shape == (37,) and len(set(full.tolist())) == 37
    odd_hits = {int(v) - 1000 for v in full if v < 2000}
    even_hits = {int(v) - 2000 for v in full if v >= 2000}
    assert odd_hits == set(range(1, 20))
    assert even_hits == set(range(1, 19))
