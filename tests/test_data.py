import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tpgf.errors import ConfigError, DataFormatError
from tpgf import data as dt
from tpgf import training as tr


def test_multinode_clean_matches_closed_form():
    # the closed form written out here, independent of the generator:
    # channel f has period 24 + 7 f, node n of 4 the phase 2 pi n / 4 + 0.61 f
    series = dt.gen_multinode_series(nodes=4, channels=3, length=50,
                                     coupling=0.0, noise=0.0, seed=9)
    # exact in float64: step 0, a quarter period, a quarter-turn phase
    assert series[0, 0, 0] == 0.0
    assert series[6, 0, 0] == 1.0
    assert series[0, 1, 0] == 1.0
    for t in (0, 7, 49):
        for n in (0, 3):
            for f in (0, 2):
                period = 24.0 + 7.0 * f
                phase = 2.0 * math.pi * n / 4 + 0.61 * f
                want = (math.sin(2.0 * math.pi * t / period + phase)
                        + 0.4 * math.sin(4.0 * math.pi * t / period + 2.0 * phase))
                assert abs(series[t, n, f] - want) < 1e-12


def test_multinode_deterministic():
    a = dt.gen_multinode_series(5, 4, 100, 0.3, 0.2, seed=11)
    b = dt.gen_multinode_series(5, 4, 100, 0.3, 0.2, seed=11)
    npt.assert_array_equal(a, b)
    c = dt.gen_multinode_series(5, 4, 100, 0.3, 0.2, seed=12)
    assert not np.array_equal(a, c)


def _mean_internode_corr(series):
    total, nodes, channels = series.shape
    vals = []
    for f in range(channels):
        corr = np.corrcoef(series[:, :, f].T)
        off = corr[~np.eye(nodes, dtype=bool)]
        vals.append(off.mean())
    return float(np.mean(vals))


def test_coupling_raises_internode_correlation():
    low = dt.gen_multinode_series(6, 3, 400, coupling=0.0, noise=0.15, seed=21)
    high = dt.gen_multinode_series(6, 3, 400, coupling=0.9, noise=0.15, seed=21)
    assert _mean_internode_corr(high) > _mean_internode_corr(low)


def test_multinode_validation():
    with pytest.raises(ConfigError):
        dt.gen_multinode_series(0, 3, 10, 0.0, 0.0, 1)
    with pytest.raises(ConfigError):
        dt.gen_multinode_series(2, 3, 10, 0.0, -0.1, 1)
    with pytest.raises(ConfigError):
        dt.gen_multinode_series(2, 3, 10, 1.5, 0.1, 1)


def test_multinode_huge_noise_names_noise():
    # finite, but the AR(1) noise overflows; no RuntimeWarning escapes
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match=r"noise 1e\+308"):
            dt.gen_multinode_series(2, 3, 80, 0.5, 1e308, 1)


def test_sprites_speed_zero_rejected():
    # a config never allowed speed 0, so the generator does not either
    with pytest.raises(ConfigError, match="^speed_min must be an integer >= 1"):
        dt.gen_moving_sprites(12, 12, 2, (0, 0), length=8, seed=5, count=2)


def test_sprites_pure_translation():
    sprite = np.ones((3, 3))
    f0 = dt.render_frame(10, 10, [sprite], [2], [1])
    # 4 steps right at speed 1, no wall contact
    r, c, vr, vc = 2, 1, 0, 1
    for _ in range(4):
        r, vr = dt.advance_position(r, vr, 10 - 3)
        c, vc = dt.advance_position(c, vc, 10 - 3)
    f4 = dt.render_frame(10, 10, [sprite], [r], [c])
    npt.assert_array_equal(f4[:, 5:8], f0[:, 1:4])
    assert (r, c) == (2, 5)


def test_sprites_elastic_reflection():
    # at the low wall moving further out: position reflects, velocity flips
    pos, vel = dt.advance_position(0, -1, 10)
    assert (pos, vel) == (1, 1)
    pos, vel = dt.advance_position(10, 2, 10)
    assert (pos, vel) == (8, -2)
    # interior step unchanged
    assert dt.advance_position(4, 1, 10) == (5, 1)


def test_sprites_range_and_determinism():
    a = dt.gen_moving_sprites(16, 16, 2, (1, 2), length=10, seed=3, count=3)
    b = dt.gen_moving_sprites(16, 16, 2, (1, 2), length=10, seed=3, count=3)
    npt.assert_array_equal(a, b)
    assert a.min() >= 0.0 and a.max() <= 1.0
    assert a.max() == 1.0


def test_sprites_overlap_max_composition():
    sprite = np.full((3, 3), 0.8)
    frame = dt.render_frame(8, 8, [sprite, sprite], [1, 2], [1, 2])
    assert frame.max() == 0.8
    assert frame[2, 2] == 0.8


def test_sprites_validation():
    with pytest.raises(ConfigError):
        dt.gen_moving_sprites(4, 4, 1, (1, 1), 5, seed=1, sprite_size=5)
    with pytest.raises(ConfigError):
        dt.gen_moving_sprites(16, 16, 1, (2, 1), 5, seed=1)


def test_sprites_speed_beyond_travel_range_rejected():
    # a 2-pixel sprite on a 6-wide grid travels 4 pixels; speed 5 used to
    # leave the grid and fail in render_frame with a broadcast error
    dt.gen_moving_sprites(8, 6, 1, (4, 4), 12, seed=1, sprite_size=2)
    with pytest.raises(ConfigError) as ei:
        dt.gen_moving_sprites(8, 6, 1, (4, 5), 12, seed=1, sprite_size=2)
    assert str(ei.value) == ("speed_max must be <= min(height, width) - "
                             "sprite_size, got speed_max = 5, height = 8, "
                             "width = 6, sprite_size = 2")


def test_windowize_counts():
    raw = np.zeros((10, 2, 3))
    ds = dt.windowize(raw, t_in=6, k=4)
    assert len(ds) == 1
    ds2 = dt.windowize(np.zeros((11, 2, 3)), t_in=6, k=4, stride=1)
    assert len(ds2) == 2
    with pytest.raises(ConfigError):
        dt.windowize(np.zeros((9, 2, 3)), t_in=6, k=4)


def test_windowize_rejects_repeated_target_channel():
    # a repeated channel would give two different rmse.ch0 rows
    with pytest.raises(ConfigError) as ei:
        dt.windowize(np.zeros((10, 2, 3)), t_in=6, k=4, target_channels=[0, 0])
    assert "distinct" in str(ei.value)
    # no channel at all used to pass here and fail later, in init_model
    with pytest.raises(ConfigError, match="^target_channels must be distinct"):
        dt.windowize(np.zeros((10, 2, 3)), t_in=6, k=4, target_channels=[])
    # a fractional channel was truncated to 1, and nan failed in int()
    for bad in (1.7, np.nan):
        with pytest.raises(ConfigError,
                           match="^target_channels must be distinct integers"):
            dt.windowize(np.arange(120.).reshape(40, 1, 3), 24, 12,
                         target_channels=[bad])
    # numpy integers are integers
    ds = dt.windowize(np.zeros((10, 2, 3)), t_in=6, k=4,
                      target_channels=np.array([2, 0]))
    assert ds.meta.target_channels == [2, 0]


def test_windowize_shapes_and_target_subset():
    raw = dt.gen_multinode_series(4, 5, 60, 0.2, 0.1, seed=2)
    ds = dt.windowize(raw, t_in=8, k=3, stride=2, target_channels=[0, 2, 4])
    assert ds.contexts.shape[1:] == (8, 4, 5)
    assert ds.targets.shape[1:] == (3, 4, 3)
    # target values are the chosen channels of the raw series
    s0 = int(ds.meta.window_starts[0])
    npt.assert_array_equal(ds.targets[0], raw[s0 + 8:s0 + 11][:, :, [0, 2, 4]])


def test_windowize_windows_are_read_only_views_same_values():
    raw = dt.gen_multinode_series(4, 5, 300, 0.2, 0.1, seed=6)
    for total, stride in ((300, 1), (300, 2), (299, 3), (11, 1), (12, 3)):
        ds = dt.windowize(raw[:total], t_in=8, k=3, stride=stride,
                          target_channels=[4, 0, 2])
        npt.assert_array_equal(ds.meta.window_starts,
                               np.arange(0, total - 10, stride))
        # against the per-start slices
        npt.assert_array_equal(ds.contexts, np.stack(
            [raw[s:s + 8] for s in ds.meta.window_starts]))
        npt.assert_array_equal(ds.targets, np.stack(
            [raw[s + 8:s + 11][:, :, [4, 0, 2]]
             for s in ds.meta.window_starts]))
        # one copy of the series, which the context windows view
        npt.assert_array_equal(ds.source, raw[:total])
        assert not np.shares_memory(ds.source, raw)
        assert np.shares_memory(ds.contexts, ds.source)
        if len(ds) > 1 and stride < 3:
            # overlapping target windows store their shared steps once
            assert np.shares_memory(ds.targets[0], ds.targets[1])
        for array in (ds.source, ds.contexts, ds.targets):
            assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            ds.contexts[0, 0, 0, 0] = 1.0
    ds = dt.windowize(raw, t_in=8, k=3, stride=1, target_channels=[4, 0, 2])
    parts = dt.split(ds, (0.8, 0.1, 0.1))
    for part in parts + dt.normalize(*parts):
        # training flattens the windows without copying them
        ctx, tgt, preferred = tr.flatten_dataset(part)
        assert np.shares_memory(ctx, part.source)
        assert tgt is part.targets
        assert np.shares_memory(preferred, part.targets)
        for array in (part.source, ctx, tgt, preferred):
            assert not array.flags.writeable
        # the source is the segment the part's windows cover
        starts = part.meta.window_starts
        assert len(part.source) == starts[-1] - starts[0] + 11


def test_windowize_sequences():
    seqs = dt.gen_moving_sprites(8, 9, 1, (1, 1), length=7, seed=4, count=3,
                                 sprite_size=3)
    ds = dt.windowize_sequences(seqs, t_in=4, k=3, grid=(8, 9))
    assert ds.contexts.shape == (3, 4, 72, 1)
    assert ds.targets.shape == (3, 3, 72, 1)
    assert ds.meta.grid == (8, 9)
    npt.assert_array_equal(ds.contexts[1, 2, :, 0], seqs[1, 2].reshape(-1))
    # a bank's windows are read-only views of one copy of its frames
    npt.assert_array_equal(ds.source, seqs)
    assert np.shares_memory(ds.contexts, ds.source)
    assert np.shares_memory(ds.targets, ds.source)
    assert not (ds.contexts.flags.writeable or ds.targets.flags.writeable)
    with pytest.raises(ConfigError):
        dt.windowize_sequences(seqs, t_in=5, k=3, grid=(8, 9))
    # the grid must be the frames' (h, w); both shapes are named
    with pytest.raises(ConfigError, match=r"\(9, 8\).*\(8, 9\)"):
        dt.windowize_sequences(seqs, t_in=4, k=3, grid=(9, 8))


def test_split_all_train():
    raw = np.zeros((40, 2, 2))
    ds = dt.windowize(raw, 6, 4, stride=10)
    train, val, test = dt.split(ds, (1.0, 0.0, 0.0))
    assert len(train) == len(ds) and len(val) == 0 and len(test) == 0


def test_split_back_to_back_exact():
    window = 10
    raw = np.arange(100 * window * 1 * 1, dtype=np.float64).reshape(-1, 1, 1)
    ds = dt.windowize(raw, 6, 4, stride=window)
    assert len(ds) == 100
    train, val, test = dt.split(ds, (0.8, 0.1, 0.1))
    assert (len(train), len(val), len(test)) == (80, 10, 10)
    assert len(ds) - sum(map(len, (train, val, test))) == 0
    # chronological: every val window starts after every train window
    assert train.meta.window_starts.max() < val.meta.window_starts.min()
    assert val.meta.window_starts.max() < test.meta.window_starts.min()


def test_split_overlapping_windows_dropped():
    raw = np.random.default_rng(0).normal(size=(200, 1, 1))
    ds = dt.windowize(raw, 8, 4, stride=1)
    train, val, test = dt.split(ds, (0.8, 0.1, 0.1))
    dropped = len(ds) - sum(map(len, (train, val, test)))
    assert dropped > 0
    # no leakage: raw-time coverage of partitions is disjoint
    window = 12
    t_end = train.meta.window_starts.max() + window
    assert val.meta.window_starts.min() >= t_end


def test_split_validation():
    ds = dt.windowize(np.zeros((40, 1, 1)), 6, 4, stride=10)
    with pytest.raises(ConfigError):
        dt.split(ds, (0.5, 0.2, 0.2))
    # 4 windows cannot fill a 1% partition; the message names the part
    with pytest.raises(ConfigError, match="^split fraction 0.01 produced an "
                       "empty partition: the val split gets none of the 4 "
                       "windows$"):
        dt.split(ds, (0.98, 0.01, 0.01))


def test_split_rejects_nan_fraction():
    # nan passes every comparison-based bound, then fails in int()
    ds = dt.windowize(np.zeros((40, 1, 1)), 6, 4, stride=10)
    with pytest.raises(ConfigError) as ei:
        dt.split(ds, (np.nan, 0.5, 0.5))
    assert "train_frac" in str(ei.value)


def test_split_independent_sequences_by_index():
    seqs = np.zeros((10, 6, 4, 4))
    ds = dt.windowize_sequences(seqs, 3, 3, grid=(4, 4))
    train, val, test = dt.split(ds, (0.8, 0.1, 0.1))
    assert (len(train), len(val), len(test)) == (8, 1, 1)

    # against the index rule: [:int(f1 n)], [int(f1 n):int((f1 + f2) n)],
    # then the rest; a positive fraction with no sample is an error
    triples = [(0.8, 0.1, 0.1), (0.6, 0.2, 0.2), (0.34, 0.33, 0.33),
               (1.0, 0.0, 0.0), (0.5, 0.5, 0.0), (0.7, 0.0, 0.3),
               (0.0, 0.0, 1.0), (0.05, 0.05, 0.9)]
    for n in range(61):
        seqs = np.repeat(np.arange(n, dtype=np.float64), 2).reshape(n, 2, 1, 1)
        ds = dt.windowize_sequences(seqs, 1, 1, grid=(1, 1))
        for fracs in triples:
            b1, b2 = int(fracs[0] * n), int((fracs[0] + fracs[1]) * n)
            want = [np.arange(n)[:b1], np.arange(n)[b1:b2], np.arange(n)[b2:]]
            if any(f > 0 and not w.size for f, w in zip(fracs, want)):
                with pytest.raises(ConfigError, match="empty partition"):
                    dt.split(ds, fracs)
                continue
            parts = dt.split(ds, fracs)
            assert len(ds) - sum(map(len, parts)) == 0
            for part, w in zip(parts, want):
                npt.assert_array_equal(part.contexts[:, 0, 0, 0], w)
                # a bank's windows start at their sample indices, span 1
                npt.assert_array_equal(part.meta.window_starts, w)
                assert part.meta.window_span == 1


def _mask_split(ds, fractions):
    """Reference: the window indices of each part as the boolean masks of
    the copying split selected them, and the dropped count. The window
    comes from the family and the array shapes, not from meta's span: a
    bank is cut by sample index, a series by its windows' starts."""
    f1, f2, _ = fractions
    num = len(ds)
    if ds.meta.grid is not None:
        cuts, window = np.arange(num), 1
    else:
        cuts = ds.meta.window_starts
        window = ds.contexts.shape[1] + ds.targets.shape[1]
    horizon = int(cuts[-1]) + window if num else 0
    b1 = int(f1 * horizon)
    b2 = int((f1 + f2) * horizon)
    ends = cuts + window
    masks = [ends <= b1, (cuts >= b1) & (ends <= b2), cuts >= b2]
    return ([np.flatnonzero(m) for m in masks],
            num - int(sum(m.sum() for m in masks)))


def test_split_parts_are_views_matching_masks():
    triples = [(0.8, 0.1, 0.1), (0.6, 0.2, 0.2), (0.34, 0.33, 0.33),
               (1.0, 0.0, 0.0), (0.5, 0.5, 0.0), (0.7, 0.0, 0.3),
               (0.0, 0.0, 1.0), (0.05, 0.05, 0.9), (0.98, 0.01, 0.01)]
    banks = [dt.windowize_sequences(
        np.arange(n * 2 * 4, dtype=np.float64).reshape(n, 2, 2, 2), 1, 1,
        grid=(2, 2)) for n in range(61)]
    rng = np.random.default_rng(5)
    series = [dt.windowize(rng.normal(size=(total, 2, 2)), t_in, k, stride,
                           target_channels=[1])
              for total in (40, 97, 200) for t_in, k in ((6, 4), (3, 2))
              for stride in (1, 3, 10)]
    checked = 0
    for ds in banks + series:
        for fracs in triples:
            picks, dropped = _mask_split(ds, fracs)
            if any(f > 0 and not idx.size for f, idx in zip(fracs, picks)):
                with pytest.raises(ConfigError, match="empty partition"):
                    dt.split(ds, fracs)
                continue
            parts = dt.split(ds, fracs)
            assert len(ds) - sum(map(len, parts)) == dropped
            for part, idx in zip(parts, picks):
                npt.assert_array_equal(part.contexts, ds.contexts[idx])
                npt.assert_array_equal(part.targets, ds.targets[idx])
                npt.assert_array_equal(part.meta.window_starts,
                                       ds.meta.window_starts[idx])
                assert part.meta.window_span == ds.meta.window_span
                if idx.size:
                    assert np.shares_memory(part.contexts, ds.contexts)
                    assert np.shares_memory(part.targets, ds.targets)
                    checked += 1
    assert checked > 500


@st.composite
def _windowed_series(draw):
    """A random series and its windowize arguments, statistics chunked a
    few window steps at a time."""
    nodes, channels = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    t_in, k, stride = (draw(st.integers(1, 6)), draw(st.integers(1, 4)),
                       draw(st.integers(1, 3)))
    total = draw(st.integers(t_in + k, 60))
    channel_ids = st.integers(0, channels - 1)
    tc = draw(st.lists(channel_ids, min_size=1, max_size=channels, unique=True))
    loc = draw(st.sampled_from([0.0, 5.0, -300.0]))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    raw = rng.normal(loc, scale, size=(total, nodes, channels))
    return raw, t_in, k, stride, tc, draw(st.integers(1, 64))


@settings(max_examples=120, deadline=None)
@given(case=_windowed_series(),
       fracs=st.sampled_from([(0.8, 0.1, 0.1), (0.5, 0.3, 0.2),
                              (1.0, 0.0, 0.0)]))
def test_statistics_and_normalize_on_views_match_stacked_windows(case, fracs):
    raw, t_in, k, stride, tc, rows = case
    ds = dt.windowize(raw, t_in, k, stride, target_channels=tc)
    try:
        parts = dt.split(ds, fracs)
    except ConfigError:
        assume(False)

    def stacked(part):
        # the per-start slices, as a copy of every window holds them
        starts = part.meta.window_starts
        return (np.stack([raw[s:s + t_in] for s in starts]),
                np.stack([raw[s + t_in:s + t_in + k][:, :, tc] for s in starts]))

    # the reference: np.mean's and np.std's arithmetic on the stacked rows
    flat = stacked(parts[0])[0].reshape(-1, raw.shape[2])
    mean = flat.sum(axis=0) / len(flat)
    dev = flat - mean
    std = np.sqrt((dev * dev).sum(axis=0) / len(flat))
    with mock.patch.object(dt, "_STATISTICS_ROWS", rows):
        if not (std > 0).all():
            with pytest.raises(ConfigError, match="zero variance"):
                dt.train_statistics(parts[0])
            return
        got_mean, got_std = dt.train_statistics(parts[0])
        normalized = dt.normalize(*parts)
    assert got_mean.tobytes() == mean.tobytes()
    assert got_std.tobytes() == std.tobytes()
    for part, norm in zip(parts, normalized):
        assert len(norm) == len(part)
        if len(part):
            ctx, tgt = stacked(part)
            assert norm.contexts.tobytes() == ((ctx - mean) / std).tobytes()
            assert norm.targets.tobytes() == ((tgt - mean[tc]) / std[tc]).tobytes()


def test_setup_memory_is_a_small_multiple_of_the_series():
    # windows view one source, so setup at desk size holds the series a
    # few times over (about 3x), where stacked windows held it 65x
    raw = dt.gen_multinode_series(10, 9, 2000, 0.5, 0.2, seed=1)
    tracemalloc.start()
    try:
        ds = dt.windowize(raw, 24, 12, 1, target_channels=[0, 1, 2])
        parts = dt.split(ds, (0.8, 0.1, 0.1))
        normalized = dt.normalize(*parts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [len(n) for n in normalized] == [len(p) for p in parts]
    assert peak < 5 * raw.nbytes


def test_normalize_train_stats_only():
    rng = np.random.default_rng(7)
    raw = rng.normal(loc=5.0, scale=2.0, size=(300, 2, 3))
    raw[200:] += 10.0  # later data (val/test territory) has a different mean
    ds = dt.windowize(raw, 6, 4, stride=10)
    train, val, test = dt.split(ds, (0.6, 0.2, 0.2))
    ntrain, nval, ntest = dt.normalize(train, val, test)

    flat = ntrain.contexts.reshape(-1, 3)
    npt.assert_allclose(flat.mean(axis=0), 0.0, atol=1e-12)
    npt.assert_allclose(flat.std(axis=0), 1.0, atol=1e-12)
    # val was shifted by +10 raw units, so it must NOT be zero-mean
    assert abs(nval.contexts.mean()) > 1.0
    # and the transform must be exactly (x - train_mean) / train_std
    flat = train.contexts.reshape(-1, 3)
    expect = (val.contexts - flat.mean(axis=0)) / flat.std(axis=0)
    npt.assert_array_equal(nval.contexts, expect)


def test_train_statistics_keep_numpy_mean_std_bits():
    # every normalized split, and so every multinode data file, depends
    # on these exact bits
    rng = np.random.default_rng(3)
    for shape, loc, scale in (((3, 4, 2, 3), 0.0, 1.0),
                              ((60, 24, 10, 9), 5.0, 1e3),
                              ((7, 5, 1, 2), -2.0, 1e-3)):
        contexts = rng.normal(loc, scale, size=shape)
        ds = dt.Dataset(source=contexts, contexts=contexts,
                        targets=contexts[:, :1],
                        meta=dt.DataMeta(
                            channel_names=[f"ch{i}" for i in range(shape[3])],
                            target_channels=[0],
                            window_starts=np.arange(shape[0]), window_span=1))
        flat = contexts.reshape(-1, shape[3])
        mean, std = dt.train_statistics(ds)
        assert mean.tobytes() == flat.mean(axis=0).tobytes()
        assert std.tobytes() == flat.std(axis=0).tobytes()


def test_normalize_roundtrip_identity():
    raw = dt.gen_multinode_series(3, 4, 300, 0.2, 0.1, seed=13)
    ds = dt.windowize(raw, 6, 4, stride=10, target_channels=[1, 3])
    train, val, test = dt.split(ds, (0.8, 0.1, 0.1))
    ntrain, = dt.normalize(train)
    # targets use the statistics of their channels in the contexts
    flat = train.contexts.reshape(-1, 4)
    mean, std = flat.mean(axis=0)[[1, 3]], flat.std(axis=0)[[1, 3]]
    npt.assert_allclose(ntrain.targets * std + mean, train.targets, atol=1e-12)


def test_normalize_zero_variance_names_channel():
    raw = np.ones((40, 2, 2))
    raw[:, :, 0] = np.linspace(0, 1, 40)[:, None]
    ds = dt.windowize(raw, 6, 4, stride=10)
    with pytest.raises(ConfigError) as ei:
        dt.normalize(ds)
    assert "channel ch1 " in str(ei.value)


def test_normalize_double_normalize_rejected():
    raw = dt.gen_multinode_series(2, 2, 50, 0.1, 0.1, seed=1)
    ds = dt.windowize(raw, 6, 4, stride=5)
    nds, = dt.normalize(ds)
    with pytest.raises(ConfigError):
        dt.normalize(nds)


def test_frames_roundtrip_bit_exact(tmp_path):
    seqs = dt.gen_moving_sprites(9, 7, 1, (1, 2), length=5, seed=8, count=3,
                                 sprite_size=3)
    path = tmp_path / "frames.bin"
    dt.write_frame_sequences(seqs, path)
    back = dt.load_frame_sequences(path)
    npt.assert_array_equal(back, seqs)
    assert back.shape == seqs.shape


def test_frames_bad_magic_and_truncation(tmp_path):
    seqs = np.zeros((1, 2, 3, 3))
    path = tmp_path / "frames.bin"
    dt.write_frame_sequences(seqs, path)
    blob = path.read_bytes()

    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"XXGFRAME" + blob[8:])
    with pytest.raises(DataFormatError):
        dt.load_frame_sequences(bad)

    short = tmp_path / "short.bin"
    short.write_bytes(blob[:-8])
    with pytest.raises(DataFormatError):
        dt.load_frame_sequences(short)


def test_frames_reject_non_finite_pixel(tmp_path):
    path = tmp_path / "frames.bin"
    for bad in (np.nan, np.inf, -np.inf):
        seqs = np.zeros((3, 4, 5, 5))
        seqs[1, 2, 4, 0] = bad
        dt.write_frame_sequences(seqs, path)
        with pytest.raises(DataFormatError) as ei:
            dt.load_frame_sequences(path)
        assert "sequence 1, frame 2" in str(ei.value)
        assert str(path) in str(ei.value)
