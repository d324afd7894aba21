import warnings

import numpy as np
import numpy.testing as npt
import pytest

from tpgf.errors import ConfigError, DataFormatError
from tpgf import data as dt


def test_multinode_clean_matches_closed_form():
    series = dt.gen_multinode_series(nodes=4, channels=3, length=50,
                                     coupling=0.0, noise=0.0, seed=9)
    for t in (0, 7, 49):
        for n in (0, 3):
            for f in (0, 2):
                want = dt.multinode_clean_value(t, n, f, nodes=4)
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


def test_sprites_speed_zero_frozen():
    seqs = dt.gen_moving_sprites(12, 12, 2, (0, 0), length=8, seed=5, count=2)
    assert seqs.shape == (2, 8, 12, 12)
    for idx in range(2):
        for t in range(1, 8):
            npt.assert_array_equal(seqs[idx, t], seqs[idx, 0])


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
    assert "travel range 4" in str(ei.value)


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


def test_windowize_shapes_and_target_subset():
    raw = dt.gen_multinode_series(4, 5, 60, 0.2, 0.1, seed=2)
    ds = dt.windowize(raw, t_in=8, k=3, stride=2, target_channels=[0, 2, 4])
    assert ds.contexts.shape[1:] == (8, 4, 5)
    assert ds.targets.shape[1:] == (3, 4, 3)
    # target values are the chosen channels of the raw series
    s0 = int(ds.meta.window_starts[0])
    npt.assert_array_equal(ds.targets[0], raw[s0 + 8:s0 + 11][:, :, [0, 2, 4]])


def test_windowize_targets_c_contiguous_same_values():
    raw = dt.gen_multinode_series(4, 5, 300, 0.2, 0.1, seed=6)
    ds = dt.windowize(raw, t_in=8, k=3, stride=1, target_channels=[4, 0, 2])
    assert ds.targets.flags.c_contiguous
    want = np.stack([raw[s + 8:s + 11][:, :, [4, 0, 2]]
                     for s in ds.meta.window_starts])
    npt.assert_array_equal(ds.targets, want)
    for part in dt.normalize(*dt.split(ds, (0.8, 0.1, 0.1))):
        assert part.targets.flags.c_contiguous


def test_windowize_sequences():
    seqs = dt.gen_moving_sprites(8, 9, 1, (1, 1), length=7, seed=4, count=3,
                                 sprite_size=3)
    ds = dt.windowize_sequences(seqs, t_in=4, k=3, grid=(8, 9))
    assert ds.contexts.shape == (3, 4, 72, 1)
    assert ds.targets.shape == (3, 3, 72, 1)
    assert ds.meta.grid == (8, 9)
    npt.assert_array_equal(ds.contexts[1, 2, :, 0], seqs[1, 2].reshape(-1))
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
    assert train.meta.dropped_windows == 0
    # chronological: every val window starts after every train window
    assert train.meta.window_starts.max() < val.meta.window_starts.min()
    assert val.meta.window_starts.max() < test.meta.window_starts.min()


def test_split_overlapping_windows_dropped():
    raw = np.random.default_rng(0).normal(size=(200, 1, 1))
    ds = dt.windowize(raw, 8, 4, stride=1)
    train, val, test = dt.split(ds, (0.8, 0.1, 0.1))
    assert train.meta.dropped_windows > 0
    assert len(train) + len(val) + len(test) + train.meta.dropped_windows == len(ds)
    # no leakage: raw-time coverage of partitions is disjoint
    window = 12
    t_end = train.meta.window_starts.max() + window
    assert val.meta.window_starts.min() >= t_end


def test_split_validation():
    ds = dt.windowize(np.zeros((40, 1, 1)), 6, 4, stride=10)
    with pytest.raises(ConfigError):
        dt.split(ds, (0.5, 0.2, 0.2))
    with pytest.raises(ConfigError):
        # 4 windows cannot fill a 1% partition
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
    expect = (val.contexts - ntrain.meta.mean) / ntrain.meta.std
    npt.assert_array_equal(nval.contexts, expect)


def test_normalize_roundtrip_identity():
    raw = dt.gen_multinode_series(3, 4, 300, 0.2, 0.1, seed=13)
    ds = dt.windowize(raw, 6, 4, stride=10, target_channels=[1, 3])
    train, val, test = dt.split(ds, (0.8, 0.1, 0.1))
    ntrain, = dt.normalize(train)
    back = dt.denormalize(ntrain.targets, ntrain.meta)
    npt.assert_allclose(back, train.targets, atol=1e-12)


def test_normalize_zero_variance_names_channel():
    raw = np.ones((40, 2, 2))
    raw[:, :, 0] = np.linspace(0, 1, 40)[:, None]
    ds = dt.windowize(raw, 6, 4, stride=10, channel_names=["temp", "flat"])
    with pytest.raises(ConfigError) as ei:
        dt.normalize(ds)
    assert "flat" in str(ei.value)


def test_normalize_double_normalize_rejected():
    raw = dt.gen_multinode_series(2, 2, 50, 0.1, 0.1, seed=1)
    ds = dt.windowize(raw, 6, 4, stride=5)
    nds, = dt.normalize(ds)
    with pytest.raises(ConfigError):
        dt.normalize(nds)


def test_csv_layout_and_roundtrip(tmp_path):
    series = dt.gen_multinode_series(2, 1, 3, 0.4, 0.3, seed=77)
    path = tmp_path / "series.csv"
    dt.write_series_csv(series, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "time,node,channel,value"
    assert len(lines) == 1 + 3 * 2 * 1
    assert lines[1].startswith("0,0,0,")
    back = dt.load_series_csv(path)
    assert back.shape == (3, 2, 1)
    npt.assert_array_equal(back, series)


def test_csv_missing_cell_named(tmp_path):
    path = tmp_path / "ragged.csv"
    rows = ["time,node,channel,value"]
    for t in range(2):
        for n in range(2):
            rows.append(f"{t},{n},0,1.5")
    rows.remove("1,0,0,1.5")
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(DataFormatError) as ei:
        dt.load_series_csv(path)
    assert "time=1, node=0, channel=0" in str(ei.value)


def test_csv_bad_header_and_duplicate(tmp_path):
    p1 = tmp_path / "h.csv"
    p1.write_text("t,n,c,v\n0,0,0,1.0\n")
    with pytest.raises(DataFormatError):
        dt.load_series_csv(p1)
    p2 = tmp_path / "d.csv"
    p2.write_text("time,node,channel,value\n0,0,0,1.0\n0,0,0,2.0\n")
    with pytest.raises(DataFormatError):
        dt.load_series_csv(p2)
    p3 = tmp_path / "n.csv"
    p3.write_text("time,node,channel,value\n0,0,0,1.0\n-1,0,0,2.0\n")
    with pytest.raises(DataFormatError) as ei:
        dt.load_series_csv(p3)
    assert "line 3" in str(ei.value) and "time=-1" in str(ei.value)


def test_csv_rejects_non_finite_values(tmp_path):
    for cell in ("nan", "NaN", "inf", "-inf", "Infinity", "1e999"):
        path = tmp_path / "nf.csv"
        path.write_text("time,node,channel,value\n0,0,0,1.0\n"
                        f"1,0,0,{cell}\n2,0,0,0.5\n")
        with pytest.raises(DataFormatError) as ei:
            dt.load_series_csv(path)
        assert "line 3" in str(ei.value) and "non-finite" in str(ei.value)


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
