"""Synthetic dataset generation, windowing, splits, normalization, and
file ingestion.

Two data families share one sample layout:
  - multinode series: raw [T, N, F] vector measurements per node
  - moving sprites: frames flattened to [T, H*W, 1] so the same
    Seq2Seq consumes both; grid dims are kept in meta for SSIM

Every generator is a pure function of (config, seed).
"""

from __future__ import annotations

import dataclasses
import math
import struct
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataFormatError, check_ranges
from .rng import RngState


@dataclass
class DataMeta:
    channel_names: list
    target_channels: list
    mean: np.ndarray | None = None  # per input channel, train split only
    std: np.ndarray | None = None
    grid: tuple | None = None  # (H, W) when samples are flattened frames
    window_starts: np.ndarray | None = None  # raw start per window; None = independent sequences
    dropped_windows: int = 0
    normalized: bool = False


@dataclass
class Dataset:
    contexts: np.ndarray  # [num, T_in, N, F]
    targets: np.ndarray  # [num, K, N, F_target]
    meta: DataMeta

    def __len__(self):
        return self.contexts.shape[0]


# ---------------------------------------------------------------------------
# generators

def multinode_clean_value(t, node, channel, nodes: int) -> float:
    """Closed form of the noise-free, uncoupled series at one point.

    Two shared sinusoids per channel; the node enters only through its
    phase offset. Channel f has base period 24 + 7 f.
    """
    period = 24.0 + 7.0 * channel
    phase = 2.0 * np.pi * node / nodes + 0.61 * channel
    a = np.sin(2.0 * np.pi * t / period + phase)
    b = 0.4 * np.sin(4.0 * np.pi * t / period + 2.0 * phase)
    return a + b


def gen_multinode_series(nodes: int, channels: int, length: int,
                         coupling: float, noise: float, seed: int) -> np.ndarray:
    """Raw series [T, N, F].

    Construction, in order: (1) the closed-form sinusoid bank above;
    (2) cross-node/cross-channel mixing controlled by `coupling`
    (shared node-mean and channel-mean fields); (3) AR(1) noise with
    decay 0.7 whose innovations are one rng.normal(T*N*F) draw reshaped
    [T, N, F] in row-major order.
    """
    check_ranges(nodes=nodes, channels=channels, length=length,
                 coupling=coupling, noise=noise)

    t = np.arange(length, dtype=np.float64)[:, None, None]
    n = np.arange(nodes, dtype=np.float64)[None, :, None]
    f = np.arange(channels, dtype=np.float64)[None, None, :]
    period = 24.0 + 7.0 * f
    phase = 2.0 * np.pi * n / nodes + 0.61 * f
    base = (np.sin(2.0 * np.pi * t / period + phase)
            + 0.4 * np.sin(4.0 * np.pi * t / period + 2.0 * phase))

    if coupling > 0.0:
        node_mean = base.mean(axis=1, keepdims=True)
        chan_mean = base.mean(axis=2, keepdims=True)
        shared = 0.7 * node_mean + 0.3 * chan_mean
        series = (1.0 - coupling) * base + coupling * shared
    else:
        series = base

    if noise > 0.0:
        rng = RngState(seed)
        xi = rng.normal(length * nodes * channels).reshape(length, nodes, channels)
        ar = np.empty_like(xi)
        # a huge finite noise overflows to inf; the check below names it
        with np.errstate(over="ignore", invalid="ignore"):
            ar[0] = noise * xi[0]
            for k in range(1, length):
                ar[k] = 0.7 * ar[k - 1] + noise * xi[k]
            series = series + ar
        if not np.isfinite(series).all():
            raise ConfigError(
                f"noise {noise!r} overflows the generated series to non-finite values")
    return series


def advance_position(pos: int, vel: int, limit: int):
    """One elastic step along one axis; positions stay in [0, limit]."""
    pos = pos + vel
    if pos < 0:
        return -pos, -vel
    if pos > limit:
        return 2 * limit - pos, -vel
    return pos, vel


def render_frame(h: int, w: int, sprites, rows, cols) -> np.ndarray:
    """Max-composite the sprites onto a zero background."""
    frame = np.zeros((h, w))
    for sprite, r, c in zip(sprites, rows, cols):
        sh, sw = sprite.shape
        region = frame[r:r + sh, c:c + sw]
        np.maximum(region, sprite, out=region)
    return frame


def gen_moving_sprites(h: int, w: int, num_sprites: int, speed_range,
                       length: int, seed: int, count: int = 1,
                       sprite_size: int = 5) -> np.ndarray:
    """Frame sequences [count, T, H, W] with pixel values in [0, 1].

    Sprites are solid squares moving with constant integer velocity and
    elastic reflection at the walls. Sequence i draws from the stream
    split(seed, i + 1); per sprite the draw order is row, col,
    |row speed|, |col speed|, row sign, col sign.
    """
    check_ranges(height=h, width=w, num_sprites=num_sprites, seq_length=length,
                 seq_count=count, sprite_size=sprite_size)
    lo, hi = int(speed_range[0]), int(speed_range[1])
    if lo < 0 or hi < lo:
        raise ConfigError(f"speed range must satisfy 0 <= lo <= hi, got {lo}, {hi}")
    if sprite_size > h or sprite_size > w:
        raise ConfigError(
            f"sprite [{sprite_size}, {sprite_size}] does not fit grid {h}x{w}")
    # one reflection per step keeps a sprite on the grid only this far
    if hi > min(h, w) - sprite_size:
        raise ConfigError(f"speed {hi} exceeds the travel range "
                          f"{min(h, w) - sprite_size} of the sprite")
    sprites = [np.ones((sprite_size, sprite_size))] * num_sprites
    r_lim = h - sprite_size
    c_lim = w - sprite_size

    base = RngState(seed)
    out = np.zeros((count, length, h, w))
    for idx in range(count):
        rng = base.split(idx + 1)
        rows, cols, v_r, v_c = [], [], [], []
        for _ in range(num_sprites):
            rows.append(int(rng.randint_below(r_lim + 1, 1)[0]))
            cols.append(int(rng.randint_below(c_lim + 1, 1)[0]))
            mag_r = lo + int(rng.randint_below(hi - lo + 1, 1)[0])
            mag_c = lo + int(rng.randint_below(hi - lo + 1, 1)[0])
            sign_r = 1 if rng.bernoulli(0.5, 1)[0] else -1
            sign_c = 1 if rng.bernoulli(0.5, 1)[0] else -1
            v_r.append(sign_r * mag_r)
            v_c.append(sign_c * mag_c)
        for t in range(length):
            out[idx, t] = render_frame(h, w, sprites, rows, cols)
            for k in range(num_sprites):
                rows[k], v_r[k] = advance_position(rows[k], v_r[k], r_lim)
                cols[k], v_c[k] = advance_position(cols[k], v_c[k], c_lim)
    return out


# ---------------------------------------------------------------------------
# windowing and splits

def windowize(raw: np.ndarray, t_in: int, k: int, stride: int = 1,
              target_channels=None, channel_names=None) -> Dataset:
    """Sliding windows over a raw [T, N, F] series; the context/target
    boundary sits at t_in."""
    raw = np.asarray(raw, dtype=np.float64)
    if raw.ndim != 3:
        raise ConfigError(f"raw series must be [T, N, F], got shape {list(raw.shape)}")
    check_ranges(t_in=t_in, horizon=k, stride=stride)
    total, nodes, channels = raw.shape
    window = t_in + k
    if total < window:
        raise ConfigError(
            f"series length {total} shorter than window {t_in}+{k}")
    if target_channels is None:
        target_channels = list(range(channels))
    target_channels = [int(c) for c in target_channels]
    for c in target_channels:
        if not 0 <= c < channels:
            raise ConfigError(f"target channel {c} out of range for F={channels}")
    if len(set(target_channels)) != len(target_channels):
        raise ConfigError(f"target channels must be distinct, got {target_channels}")
    if channel_names is None:
        channel_names = [f"ch{i}" for i in range(channels)]

    starts = np.arange(0, total - window + 1, stride, dtype=np.int64)
    contexts = np.stack([raw[s:s + t_in] for s in starts])
    # take() yields a C-contiguous [T, N, Ft] series, so the stacked
    # targets are C-contiguous too and flatten to views
    picked = raw.take(target_channels, axis=2)
    targets = np.stack([picked[s + t_in:s + window] for s in starts])
    meta = DataMeta(channel_names=list(channel_names),
                    target_channels=target_channels,
                    window_starts=starts)
    return Dataset(contexts=contexts, targets=targets, meta=meta)


def windowize_sequences(seqs: np.ndarray, t_in: int, k: int,
                        grid: tuple) -> Dataset:
    """Independent frame sequences [count, T, H, W] -> one sample each,
    frames flattened to [T, H*W, 1]."""
    check_ranges(t_in=t_in, horizon=k)
    seqs = np.asarray(seqs, dtype=np.float64)
    if seqs.ndim != 4:
        raise ConfigError(
            f"expected [count, T, H, W] frames, got shape {list(seqs.shape)}")
    count, total, h, w = seqs.shape
    if tuple(grid) != (h, w):
        raise ConfigError(
            f"grid {tuple(grid)} does not match the frames' (h, w) = {(h, w)}")
    if total < t_in + k:
        raise ConfigError(
            f"sequence length {total} shorter than window {t_in}+{k}")
    flat = seqs.reshape(count, total, h * w, 1)
    meta = DataMeta(channel_names=["intensity"], target_channels=[0],
                    grid=(h, w), window_starts=None)
    return Dataset(contexts=flat[:, :t_in].copy(),
                   targets=flat[:, t_in:t_in + k].copy(), meta=meta)


def split(dataset: Dataset, fractions):
    """Chronological (train, val, test) partition.

    Windowed series are cut at raw-time boundaries and windows that
    straddle a boundary are dropped (count recorded in meta); banks of
    independent sequences are cut by sample index.
    """
    f1, f2, f3 = (float(x) for x in fractions)
    check_ranges(train_frac=f1, val_frac=f2, test_frac=f3)
    if abs(f1 + f2 + f3 - 1.0) > 1e-9:
        raise ConfigError(f"split fractions must sum to 1, got {fractions}")
    num = len(dataset)
    starts = dataset.meta.window_starts
    if starts is None:
        b1 = int(f1 * num)
        b2 = int((f1 + f2) * num)
        masks = [np.zeros(num, dtype=bool) for _ in range(3)]
        masks[0][:b1] = True
        masks[1][b1:b2] = True
        masks[2][b2:] = True
    else:
        window = dataset.contexts.shape[1] + dataset.targets.shape[1]
        horizon = int(starts[-1]) + window
        b1 = int(f1 * horizon)
        b2 = int((f1 + f2) * horizon)
        ends = starts + window
        masks = [
            ends <= b1,
            (starts >= b1) & (ends <= b2),
            starts >= b2,
        ]
    dropped = num - int(sum(m.sum() for m in masks))
    parts = []
    for frac, mask in zip((f1, f2, f3), masks):
        if frac > 0 and not mask.any():
            raise ConfigError(
                f"split fraction {frac} produced an empty partition "
                f"({num} windows total)")
        meta = dataclasses.replace(
            dataset.meta,
            window_starts=None if starts is None else starts[mask],
            dropped_windows=dropped)
        parts.append(Dataset(contexts=dataset.contexts[mask],
                             targets=dataset.targets[mask], meta=meta))
    return tuple(parts)


# ---------------------------------------------------------------------------
# normalization

def normalize(train: Dataset, *others: Dataset):
    """Z-score every channel using statistics from the TRAIN contexts
    only; returns (train', *others')."""
    if train.meta.normalized:
        raise ConfigError("dataset is already normalized")
    if len(train) == 0:
        raise ConfigError("cannot normalize an empty training split")
    flat = train.contexts.reshape(-1, train.contexts.shape[-1])
    mean = flat.mean(axis=0)
    std = flat.std(axis=0)
    for c, s in enumerate(std):
        if s <= 0:
            name = train.meta.channel_names[c]
            raise ConfigError(f"channel {name} has zero variance in the training split")

    out = []
    for ds in (train,) + others:
        if ds.meta.normalized:
            raise ConfigError("dataset is already normalized")
        tc = ds.meta.target_channels
        meta = dataclasses.replace(ds.meta, mean=mean, std=std, normalized=True)
        out.append(Dataset(
            contexts=(ds.contexts - mean) / std,
            targets=(ds.targets - mean[tc]) / std[tc],
            meta=meta))
    return tuple(out)


def denormalize(predictions: np.ndarray, meta: DataMeta) -> np.ndarray:
    """Map normalized target-channel predictions back to raw units."""
    if meta.mean is None or meta.std is None:
        raise ConfigError("meta carries no normalization statistics")
    tc = meta.target_channels
    return predictions * meta.std[tc] + meta.mean[tc]


# ---------------------------------------------------------------------------
# file formats

_CSV_HEADER = "time,node,channel,value"


def write_series_csv(series: np.ndarray, path):
    """Dense long-format CSV; %.17g keeps float64 values exact.

    One write per time step, from a %-template with node and channel
    baked in (% formats exactly as an f-string's :.17g). Writing step by
    step bounds the text held in memory.
    """
    series = np.asarray(series, dtype=np.float64)
    total, nodes, channels = series.shape
    block = "".join(f"{{t}},{n},{f},%.17g\n"
                    for n in range(nodes) for f in range(channels))
    with open(path, "w") as fh:
        fh.write(_CSV_HEADER + "\n")
        for t in range(total):
            fh.write(block.replace("{t}", str(t))
                     % tuple(series[t].ravel().tolist()))


def load_series_csv(path) -> np.ndarray:
    series = _scan_series_csv(path)
    if series is not None:
        return series
    try:
        return _parse_series_csv(path)
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not UTF-8 text ({exc})") from None
    except DataFormatError as exc:
        raise DataFormatError(f"{path}: {exc}") from None


_CSV_ROW = np.dtype([("t", "i8"), ("n", "i8"), ("f", "i8"), ("v", "f8")])
# numpy's number parser skips these as whitespace around a field, where
# int() and float() refuse them
_NUMPY_ONLY_SPACE = "\x1c\x1d\x1e\x1f"


def _scan_series_csv(path):
    """One structured loadtxt pass over a well-formed series CSV.

    Returns None wherever the line loop of _parse_series_csv must
    decide: a bad header or body, a non-finite value, a negative index,
    a duplicate or missing cell, or no rows at all. On what is left,
    numpy's parser is never looser than int()/float(); it only refuses
    some spellings they take (1_0, non-ASCII digits), which the loop
    accepts. comments=None keeps '#' an error, as it is in the loop.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            if fh.readline().rstrip("\n") != _CSV_HEADER:
                return None
            start = fh.tell()
            body = fh.read()
            if not body.strip() or any(c in body for c in _NUMPY_ONLY_SPACE):
                return None
            del body
            fh.seek(start)
            # some numpy releases parse '1.0' as an integer field with
            # only a DeprecationWarning; any warning means the loop decides
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rows = np.loadtxt(fh, dtype=_CSV_ROW, delimiter=",",
                                  comments=None, ndmin=1)
    except (ValueError, Warning):  # UnicodeDecodeError included
        return None
    t, n, f, v = rows["t"], rows["n"], rows["f"], rows["v"]
    if not np.isfinite(v).all() or min(t.min(), n.min(), f.min()) < 0:
        return None
    shape = (int(t.max()) + 1, int(n.max()) + 1, int(f.max()) + 1)
    if math.prod(shape) != rows.size:
        return None
    flat = np.ravel_multi_index((t, n, f), shape)
    if np.bincount(flat, minlength=rows.size).max() != 1:
        return None
    series = np.empty(rows.size)
    series[flat] = v
    return series.reshape(shape)


def _parse_series_csv(path) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if header != _CSV_HEADER:
            raise DataFormatError(
                f"expected header {_CSV_HEADER!r}, got {header!r}")
        entries = {}
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 4:
                raise DataFormatError(
                    f"line {lineno}: expected 4 fields, got {len(parts)}")
            try:
                t, n, f = int(parts[0]), int(parts[1]), int(parts[2])
                v = float(parts[3])
            except ValueError as exc:
                raise DataFormatError(f"line {lineno}: {exc}") from None
            if not math.isfinite(v):
                raise DataFormatError(
                    f"line {lineno}: non-finite value {parts[3]!r}")
            if t < 0 or n < 0 or f < 0:
                raise DataFormatError(
                    f"line {lineno}: negative index in time={t}, node={n}, "
                    f"channel={f}")
            if (t, n, f) in entries:
                raise DataFormatError(
                    f"line {lineno}: duplicate entry for time={t}, node={n}, channel={f}")
            entries[(t, n, f)] = v
    if not entries:
        raise DataFormatError("CSV contains no data rows")
    total = max(k[0] for k in entries) + 1
    nodes = max(k[1] for k in entries) + 1
    channels = max(k[2] for k in entries) + 1
    if len(entries) != total * nodes * channels:
        # the keys are distinct and in range, so one of the first
        # len(entries) + 1 in (t, n, f) order is missing; finding it
        # allocates nothing, however large an index claims the shape is
        for t in range(total):
            for n in range(nodes):
                for f in range(channels):
                    if (t, n, f) not in entries:
                        raise DataFormatError(
                            f"missing entry for time={t}, node={n}, channel={f}")
    series = np.empty((total, nodes, channels))
    for (t, n, f), v in entries.items():
        series[t, n, f] = v
    return series


_FRAME_MAGIC = b"TPGFRAME"
_FRAME_VERSION = 1


def write_frame_sequences(seqs: np.ndarray, path):
    """Documented binary: magic, version, T, H, W, count as little-endian
    u32 after the 8-byte magic, then float64 planes in sequence order."""
    seqs = np.ascontiguousarray(seqs, dtype=np.float64)
    if seqs.ndim != 4:
        raise ConfigError(
            f"expected [count, T, H, W] frames, got shape {list(seqs.shape)}")
    count, total, h, w = seqs.shape
    with open(path, "wb") as fh:
        fh.write(_FRAME_MAGIC)
        fh.write(struct.pack("<5I", _FRAME_VERSION, total, h, w, count))
        fh.write(seqs.astype("<f8").tobytes())


def load_frame_sequences(path) -> np.ndarray:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(_FRAME_MAGIC) + 20:
        raise DataFormatError("frame file truncated before header end")
    if blob[:len(_FRAME_MAGIC)] != _FRAME_MAGIC:
        raise DataFormatError(
            f"bad frame-file magic {blob[:len(_FRAME_MAGIC)]!r}")
    version, total, h, w, count = struct.unpack_from("<5I", blob, len(_FRAME_MAGIC))
    if version != _FRAME_VERSION:
        raise DataFormatError(f"unsupported frame-file version {version}")
    need = len(_FRAME_MAGIC) + 20 + count * total * h * w * 8
    if len(blob) != need:
        raise DataFormatError(
            f"frame file size {len(blob)} does not match header (expected {need})")
    data = np.frombuffer(blob, dtype="<f8", offset=len(_FRAME_MAGIC) + 20)
    seqs = data.reshape(count, total, h, w).astype(np.float64)
    finite = np.isfinite(seqs).reshape(count, total, h * w).all(axis=2)
    if not finite.all():
        seq, frame = np.argwhere(~finite)[0]
        raise DataFormatError(
            f"{path}: non-finite pixel in sequence {seq}, frame {frame}")
    return seqs
