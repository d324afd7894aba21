"""Synthetic dataset generation, windowing, splits, normalization, and
file ingestion.

Two data families share one sample layout:
  - multinode series: raw [T, N, F] vector measurements per node
  - moving sprites: frames flattened to [T, H*W, 1] so the same
    Seq2Seq consumes both; grid dims are kept in meta for SSIM

Both families are stored as frame files: a series [T, N, F] is one
sequence with (H, W) = (N, F), a sprite bank count sequences, in the
binary layout that checkpoints and data files share (errors.write_binary).

Every generator is a pure function of (config, seed).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigError, DataFormatError, check_ranges, read_binary,
                     write_binary)
from .rng import RngState


@dataclass
class DataMeta:
    channel_names: list
    target_channels: list
    window_starts: np.ndarray  # source index where each window starts
    window_span: int  # source steps one window covers
    grid: tuple | None = None  # (H, W) when samples are flattened frames
    normalized: bool = False


@dataclass
class Dataset:
    """Windows over one read-only source: a series segment [T, N, F]
    whose step 0 is the first window's start, or a bank of frame
    sequences [count, T, H, W]. contexts and targets are read-only views
    of the source (targets of a compact copy of its target channels), so
    each source step is stored once however many windows hold it."""
    source: np.ndarray
    contexts: np.ndarray  # [num, T_in, N, F]
    targets: np.ndarray  # [num, K, N, F_target]
    meta: DataMeta

    def __len__(self):
        return self.contexts.shape[0]


# ---------------------------------------------------------------------------
# generators

def gen_multinode_series(nodes: int, channels: int, length: int,
                         coupling: float, noise: float, seed: int) -> np.ndarray:
    """Raw series [T, N, F].

    Construction, in order: (1) two shared sinusoids per channel, the
    node entering only through its phase offset: channel f has base
    period 24 + 7 f, and node n the phase 2 pi n / N + 0.61 f; (2) cross-node/cross-channel mixing controlled by `coupling`
    (shared node-mean and channel-mean fields); (3) AR(1) noise with
    decay 0.7 whose innovations are one rng.normal(T*N*F) draw reshaped
    [T, N, F] in row-major order.
    """
    check_ranges(nodes=nodes, channels=channels, length=length,
                 coupling=coupling, noise=noise)

    t = np.arange(length, dtype=np.float64)[:, None, None]
    channel = np.arange(channels, dtype=np.float64)
    period = 24.0 + 7.0 * channel
    phase = (2.0 * np.pi * np.arange(nodes, dtype=np.float64)[:, None] / nodes
             + 0.61 * channel)
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
    lo, hi = int(speed_range[0]), int(speed_range[1])
    check_ranges(height=h, width=w, num_sprites=num_sprites, seq_length=length,
                 seq_count=count, sprite_size=sprite_size, speed_min=lo,
                 speed_max=hi)
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
              target_channels=None) -> Dataset:
    """Sliding windows over a raw [T, N, F] series, read-only views of
    one copy of it; the context/target boundary sits at t_in. Channel f
    is named ch<f>."""
    raw = np.asarray(raw, dtype=np.float64)
    if raw.ndim != 3:
        raise ConfigError(f"raw series must be [T, N, F], got shape {list(raw.shape)}")
    total, nodes, channels = raw.shape
    if target_channels is None:
        target_channels = list(range(channels))
    # checked as given: int() would truncate a fractional channel
    check_ranges(t_in=t_in, horizon=k, stride=stride, length=total,
                 channels=channels, target_channels=list(target_channels))
    meta = DataMeta(channel_names=[f"ch{i}" for i in range(channels)],
                    target_channels=[int(c) for c in target_channels],
                    window_starts=np.arange(0, total - t_in - k + 1, stride,
                                            dtype=np.int64),
                    window_span=t_in + k)
    return _windowed(np.array(raw, order="C"), meta, t_in, k)


def windowize_sequences(seqs: np.ndarray, t_in: int, k: int,
                        grid: tuple) -> Dataset:
    """Independent frame sequences [count, T, H, W] -> one sample each,
    frames flattened to [T, H*W, 1]; sample i spans bank index i."""
    seqs = np.asarray(seqs, dtype=np.float64)
    if seqs.ndim != 4:
        raise ConfigError(
            f"expected [count, T, H, W] frames, got shape {list(seqs.shape)}")
    count, total, h, w = seqs.shape
    if tuple(grid) != (h, w):
        raise ConfigError(
            f"grid {tuple(grid)} does not match the frames' (h, w) = {(h, w)}")
    check_ranges(t_in=t_in, horizon=k, seq_length=total)
    meta = DataMeta(channel_names=["intensity"], target_channels=[0],
                    window_starts=np.arange(count), window_span=1, grid=(h, w))
    return _windowed(np.array(seqs, order="C"), meta, t_in, k)


def _windowed(source: np.ndarray, meta: DataMeta, t_in: int, k: int) -> Dataset:
    """The dataset of meta's windows over source, a C-contiguous series
    segment whose step 0 is the first window's start, or a bank whose
    sample i is window i. source becomes read-only: the windows' one
    copy of the data."""
    source.flags.writeable = False
    if meta.grid is not None:
        frames = source.reshape(*source.shape[:2], math.prod(meta.grid), 1)
        return Dataset(source=source, contexts=frames[:, :t_in],
                       targets=frames[:, t_in:t_in + k], meta=meta)
    num = len(meta.window_starts)
    step = int(meta.window_starts[1] - meta.window_starts[0]) if num > 1 else 1
    # a compact copy, so target windows flatten [N, Ft] without a copy
    picked = source.take(meta.target_channels, axis=2)
    return Dataset(source=source, contexts=_slide(source, t_in, step, num),
                   targets=_slide(picked[t_in:], k, step, num), meta=meta)


def _slide(a: np.ndarray, width: int, step: int, num: int) -> np.ndarray:
    """num read-only windows a[i * step:i * step + width] stacked on a new
    axis 0; a holds at least (num - 1) * step + width steps."""
    lead = a.strides[0]
    return np.lib.stride_tricks.as_strided(
        a, (num, width) + a.shape[1:], (step * lead, lead) + a.strides[1:],
        writeable=False)


def split(dataset: Dataset, fractions, where=None):
    """Chronological (train, val, test) partition.

    Windows are cut at source boundaries and windows that straddle a
    boundary are dropped. A bank of independent sequences has unit
    windows at 0, 1, 2, ..., so it is cut by sample index and drops
    none. Window starts and ends both ascend, so each part is one run of
    windows, and its source is the segment those windows cover: views of
    the dataset's arrays, not copies.

    A fraction above 0 whose part gets no window is refused, naming the
    part; `where` maps a fraction's name (`val_frac`) to the start of its
    error messages, as in check_ranges.
    """
    f1, f2, f3 = (float(x) for x in fractions)
    check_ranges(where, train_frac=f1, val_frac=f2, test_frac=f3)
    num = len(dataset)
    starts, span = dataset.meta.window_starts, dataset.meta.window_span
    horizon = int(starts[-1]) + span if num else 0
    b1 = int(f1 * horizon)
    b2 = int((f1 + f2) * horizon)
    ends = starts + span
    # train ends by b1, val starts at b1 and ends by b2, test starts at b2
    first = [0, int(np.searchsorted(starts, b1)), int(np.searchsorted(starts, b2))]
    last = [int(np.searchsorted(ends, b1, side="right")),
            int(np.searchsorted(ends, b2, side="right")), num]
    runs = [slice(lo, max(lo, hi)) for lo, hi in zip(first, last)]
    parts = []
    for part, frac, run in zip(("train", "val", "test"), (f1, f2, f3), runs):
        if frac > 0 and run.start == run.stop:
            lead = (where or {}).get(f"{part}_frac")
            raise ConfigError(
                (f"{lead} " if lead else "")
                + f"split fraction {frac} produced an empty partition: the "
                f"{part} split gets none of the {num} windows")
        kept = starts[run]
        # the source steps the part's windows cover; step 0 is starts[0]
        lo = int(kept[0] - starts[0]) if kept.size else 0
        hi = int(kept[-1] - starts[0]) + span if kept.size else 0
        parts.append(Dataset(source=dataset.source[lo:hi],
                             contexts=dataset.contexts[run],
                             targets=dataset.targets[run],
                             meta=dataclasses.replace(dataset.meta,
                                                      window_starts=kept)))
    return tuple(parts)


# ---------------------------------------------------------------------------
# normalization

# the most rows of contexts.reshape(-1, F) train_statistics copies at once
_STATISTICS_ROWS = 16384


def train_statistics(train: Dataset):
    """Per-channel (mean, std) of the TRAIN contexts, the statistics
    every split is z-scored with.

    The arithmetic is np.mean's and np.std's over the stack of window
    steps, contexts.reshape(-1, F), without building that stack: numpy
    sums several columns row by row, in order, so the stack is summed in
    chunks of windows, each chunk's sum starting from the running total
    as its row 0. A single column numpy sums pairwise, which chunks
    would regroup, so it is summed in one piece.
    """
    if train.meta.normalized:
        raise ConfigError("dataset is already normalized")
    if len(train) == 0:
        raise ConfigError("cannot normalize an empty training split")
    contexts = train.contexts
    f = contexts.shape[-1]
    per = contexts[0].size // f
    rows = len(train) * per
    chunk = len(train) if f == 1 else max(1, _STATISTICS_ROWS // per)
    buf = np.empty((min(chunk, len(train)) * per + 1, f))

    def column_sums(center=None):
        total = None
        for lo in range(0, len(train), chunk):
            windows = contexts[lo:lo + chunk]
            stack = buf[1:1 + len(windows) * per]
            np.copyto(stack.reshape(windows.shape), windows)
            if center is not None:
                stack -= center
                np.multiply(stack, stack, out=stack)
            if total is not None:
                buf[0] = total
                stack = buf[:1 + len(stack)]
            total = stack.sum(axis=0)
        return total

    mean = column_sums() / rows
    std = np.sqrt(column_sums(mean) / rows)
    for c, s in enumerate(std):
        if s <= 0:
            name = train.meta.channel_names[c]
            raise ConfigError(f"channel {name} has zero variance in the training split")
    return mean, std


def normalize(*datasets: Dataset):
    """Z-score every channel of every dataset with the training
    statistics: the first dataset is the training split, and they are
    its train_statistics. Each dataset's source is z-scored and its
    windows formed over it again."""
    mean, std = train_statistics(datasets[0])
    out = []
    for ds in datasets:
        if ds.meta.normalized:
            raise ConfigError("dataset is already normalized")
        meta = dataclasses.replace(ds.meta, normalized=True)
        out.append(_windowed((ds.source - mean) / std, meta,
                             ds.contexts.shape[1], ds.targets.shape[1]))
    return tuple(out)


# ---------------------------------------------------------------------------
# file formats

_FRAME_MAGIC = b"TPGFRAME"
_FRAME_VERSION = 1


def write_frame_sequences(seqs: np.ndarray, path):
    """Layout: errors.write_binary's, with dims T, H, W, count; the
    payload is the frames in sequence order as float64. A multinode
    split is a count-1 file of its series [T, N, F] as [1, T, N, F]."""
    seqs = np.asarray(seqs, dtype="<f8")
    if seqs.ndim != 4 or not seqs.size:  # the reader refuses a zero dim
        raise ConfigError(f"expected non-empty [count, T, H, W] frames, got "
                          f"shape {list(seqs.shape)}")
    count, total, h, w = seqs.shape
    write_binary(path, _FRAME_MAGIC, _FRAME_VERSION, (total, h, w, count),
                 [seqs])


def load_frame_sequences(path) -> np.ndarray:
    """The [count, T, H, W] frames write_frame_sequences wrote, each
    value checked finite; a multinode split is sequence 0 of a count-1
    file."""
    (total, h, w, count), payload = read_binary(
        path, _FRAME_MAGIC, _FRAME_VERSION,
        ("seq_length", "height", "width", "seq_count"),
        lambda *dims: 8 * math.prod(dims))
    seqs = np.frombuffer(payload, dtype="<f8").reshape(
        count, total, h, w).astype(np.float64)
    finite = np.isfinite(seqs).reshape(count, total, h * w).all(axis=2)
    if not finite.all():
        seq, frame = np.argwhere(~finite)[0]
        raise DataFormatError(
            f"{path}: non-finite pixel in sequence {seq}, frame {frame}")
    return seqs
