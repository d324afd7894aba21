"""Seq2Seq encoder-decoder assembly and checkpoint IO.

Wiring conventions (the usual ones, fixed here once):
  - encoder and decoder are separate single-layer LSTMs, no shared weights
  - decoder initial state = encoder final state
  - decoder initial input = last context frame
  - frames/measurement grids are flattened before reaching this module:
    inputs are batches [B, T, F_in]

When the model predicts only a subset of the input channels, feedback
into the next decoder step overwrites the predicted slots of the last
observed context frame (the carrier); the remaining slots stay frozen at
their last observed values. `target_slots` records that mapping and is
persisted in checkpoints.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataFormatError, check_ranges
from . import nn
from .rng import RngState


@dataclass
class Seq2SeqParams:
    encoder: nn.LstmParams
    decoder: nn.LstmParams
    projection: nn.LinearParams
    hidden: int
    f_in: int
    f_out: int
    target_slots: np.ndarray  # f_out indices into the f_in input layout

    def tensors(self):
        """Parameter arrays in declared (checkpoint) order."""
        return [self.encoder.w_x, self.encoder.w_h, self.encoder.b,
                self.decoder.w_x, self.decoder.w_h, self.decoder.b,
                self.projection.w, self.projection.b]


def make_target_slots(nodes: int, channels: int, target_channels) -> np.ndarray:
    """Input-layout indices of the predicted channels, node-major, for
    raw frames flattened as [node, channel]."""
    slots = [n * channels + c for n in range(nodes) for c in target_channels]
    return np.asarray(slots, dtype=np.int64)


def init_seq2seq(hidden: int, f_in: int, f_out: int, rng: RngState,
                 target_slots=None, scale: float = 0.1) -> Seq2SeqParams:
    """Draw order: encoder, decoder, projection."""
    check_ranges(hidden=hidden)
    if f_in < 1 or f_out < 1:
        raise ConfigError(f"f_in, f_out must be >= 1, got {f_in}, {f_out}")
    if target_slots is None:
        if f_out != f_in:
            raise ConfigError("target_slots required when f_out != f_in")
        target_slots = np.arange(f_in, dtype=np.int64)
    target_slots = np.asarray(target_slots, dtype=np.int64)
    if target_slots.shape != (f_out,):
        raise ConfigError(
            f"target_slots must have length f_out={f_out}, got {target_slots.shape}")
    if target_slots.size and (target_slots.min() < 0 or target_slots.max() >= f_in):
        raise ConfigError("target_slots entries must index into [0, f_in)")
    return Seq2SeqParams(
        encoder=nn.init_lstm(hidden, f_in, rng, scale),
        decoder=nn.init_lstm(hidden, f_in, rng, scale),
        projection=nn.init_linear(f_out, hidden, rng, scale),
        hidden=hidden, f_in=f_in, f_out=f_out, target_slots=target_slots)


def encode_full(context: np.ndarray, p: Seq2SeqParams, caches=None):
    """Run the encoder over every step of a [B, T_in, F_in] batch and
    return its final state. Appends each step's cache to `caches` when
    given a list; keeps none otherwise."""
    state = nn.zero_state(p.hidden, context.shape[0])
    for t in range(context.shape[1]):
        state, cache = nn.lstm_step(context[:, t], state, p.encoder)
        if caches is not None:
            caches.append(cache)
    return state


def decode_step(prev_input: np.ndarray, state: nn.LstmState, p: Seq2SeqParams):
    """One decoder LSTM step plus the output projection."""
    new_state, step_cache = nn.lstm_step(prev_input, state, p.decoder)
    pred, lin_cache = nn.linear_forward(new_state.h, p.projection)
    return pred, new_state, (step_cache, lin_cache)


# ---------------------------------------------------------------------------
# checkpoint format

_CKPT_MAGIC = b"TPGF"
_CKPT_VERSION = 1


def save_checkpoint(p: Seq2SeqParams, path):
    """Layout: 4-byte magic, then little-endian u32 version, hidden,
    f_in, f_out, n_slots, the slot table as u32, then every parameter
    tensor in declared order as little-endian float64."""
    with open(path, "wb") as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(struct.pack("<5I", _CKPT_VERSION, p.hidden, p.f_in, p.f_out,
                             p.target_slots.shape[0]))
        fh.write(p.target_slots.astype("<u4").tobytes())
        for t in p.tensors():
            fh.write(np.ascontiguousarray(t, dtype="<f8").tobytes())


def load_checkpoint(path) -> Seq2SeqParams:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 24:
        raise DataFormatError("checkpoint truncated before header end")
    if blob[:4] != _CKPT_MAGIC:
        raise DataFormatError(f"bad checkpoint magic {blob[:4]!r}")
    version, hidden, f_in, f_out, n_slots = struct.unpack_from("<5I", blob, 4)
    if version != _CKPT_VERSION:
        raise DataFormatError(f"unsupported checkpoint version {version}")
    if f_out != n_slots:
        raise DataFormatError(
            f"slot table length {n_slots} does not match f_out {f_out}")
    offset = 24
    if len(blob) < offset + 4 * n_slots:
        raise DataFormatError("checkpoint truncated inside slot table")
    slots = np.frombuffer(blob, dtype="<u4", count=n_slots,
                          offset=offset).astype(np.int64)
    if n_slots and slots.max() >= f_in:
        raise DataFormatError(
            f"slot table entry {slots.max()} is outside [0, f_in={f_in})")
    offset += 4 * n_slots

    shapes = [(4 * hidden, f_in), (4 * hidden, hidden), (4 * hidden,),
              (4 * hidden, f_in), (4 * hidden, hidden), (4 * hidden,),
              (f_out, hidden), (f_out,)]
    arrays = []
    for shape in shapes:
        n = int(np.prod(shape))
        if len(blob) < offset + 8 * n:
            raise DataFormatError("checkpoint truncated inside parameter data")
        arrays.append(np.frombuffer(blob, dtype="<f8", count=n,
                                    offset=offset).reshape(shape).copy())
        offset += 8 * n
    if offset != len(blob):
        raise DataFormatError(
            f"checkpoint has {len(blob) - offset} trailing bytes")
    return Seq2SeqParams(
        encoder=nn.LstmParams(w_x=arrays[0], w_h=arrays[1], b=arrays[2]),
        decoder=nn.LstmParams(w_x=arrays[3], w_h=arrays[4], b=arrays[5]),
        projection=nn.LinearParams(w=arrays[6], b=arrays[7]),
        hidden=hidden, f_in=f_in, f_out=f_out, target_slots=slots)
