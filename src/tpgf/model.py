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

import math
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigError, DataFormatError, check_ranges, read_binary,
                     write_binary)
from . import nn
from .rng import RngState

@dataclass
class Seq2SeqParams:
    encoder: nn.LstmParams
    decoder: nn.LstmParams
    projection: nn.LinearParams
    target_slots: np.ndarray  # f_out indices into the f_in input layout

    # names of the tensors() entries, for error messages
    TENSOR_NAMES = ("encoder.w_x", "encoder.w_h", "encoder.b",
                    "decoder.w_x", "decoder.w_h", "decoder.b",
                    "projection.w", "projection.b")

    hidden = property(lambda self: self.encoder.hidden)
    f_in = property(lambda self: self.encoder.f_in)
    f_out = property(lambda self: self.projection.w.shape[0])

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


def _check_slots(slots: np.ndarray, f_in: int, f_out: int, error, where):
    """The target-slot rule: f_out >= 1 distinct entries in [0, f_in),
    since each prediction is fed back into its own input slot. Raises
    `error` with a message that starts with `where`."""
    outside = slots[(slots < 0) | (slots >= f_in)]
    if outside.size:
        raise error(f"{where}: slot table entry {outside[0]} is outside "
                    f"[0, f_in={f_in})")
    if slots.shape != (f_out,) or not 0 < f_out == len(set(slots.tolist())):
        raise error(f"{where}: slot table {slots.tolist()} must hold "
                    f"f_out = {f_out} distinct entries, at least one")


def init_seq2seq(hidden: int, f_in: int, f_out: int, rng: RngState,
                 target_slots=None) -> Seq2SeqParams:
    """Draw order: encoder, decoder, projection. target_slots defaults to
    every input slot, so f_out must then equal f_in."""
    check_ranges(hidden=hidden)
    target_slots = np.asarray(
        np.arange(f_in) if target_slots is None else target_slots, dtype=np.int64)
    _check_slots(target_slots, f_in, f_out, ConfigError, "target_slots")
    return Seq2SeqParams(
        encoder=nn.init_lstm(hidden, f_in, rng),
        decoder=nn.init_lstm(hidden, f_in, rng),
        projection=nn.init_linear(f_out, hidden, rng),
        target_slots=target_slots)


def _context_rows(context: np.ndarray):
    """(rows, r0, r1): a read-only [span, F_in] array whose row
    b * r0 + t * r1 is context[b, t], for a [B, T, F_in] context. It is
    a view of the context's own memory, from context[0, 0] on, when the
    entries are rows of one row-major array that reach at most B * T
    rows (sliding windows over one series and their parity halves, or a
    contiguous batch); of np.ascontiguousarray(context) otherwise (a bank
    of frame sequences, or a reversed, broadcast or misaligned view)."""
    b, t_in, f_in = context.shape
    row = f_in * context.itemsize
    s0, s1, s2 = context.strides
    if s2 == context.itemsize and min(s0, s1) > 0 and not (s0 % row or s1 % row):
        r0, r1 = s0 // row, s1 // row
        span = (b - 1) * r0 + (t_in - 1) * r1 + 1
        if span <= b * t_in:
            # every row in [0, span) lies between the context's first and
            # last entries, so inside its buffer; rows no entry reaches
            # are projected and never read
            return np.lib.stride_tricks.as_strided(
                context, (span, f_in), (row, context.itemsize),
                writeable=False), r0, r1
    rows = np.ascontiguousarray(context).reshape(b * t_in, f_in)
    return rows, t_in, 1


def encode_full(context: np.ndarray, p: Seq2SeqParams,
                caches: nn.LstmCaches | None = None) -> nn.LstmState:
    """Run the encoder over every step of a [B, T_in, F_in] batch and
    return its final state. The context is projected in one GEMM per
    call, so its callers bound the memory: a training batch, or one of
    training.rollout_batch's 256-row blocks.

    With `caches` (training), the time-major projection fills their
    activation slots, which each of the T_in steps from the zero state
    then overwrites. Without (every closed-loop rollout), the context's
    rows (_context_rows) are projected and each step reads its [B, 4C]
    input as a strided view of that projection: overlapping windows
    over one series project each row they reach once (279 rows for a
    256-row block of stride-1 desk windows, not 6,144), and any other
    context projects its B * T rows batch-major.

    An entry's projection is the same row product on every path, but
    the GEMM's row count differs, and on OpenBLAS 0.3.31 a row's bits
    can depend on that count, as with rollout_batch's blocks. Against
    contiguous copies of 10x9-input windows, rollouts through the shared
    rows kept every bit at hidden 17, 64 and 96. At hidden 32 they moved
    bits only at spans of a few rows (2 windows of t_in 6 at stride 3, 5
    windows of t_in 2), by up to 1.1e-16 in a prediction; at hidden 49,
    at every window count tried (2 to 1,565), by up to 3.3e-16. The desk
    and sprite shapes keep their bits (tests/test_training.py).
    """
    b, t_in, _ = context.shape
    state = nn.zero_state(p.hidden, b)
    if caches is not None:
        xw = nn.input_projection(context.swapaxes(0, 1), p.encoder, caches.act)
        for t in range(t_in):
            state = nn.lstm_step(xw[t], state, p.encoder, caches, t)
        return state
    rows, r0, r1 = _context_rows(context)
    xw = nn.input_projection(rows, p.encoder)
    del rows  # a contiguous copy is not held through the steps
    for t in range(t_in):
        start = t * r1
        state = nn.lstm_step(xw[start:start + (b - 1) * r0 + 1:r0],
                             state, p.encoder)
    return state


@dataclass
class DecoderInput:
    """The decoder's input projection split around the fed-back slots.

    A decoder input is the carrier (the last context frame) with the
    values `fed` at the target slots, so its projection x @ w_x.T is
    fed @ w_fed + base: `base` is formed once per rollout, and each step
    adds only the product over the target slots. When the target slots
    are the whole input in order, as every pixel of a frame is, the fed
    values are the input: there is no carrier and no `base`.
    """

    carrier: np.ndarray | None  # [B, F_in], zero at the target slots
    base: np.ndarray | None  # [B, 4C]: carrier @ w_x.T
    w_fed: np.ndarray  # [F_out, 4C]: w_x[:, target_slots].T


def decoder_input(carrier: np.ndarray, p: Seq2SeqParams) -> DecoderInput:
    """The split projection of rollouts from `carrier` [B, F_in]; a frame
    pipeline, whose target slots are the whole input in order, keeps no
    carrier."""
    slots = p.target_slots
    lo = int(slots[0])
    if (slots == np.arange(lo, lo + slots.size)).all():
        if slots.size == p.f_in:
            return DecoderInput(carrier=None, base=None, w_fed=p.decoder.w_x.T)
        # a run of consecutive slots is a view
        slots = slice(lo, lo + slots.size)
    zeroed = carrier.copy()
    zeroed[:, slots] = 0.0
    return DecoderInput(carrier=zeroed,
                        base=nn.input_projection(zeroed, p.decoder),
                        w_fed=p.decoder.w_x[:, slots].T)


def decode_step(fed: np.ndarray, state: nn.LstmState, p: Seq2SeqParams,
                dec_in: DecoderInput, caches: nn.LstmCaches | None = None,
                t: int = 0):
    """One decoder LSTM step plus the output projection; `fed` [B, F_out]
    holds the input's values at the target slots, on a frame pipeline
    the whole input, which has no base to add. Returns (pred, state)."""
    xw = fed @ dec_in.w_fed
    if dec_in.base is not None:
        xw += dec_in.base
    state = nn.lstm_step(xw, state, p.decoder, caches, t)
    return nn.linear_forward(state.h, p.projection), state


# ---------------------------------------------------------------------------
# checkpoint format

_CKPT_MAGIC = b"TPGF"
_CKPT_VERSION = 1


def _tensor_shapes(hidden: int, f_in: int, f_out: int):
    """Shapes of the tensors() entries, in order."""
    g = 4 * hidden
    return [(g, f_in), (g, hidden), (g,), (g, f_in), (g, hidden), (g,),
            (f_out, hidden), (f_out,)]


def save_checkpoint(p: Seq2SeqParams, path):
    """Layout: errors.write_binary's, with dims hidden, f_in, f_out and
    the slot count; the payload is the slot table as u32, then every
    parameter tensor in declared order as float64."""
    write_binary(path, _CKPT_MAGIC, _CKPT_VERSION,
                 (p.hidden, p.f_in, p.f_out, len(p.target_slots)),
                 [p.target_slots.astype("<u4"),
                  *(np.asarray(t, dtype="<f8") for t in p.tensors())])


def load_checkpoint(path) -> Seq2SeqParams:
    (hidden, f_in, f_out, n_slots), payload = read_binary(
        path, _CKPT_MAGIC, _CKPT_VERSION,
        ("hidden", "f_in", "f_out", "slot count"),
        lambda hidden, f_in, f_out, n_slots: 4 * n_slots + 8 * sum(
            map(math.prod, _tensor_shapes(hidden, f_in, f_out))))
    slots = np.frombuffer(payload, dtype="<u4", count=n_slots).astype(np.int64)
    _check_slots(slots, f_in, f_out, DataFormatError, path)
    arrays, offset = [], 4 * n_slots
    for name, shape in zip(Seq2SeqParams.TENSOR_NAMES,
                           _tensor_shapes(hidden, f_in, f_out)):
        a = np.frombuffer(payload, dtype="<f8", count=math.prod(shape),
                          offset=offset).reshape(shape).copy()
        if not np.isfinite(a).all():
            raise DataFormatError(f"{path}: non-finite value in {name}")
        arrays.append(a)
        offset += a.nbytes
    return Seq2SeqParams(
        encoder=nn.LstmParams(w_x=arrays[0], w_h=arrays[1], b=arrays[2]),
        decoder=nn.LstmParams(w_x=arrays[3], w_h=arrays[4], b=arrays[5]),
        projection=nn.LinearParams(w=arrays[6], b=arrays[7]),
        target_slots=slots)
