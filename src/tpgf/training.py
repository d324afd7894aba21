"""Loss, Adam, BPTT, and one training loop for the three curricula:
teacher forcing, scheduled sampling, and the two-stage half-timescale
curriculum. Each is a decay schedule plus a preferred source.

Per-iteration draw order (the determinism contract depends on it):
  1. batch sample indices, one randint_below call
  2. tau coin flips for decoder steps 2..K in step order, one bernoulli
     call per step; steps whose epsilon is exactly 0 or 1 consume no
     draws

Gradient-flow boundary: when a decoder input was sampled from ground
truth or from the frozen intermediate model, backpropagation treats it
as a constant; only inputs built from the model's own previous
prediction pass gradient back through the feedback path.

A divergence names its stage from the curves prefix and the schedule:
main, M1, or in tpg stage 2 Transition until epsilon at v=2 drops below
1e-3 and M2Solo after; at the end-of-stage cadence, the last trained
iteration's. One in stage 2 carries the trained m1 in `finished`.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError, DivergenceError, check_ranges
from . import metrics as mt
from . import nn
from .data import Dataset
from .model import (DecoderInput, Seq2SeqParams, decode_step, decoder_input,
                    encode_full, init_seq2seq, make_target_slots)
from .rng import RngState
from .sampling import (ScheduleConfig, Strategy, epsilon_for,
                       subsample_odd_even)

# rng stream ids, xor-ed into the run seed
_STREAM_SCHEDULED = 0x5C
_STREAM_M1_INIT = 0x11
_STREAM_M2_INIT = 0x12
_STREAM_STAGE1 = 0x51
_STREAM_STAGE2 = 0x52

# Adam moment decay rates and denominator offset
_BETA1 = 0.9
_BETA2 = 0.999
_EPS_ADAM = 1e-8

# Closed-loop rollouts over more rows than this run in blocks of this
# many rows, so their transients are bounded by the block, not the
# split. Every block holds all of its rows (the last one is the last
# _ROLLOUT_ROWS rows and overlaps its neighbour), so every block runs
# GEMMs of one row count. That keeps a single pass's bits only where
# OpenBLAS 0.3.31 gives a GEMM row bits that do not depend on the row
# count: at the desk and sprite shapes, not at an odd hidden size from
# 49 up nor at a product of at most 1,200 elements over 32 or more
# inner columns.
_ROLLOUT_ROWS = 256


@dataclass
class TrainConfig:
    schedule: ScheduleConfig
    hidden: int = 32
    learning_rate: float = 1e-2
    batch_size: int = 32
    total_iters: int = 2000
    clip_norm: float = 5.0
    warm_start_m2: bool = True
    seed: int = 0
    val_every: int = 50

    def __post_init__(self):
        check_ranges(hidden=self.hidden, learning_rate=self.learning_rate,
                     batch_size=self.batch_size, total_iters=self.total_iters,
                     clip_norm=self.clip_norm, val_every=self.val_every)


@dataclass
class TrainState:
    iteration: int
    m: list
    v: list
    adam_t: int
    rng: RngState


@dataclass
class MetricsRow:
    iteration: int
    split: str
    metric: str
    value: float


def make_train_state(p: Seq2SeqParams, rng: RngState) -> TrainState:
    return TrainState(iteration=0,
                      m=[np.zeros_like(t) for t in p.tensors()],
                      v=[np.zeros_like(t) for t in p.tensors()],
                      adam_t=0, rng=rng)


def copy_into(dst: Seq2SeqParams, src: Seq2SeqParams):
    for d, s in zip(dst.tensors(), src.tensors()):
        d[:] = s


# ---------------------------------------------------------------------------
# loss

def composite_loss(pred: np.ndarray, target: np.ndarray):
    """Sum over channels of per-channel MSE; channels are the last axis.

    Returns the total as a float. The mean inside each channel runs
    over every other axis (batch, time, node).
    """
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise DimensionError(
            f"loss shapes differ: {list(pred.shape)} vs {list(target.shape)}")
    if pred.ndim < 2:
        raise DimensionError("loss expects channels along a trailing axis")
    d = pred - target
    d *= d  # squared in place: one temporary the size of pred, not two
    per_channel = np.mean(d, axis=tuple(range(pred.ndim - 1)))
    return float(per_channel.sum())


def composite_loss_grad(pred: np.ndarray, target: np.ndarray) -> np.ndarray:
    """d(total)/d(pred): 2 * residual / (elements per channel)."""
    n = int(np.prod(pred.shape[:-1]))
    g = pred - target
    g *= 2.0
    g /= n
    return g


# ---------------------------------------------------------------------------
# optimizer

def clip_gradients(grads: list, clip_norm: float) -> list:
    """Scale all gradients by clip_norm/norm when the global L2 norm
    exceeds clip_norm; otherwise return them bit-identical."""
    sq = sum(float(np.sum(g * g)) for g in grads)
    norm = np.sqrt(sq)
    if norm <= clip_norm:
        return grads
    factor = clip_norm / norm
    return [g * factor for g in grads]


def adam_step(params: Seq2SeqParams, grads: list, state: TrainState,
              cfg: TrainConfig):
    """Standard Adam with bias correction; updates params in place."""
    tensors = params.tensors()
    if len(grads) != len(tensors):
        raise DimensionError(
            f"expected {len(tensors)} gradient tensors, got {len(grads)}")
    for name, g in zip(params.TENSOR_NAMES, grads):
        if not np.isfinite(g).all():
            raise FloatingPointError(f"non-finite gradient in {name}")
    state.adam_t += 1
    t = state.adam_t
    bc1 = 1.0 - _BETA1 ** t
    bc2 = 1.0 - _BETA2 ** t
    for p, g, m, v in zip(tensors, grads, state.m, state.v):
        m *= _BETA1
        m += (1.0 - _BETA1) * g
        v *= _BETA2
        v += (1.0 - _BETA2) * g * g
        p -= cfg.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + _EPS_ADAM)
    return params, state


# ---------------------------------------------------------------------------
# training-mode forward and backward

@dataclass
class RolloutCaches:
    x_enc: np.ndarray  # [T_in, B, F_in] encoder inputs, time-major
    enc: nn.LstmCaches  # T_in steps
    dec: nn.LstmCaches  # K steps
    dec_in: DecoderInput
    fed: np.ndarray  # [K, B, F_out] values fed at the target slots
    taus: np.ndarray  # [B, K-1] decisions for inputs to steps 2..K


def forward_train(p: Seq2SeqParams, contexts: np.ndarray,
                  preferred: np.ndarray | None, taus: np.ndarray):
    """Batched rollout with per-step input mixing, keeping caches.

    contexts: [B, T_in, F_in]; taus: [B, K-1] in {0,1}; preferred:
    [B, K-1, F_out] values fed when tau=1 (ground truth, or the frozen
    intermediate model's estimates). The input to step s+1 is the last
    context frame with either the own prediction (tau=0) or the
    preferred value (tau=1) embedded at the target slots.
    """
    b = contexts.shape[0]
    k = taus.shape[1] + 1
    if k > 1 and (preferred is None or preferred.shape != (b, k - 1, p.f_out)):
        have = None if preferred is None else list(preferred.shape)
        raise DimensionError(
            f"preferred values must be [{b}, {k - 1}, {p.f_out}], got {have}")
    return _unroll(p, contexts, k, preferred, taus)


def rollout_batch(p: Seq2SeqParams, contexts: np.ndarray, horizon: int,
                  out: np.ndarray | None = None) -> np.ndarray:
    """Closed-loop batched inference: every feedback is the model's own
    prediction, and no backward cache is kept. Returns [B, K, F_out],
    formed in blocks of _ROLLOUT_ROWS rows when B is larger. With `out`,
    a [B, K, F_out] array or strided view, each block is written into it
    and `out` is returned."""
    b = contexts.shape[0]
    if out is None:
        if b <= _ROLLOUT_ROWS:
            return _unroll(p, contexts, horizon, None, None)[0]
        out = np.empty((b, horizon, p.f_out))
    elif out.shape != (b, horizon, p.f_out):
        raise DimensionError(f"rollout output must be [{b}, {horizon}, "
                             f"{p.f_out}], got {list(out.shape)}")
    for r in [*range(0, b - _ROLLOUT_ROWS, _ROLLOUT_ROWS),
              max(b - _ROLLOUT_ROWS, 0)]:
        rows = slice(r, r + _ROLLOUT_ROWS)
        out[rows] = _unroll(p, contexts[rows], horizon, None, None)[0]
    return out


def _unroll(p: Seq2SeqParams, contexts: np.ndarray, k: int,
            preferred: np.ndarray | None, taus: np.ndarray | None):
    """The step loop of forward_train and rollout_batch; returns (preds,
    caches), caches None when taus is None.

    Step 1 is fed the carrier's own values at the target slots; step s+1
    is fed prediction s, or preferred[:, s-1] where taus[:, s-1] is 1
    (nowhere when taus is None).
    """
    keep = taus is not None
    b, t_in, f_in = contexts.shape
    if f_in != p.f_in:
        raise DimensionError(
            f"contexts have width {f_in}, model expects {p.f_in}")
    if keep:
        # time-major once: the encoder projects it without a copy, and
        # bptt forms the encoder's w_x gradient from it
        x_enc = np.ascontiguousarray(contexts.swapaxes(0, 1))
        contexts = x_enc.swapaxes(0, 1)
    enc = nn.lstm_caches(t_in, nn.zero_state(p.hidden, b)) if keep else None
    state = encode_full(contexts, p, enc)
    carrier = contexts[:, -1]
    dec_in = decoder_input(carrier, p)
    dec = nn.lstm_caches(k, state) if keep else None
    fed_all = np.empty((k, b, p.f_out)) if keep else None
    fed = carrier[:, p.target_slots]
    preds = np.empty((b, k, p.f_out))
    for s in range(1, k + 1):
        if keep:
            fed_all[s - 1] = fed
        pred, state = decode_step(fed, state, p, dec_in, dec, s - 1)
        preds[:, s - 1] = pred
        fed = pred
        if keep and s < k:
            col = taus[:, s - 1]
            if col.all():
                fed = preferred[:, s - 1]
            elif col.any():
                fed = np.where(col[:, None] == 1, preferred[:, s - 1], pred)
    caches = (RolloutCaches(x_enc=x_enc, enc=enc, dec=dec, dec_in=dec_in,
                            fed=fed_all, taus=taus) if keep else None)
    return preds, caches


def bptt(p: Seq2SeqParams, caches: RolloutCaches, dpreds: np.ndarray) -> list:
    """Reverse-time gradients of a forward_train rollout, which they
    consume: the gate gradients overwrite the cached activations.

    Returns gradients aligned with params.tensors(). Inputs that were
    sampled from the preferred source (tau=1) are constants; only
    own-prediction feedback (tau=0) passes gradient from step s+1's
    input back to prediction s, as da @ w_x[:, slots], formed only at
    steps where some row fed its own prediction. Only the recurrent
    products run per step; every weight gradient is formed after the
    loop as one GEMM or sum over the stacked per-step gradients.
    """
    k, b, four_h = caches.dec.act.shape
    if dpreds.shape != (b, k, p.f_out):
        raise DimensionError(
            f"loss grads must be [{b}, {k}, {p.f_out}] for this rollout, "
            f"got {list(dpreds.shape)}")
    w_fed = caches.dec_in.w_fed
    dpred_all = dpreds.swapaxes(0, 1).copy()  # [K, B, F_out], feedback added
    da_dec = caches.dec.act  # each step's backward turns its slot into da
    dh = np.zeros((b, p.hidden))
    dc = np.zeros_like(dh)
    for s in range(k, 0, -1):
        dh += dpred_all[s - 1] @ p.projection.w
        dstate = nn.lstm_step_backward(dh, dc, caches.dec, s - 1, p.decoder)
        dh, dc = dstate.h, dstate.c
        if s > 1:
            # the input of step s was fed prediction s-1 where tau is 0
            own = caches.taus[:, s - 2] == 0
            if own.all():
                dpred_all[s - 2] += da_dec[s - 1] @ w_fed.T
            elif own.any():
                dpred_all[s - 2] += (da_dec[s - 1] @ w_fed.T) * own[:, None]

    # decoder inputs are the fed values, plus the zero-slotted carrier
    # when the target slots do not cover the input
    g_fed = da_dec.reshape(-1, four_h).T @ caches.fed.reshape(-1, p.f_out)
    if caches.dec_in.carrier is None:
        g_dec_w_x = g_fed
    else:
        g_dec_w_x = da_dec.sum(axis=0).T @ caches.dec_in.carrier
        g_dec_w_x[:, p.target_slots] += g_fed
    g_dec = [g_dec_w_x, *nn.recurrent_grads(da_dec, caches.dec)]
    g_proj = nn.linear_backward(dpred_all, caches.dec.h[1:], p.projection)
    del dpred_all  # not needed by the encoder's backward

    # decoder initial state is the encoder final state
    da_enc = caches.enc.act
    for t in range(da_enc.shape[0] - 1, -1, -1):
        dstate = nn.lstm_step_backward(dh, dc, caches.enc, t, p.encoder)
        dh, dc = dstate.h, dstate.c
    g_enc_w_x = da_enc.reshape(-1, four_h).T @ caches.x_enc.reshape(-1, p.f_in)
    return [g_enc_w_x, *nn.recurrent_grads(da_enc, caches.enc),
            *g_dec, g_proj.w, g_proj.b]


# ---------------------------------------------------------------------------
# dataset adapters

def flatten_dataset(ds: Dataset):
    """A split as a (ctx [num, T, N*F], tgt [num, K, N, Ft], preferred
    [num, K, N*Ft]) group of views; its own targets are preferred."""
    num, t_in, n, f = ds.contexts.shape
    k, ft = ds.targets.shape[1], ds.targets.shape[3]
    return (ds.contexts.reshape(num, t_in, n * f), ds.targets,
            ds.targets.reshape(num, k, n * ft))


def _unpack_splits(splits):
    """The training split, which must hold windows, and (name, dataset)
    for each of val and test that does."""
    train, val, test = splits
    if len(train) == 0:
        raise ConfigError("training split is empty")
    return train, [(name, ds) for name, ds in (("val", val), ("test", test))
                   if ds is not None and len(ds) > 0]


def _closed_loop_loss(p: Seq2SeqParams, ctx: np.ndarray,
                      tgt: np.ndarray) -> float:
    preds = rollout_batch(p, ctx, tgt.shape[1])
    return composite_loss(preds.reshape(tgt.shape), tgt)


# ---------------------------------------------------------------------------
# inner driver

def _run_training(p: Seq2SeqParams, groups, eval_groups, cfg: TrainConfig,
                  schedule: ScheduleConfig, state: TrainState, curves: list,
                  start_iter: int, end_iter: int, prefix: str = ""):
    """Minibatch loop over global iterations start_iter..end_iter-1. Trains
    p in place and leaves it at its best validation loss. Returns the
    checkpoint a DivergenceError carries: the best-validation copy, or
    the starting parameters when there is no val split.

    groups: (ctx [num, T, f_in], tgt [num, K, N, Ft], preferred [num, K,
    f_out]) tuples, cycled per iteration. Where tau=1, the input
    to decoder step s+1 is preferred[idx][:, s-1]: ground truth for tf,
    ss and tpg stage 1, the frozen m1's closed-loop estimates in stage 2.
    At iteration i, tau=1 has probability epsilon_for(schedule, i, s + 1),
    drawn from state.rng. eval_groups: {split: [tuples of the same form]}
    for the closed-loop cadence rows. At an iteration i with i % val_every
    == 0 the cadence's rollouts run before the forward pass, which does
    not change p; its rows are written after the iteration's train row,
    and none is written when the training loss is not finite.
    """
    best = copy.deepcopy(p)
    best_loss = np.inf
    has_val = "val" in eval_groups
    b = cfg.batch_size

    def measure():
        return {split: float(np.mean([_closed_loop_loss(p, ctx, tgt)
                                      for ctx, tgt, _ in parts]))
                for split, parts in eval_groups.items()}

    def record(i, rows):
        nonlocal best_loss
        for split, loss in rows.items():
            curves.append(MetricsRow(i, split, prefix + "loss", loss))
        if has_val and rows["val"] < best_loss:
            best_loss = rows["val"]
            copy_into(best, p)
        if not all(np.isfinite(v) for v in rows.values()):
            raise FloatingPointError("non-finite validation loss")

    try:
        # overflow is allowed to produce inf here; the finiteness checks
        # below turn it into a DivergenceError with the best checkpoint
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(start_iter, end_iter):
                state.iteration = i
                # the cadence's rollouts run before this iteration's
                # forward pass, on the same p, so their transients never
                # sit on top of its caches
                rows = measure() if i % cfg.val_every == 0 else None
                ctx_all, tgt_all, preferred_all = \
                    groups[(i - start_iter) % len(groups)]
                k = tgt_all.shape[1]
                idx = state.rng.randint_below(ctx_all.shape[0], b)
                taus = np.empty((b, k - 1), dtype=np.int64)
                for s in range(1, k):
                    eps = epsilon_for(schedule, i, s + 1)
                    if eps >= 1.0:
                        taus[:, s - 1] = 1
                    elif eps <= 0.0:
                        taus[:, s - 1] = 0
                    else:
                        taus[:, s - 1] = state.rng.bernoulli(eps, b)
                # the gathered preferred values die with forward_train's call
                preds, caches = forward_train(
                    p, ctx_all[idx],
                    preferred_all[idx][:, :-1] if k > 1 else None, taus)
                tgt = tgt_all[idx]
                preds = preds.reshape(tgt.shape)
                total = composite_loss(preds, tgt)
                if not np.isfinite(total):
                    raise FloatingPointError("non-finite training loss")
                if rows is not None:
                    curves.append(MetricsRow(i, "train", prefix + "loss", total))
                    record(i, rows)
                dpreds = composite_loss_grad(preds, tgt).reshape(b, k, -1)
                del preds, tgt
                grads = bptt(p, caches, dpreds)
                # free this iteration's caches before the next forward builds
                # its own; the gradients stay until the next bptt replaces
                # them, since freeing them too lets the allocator return the
                # heap top to the system and fault it back in every iteration
                del caches, dpreds
                adam_step(p, clip_gradients(grads, cfg.clip_norm), state, cfg)
            if end_iter > start_iter:
                state.iteration = end_iter
                record(end_iter, measure())
    except FloatingPointError as exc:
        eps = epsilon_for(schedule, min(state.iteration, end_iter - 1), 2)
        stage = {"": "main", "m1.": "M1"}.get(
            prefix, "M2Solo" if eps < 1e-3 else "Transition")
        raise DivergenceError(
            f"{exc} at iteration {state.iteration}, stage {stage}",
            params=best, curves=curves) from exc
    if has_val and np.isfinite(best_loss):
        copy_into(p, best)
    return best


# ---------------------------------------------------------------------------
# public drivers

def _evaluation_views(ds: Dataset, split: str):
    """The ctx and tgt views of a split to evaluate, which has windows."""
    if len(ds) == 0:
        raise ConfigError(f"cannot evaluate an empty {split} split")
    ctx, tgt, _ = flatten_dataset(ds)
    return ctx, tgt


def evaluate(p: Seq2SeqParams, ds: Dataset, split: str = "test",
             iteration: int = 0) -> list:
    """Closed-loop metrics over a whole split."""
    ctx, tg = _evaluation_views(ds, split)
    num, k = tg.shape[:2]
    pr = rollout_batch(p, ctx, k).reshape(tg.shape)
    total = composite_loss(pr, tg)

    rows = [MetricsRow(iteration, split, "loss", total),
            MetricsRow(iteration, split, "rmse", mt.rmse(pr, tg)),
            MetricsRow(iteration, split, "mae", mt.mae(pr, tg))]
    names = [ds.meta.channel_names[c] for c in ds.meta.target_channels]
    for j, name in enumerate(names):
        rows.append(MetricsRow(iteration, split, f"rmse.{name}",
                               mt.rmse(pr[..., j], tg[..., j])))
        rows.append(MetricsRow(iteration, split, f"mae.{name}",
                               mt.mae(pr[..., j], tg[..., j])))
    if ds.meta.grid is not None:
        h, w = ds.meta.grid
        frames_p = np.clip(pr.reshape(num * k, h, w), 0.0, 1.0)
        frames_t = tg.reshape(num * k, h, w)
        vals = mt.ssim_per_frame(frames_p, frames_t)
        rows.append(MetricsRow(iteration, split, "ssim", float(np.mean(vals))))
    return rows


def evaluate_horizon(p: Seq2SeqParams, ds: Dataset, split: str = "test",
                     iteration: int = 0) -> list:
    """Closed-loop error resolved per forecast step.

    Emits one rmse.h<s> and one mae.h<s> row for each step s = 1..K,
    exposing how error accumulates along the horizon.
    """
    ctx, tg = _evaluation_views(ds, split)
    k = tg.shape[1]
    pr = rollout_batch(p, ctx, k).reshape(tg.shape)
    rows = []
    for s in range(k):
        rows.append(MetricsRow(iteration, split, f"rmse.h{s + 1}",
                               mt.rmse(pr[:, s], tg[:, s])))
    for s in range(k):
        rows.append(MetricsRow(iteration, split, f"mae.h{s + 1}",
                               mt.mae(pr[:, s], tg[:, s])))
    return rows


def init_model(train: Dataset, cfg: TrainConfig) -> Seq2SeqParams:
    """Fresh model sized for a dataset, seeded from the config.

    A TPG run's first model comes from here too, so a scheduled baseline
    and a TPG run started from one seed share their starting point.
    """
    n = train.contexts.shape[2]
    f = train.contexts.shape[3]
    slots = make_target_slots(n, f, train.meta.target_channels)
    return init_seq2seq(cfg.hidden, n * f, len(slots),
                        RngState(cfg.seed).split(_STREAM_M1_INIT),
                        target_slots=slots)


def train_scheduled(p: Seq2SeqParams, splits, cfg: TrainConfig):
    """Teacher forcing or scheduled sampling over (train, val, test).

    Returns (params, curves). The preferred source is always ground
    truth; epsilon follows the configured schedule.
    """
    if cfg.schedule.strategy not in (Strategy.TEACHER_FORCING,
                                     Strategy.SCHEDULED_SAMPLING):
        raise ConfigError(
            f"train_scheduled handles teacher_forcing/scheduled_sampling, "
            f"got {cfg.schedule.strategy.value}")
    train, evals = _unpack_splits(splits)
    curves: list = []
    state = make_train_state(p, RngState(cfg.seed).split(_STREAM_SCHEDULED))
    _run_training(p, [flatten_dataset(train)],
                  {name: [flatten_dataset(ds)] for name, ds in evals},
                  cfg, cfg.schedule, state, curves, 0, cfg.total_iters)
    for name, ds in evals:
        curves.extend(evaluate(p, ds, name, cfg.total_iters))
    return p, curves


def _half_timescale_groups(ds: Dataset):
    """Parity-subsampled views of flatten_dataset's group, odd half first.

    Target step 1 anchors the parity: the odd half holds target steps
    1, 3, 5, ... and the context frames lying on the same stride-2 grid,
    which are the even positions counted back from the forecast origin;
    the even half holds the rest.
    """
    ctx, tgt, truth = flatten_dataset(ds)
    back_odd, back_even = subsample_odd_even(ctx.swapaxes(0, 1)[::-1])
    tgt_odd, tgt_even = subsample_odd_even(tgt.swapaxes(0, 1))
    flat_odd, flat_even = subsample_odd_even(truth.swapaxes(0, 1))
    odd = (back_even[::-1].swapaxes(0, 1), tgt_odd.swapaxes(0, 1),
           flat_odd.swapaxes(0, 1))
    even = (back_odd[::-1].swapaxes(0, 1), tgt_even.swapaxes(0, 1),
            flat_even.swapaxes(0, 1))
    return odd, even


def train_tpg(splits, cfg: TrainConfig):
    """Two-stage curriculum; returns (m1 params, m2 params, curves).

    Stage 1 trains one half-timescale model on the odd and even target
    subsequences (alternating per iteration) with scheduled sampling.
    Stage 2 freezes it, precomputes its closed-loop estimates for every
    training window, and trains the full-timescale model whose tau=1
    decoder inputs come from those estimates, annealed by the
    index-aware decay.
    """
    if cfg.schedule.strategy is not Strategy.TPG:
        raise ConfigError(f"train_tpg requires the tpg strategy, "
                          f"got {cfg.schedule.strategy.value}")
    train, evals = _unpack_splits(splits)
    stage1 = cfg.schedule.stage1_iters
    check_ranges(strategy="tpg", stage1_iters=stage1,
                 total_iters=cfg.total_iters, horizon=train.targets.shape[1],
                 t_in=train.contexts.shape[1])

    curves: list = []

    # stage 1: half-timescale model on both parity halves
    m1 = init_model(train, cfg)
    odd, even = _half_timescale_groups(train)
    state1 = make_train_state(m1, RngState(cfg.seed).split(_STREAM_STAGE1))
    ss = ScheduleConfig(strategy=Strategy.SCHEDULED_SAMPLING, lam=cfg.schedule.lam)
    best1 = _run_training(m1, [odd, even],
                          {name: _half_timescale_groups(ds) for name, ds in evals},
                          cfg, ss, state1, curves, 0, stage1, prefix="m1.")

    # stage 2: frozen m1 feeds the full-timescale model
    m2 = (copy.deepcopy(m1) if cfg.warm_start_m2 else
          init_seq2seq(cfg.hidden, m1.f_in, m1.f_out,
                       RngState(cfg.seed).split(_STREAM_M2_INIT),
                       target_slots=m1.target_slots))

    # m1's closed-loop estimates in full order [num, K, f_out]: each half's
    # rollout writes its blocks straight into its parity slots of the one
    # buffer, so no half and no interleaved copy is ever held. An
    # overflowed m1 can return finite estimates behind saturated gates, so
    # the guard checks their loss as the loop does. It needs only
    # finiteness, so it sums the loss of rollout-sized blocks and holds no
    # residual of the whole split.
    ctx, tgt, truth = flatten_dataset(train)
    m1_full = np.empty(truth.shape)
    slots_odd, slots_even = subsample_odd_even(m1_full.swapaxes(0, 1))
    with np.errstate(over="ignore", invalid="ignore"):
        rollout_batch(m1, odd[0], odd[1].shape[1],
                      out=slots_odd.swapaxes(0, 1))
        rollout_batch(m1, even[0], even[1].shape[1],
                      out=slots_even.swapaxes(0, 1))
        m1_loss = sum(composite_loss(m1_full[r:r + _ROLLOUT_ROWS],
                                     truth[r:r + _ROLLOUT_ROWS])
                      for r in range(0, len(truth), _ROLLOUT_ROWS))
    if not np.isfinite(m1_loss):
        raise DivergenceError(
            f"non-finite m1 precompute loss at iteration {stage1}, stage M1",
            params=best1, curves=curves)

    state2 = make_train_state(m2, RngState(cfg.seed).split(_STREAM_STAGE2))
    try:
        _run_training(m2, [(ctx, tgt, m1_full)],
                      {name: [flatten_dataset(ds)] for name, ds in evals},
                      cfg, cfg.schedule, state2, curves, stage1,
                      cfg.total_iters, prefix="m2.")
    except DivergenceError as exc:
        exc.finished["m1"] = m1
        raise
    for name, ds in evals:
        curves.extend(evaluate(m2, ds, name, cfg.total_iters))
    return m1, m2, curves
