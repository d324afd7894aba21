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
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError, DivergenceError
from . import metrics as mt
from . import nn
from .data import Dataset
from .model import (Seq2SeqParams, decode_step, encode_full, init_seq2seq,
                    make_target_slots)
from .rng import RngState
from .sampling import (ScheduleConfig, Strategy, epsilon_for,
                       interleave_odd_even, subsample_odd_even)

_TENSOR_NAMES = ["encoder.w_x", "encoder.w_h", "encoder.b",
                 "decoder.w_x", "decoder.w_h", "decoder.b",
                 "projection.w", "projection.b"]

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
        if not self.learning_rate > 0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.total_iters < 0:
            raise ConfigError(f"total_iters must be >= 0, got {self.total_iters}")
        if not self.clip_norm > 0:
            raise ConfigError(f"clip_norm must be positive, got {self.clip_norm}")
        if self.hidden < 1:
            raise ConfigError(f"hidden size must be >= 1, got {self.hidden}")
        if self.val_every < 1:
            raise ConfigError(f"val_every must be >= 1, got {self.val_every}")


@dataclass
class TrainState:
    iteration: int
    m: list
    v: list
    adam_t: int
    stage: str
    rng: RngState


@dataclass
class MetricsRow:
    iteration: int
    split: str
    metric: str
    value: float


def make_train_state(p: Seq2SeqParams, rng: RngState, stage: str = "main") -> TrainState:
    return TrainState(iteration=0,
                      m=[np.zeros_like(t) for t in p.tensors()],
                      v=[np.zeros_like(t) for t in p.tensors()],
                      adam_t=0, stage=stage, rng=rng)


def copy_into(dst: Seq2SeqParams, src: Seq2SeqParams):
    for d, s in zip(dst.tensors(), src.tensors()):
        d[:] = s


# ---------------------------------------------------------------------------
# loss

def composite_loss(pred: np.ndarray, target: np.ndarray):
    """Sum over channels of per-channel MSE; channels are the last axis.

    Returns (total, per_channel). The mean inside each channel runs over
    every other axis (batch, time, node).
    """
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise DimensionError(
            f"loss shapes differ: {list(pred.shape)} vs {list(target.shape)}")
    if pred.ndim < 2:
        raise DimensionError("loss expects channels along a trailing axis")
    d = pred - target
    per_channel = np.mean(d * d, axis=tuple(range(pred.ndim - 1)))
    return float(per_channel.sum()), per_channel


def composite_loss_grad(pred: np.ndarray, target: np.ndarray) -> np.ndarray:
    """d(total)/d(pred): 2 * residual / (elements per channel)."""
    n = int(np.prod(pred.shape[:-1]))
    return 2.0 * (pred - target) / n


# ---------------------------------------------------------------------------
# optimizer

def clip_gradients(grads: list, clip_norm: float) -> list:
    """Scale all gradients by clip_norm/norm when the global L2 norm
    exceeds clip_norm; otherwise return them bit-identical."""
    if not clip_norm > 0:
        raise ConfigError(f"clip_norm must be positive, got {clip_norm}")
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
    for name, g in zip(_TENSOR_NAMES, grads):
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
    enc_caches: list
    dec_caches: list  # [(lstm StepCache, linear cache), ...] per step
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
    caches = RolloutCaches(enc_caches=[], dec_caches=[], taus=taus)
    preds = _unroll(p, contexts, k, preferred, taus, caches)
    return preds, caches


def rollout_batch(p: Seq2SeqParams, contexts: np.ndarray, horizon: int) -> np.ndarray:
    """Closed-loop batched inference: every feedback is the model's own
    prediction, and no backward cache is kept. Returns [B, K, F_out]."""
    return _unroll(p, contexts, horizon, None, None, None)


def _unroll(p: Seq2SeqParams, contexts: np.ndarray, k: int,
            preferred: np.ndarray | None, taus: np.ndarray | None,
            caches: RolloutCaches | None) -> np.ndarray:
    """The step loop of forward_train and rollout_batch.

    The input to step s+1 is the last context frame with prediction s
    at the target slots, or preferred[:, s-1] where taus[:, s-1] is 1
    (nowhere when taus is None). Step caches go into `caches` unless it
    is None.
    """
    b, _, f_in = contexts.shape
    if f_in != p.f_in:
        raise DimensionError(
            f"contexts have width {f_in}, model expects {p.f_in}")
    state = encode_full(contexts, p,
                        None if caches is None else caches.enc_caches)
    carrier = contexts[:, -1]
    x = carrier
    preds = np.empty((b, k, p.f_out))
    for s in range(1, k + 1):
        pred, state, step_caches = decode_step(x, state, p)
        preds[:, s - 1] = pred
        if caches is not None:
            caches.dec_caches.append(step_caches)
        if s < k:
            if taus is not None:
                col = taus[:, s - 1][:, None]
                pred = np.where(col == 1, preferred[:, s - 1], pred)
            x = carrier.copy()
            x[:, p.target_slots] = pred
    return preds


def bptt(p: Seq2SeqParams, caches: RolloutCaches, dpreds: np.ndarray) -> list:
    """Reverse-time gradients of a forward_train rollout.

    Returns gradients aligned with params.tensors(). Inputs that were
    sampled from the preferred source (tau=1) are constants; only
    own-prediction feedback (tau=0) passes gradient from step s+1's
    input back to prediction s.
    """
    k = len(caches.dec_caches)
    if k == 0:
        raise DimensionError("no decoder caches to backpropagate through")
    if dpreds.shape[1] != k:
        raise DimensionError(
            f"loss grads cover {dpreds.shape[1]} steps, rollout had {k}")
    slots = p.target_slots
    g_enc = nn.LstmParams(w_x=np.zeros_like(p.encoder.w_x),
                          w_h=np.zeros_like(p.encoder.w_h),
                          b=np.zeros_like(p.encoder.b))
    g_dec = nn.LstmParams(w_x=np.zeros_like(p.decoder.w_x),
                          w_h=np.zeros_like(p.decoder.w_h),
                          b=np.zeros_like(p.decoder.b))
    g_proj = nn.LinearParams(w=np.zeros_like(p.projection.w),
                             b=np.zeros_like(p.projection.b))

    dh = np.zeros_like(caches.dec_caches[-1][0].h_prev)
    dc = np.zeros_like(dh)
    pending_dx = None  # gradient w.r.t. the input of step s+1
    for s in range(k, 0, -1):
        dpred = dpreds[:, s - 1].copy()
        if pending_dx is not None:
            # feedback path: only samples that consumed their own
            # prediction (tau=0) let gradient through
            own = (caches.taus[:, s - 1] == 0).astype(np.float64)[:, None]
            dpred += pending_dx[:, slots] * own
        step_cache, lin_cache = caches.dec_caches[s - 1]
        dh_lin, gp = nn.linear_backward(dpred, lin_cache, p.projection)
        g_proj.w += gp.w
        g_proj.b += gp.b
        da, dstate, gd = nn.lstm_step_backward(dh + dh_lin, dc, step_cache,
                                               p.decoder)
        g_dec.w_x += gd.w_x
        g_dec.w_h += gd.w_h
        g_dec.b += gd.b
        dh, dc = dstate.h, dstate.c
        if s > 1:
            # the input of step s was built from prediction s-1
            pending_dx = da @ p.decoder.w_x

    # decoder initial state is the encoder final state
    for cache in reversed(caches.enc_caches):
        _, dstate, ge = nn.lstm_step_backward(dh, dc, cache, p.encoder)
        g_enc.w_x += ge.w_x
        g_enc.w_h += ge.w_h
        g_enc.b += ge.b
        dh, dc = dstate.h, dstate.c
    return [g_enc.w_x, g_enc.w_h, g_enc.b,
            g_dec.w_x, g_dec.w_h, g_dec.b,
            g_proj.w, g_proj.b]


# ---------------------------------------------------------------------------
# dataset adapters

def flatten_dataset(ds: Dataset):
    """[num, T, N, F] / [num, K, N, Ft] -> flattened pairs plus (N, Ft)."""
    num, t_in, n, f = ds.contexts.shape
    k, ft = ds.targets.shape[1], ds.targets.shape[3]
    return (ds.contexts.reshape(num, t_in, n * f),
            ds.targets.reshape(num, k, n * ft), (n, ft))


def _truth_group(ds: Dataset):
    """(ctx, tgt, tgt, shape): a whole split, ground truth preferred."""
    ctx, tgt, shape = flatten_dataset(ds)
    return ctx, tgt, tgt, shape


def _unpack_splits(splits):
    """The training split, which must hold windows, and (name, dataset)
    for each of val and test that does."""
    train, val, test = splits
    if len(train) == 0:
        raise ConfigError("training split is empty")
    return train, [(name, ds) for name, ds in (("val", val), ("test", test))
                   if ds is not None and len(ds) > 0]


def _closed_loop_loss(p: Seq2SeqParams, ctx: np.ndarray, tgt: np.ndarray,
                      shape) -> float:
    n, ft = shape
    preds = rollout_batch(p, ctx, tgt.shape[1])
    b, k = tgt.shape[0], tgt.shape[1]
    total, _ = composite_loss(preds.reshape(b, k, n, ft),
                              tgt.reshape(b, k, n, ft))
    return total


# ---------------------------------------------------------------------------
# inner driver

def _run_training(p: Seq2SeqParams, groups, eval_groups, cfg: TrainConfig,
                  schedule: ScheduleConfig, state: TrainState, curves: list,
                  start_iter: int, end_iter: int, prefix: str = ""):
    """Minibatch loop over global iterations start_iter..end_iter-1. Trains
    p in place and leaves it at its best validation loss. Returns the
    checkpoint a DivergenceError carries: the best-validation copy, or
    the starting parameters when there is no val split.

    groups: (ctx [num, T, f_in], tgt [num, K, f_out], preferred [num, K,
    f_out], (N, Ft)) tuples, cycled per iteration. Where tau=1, the input
    to decoder step s+1 is preferred[idx][:, s-1]: ground truth for tf,
    ss and tpg stage 1, the frozen m1's closed-loop estimates in stage 2.
    At iteration i, tau=1 has probability epsilon_for(schedule, i, s + 1),
    drawn from state.rng. eval_groups: {split: [tuples of the same form]}
    for the closed-loop cadence rows. A tpg schedule relabels state.stage
    M2Solo once epsilon at v=2 drops below 1e-3.
    """
    best = copy.deepcopy(p)
    best_loss = np.inf
    has_val = "val" in eval_groups
    b = cfg.batch_size

    def cadence(i):
        nonlocal best_loss
        rows = {}
        for split, parts in eval_groups.items():
            losses = [_closed_loop_loss(p, ctx, tgt, shape)
                      for ctx, tgt, _, shape in parts]
            rows[split] = float(np.mean(losses))
            curves.append(MetricsRow(i, split, prefix + "loss", rows[split]))
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
                if (schedule.strategy is Strategy.TPG
                        and epsilon_for(schedule, i, 2) < 1e-3):
                    state.stage = "M2Solo"
                ctx_all, tgt_all, preferred_all, (n, ft) = \
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
                preferred = preferred_all[idx][:, :-1] if k > 1 else None

                preds, caches = forward_train(p, ctx_all[idx], preferred, taus)
                preds = preds.reshape(b, k, n, ft)
                tgt = tgt_all[idx].reshape(b, k, n, ft)
                total, _ = composite_loss(preds, tgt)
                if not np.isfinite(total):
                    raise FloatingPointError("non-finite training loss")
                if i % cfg.val_every == 0:
                    curves.append(MetricsRow(i, "train", prefix + "loss", total))
                    cadence(i)
                grads = bptt(p, caches,
                             composite_loss_grad(preds, tgt).reshape(b, k, -1))
                # free this iteration's caches before the next forward builds its own
                del caches
                adam_step(p, clip_gradients(grads, cfg.clip_norm), state, cfg)
            if end_iter > start_iter:
                state.iteration = end_iter
                cadence(end_iter)
    except FloatingPointError as exc:
        raise DivergenceError(
            f"{exc} at iteration {state.iteration}, stage {state.stage}",
            params=best, curves=curves) from exc
    if has_val and np.isfinite(best_loss):
        copy_into(p, best)
    return best


# ---------------------------------------------------------------------------
# public drivers

def evaluate(p: Seq2SeqParams, ds: Dataset, split: str = "test",
             iteration: int = 0) -> list:
    """Closed-loop metrics over a whole split."""
    if len(ds) == 0:
        raise ConfigError(f"cannot evaluate an empty {split} split")
    ctx, tgt, (n, ft) = flatten_dataset(ds)
    k = tgt.shape[1]
    preds = rollout_batch(p, ctx, k)
    num = ctx.shape[0]
    pr = preds.reshape(num, k, n, ft)
    tg = tgt.reshape(num, k, n, ft)
    total, per_channel = composite_loss(pr, tg)

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
    if len(ds) == 0:
        raise ConfigError(f"cannot evaluate an empty {split} split")
    ctx, tgt, (n, ft) = flatten_dataset(ds)
    k = tgt.shape[1]
    preds = rollout_batch(p, ctx, k)
    num = ctx.shape[0]
    pr = preds.reshape(num, k, n, ft)
    tg = tgt.reshape(num, k, n, ft)
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
    _run_training(p, [_truth_group(train)],
                  {name: [_truth_group(ds)] for name, ds in evals},
                  cfg, cfg.schedule, state, curves, 0, cfg.total_iters)
    for name, ds in evals:
        curves.extend(evaluate(p, ds, name, cfg.total_iters))
    return p, curves


def _half_timescale_groups(ds: Dataset):
    """Parity-subsampled (ctx, tgt, tgt, shape) groups, odd half first.

    Target step 1 anchors the parity: the odd half holds target steps
    1, 3, 5, ... and the context frames lying on the same stride-2 grid,
    which are the even positions counted back from the forecast origin;
    the even half holds the rest.
    """
    ctx, tgt, shape = flatten_dataset(ds)
    back_odd, back_even = subsample_odd_even(ctx.swapaxes(0, 1)[::-1])
    tgt_odd, tgt_even = subsample_odd_even(tgt.swapaxes(0, 1))
    tgt_odd, tgt_even = tgt_odd.swapaxes(0, 1), tgt_even.swapaxes(0, 1)
    odd = (back_even[::-1].swapaxes(0, 1), tgt_odd, tgt_odd, shape)
    even = (back_odd[::-1].swapaxes(0, 1), tgt_even, tgt_even, shape)
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
    k = train.targets.shape[1]
    if k < 2:
        raise ConfigError(f"tpg needs horizon >= 2 to subsample, got {k}")
    stage1 = cfg.schedule.stage1_iters
    if stage1 >= cfg.total_iters:
        raise ConfigError(
            f"stage1_iters {stage1} must be < total_iters {cfg.total_iters}")
    if stage1 + cfg.schedule.transition_iters != cfg.total_iters:
        raise ConfigError(
            f"stage1_iters {stage1} + transition_iters "
            f"{cfg.schedule.transition_iters} must equal total_iters "
            f"{cfg.total_iters}")

    curves: list = []

    # stage 1: half-timescale model on both parity halves
    m1 = init_model(train, cfg)
    odd, even = _half_timescale_groups(train)
    state1 = make_train_state(m1, RngState(cfg.seed).split(_STREAM_STAGE1),
                              stage="M1")
    ss = ScheduleConfig(strategy=Strategy.SCHEDULED_SAMPLING, lam=cfg.schedule.lam)
    best1 = _run_training(m1, [odd, even],
                          {name: _half_timescale_groups(ds) for name, ds in evals},
                          cfg, ss, state1, curves, 0, stage1, prefix="m1.")

    # stage 2: frozen m1 feeds the full-timescale model
    m2 = (copy.deepcopy(m1) if cfg.warm_start_m2 else
          init_seq2seq(cfg.hidden, m1.f_in, m1.f_out,
                       RngState(cfg.seed).split(_STREAM_M2_INIT),
                       target_slots=m1.target_slots))

    # m1's closed-loop estimates, interleaved back to full order [num, K, f_out].
    # An overflowed m1 can return finite estimates behind saturated gates,
    # so the guard checks their loss, as the loop checks its own.
    ctx, tgt, shape = flatten_dataset(train)
    with np.errstate(over="ignore", invalid="ignore"):
        m1_odd = rollout_batch(m1, odd[0], (k + 1) // 2)
        m1_even = rollout_batch(m1, even[0], k // 2)
        m1_full = interleave_odd_even(m1_odd.swapaxes(0, 1),
                                      m1_even.swapaxes(0, 1)).swapaxes(0, 1)
        m1_loss, _ = composite_loss(m1_full, tgt)
    if not np.isfinite(m1_loss):
        raise DivergenceError(
            f"non-finite m1 precompute loss at iteration {stage1}, "
            f"stage {state1.stage}", params=best1, curves=curves)

    state2 = make_train_state(m2, RngState(cfg.seed).split(_STREAM_STAGE2),
                              stage="Transition")
    _run_training(m2, [(ctx, tgt, m1_full, shape)],
                  {name: [_truth_group(ds)] for name, ds in evals},
                  cfg, cfg.schedule, state2, curves, stage1, cfg.total_iters,
                  prefix="m2.")
    for name, ds in evals:
        curves.extend(evaluate(m2, ds, name, cfg.total_iters))
    return m1, m2, curves
