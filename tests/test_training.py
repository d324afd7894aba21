import itertools
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from tpgf.errors import ConfigError, DimensionError, DivergenceError
from tpgf import data as dt
from tpgf import model as md
from tpgf import nn
from tpgf import training as tr
from tpgf.rng import RngState
from tpgf.sampling import (ScheduleConfig, Strategy, epsilon_for,
                           interleave_odd_even)
from tpgf.tensor import randn


def rel_err(a, f):
    return abs(a - f) / max(1e-6, abs(a), abs(f))


# ---------------------------------------------------------------------------
# loss

def test_composite_loss_identical():
    x = randn((4, 2, 3), 1.0, RngState(1))
    assert tr.composite_loss(x, x.copy()) == 0.0


def test_composite_loss_constant_residuals():
    target = np.zeros((5, 2, 1))
    assert tr.composite_loss(target + 2.0, target) == 4.0

    t3 = np.zeros((4, 3, 3))
    p3 = t3.copy()
    p3[..., 0] += 1.0
    p3[..., 1] += 2.0
    p3[..., 2] += 3.0
    # channel MSEs 1, 4 and 9
    assert tr.composite_loss(p3, t3) == 14.0


def test_composite_loss_shape_error():
    with pytest.raises(DimensionError):
        tr.composite_loss(np.zeros((2, 3)), np.zeros((3, 2)))


def test_composite_loss_grad_fd():
    rng = RngState(5)
    pred = randn((3, 4, 2), 1.0, rng)
    target = randn((3, 4, 2), 1.0, rng)
    grad = tr.composite_loss_grad(pred, target)
    eps = 1e-6
    flat = pred.reshape(-1)
    gflat = grad.reshape(-1)
    for k in range(0, flat.size, 5):
        orig = flat[k]
        flat[k] = orig + eps
        up = tr.composite_loss(pred, target)
        flat[k] = orig - eps
        dn = tr.composite_loss(pred, target)
        flat[k] = orig
        assert rel_err(gflat[k], (up - dn) / (2 * eps)) < 1e-8


# ---------------------------------------------------------------------------
# optimizer

def _mini_cfg(**kw):
    defaults = dict(schedule=ScheduleConfig(strategy=Strategy.TEACHER_FORCING),
                    hidden=4, learning_rate=0.1, batch_size=2, total_iters=10,
                    seed=0)
    defaults.update(kw)
    return tr.TrainConfig(**defaults)


def small_model(hidden=2, f_in=3, f_out=3, seed=11):
    return md.init_seq2seq(hidden, f_in, f_out, RngState(seed))


def test_adam_zero_grad_no_change():
    p = small_model()
    before = [t.copy() for t in p.tensors()]
    state = tr.make_train_state(p, RngState(0))
    tr.adam_step(p, [np.zeros_like(t) for t in p.tensors()], state, _mini_cfg())
    for a, b in zip(p.tensors(), before):
        npt.assert_array_equal(a, b)


def test_adam_first_step_closed_form():
    p = small_model()
    for t in p.tensors():
        t[:] = 0.0
    state = tr.make_train_state(p, RngState(0))
    grads = [np.ones_like(t) for t in p.tensors()]
    tr.adam_step(p, grads, state, _mini_cfg(learning_rate=0.1))
    # mhat = vhat = 1 on the first step, so the update is lr/(1+eps)
    want = -0.1 / (1.0 + 1e-8)
    for t in p.tensors():
        npt.assert_allclose(t, want, rtol=1e-12)


def test_adam_three_step_quadratic_oracle():
    # run on f(p) = p^2 and compare against a hand-rolled trajectory
    p = small_model(hidden=1, f_in=1, f_out=1)
    for t in p.tensors():
        t[:] = 0.0
    p.projection.b[:] = 1.0  # the only driven parameter
    cfg = _mini_cfg(learning_rate=0.05)
    state = tr.make_train_state(p, RngState(0))

    def grads_for(value):
        gs = [np.zeros_like(t) for t in p.tensors()]
        gs[7] = np.array([2.0 * value])
        return gs

    for _ in range(3):
        tr.adam_step(p, grads_for(float(p.projection.b[0])), state, cfg)

    # straight-line oracle with plain floats
    b1, b2, eps, lr = 0.9, 0.999, 1e-8, 0.05
    pv, m, v = 1.0, 0.0, 0.0
    for t in range(1, 4):
        g = 2.0 * pv
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mhat = m / (1 - b1 ** t)
        vhat = v / (1 - b2 ** t)
        pv -= lr * mhat / (np.sqrt(vhat) + eps)
    assert abs(float(p.projection.b[0]) - pv) < 1e-10


def test_adam_nan_grad_names_tensor():
    p = small_model()
    state = tr.make_train_state(p, RngState(0))
    grads = [np.zeros_like(t) for t in p.tensors()]
    grads[3][0, 0] = np.nan
    with pytest.raises(FloatingPointError) as ei:
        tr.adam_step(p, grads, state, _mini_cfg())
    assert "decoder.w_x" in str(ei.value)


def test_adam_grad_scaling_keeps_sign_pattern():
    grads = [randn(t.shape, 1.0, RngState(33)) for t in small_model().tensors()]

    def first_update(scale):
        p = small_model(seed=11)
        before = [t.copy() for t in p.tensors()]
        state = tr.make_train_state(p, RngState(0))
        tr.adam_step(p, [g * scale for g in grads], state, _mini_cfg())
        return [np.sign(a - b) for a, b in zip(p.tensors(), before)]

    for a, b in zip(first_update(1.0), first_update(7.5)):
        npt.assert_array_equal(a, b)


def test_clip_gradients():
    g = [np.array([3.0, 4.0])]
    out = tr.clip_gradients(g, 2.5)
    npt.assert_allclose(out[0], [1.5, 2.0], rtol=1e-15)

    small = [np.array([0.1, 0.2]), np.array([[0.05]])]
    same = tr.clip_gradients(small, 10.0)
    assert same[0] is small[0] and same[1] is small[1]

    zeros = tr.clip_gradients([np.zeros(4)], 1.0)
    npt.assert_array_equal(zeros[0], np.zeros(4))


@pytest.mark.parametrize("key", ["learning_rate", "clip_norm"])
@pytest.mark.parametrize("bad", [0.0, -1.0, np.inf, np.nan])
def test_train_config_rejects_out_of_range_values(key, bad):
    # clip_gradients and adam_step read these unchecked, every iteration
    schedule = ScheduleConfig(strategy=Strategy.TEACHER_FORCING)
    with pytest.raises(ConfigError, match=key):
        tr.TrainConfig(schedule=schedule, **{key: bad})


# ---------------------------------------------------------------------------
# bptt

def _fd_full_rollout(hidden, f_in, k, taus_value, seed, tol=1e-5,
                     sample_coords=None, target_slots=None):
    """Finite-difference check of bptt through a full rollout with the
    tau decisions frozen, so forward replays identically. The target
    slots default to the whole input."""
    rng = RngState(seed)
    slots = np.arange(f_in) if target_slots is None else np.asarray(target_slots)
    p = md.init_seq2seq(hidden, f_in, len(slots), rng, target_slots=slots)
    b, t_in = 2, 3
    ctx = randn((b, t_in, f_in), 1.0, rng)
    tgt = randn((b, k, len(slots)), 1.0, rng)
    if isinstance(taus_value, int):
        taus = np.full((b, k - 1), taus_value, dtype=np.int64)
    else:
        taus = taus_value
    preferred = tgt[:, :-1]
    # random weighted-sum loss keeps the gradients O(1) so central
    # differences stay above roundoff
    weights = randn((b, k, len(slots)), 1.0, rng)

    def loss():
        preds, _ = tr.forward_train(p, ctx, preferred, taus)
        return float(np.sum(weights * preds))

    preds, caches = tr.forward_train(p, ctx, preferred, taus)
    grads = tr.bptt(p, caches, weights)

    eps = 1e-6
    fd_rng = RngState(seed + 999)
    checked = 0
    for arr, grad in zip(p.tensors(), grads):
        flat = arr.reshape(-1)
        gflat = grad.reshape(-1)
        if sample_coords is None:
            picks = range(flat.size)
        else:
            picks = fd_rng.randint_below(flat.size, sample_coords).tolist()
        for idx in picks:
            orig = flat[idx]
            flat[idx] = orig + eps
            up = loss()
            flat[idx] = orig - eps
            dn = loss()
            flat[idx] = orig
            fd = (up - dn) / (2 * eps)
            assert rel_err(gflat[idx], fd) < tol, (
                f"coord {idx}: analytic {gflat[idx]}, fd {fd}")
            checked += 1
    return checked


@pytest.mark.parametrize("b", [1, 7])
@pytest.mark.parametrize("k", [1, 3])
def test_rollout_batch_equals_forward_train_zero_taus(b, k):
    slots = md.make_target_slots(3, 2, [1])
    p = md.init_seq2seq(5, 6, 3, RngState(61), target_slots=slots)
    ctx = randn((b, 4, 6), 1.0, RngState(62))
    taus = np.zeros((b, k - 1), dtype=np.int64)
    preferred = randn((b, k - 1, 3), 1.0, RngState(63)) if k > 1 else None
    want, caches = tr.forward_train(p, ctx, preferred, taus)
    assert caches.enc.act.shape[0] == 4 and caches.dec.act.shape[0] == k
    got = tr.rollout_batch(p, ctx, k)
    assert got.shape == (b, k, 3)
    npt.assert_array_equal(got.view(np.int64), want.view(np.int64))


def test_bptt_zero_loss_grads():
    rng = RngState(3)
    p = md.init_seq2seq(2, 3, 3, rng)
    ctx = randn((2, 3, 3), 1.0, rng)
    tgt = randn((2, 4, 3), 1.0, rng)
    taus = np.ones((2, 3), dtype=np.int64)
    _, caches = tr.forward_train(p, ctx, tgt[:, :-1], taus)
    grads = tr.bptt(p, caches, np.zeros((2, 4, 3)))
    for g in grads:
        assert not g.any()


def test_bptt_fd_teacher_forced_2step_3unit():
    tr_checked = _fd_full_rollout(hidden=3, f_in=2, k=2, taus_value=1, seed=71)
    assert tr_checked > 0


def test_bptt_fd_closed_loop_1unit():
    _fd_full_rollout(hidden=1, f_in=1, k=3, taus_value=0, seed=72, tol=1e-5)


def test_bptt_fd_mixed_taus():
    taus = np.array([[1, 0, 1], [0, 1, 0]], dtype=np.int64)
    _fd_full_rollout(hidden=2, f_in=2, k=4, taus_value=taus, seed=73)


def test_bptt_fd_partial_target_slots():
    # the carrier holds the one untargeted slot, so the decoder's w_x
    # gradient has a carrier part; steps 2-3 are teacher forced and step
    # 4 mixes
    taus = np.array([[1, 1, 0], [1, 1, 1]], dtype=np.int64)
    _fd_full_rollout(hidden=2, f_in=3, k=4, taus_value=taus, seed=74,
                     target_slots=[0, 2])


def test_feedback_path_changes_gradient():
    # closed loop must move gradient through the feedback edge that
    # teacher forcing treats as constant
    rng = RngState(9)
    p = md.init_seq2seq(1, 1, 1, rng)
    ctx = randn((1, 3, 1), 1.0, rng)
    tgt = randn((1, 3, 1), 1.0, rng)

    def grads_with(tau):
        taus = np.full((1, 2), tau, dtype=np.int64)
        preds, caches = tr.forward_train(p, ctx, tgt[:, :-1], taus)
        return tr.bptt(p, caches, tr.composite_loss_grad(preds, tgt))

    g_tf = grads_with(1)
    g_cl = grads_with(0)
    diffs = [np.abs(a - b).max() for a, b in zip(g_tf, g_cl)]
    assert max(diffs) > 1e-9


def test_gradient_boundary_preferred_is_constant():
    # replacing the tau=1 source values changes the forward inputs but
    # must not open a new gradient path: gradients match an identical
    # rollout where those inputs are literal constants
    rng = RngState(14)
    p = md.init_seq2seq(2, 2, 2, rng)
    ctx = randn((1, 3, 2), 1.0, rng)
    taus = np.ones((1, 2), dtype=np.int64)
    source = randn((1, 2, 2), 1.0, rng)  # arbitrary frozen-source values
    weights = randn((1, 3, 2), 1.0, rng)

    preds, caches = tr.forward_train(p, ctx, source, taus)
    grads = tr.bptt(p, caches, weights)

    def loss():
        pr, _ = tr.forward_train(p, ctx, source, taus)
        return float(np.sum(weights * pr))

    eps = 1e-6
    for arr, grad in zip(p.tensors(), grads):
        flat = arr.reshape(-1)
        gflat = grad.reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + eps
            up = loss()
            flat[idx] = orig - eps
            dn = loss()
            flat[idx] = orig
            assert rel_err(gflat[idx], (up - dn) / (2 * eps)) < 1e-5


def _masked_bptt(p, caches, dpreds):
    """bptt with the feedback gradient formed at every step and masked
    by tau, the form bptt skips where no row fed its own prediction;
    the weight gradients are stacked the same way."""
    k, b, four_h = caches.dec.act.shape
    w_fed = caches.dec_in.w_fed
    dpred_all = dpreds.swapaxes(0, 1).copy()
    da_dec = caches.dec.act
    dh = np.zeros((b, p.hidden))
    dc = np.zeros_like(dh)
    for s in range(k, 0, -1):
        dh += dpred_all[s - 1] @ p.projection.w
        st = nn.lstm_step_backward(dh, dc, caches.dec, s - 1, p.decoder)
        dh, dc = st.h, st.c
        if s > 1:
            own = (caches.taus[:, s - 2] == 0).astype(np.float64)[:, None]
            dpred_all[s - 2] += (da_dec[s - 1] @ w_fed.T) * own
    da_enc = caches.enc.act
    for t in range(da_enc.shape[0] - 1, -1, -1):
        st = nn.lstm_step_backward(dh, dc, caches.enc, t, p.encoder)
        dh, dc = st.h, st.c
    x_enc = caches.x_enc.reshape(-1, p.f_in)
    g_dec_w_x = da_dec.sum(axis=0).T @ caches.dec_in.carrier
    g_dec_w_x[:, p.target_slots] += (da_dec.reshape(-1, four_h).T
                                     @ caches.fed.reshape(-1, p.f_out))
    g_proj = nn.linear_backward(dpred_all, caches.dec.h[1:], p.projection)
    return [da_enc.reshape(-1, four_h).T @ x_enc,
            *nn.recurrent_grads(da_enc, caches.enc),
            g_dec_w_x, *nn.recurrent_grads(da_dec, caches.dec),
            g_proj.w, g_proj.b]


@pytest.mark.parametrize("taus_value", ["ones", "zeros", "mixed"])
def test_bptt_skipped_feedback_equals_masked_form(taus_value):
    # with every tau 1 bptt skips the feedback GEMM, with every tau 0 it
    # adds it unmasked; both give the masked form's bits
    slots = md.make_target_slots(3, 2, [1])
    rng = RngState(81)
    p = md.init_seq2seq(4, 6, 3, rng, target_slots=slots)
    b, k = 5, 4
    ctx = randn((b, 3, 6), 1.0, rng)
    preferred = randn((b, k - 1, 3), 1.0, rng)
    taus = {"ones": np.ones((b, k - 1), dtype=np.int64),
            "zeros": np.zeros((b, k - 1), dtype=np.int64),
            "mixed": rng.bernoulli(0.5, b * (k - 1)).astype(np.int64)
            .reshape(b, k - 1)}[taus_value]
    dpreds = randn((b, k, 3), 1.0, rng)
    # each backward pass consumes the caches of its own forward pass
    got = tr.bptt(p, tr.forward_train(p, ctx, preferred, taus)[1], dpreds)
    want = _masked_bptt(p, tr.forward_train(p, ctx, preferred, taus)[1], dpreds)
    for name, g, w in zip(md.Seq2SeqParams.TENSOR_NAMES, got, want):
        npt.assert_array_equal(g.view(np.int64), w.view(np.int64), err_msg=name)


def _carrier_forward(p, contexts, preferred, taus):
    """forward_train with the zero-slotted carrier and its projection
    kept even where the target slots cover the input."""
    b, t_in, _ = contexts.shape
    k = taus.shape[1] + 1
    x_enc = np.ascontiguousarray(contexts.swapaxes(0, 1))
    enc = nn.lstm_caches(t_in, nn.zero_state(p.hidden, b))
    state = md.encode_full(x_enc.swapaxes(0, 1), p, enc)
    carrier = x_enc[-1]
    zeroed = carrier.copy()
    zeroed[:, p.target_slots] = 0.0
    dec_in = md.DecoderInput(carrier=zeroed,
                             base=nn.input_projection(zeroed, p.decoder),
                             w_fed=md.decoder_input(carrier, p).w_fed)
    dec = nn.lstm_caches(k, state)
    fed_all = np.empty((k, b, p.f_out))
    preds = np.empty((b, k, p.f_out))
    fed = carrier[:, p.target_slots]
    for s in range(1, k + 1):
        fed_all[s - 1] = fed
        pred, state = md.decode_step(fed, state, p, dec_in, dec, s - 1)
        preds[:, s - 1] = pred
        fed = pred
        if s < k:
            col = taus[:, s - 1]
            if col.all():
                fed = preferred[:, s - 1]
            elif col.any():
                fed = np.where(col[:, None] == 1, preferred[:, s - 1], pred)
    return preds, tr.RolloutCaches(x_enc=x_enc, enc=enc, dec=dec, dec_in=dec_in,
                                   fed=fed_all, taus=taus)


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


@pytest.mark.parametrize("shape", [
    pytest.param((10, 9, [0, 1, 2], 32), id="desk"),
    pytest.param((256, 1, [0], 96), id="sprites"),
])
@pytest.mark.parametrize("k", [6, 1])
def test_decoder_without_carrier_matches_carrier_path(shape, k):
    # a frame pipeline (sprites: every input column a target slot) keeps
    # no carrier and forms the decoder's w_x gradient from the fed values
    # alone; its preds, caches and gradients keep the bits of the carrier
    # path, whose carrier there is all zeros. Multinode models (desk)
    # keep the carrier. Taus: step 2 teacher forced, the rest mixed.
    nodes, channels, targets, hidden = shape
    b, t_in = 32, 6
    rng = RngState(97)
    p, ctx = _window_rollout_case(b, nodes, channels, targets, hidden, t_in, 98)
    preferred = randn((b, k - 1, p.f_out), 1.0, rng) if k > 1 else None
    taus = rng.bernoulli(0.5, b * (k - 1)).astype(np.int64).reshape(b, k - 1)
    taus[:, :1] = 1
    dpreds = randn((b, k, p.f_out), 1.0, rng)

    got, caches = tr.forward_train(p, ctx, preferred, taus)
    want, ref = _carrier_forward(p, ctx, preferred, taus)
    assert (caches.dec_in.carrier is None) == (p.f_out == p.f_in)
    npt.assert_array_equal(_bits(got), _bits(want))
    for name in ("x_enc", "fed"):
        npt.assert_array_equal(_bits(getattr(caches, name)),
                               _bits(getattr(ref, name)), err_msg=name)
    for part in ("enc", "dec"):
        for name in ("act", "h", "c"):
            npt.assert_array_equal(
                _bits(getattr(getattr(caches, part), name)),
                _bits(getattr(getattr(ref, part), name)),
                err_msg=f"{part}.{name}")
    grads = tr.bptt(p, caches, dpreds)
    for name, g, w in zip(md.Seq2SeqParams.TENSOR_NAMES, grads,
                          _masked_bptt(p, ref, dpreds)):
        npt.assert_array_equal(_bits(g), _bits(w), err_msg=name)


@pytest.mark.parametrize("b", [7, 600, 2100])
def test_rollout_rows_match_single_rows_across_projection_bound(b):
    # a row's rollout and encoder state do not depend on the rows beside
    # it, whether it runs alone, in one block or in one of several
    slots = md.make_target_slots(2, 2, [0])
    p = md.init_seq2seq(3, 4, 2, RngState(91), target_slots=slots)
    ctx = randn((b, 5, 4), 1.0, RngState(92))
    got = tr.rollout_batch(p, ctx, 3)
    state = md.encode_full(ctx, p)
    rows = sorted({0, 1, b // 2, b - 2, b - 1})
    for r in rows:
        one = tr.rollout_batch(p, ctx[r:r + 1], 3)
        npt.assert_allclose(got[r:r + 1], one, rtol=0, atol=1e-12)
        one_state = md.encode_full(ctx[r:r + 1], p)
        npt.assert_allclose(state.h[r:r + 1], one_state.h, rtol=0, atol=1e-12)
        npt.assert_allclose(state.c[r:r + 1], one_state.c, rtol=0, atol=1e-12)


def _window_rollout_case(b, nodes, channels, targets, hidden, t_in, seed):
    """A model and a [b, t_in, f_in] context of sliding windows over one
    source, as a dataset holds them."""
    slots = md.make_target_slots(nodes, channels, targets)
    f_in = nodes * channels
    p = md.init_seq2seq(hidden, f_in, len(slots), RngState(seed),
                        target_slots=slots)
    src = randn((b + t_in - 1, f_in), 1.0, RngState(seed + 1))
    ctx = np.lib.stride_tricks.sliding_window_view(src, t_in, axis=0)
    return p, ctx.swapaxes(1, 2)


# rollout_batch runs a split of more than tr._ROLLOUT_ROWS rows in blocks,
# the last block overlapping the one before it. At these shapes that keeps
# a single pass's bits because a GEMM row's bits do not depend on the row
# count M at 64 rows and above, as measured on OpenBLAS 0.3.31; a BLAS
# that breaks this fails here.
@pytest.mark.parametrize("shape", [
    pytest.param((10, 9, [0, 1, 2], 32, 24, 12), id="desk"),
    pytest.param((256, 1, [0], 96, 12, 4), id="sprites"),
])
@pytest.mark.parametrize("b", [257, 300, 513, 1565])
def test_blocked_rollout_matches_single_pass(b, shape):
    nodes, channels, targets, hidden, t_in, k = shape
    p, ctx = _window_rollout_case(b, nodes, channels, targets, hidden, t_in, 93)
    got = tr.rollout_batch(p, ctx, k)
    want = tr._unroll(p, ctx, k, None, None)[0]
    assert got.shape == (b, k, p.f_out)
    npt.assert_array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("b", [100, 300, 513])
def test_rollout_into_parity_slots_keeps_the_bits(b):
    # with out=, each block is written into a strided view: here the odd
    # time slots of a buffer twice the horizon, as the m1 precompute does
    p, ctx = _window_rollout_case(b, 10, 9, [0, 1, 2], 32, 24, 97)
    want = tr.rollout_batch(p, ctx, 6)
    buf = np.full((b, 12, p.f_out), np.nan)
    slots = buf[:, 0::2]
    got = tr.rollout_batch(p, ctx, 6, out=slots)
    assert got is slots
    npt.assert_array_equal(buf[:, 0::2].view(np.int64), want.view(np.int64))
    assert np.isnan(buf[:, 1::2]).all()
    with pytest.raises(DimensionError):
        tr.rollout_batch(p, ctx, 6, out=buf[:, 1::3])


def _encoder_inputs(monkeypatch, p):
    """The shapes of the inputs that encode_full projects with p's
    encoder, recorded as the calls happen."""
    shapes = []
    project = nn.input_projection

    def spy(x, lstm, out=None):
        if lstm is p.encoder:
            shapes.append(x.shape)
        return project(x, lstm, out)

    monkeypatch.setattr(nn, "input_projection", spy)
    return shapes


def _check_against_copy(monkeypatch, p, ctx, k, span):
    """rollout_batch over ctx keeps the bits of rollout_batch over a
    contiguous copy. Each block projects exactly one [span, F_in] input:
    the rows its windows reach, or B * T rows when they share none; each
    block of the copy projects its B * T rows."""
    shapes = _encoder_inputs(monkeypatch, p)
    got = tr.rollout_batch(p, ctx, k)
    blocks = -(-len(ctx) // tr._ROLLOUT_ROWS)
    assert shapes == [(span, p.f_in)] * blocks
    shapes.clear()
    want = tr.rollout_batch(p, np.ascontiguousarray(ctx), k)
    rows = min(len(ctx), tr._ROLLOUT_ROWS) * ctx.shape[1]
    assert shapes == [(rows, p.f_in)] * blocks
    npt.assert_array_equal(got.view(np.int64), want.view(np.int64))
    return got


# A closed-loop rollout over windows that share series rows projects each
# row its block reaches once: a block of 256 stride-1 desk windows 279
# rows, not 6,144. At desk shapes that keeps the bits of projecting every
# window's steps (OpenBLAS 0.3.31); model.encode_full's docstring names
# the shapes where it does not.
@pytest.mark.parametrize("b", [1, 5, 165, 256, 300, 1565])
def test_shared_row_projection_keeps_the_bits(monkeypatch, b):
    p, ctx = _window_rollout_case(b, 10, 9, [0, 1, 2], 32, 24, 99)
    # one window reaches as many rows as it has steps
    _check_against_copy(monkeypatch, p, ctx, 12, min(b, tr._ROLLOUT_ROWS) + 23)


def test_shared_row_projection_keeps_the_bits_of_half_groups(monkeypatch):
    # each half holds every other context step: rows b + 2t, 22 more rows
    # than windows in a block
    raw = dt.gen_multinode_series(10, 9, 2000, coupling=0.5, noise=0.2, seed=1)
    ds = dt.windowize(raw, 24, 12, target_channels=[0, 1, 2])
    train = dt.normalize(*dt.split(ds, (0.8, 0.1, 0.1)))[0]
    assert len(train) == 1565
    p, _ = _window_rollout_case(1, 10, 9, [0, 1, 2], 32, 24, 99)
    for ctx, tgt, _ in tr._half_timescale_groups(train):
        assert ctx.shape[1] == 12
        _check_against_copy(monkeypatch, p, ctx, tgt.shape[1],
                            tr._ROLLOUT_ROWS + 22)


def test_shared_row_projection_keeps_the_bits_of_strided_windows(monkeypatch):
    # windows 3 rows apart, t_in 8: rows 3b + t
    ctx, tgt, _ = tr.flatten_dataset(make_splits()[0])
    p = make_model_for(make_splits(), hidden=32)
    _check_against_copy(monkeypatch, p, ctx, tgt.shape[1],
                        3 * (len(ctx) - 1) + 8)


def test_shared_row_projection_keeps_the_bits_of_distant_windows(monkeypatch):
    # 300 windows 9 rows apart: each 256-row block reaches 2,319 rows,
    # fewer than its 6,144 window steps
    t_in = 24
    far = randn((300 * 9 + t_in, 90), 1.0, RngState(6))
    ctx = np.lib.stride_tricks.sliding_window_view(
        far, t_in, axis=0)[::9].swapaxes(1, 2)[:300]
    p, _ = _window_rollout_case(1, 10, 9, [0, 1, 2], 32, t_in, 99)
    _check_against_copy(monkeypatch, p, ctx, 12, 255 * 9 + t_in)


def _unshared_contexts():
    """Contexts whose entries are not rows of one row-major array that
    reach at most as many rows as there are entries, and a contiguous
    batch, whose rows are its entries."""
    b, t_in, f_in = 40, 24, 90
    _, windows = _window_rollout_case(b, 10, 9, [0, 1, 2], 32, t_in, 99)
    wide = randn((b + t_in - 1, f_in + 1), 1.0, RngState(5))[:, :f_in]
    return {
        "contiguous": np.ascontiguousarray(windows),
        "reversed": windows[:, ::-1],
        "broadcast": np.broadcast_to(windows[:1], windows.shape),
        # rows f_in + 1 values apart
        "misaligned": np.lib.stride_tricks.sliding_window_view(
            wide, t_in, axis=0).swapaxes(1, 2),
    }


@pytest.mark.parametrize("name", ["contiguous", "reversed", "broadcast",
                                  "misaligned"])
def test_unshared_contexts_project_every_entry_once(monkeypatch, name):
    ctx = _unshared_contexts()[name]
    p, _ = _window_rollout_case(1, 10, 9, [0, 1, 2], 32, 24, 99)
    assert ctx.shape[1:] == (24, 90)
    _check_against_copy(monkeypatch, p, ctx, 12, 40 * 24)


def test_sprite_bank_projects_every_frame_once(monkeypatch):
    # sample i is sequence i of the bank: windows share no frame, and the
    # frames after each context are not projected
    seqs = randn((6, 16, 8, 8), 1.0, RngState(7))
    ds = dt.windowize_sequences(seqs, 10, 6, grid=(8, 8))
    ctx, tgt, _ = tr.flatten_dataset(ds)
    p = md.init_seq2seq(16, 64, 64, RngState(8))
    _check_against_copy(monkeypatch, p, ctx, tgt.shape[1], 6 * 10)


def test_shared_rows_no_window_reaches_are_never_read(monkeypatch):
    # windows 2 rows apart over every other row: the odd rows between them
    # are projected with the rest of the span, and are NaN here
    b, t_in = 40, 12
    src = randn((2 * (b + t_in), 90), 1.0, RngState(9))
    src[1::2] = np.nan
    ctx = np.lib.stride_tricks.sliding_window_view(
        src[::2], t_in, axis=0).swapaxes(1, 2)[:b]
    p, _ = _window_rollout_case(1, 10, 9, [0, 1, 2], 32, t_in, 99)
    got = _check_against_copy(monkeypatch, p, ctx, 6,
                              2 * (b - 1) + 2 * (t_in - 1) + 1)
    assert np.isfinite(got).all()


def test_training_encoder_projects_its_context_once(monkeypatch):
    # a training batch of 128 windows of t_in 24 (3,072 rows) projects
    # its time-major context in one GEMM, into the encoder caches
    b, t_in, k = 128, 24, 4
    p, ctx = _window_rollout_case(b, 10, 9, [0, 1, 2], 32, t_in, 99)
    shapes = _encoder_inputs(monkeypatch, p)
    taus = np.ones((b, k - 1), dtype=np.int64)
    preferred = randn((b, k - 1, p.f_out), 1.0, RngState(3))
    tr.forward_train(p, ctx, preferred, taus)
    assert shapes == [(t_in, b, p.f_in)]


def test_m1_precompute_interleaves_the_half_rollouts(monkeypatch):
    # stage 2's preferred source is m1's two half-timescale rollouts,
    # merged by interleave_odd_even, whatever the precompute writes into
    train = make_splits(seed=5, k=5, t_in=9, length=1200)[0]
    assert len(train) > tr._ROLLOUT_ROWS
    sources = []
    run = tr._run_training

    def spy(p, groups, *args, **kwargs):
        if kwargs.get("prefix") == "m2.":
            sources.append(groups[0][2].copy())
        return run(p, groups, *args, **kwargs)

    monkeypatch.setattr(tr, "_run_training", spy)
    m1, _, _ = tr.train_tpg((train, None, None), tpg_cfg(total=6, stage1=3))
    odd, even = tr._half_timescale_groups(train)
    halves = [tr.rollout_batch(m1, ctx, tgt.shape[1]).swapaxes(0, 1)
              for ctx, tgt, _ in (odd, even)]
    want = interleave_odd_even(*halves).swapaxes(0, 1)
    assert len(sources) == 1 and sources[0].shape == want.shape
    npt.assert_array_equal(sources[0].view(np.int64), want.view(np.int64))


def test_rollout_memory_is_bounded_by_the_block():
    # tracemalloc peak of a rollout, less its [B, K, F_out] output.
    # Desk-shaped: 2.52 MB at 300 rows and 12.75 MB at 1,565 (ratio 5.07)
    # when a rollout ran a whole split in one pass; 3.71 MB at both (ratio
    # 1.00) in blocks of 256 rows; 2.85 MB at both (ratio 1.00) once a
    # block projected its windows' shared rows, not each window's steps.
    # A sprite bank (hidden 96, 8x8 frames, t_in 20) shares no rows, so
    # each block projects a contiguous copy of its 5,120 frames at once:
    # 19.66 MB at 300 and 1,000 rows (ratio 1.00), against 10.23 MB when
    # the encoder projected at most 2,048 rows per GEMM.
    p, ctx = _window_rollout_case(1565, 10, 9, [0, 1, 2], 32, 24, 95)
    seqs = randn((1000, 30, 8, 8), 1.0, RngState(96))
    bank = tr.flatten_dataset(dt.windowize_sequences(seqs, 20, 10, (8, 8)))[0]
    sprites = md.init_seq2seq(96, 64, 64, RngState(97))
    for model, contexts, k, sizes in ((p, ctx, 12, (300, 1565)),
                                      (sprites, bank, 10, (300, 1000))):
        peaks = {}
        for b in sizes:
            tracemalloc.start()
            try:
                out = tr.rollout_batch(model, contexts[:b], k)
                peaks[b] = tracemalloc.get_traced_memory()[1] - out.nbytes
            finally:
                tracemalloc.stop()
        assert peaks[sizes[1]] < 1.5 * peaks[sizes[0]], peaks


def test_m1_precompute_memory_holds_one_copy_of_the_estimates(monkeypatch):
    # tracemalloc rise over the m1 precompute of a desk-shaped split of
    # 3,000 windows (hidden 32, K 12, f_out 30), from the end of stage 1
    # to the start of stage 2, against its bound: m2's params, m1_full and
    # one 256-row block's transients (11.16 MiB). Measured 16.73 MiB when
    # the two half rollouts and their interleaved copy were held at once;
    # 12.02 MiB with the halves rolled out into m1_full's parity slots,
    # when the encoder projected 8 steps of each window at a time; 10.86
    # MiB with the 278 rows a block's half windows reach projected once.
    t_in, k, h, rows = 24, 12, 32, tr._ROLLOUT_ROWS
    raw = dt.gen_multinode_series(10, 9, 3000 + t_in + k - 1, coupling=0.5,
                                  noise=0.2, seed=3)
    train = dt.windowize(raw, t_in, k, target_channels=[0, 1, 2])
    assert len(train) == 3000
    cfg = tpg_cfg(total=2, stage1=1, hidden=h, batch=32)
    run = tr._run_training
    seen = {}

    def spy(p, groups, *args, **kwargs):
        if kwargs.get("prefix") == "m2.":
            seen["peak"] = tracemalloc.get_traced_memory()[1]
            seen["m1_full"] = groups[0][2].nbytes
            seen["params"] = sum(t.nbytes for t in p.tensors())
            return p
        best = run(p, groups, *args, **kwargs)
        seen["resident"] = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        return best

    monkeypatch.setattr(tr, "_run_training", spy)
    tracemalloc.start()
    try:
        tr.train_tpg((train, None, None), cfg)
    finally:
        tracemalloc.stop()
    f_in, f_out, k_half = 90, 30, k // 2
    # a block's half windows reach rows b + 2t
    span = rows + 2 * (t_in // 2 - 1)
    # the encoder's span projection; a decoder step's six [rows, 4H]
    # arrays (the carrier's and the fed values' projections, the
    # pre-activation, the activations and two sigmoid temporaries), the
    # zeroed carrier and six [rows, H] states and temporaries; and the
    # block's predictions
    block = 8 * (span * 4 * h
                 + rows * (6 * 4 * h + f_in + 6 * h + k_half * f_out))
    rise = seen["peak"] - seen["resident"]
    bound = seen["params"] + seen["m1_full"] + block
    assert seen["m1_full"] == 8 * 3000 * k * f_out
    assert rise < bound, (rise / 2**20, bound / 2**20)


# ---------------------------------------------------------------------------
# data fixture for driver tests

def make_splits(seed=1, nodes=3, channels=3, length=400, t_in=8, k=4,
                targets=(0, 1)):
    raw = dt.gen_multinode_series(nodes, channels, length, coupling=0.4,
                                  noise=0.05, seed=seed)
    ds = dt.windowize(raw, t_in, k, stride=3, target_channels=list(targets))
    train, val, test = dt.split(ds, (0.7, 0.15, 0.15))
    return dt.normalize(train, val, test)


def make_model_for(splits, hidden, seed=99):
    train = splits[0]
    n, f = train.contexts.shape[2], train.contexts.shape[3]
    slots = md.make_target_slots(n, f, train.meta.target_channels)
    return md.init_seq2seq(hidden, n * f, len(slots), RngState(seed),
                           target_slots=slots)


# ---------------------------------------------------------------------------
# train_scheduled

def test_train_scheduled_zero_iters_unchanged():
    splits = make_splits()
    p = make_model_for(splits, hidden=4)
    before = [t.copy() for t in p.tensors()]
    cfg = tr.TrainConfig(schedule=ScheduleConfig(strategy=Strategy.TEACHER_FORCING),
                         hidden=4, total_iters=0, seed=5)
    p2, curves = tr.train_scheduled(p, splits, cfg)
    for a, b in zip(p2.tensors(), before):
        npt.assert_array_equal(a, b)


def test_train_scheduled_rejects_tpg():
    splits = make_splits()
    p = make_model_for(splits, hidden=4)
    cfg = tr.TrainConfig(
        schedule=ScheduleConfig(strategy=Strategy.TPG, stage1_iters=5),
        hidden=4, total_iters=10, seed=5)
    with pytest.raises(ConfigError):
        tr.train_scheduled(p, splits, cfg)


def test_train_scheduled_regression_seed7():
    splits = make_splits(seed=7)
    p = make_model_for(splits, hidden=8, seed=7)
    cfg = tr.TrainConfig(
        schedule=ScheduleConfig(strategy=Strategy.SCHEDULED_SAMPLING, lam=60.0),
        hidden=8, total_iters=500, batch_size=16, seed=7)
    p, curves = tr.train_scheduled(p, splits, cfg)
    train_rows = [r for r in curves if r.split == "train" and r.metric == "loss"]
    assert train_rows[-1].value < train_rows[0].value
    # frozen regression value, recorded from the fixed-seed run
    assert rel_err(train_rows[-1].value, 0.035722345966065716) < 1e-6


def test_train_scheduled_deterministic():
    def run():
        splits = make_splits(seed=2)
        p = make_model_for(splits, hidden=4, seed=3)
        cfg = tr.TrainConfig(
            schedule=ScheduleConfig(strategy=Strategy.SCHEDULED_SAMPLING, lam=30.0),
            hidden=4, total_iters=60, batch_size=8, seed=21)
        return tr.train_scheduled(p, splits, cfg)

    p1, c1 = run()
    p2, c2 = run()
    assert len(c1) == len(c2)
    for a, b in zip(c1, c2):
        assert (a.iteration, a.split, a.metric) == (b.iteration, b.split, b.metric)
        assert a.value == b.value
    for a, b in zip(p1.tensors(), p2.tensors()):
        npt.assert_array_equal(a, b)


def test_training_iteration_memory_is_bounded_by_shapes():
    # tracemalloc peak of three sprites-shaped train_scheduled iterations
    # (f_in = f_out = 256, H 96, B 32, t_in = K = 20) against what an
    # iteration needs: the resident state (best copy, Adam m and v, and
    # the gradients the previous iteration left), one iteration's caches
    # and gradients, and three [B, K, F_out] arrays for the loss
    # (predictions, targets, one residual): 23.26 MiB. Measured 26.10 MiB
    # when the gathered preferred values, predictions and targets lived
    # through bptt and bptt formed an all-zero carrier's w_x gradient;
    # 21.52 MiB once they are gone before it.
    b, t_in, k, f, h = 32, 20, 20, 256, 96
    seqs = dt.gen_moving_sprites(16, 16, 1, (1, 1), t_in + k, 1, count=12,
                                 sprite_size=7)
    splits = dt.split(dt.windowize_sequences(seqs, t_in, k, grid=(16, 16)),
                      (0.8, 0.1, 0.1))
    cfg = tr.TrainConfig(
        schedule=ScheduleConfig(strategy=Strategy.SCHEDULED_SAMPLING, lam=100.0),
        hidden=h, batch_size=b, total_iters=3, seed=1)
    p = tr.init_model(splits[0], cfg)
    params = sum(t.nbytes for t in p.tensors())
    # inputs, gate activations, h and c of the encoder and the decoder
    caches = 8 * b * (t_in + k) * (f + 4 * h) + 8 * b * (t_in + k + 2) * 2 * h
    bound = 5 * params + caches + 3 * 8 * b * k * f
    tracemalloc.start()
    try:
        tr.train_scheduled(p, splits, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound, (peak / 2**20, bound / 2**20)


def _cadence_run(**cfg_args):
    splits = make_splits(seed=4)
    p = make_model_for(splits, hidden=4, seed=6)
    cfg = tr.TrainConfig(
        schedule=ScheduleConfig(strategy=Strategy.SCHEDULED_SAMPLING, lam=20.0),
        hidden=4, batch_size=8, seed=2, val_every=5, **cfg_args)
    return p, splits, cfg


def test_cadence_rows_follow_the_train_row():
    # the cadence's rollouts may run anywhere in the iteration, but its
    # val and test rows follow the train row, with the values recorded
    # when they ran after it
    p, splits, cfg = _cadence_run(total_iters=10)
    _, curves = tr.train_scheduled(p, splits, cfg)
    assert [(r.iteration, r.split, r.metric, r.value) for r in curves[:8]] == [
        (0, "train", "loss", 2.0192235722852496),
        (0, "val", "loss", 2.0457246893814602),
        (0, "test", "loss", 2.0109681885802697),
        (5, "train", "loss", 2.005601967813665),
        (5, "val", "loss", 2.018703141905219),
        (5, "test", "loss", 1.9993797719743358),
        (10, "val", "loss", 1.9834019866939427),
        (10, "test", "loss", 1.9729109616501086),
    ]


def test_non_finite_train_loss_at_cadence_writes_no_cadence_row(monkeypatch):
    # iteration 10's training loss is forced to NaN: the run stops before
    # any row of iteration 10, and keeps the best of iterations 0 and 5
    p, splits, cfg = _cadence_run(total_iters=20)
    forward = tr.forward_train
    iteration = itertools.count()  # one forward pass per iteration
    at_cadence = {}

    def nan_at_10(model, *args):
        i = next(iteration)
        if i % cfg.val_every == 0:
            at_cadence[i] = [t.copy() for t in model.tensors()]
        preds, caches = forward(model, *args)
        return (preds * np.nan if i == 10 else preds), caches

    monkeypatch.setattr(tr, "forward_train", nan_at_10)
    with pytest.raises(DivergenceError) as ei:
        tr.train_scheduled(p, splits, cfg)
    err = ei.value
    assert str(err) == "non-finite training loss at iteration 10, stage main"
    assert [(r.iteration, r.split) for r in err.curves] == [
        (0, "train"), (0, "val"), (0, "test"),
        (5, "train"), (5, "val"), (5, "test")]
    val = {r.iteration: r.value for r in err.curves if r.split == "val"}
    assert val[5] < val[0]
    for a, b in zip(err.params.tensors(), at_cadence[5]):
        npt.assert_array_equal(a, b)


def test_epsilon_exactly_0_draws_no_coin_flips():
    # lam = 1e-3: epsilon is about 0.001 at iteration 0, and exactly 0 from
    # iteration 1, where i / lam passes the exp overflow guard
    schedule = ScheduleConfig(strategy=Strategy.SCHEDULED_SAMPLING, lam=1e-3)
    assert 0 < epsilon_for(schedule, 0, 2) < 1e-3
    assert epsilon_for(schedule, 1, 2) == 0.0
    splits = make_splits()
    p = make_model_for(splits, hidden=4)
    group = tr.flatten_dataset(splits[0])
    b, k = 8, group[1].shape[1]
    cfg = tr.TrainConfig(schedule=schedule, hidden=4, batch_size=b,
                         total_iters=2, seed=5)
    state = tr.make_train_state(p, RngState(5))
    tr._run_training(p, [group], {}, cfg, schedule, state, [], 0, 2)
    # one index draw per iteration; coin flips for decoder steps 2..K at
    # iteration 0 only
    assert state.rng.counter == 2 * b + (k - 1) * b


# every overflow on the way is caught by the loop or by the m1 precompute
# guard; none escapes as a RuntimeWarning
@pytest.mark.filterwarnings("error")
def test_train_divergence_keeps_checkpoint():
    splits = make_splits(seed=3)
    p = make_model_for(splits, hidden=4, seed=4)
    initial = [t.copy() for t in p.tensors()]
    cfg = tr.TrainConfig(
        schedule=ScheduleConfig(strategy=Strategy.TEACHER_FORCING),
        hidden=4, total_iters=50, batch_size=8, seed=1,
        learning_rate=1e200)
    with pytest.raises(DivergenceError) as ei:
        tr.train_scheduled(p, splits, cfg)
    err = ei.value
    assert err.params is not None
    assert err.curves is not None and len(err.curves) > 0
    # retained checkpoint is the best-so-far (here: the initial params)
    for a, b in zip(err.params.tensors(), initial):
        npt.assert_array_equal(a, b)
    # the message keeps the cause and names where training stopped
    assert str(err) == "non-finite training loss at iteration 1, stage main"

    cfg = tpg_cfg(total=20, stage1=10)
    cfg.learning_rate = 1e200
    with pytest.raises(DivergenceError) as ei:
        tr.train_tpg(make_splits(seed=5, k=4), cfg)
    assert str(ei.value) == "non-finite training loss at iteration 1, stage M1"

    # without val and test splits stage 1 ends cleanly, but its weights
    # overflowed: m1's estimates, finite behind saturated gates, give a
    # non-finite loss, and the guard stops before stage 2 sees them
    cfg = tpg_cfg(total=20, stage1=1)
    cfg.learning_rate = 1e200
    cfg.warm_start_m2 = False
    train = make_splits(seed=5, k=4)[0]
    with pytest.raises(DivergenceError) as ei:
        tr.train_tpg((train, None, None), cfg)
    assert str(ei.value) == \
        "non-finite m1 precompute loss at iteration 1, stage M1"
    # with no val split the kept checkpoint is m1's start, as in the loop
    for a, b in zip(ei.value.params.tensors(),
                    tr.init_model(train, cfg).tensors()):
        npt.assert_array_equal(a, b)
    assert [(r.iteration, r.metric) for r in ei.value.curves] == \
        [(0, "m1.loss")]

    # a training split of more than 256 windows: the guard sums the loss
    # over several blocks and stops with the same message
    train = make_splits(seed=5, k=4, length=1200)[0]
    assert len(train) > tr._ROLLOUT_ROWS
    with pytest.raises(DivergenceError) as ei:
        tr.train_tpg((train, None, None), cfg)
    assert str(ei.value) == \
        "non-finite m1 precompute loss at iteration 1, stage M1"


# lambda 1 with index-aware decay: epsilon at v = 2 is 1 / (1 + 2^j) at
# stage-2 step j, 1/513 at step 9 and 1/1025 at step 10, so stage 2 is the
# Transition through step 9 and M2Solo from step 10
@pytest.mark.parametrize("step, stage", [(9, "Transition"), (10, "M2Solo")])
def test_stage2_divergence_names_its_stage(monkeypatch, step, stage):
    cfg = tpg_cfg(total=40, stage1=20, lam=1.0)
    assert epsilon_for(cfg.schedule, 29, 2) == pytest.approx(1 / 513)
    assert epsilon_for(cfg.schedule, 30, 2) == pytest.approx(1 / 1025)
    forward = tr.forward_train
    iteration = itertools.count()  # one forward pass per iteration

    def nan_at_step(model, *args):
        preds, caches = forward(model, *args)
        return (preds * np.nan if next(iteration) == 20 + step
                else preds), caches

    monkeypatch.setattr(tr, "forward_train", nan_at_step)
    with pytest.raises(DivergenceError) as ei:
        tr.train_tpg(make_splits(seed=5, k=4), cfg)
    assert str(ei.value) == (f"non-finite training loss at iteration "
                             f"{20 + step}, stage {stage}")


def test_end_of_stage_divergence_names_the_last_trained_stage(monkeypatch):
    # the cadence at iteration 30 ends a stage whose last trained step is
    # 9, still in the Transition, although epsilon at 30 is below 1e-3
    cfg = tpg_cfg(total=30, stage1=20, lam=1.0)
    forward, loss = tr.forward_train, tr._closed_loop_loss
    trained = []  # one forward pass per iteration

    def counted(*args):
        trained.append(None)
        return forward(*args)

    monkeypatch.setattr(tr, "forward_train", counted)
    monkeypatch.setattr(tr, "_closed_loop_loss", lambda *args: (
        np.nan if len(trained) == 30 else loss(*args)))
    with pytest.raises(DivergenceError) as ei:
        tr.train_tpg(make_splits(seed=5, k=4), cfg)
    assert str(ei.value) == \
        "non-finite validation loss at iteration 30, stage Transition"


# ---------------------------------------------------------------------------
# train_tpg

def tpg_cfg(total=80, stage1=40, lam=20.0, seed=31, hidden=4, batch=8):
    return tr.TrainConfig(
        schedule=ScheduleConfig(strategy=Strategy.TPG, lam=lam,
                                stage1_iters=stage1),
        hidden=hidden, total_iters=total, batch_size=batch, seed=seed)


def test_tpg_runs_and_is_deterministic():
    def run():
        splits = make_splits(seed=5, k=4)
        return tr.train_tpg(splits, tpg_cfg())

    m1a, m2a, ca = run()
    m1b, m2b, cb = run()
    for a, b in zip(m1a.tensors(), m1b.tensors()):
        npt.assert_array_equal(a, b)
    for a, b in zip(m2a.tensors(), m2b.tensors()):
        npt.assert_array_equal(a, b)
    assert [(r.iteration, r.split, r.metric, r.value) for r in ca] == \
           [(r.iteration, r.split, r.metric, r.value) for r in cb]
    # both stages left their fingerprints in the curves
    metrics = {r.metric for r in ca}
    assert "m1.loss" in metrics and "m2.loss" in metrics


def test_tpg_regression_frozen():
    def final_rows(splits, cfg):
        _, _, curves = tr.train_tpg(splits, cfg)
        m2 = [r for r in curves if r.split == "train" and r.metric == "m2.loss"]
        test = [r for r in curves if r.split == "test" and r.metric == "loss"]
        return m2[-1], test[-1]

    # frozen regression values, recorded from the fixed-seed runs
    m2, test = final_rows(make_splits(seed=5, k=4), tpg_cfg())
    assert (m2.iteration, test.iteration) == (50, 80)
    assert rel_err(m2.value, 1.1898978576866739) < 1e-6
    assert rel_err(test.value, 1.265332319157352) < 1e-6

    cfg = tpg_cfg(seed=13)
    cfg.schedule.index_aware = False
    cfg.warm_start_m2 = False
    m2, test = final_rows(make_splits(seed=9, t_in=9, k=5), cfg)
    assert (m2.iteration, test.iteration) == (50, 80)
    assert rel_err(m2.value, 1.7421136977251135) < 1e-6
    assert rel_err(test.value, 1.379701815586207) < 1e-6


def test_tpg_odd_horizon_trains_both_models():
    # K=5: m1 learns halves of 3 and 2 steps, and m2 the full 5
    splits = make_splits(seed=4, t_in=9, k=5)
    cfg = tpg_cfg(total=60, stage1=30)
    cfg.val_every = 10
    m1, m2, curves = tr.train_tpg(splits, cfg)
    for m in (m1, m2):
        assert (m.f_in, m.f_out) == (9, 6)
        assert all(np.isfinite(t).all() for t in m.tensors())
    # m2 starts as a copy of m1 and trains on, so the two differ
    assert any(not np.array_equal(a, b)
               for a, b in zip(m1.tensors(), m2.tensors()))
    # per stage: one train row per cadence, a val and a test row at each
    # cadence and at the stage's end; then evaluate() on val and test
    per_stage = 3 * 3 + 2
    final = 2 * (3 + 2 * 2)
    assert len(curves) == 2 * per_stage + final
    assert [r.metric for r in curves[:per_stage]].count("m1.loss") == per_stage
    assert {r.metric for r in curves[per_stage:2 * per_stage]} == {"m2.loss"}


def test_tpg_stage_validation():
    splits = make_splits(seed=5)
    with pytest.raises(ConfigError):
        ScheduleConfig(strategy=Strategy.TPG, stage1_iters=0)
    cfg = tr.TrainConfig(
        schedule=ScheduleConfig(strategy=Strategy.TPG, stage1_iters=90),
        hidden=4, total_iters=80, seed=1)
    with pytest.raises(ConfigError):
        tr.train_tpg(splits, cfg)


def test_tpg_horizon_too_short():
    splits = make_splits(seed=5, k=1, t_in=8)
    with pytest.raises(ConfigError):
        tr.train_tpg(splits, tpg_cfg())


def test_flatten_dataset_returns_views():
    for ds in make_splits():
        a = tr.flatten_dataset(ds)
        b = tr.flatten_dataset(ds)
        assert np.shares_memory(a[0], b[0]) and np.shares_memory(a[1], b[1])
        ctx, tgt, preferred = a
        assert np.shares_memory(ctx, ds.contexts)
        assert np.shares_memory(tgt, ds.targets)
        assert np.shares_memory(preferred, ds.targets)
        # targets keep the dataset's [num, K, N, Ft] layout
        assert tgt.shape == ds.targets.shape
        num, k = ds.targets.shape[:2]
        npt.assert_array_equal(preferred, ds.targets.reshape(num, k, -1))
        npt.assert_array_equal(ctx, ds.contexts.reshape(ctx.shape))


def test_half_timescale_groups_shapes():
    splits = make_splits(seed=6, t_in=8, k=4)
    odd, even = tr._half_timescale_groups(splits[0])
    # K=4: odd half holds target steps 1,3 and even half 2,4
    assert odd[1].shape[1] == 2 and even[1].shape[1] == 2
    assert odd[0].shape[1] == 4 and even[0].shape[1] == 4

    splits5 = make_splits(seed=6, t_in=9, k=5)
    odd5, even5 = tr._half_timescale_groups(splits5[0])
    assert odd5[1].shape[1] == 3 and even5[1].shape[1] == 2
    targets = splits5[0].targets
    num, _, n, ft = targets.shape
    for (_, tgt, preferred), first in ((odd5, 0), (even5, 1)):
        # each half's preferred values are its own targets, flattened,
        # and both are views of the dataset's targets
        assert np.shares_memory(preferred, targets)
        assert np.shares_memory(tgt, targets)
        npt.assert_array_equal(tgt, targets[:, first::2])
        assert preferred.shape == (num, tgt.shape[1], n * ft)
        npt.assert_array_equal(preferred, tgt.reshape(preferred.shape))
    # context parity anchors at the target boundary: the odd-half grid
    # steps backward from the first target with stride 2
    ctx, _, _ = tr.flatten_dataset(splits5[0])
    npt.assert_array_equal(odd5[0], ctx[:, 1::2])
    npt.assert_array_equal(even5[0], ctx[:, 0::2])


def test_tpg_k12_halves():
    splits = make_splits(seed=8, length=800, t_in=16, k=12)
    odd, even = tr._half_timescale_groups(splits[0])
    assert odd[1].shape[1] == 6 and even[1].shape[1] == 6


# ---------------------------------------------------------------------------
# evaluate

def test_evaluate_perfect_model_zero_error():
    # constant series make a zero-parameter model with matching bias exact
    raw = np.zeros((60, 2, 2))
    raw += np.array([1.5, -0.5])  # constant per channel
    ds = dt.windowize(raw, 6, 3, stride=9)
    p = md.init_seq2seq(3, 4, 4, RngState(1))
    for t in p.tensors():
        t[:] = 0.0
    p.projection.b[:] = np.array([1.5, -0.5, 1.5, -0.5])
    rows = tr.evaluate(p, ds, "test")
    by_metric = {r.metric: r.value for r in rows}
    assert by_metric["rmse"] == 0.0
    assert by_metric["mae"] == 0.0
    assert by_metric["loss"] == 0.0


def test_evaluate_zero_predictor_rmse_near_one():
    splits = make_splits(seed=9, length=600)
    train = splits[0]
    p = make_model_for(splits, hidden=4, seed=2)
    for t in p.tensors():
        t[:] = 0.0
    rows = tr.evaluate(p, train, "train")
    rmse = {r.metric: r.value for r in rows}["rmse"]
    # targets are z-scored with train-context statistics
    assert abs(rmse - 1.0) < 0.15


def test_evaluate_deterministic_and_empty():
    splits = make_splits(seed=10)
    p = make_model_for(splits, hidden=4, seed=5)
    r1 = tr.evaluate(p, splits[2], "test")
    r2 = tr.evaluate(p, splits[2], "test")
    assert [(a.metric, a.value) for a in r1] == [(b.metric, b.value) for b in r2]

    empty = dt.Dataset(source=np.zeros((0, 2, 2)),
                       contexts=np.zeros((0, 4, 2, 2)),
                       targets=np.zeros((0, 2, 2, 2)),
                       meta=splits[2].meta)
    with pytest.raises(ConfigError):
        tr.evaluate(p, empty, "test")


def test_evaluate_reports_ssim_for_grids():
    seqs = dt.gen_moving_sprites(12, 12, 1, (1, 1), length=6, seed=3, count=4,
                                 sprite_size=3)
    ds = dt.windowize_sequences(seqs, t_in=4, k=2, grid=(12, 12))
    p = md.init_seq2seq(4, 144, 144, RngState(8))
    rows = tr.evaluate(p, ds, "test")
    metrics = {r.metric for r in rows}
    assert "ssim" in metrics
    ssim = {r.metric: r.value for r in rows}["ssim"]
    assert -1.0 <= ssim <= 1.0
