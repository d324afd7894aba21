import numpy as np
import numpy.testing as npt
import pytest

from tpgf.errors import ConfigError, DimensionError, DivergenceError
from tpgf import data as dt
from tpgf import model as md
from tpgf import nn
from tpgf import training as tr
from tpgf.rng import RngState
from tpgf.sampling import ScheduleConfig, Strategy
from tpgf.tensor import randn


def rel_err(a, f):
    return abs(a - f) / max(1e-6, abs(a), abs(f))


# ---------------------------------------------------------------------------
# loss

def test_composite_loss_identical():
    x = randn((4, 2, 3), 1.0, RngState(1))
    total, per = tr.composite_loss(x, x.copy())
    assert total == 0.0
    npt.assert_array_equal(per, np.zeros(3))


def test_composite_loss_constant_residuals():
    target = np.zeros((5, 2, 1))
    total, per = tr.composite_loss(target + 2.0, target)
    assert total == 4.0

    t3 = np.zeros((4, 3, 3))
    p3 = t3.copy()
    p3[..., 0] += 1.0
    p3[..., 1] += 2.0
    p3[..., 2] += 3.0
    total, per = tr.composite_loss(p3, t3)
    npt.assert_allclose(per, [1.0, 4.0, 9.0])
    assert total == 14.0


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
        up, _ = tr.composite_loss(pred, target)
        flat[k] = orig - eps
        dn, _ = tr.composite_loss(pred, target)
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

    with pytest.raises(ConfigError):
        tr.clip_gradients(g, 0.0)


# ---------------------------------------------------------------------------
# bptt

def _fd_full_rollout(hidden, f_in, k, taus_value, seed, tol=1e-5,
                     sample_coords=None):
    """Finite-difference check of bptt through a full rollout with the
    tau decisions frozen, so forward replays identically."""
    rng = RngState(seed)
    p = md.init_seq2seq(hidden, f_in, f_in, rng)
    b, t_in = 2, 3
    ctx = randn((b, t_in, f_in), 1.0, rng)
    tgt = randn((b, k, f_in), 1.0, rng)
    if isinstance(taus_value, int):
        taus = np.full((b, k - 1), taus_value, dtype=np.int64)
    else:
        taus = taus_value
    preferred = tgt[:, :-1]
    # random weighted-sum loss keeps the gradients O(1) so central
    # differences stay above roundoff
    weights = randn((b, k, f_in), 1.0, rng)

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
    for name, g, w in zip(tr._TENSOR_NAMES, got, want):
        npt.assert_array_equal(g.view(np.int64), w.view(np.int64), err_msg=name)


@pytest.mark.parametrize("b", [7, 600, md._PROJECTION_ROWS + 52])
def test_rollout_rows_match_single_rows_across_projection_bound(b):
    # 7 rows project all 5 context steps in one GEMM, 600 three steps at
    # a time, and a batch above the bound one step at a time
    slots = md.make_target_slots(2, 2, [0])
    p = md.init_seq2seq(3, 4, 2, RngState(91), target_slots=slots)
    ctx = randn((b, 5, 4), 1.0, RngState(92))
    got = tr.rollout_batch(p, ctx, 3)
    rows = sorted({0, 1, b // 2, b - 2, b - 1})
    for r in rows:
        one = tr.rollout_batch(p, ctx[r:r + 1], 3)
        npt.assert_allclose(got[r:r + 1], one, rtol=0, atol=1e-12)


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
        assert np.shares_memory(a[1], ds.targets)
        npt.assert_array_equal(a[1], ds.targets.reshape(a[1].shape))


def test_half_timescale_groups_shapes():
    splits = make_splits(seed=6, t_in=8, k=4)
    odd, even = tr._half_timescale_groups(splits[0])
    # K=4: odd half holds target steps 1,3 and even half 2,4
    assert odd[1].shape[1] == 2 and even[1].shape[1] == 2
    assert odd[0].shape[1] == 4 and even[0].shape[1] == 4

    splits5 = make_splits(seed=6, t_in=9, k=5)
    odd5, even5 = tr._half_timescale_groups(splits5[0])
    assert odd5[1].shape[1] == 3 and even5[1].shape[1] == 2
    # context parity anchors at the target boundary: the odd-half grid
    # steps backward from the first target with stride 2
    ctx, tgt, _ = tr.flatten_dataset(splits5[0])
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

    empty = dt.Dataset(contexts=np.zeros((0, 4, 2, 2)),
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
