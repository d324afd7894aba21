import math

import numpy as np
import numpy.testing as npt
import pytest

from tpgf.errors import DimensionError
from tpgf import nn
from tpgf.rng import RngState
from tpgf.tensor import randn, sigmoid


def rel_err(a, f):
    return abs(a - f) / max(1e-6, abs(a), abs(f))


def oracle_lstm_step(x, h, c, w_x, w_h, b):
    """Straight-line scalar re-implementation of the gate equations."""
    C = len(h)
    pre = [sum(w_x[r][k] * x[k] for k in range(len(x)))
           + sum(w_h[r][k] * h[k] for k in range(C))
           + b[r] for r in range(4 * C)]

    def sig(v):
        return 1.0 / (1.0 + math.exp(-v))

    h2, c2 = [], []
    for j in range(C):
        i = sig(pre[j])
        f = sig(pre[C + j])
        g = math.tanh(pre[2 * C + j])
        o = sig(pre[3 * C + j])
        cn = f * c[j] + i * g
        c2.append(cn)
        h2.append(o * math.tanh(cn))
    return h2, c2


def make_params(hidden, f_in, seed):
    rng = RngState(seed)
    p = nn.init_lstm(hidden, f_in, rng)
    p.b = randn((4 * hidden,), 0.1, rng)
    return p, rng


def step(x, state, p, caches=None, t=0):
    """A step from raw inputs: the input projection, then the cell."""
    return nn.lstm_step(nn.input_projection(x, p), state, p, caches, t)


def step_cached(x, state, p):
    """One step from raw inputs, kept in one-step caches."""
    caches = nn.lstm_caches(1, state)
    return step(x, state, p, caches), caches


def gates(caches, t=0):
    act = caches.act[t]
    C = act.shape[-1] // 4
    return {name: act[:, k * C:(k + 1) * C] for k, name in enumerate("ifgo")}


def step_backward(gh, gc, caches, x, p):
    """Backward of a one-step unroll: (da, grad_state, grad_params),
    the weight gradients formed the way bptt forms them. da replaces
    the cached activations."""
    gs = nn.lstm_step_backward(gh, gc, caches, 0, p)
    da = caches.act
    g_w_h, g_b = nn.recurrent_grads(da, caches)
    return da[0], gs, nn.LstmParams(w_x=da[0].T @ x, w_h=g_w_h, b=g_b)


def test_zero_params_halve_cell():
    C = 3
    p = nn.LstmParams(w_x=np.zeros((4 * C, 2)), w_h=np.zeros((4 * C, C)),
                      b=np.zeros(4 * C))
    c0 = np.array([[0.4, -1.2, 2.0]])
    state = step(np.array([[5.0, -3.0]]),
                 nn.LstmState(h=np.zeros((1, C)), c=c0.copy()), p)
    npt.assert_allclose(state.c, 0.5 * c0, rtol=0, atol=1e-15)
    npt.assert_allclose(state.h, 0.5 * np.tanh(0.5 * c0), rtol=0, atol=1e-15)


def test_all_zero_inputs():
    C = 2
    p = nn.LstmParams(w_x=np.zeros((4 * C, 3)), w_h=np.zeros((4 * C, C)),
                      b=np.zeros(4 * C))
    state = step(np.zeros((1, 3)), nn.zero_state(C, 1), p)
    npt.assert_array_equal(state.h, np.zeros((1, C)))
    npt.assert_array_equal(state.c, np.zeros((1, C)))


def test_forward_matches_scalar_oracle():
    C, F = 3, 4
    p, rng = make_params(C, F, 11)
    x = randn((1, F), 1.0, rng)
    h = randn((1, C), 1.0, rng)
    c = randn((1, C), 1.0, rng)
    state = step(x, nn.LstmState(h=h, c=c), p)
    oh, oc = oracle_lstm_step(x[0].tolist(), h[0].tolist(), c[0].tolist(),
                              p.w_x.tolist(), p.w_h.tolist(), p.b.tolist())
    npt.assert_allclose(state.h[0], oh, rtol=0, atol=1e-12)
    npt.assert_allclose(state.c[0], oc, rtol=0, atol=1e-12)


def test_gate_ranges():
    C, F = 4, 3
    p, rng = make_params(C, F, 5)
    _, caches = step_cached(randn((1, F), 2.0, rng),
                            nn.LstmState(h=randn((1, C), 1.0, rng),
                                         c=randn((1, C), 1.0, rng)), p)
    g = gates(caches)
    for name in "ifo":
        assert ((g[name] > 0) & (g[name] < 1)).all()
    assert ((g["g"] > -1) & (g["g"] < 1)).all()


def test_gates_equal_per_slice_activations():
    C, F, B = 32, 9, 7
    p, rng = make_params(C, F, 17)
    x = randn((B, F), 3.0, rng)
    state = nn.LstmState(h=randn((B, C), 1.0, rng), c=randn((B, C), 1.0, rng))
    new, caches = step_cached(x, state, p)
    pre = (state.h @ p.w_h.T + x @ p.w_x.T) + p.b
    want = {"i": sigmoid(pre[:, 0 * C:1 * C]), "f": sigmoid(pre[:, 1 * C:2 * C]),
            "g": np.tanh(pre[:, 2 * C:3 * C]), "o": sigmoid(pre[:, 3 * C:4 * C])}
    got = gates(caches)
    for name, gate in want.items():
        npt.assert_array_equal(got[name].view(np.int64),
                               gate.view(np.int64), err_msg=name)
    assert caches.act.shape == (1, B, 4 * C)
    # the returned state is the caches' slot 1, not a copy
    assert np.shares_memory(new.h, caches.h[1])
    assert np.shares_memory(new.c, caches.c[1])
    c_new = want["f"] * state.c + want["i"] * want["g"]
    npt.assert_array_equal(new.c, c_new)
    npt.assert_array_equal(new.h, want["o"] * np.tanh(c_new))


@pytest.mark.parametrize("B", [1, 7, 32, 165])
def test_step_bit_exact_against_expression_form(B):
    # reference: the documented recipe as single expressions, the
    # projected input xw = x @ w_x.T added to h @ w_h.T, then the bias
    C, F = 32, 9
    p, rng = make_params(C, F, 29)
    x = randn((B, F), 3.0, rng)
    state = nn.LstmState(h=randn((B, C), 1.0, rng), c=randn((B, C), 1.0, rng))
    new, caches = step_cached(x, state, p)
    xw = x @ p.w_x.T
    pre = (state.h @ p.w_h.T + xw) + p.b
    act = sigmoid(pre)
    act[:, 2 * C:3 * C] = np.tanh(pre[:, 2 * C:3 * C])
    i, f, g, o = (act[:, k * C:(k + 1) * C] for k in range(4))
    c_new = f * state.c + i * g
    t = np.tanh(c_new)
    npt.assert_array_equal(nn.input_projection(x, p).view(np.int64),
                           xw.view(np.int64))
    want = {"act": (caches.act[0], act),
            "h_prev": (caches.h[0], state.h), "c_prev": (caches.c[0], state.c),
            "h": (caches.h[1], o * t), "c": (caches.c[1], c_new)}
    for name, (got, ref) in want.items():
        npt.assert_array_equal(got.view(np.int64), ref.view(np.int64),
                               err_msg=name)
    # without caches the step computes the same bits
    free = step(x, state, p)
    npt.assert_array_equal(free.c.view(np.int64), c_new.view(np.int64))
    npt.assert_array_equal(free.h.view(np.int64), (o * t).view(np.int64))
    npt.assert_array_equal(new.h.view(np.int64), (o * t).view(np.int64))


def test_batched_step_matches_per_sample():
    C, F, B = 3, 4, 5
    p, rng = make_params(C, F, 23)
    xb = randn((B, F), 1.0, rng)
    hb = randn((B, C), 1.0, rng)
    cb = randn((B, C), 1.0, rng)
    sb = step(xb, nn.LstmState(h=hb, c=cb), p)
    for k in range(B):
        one = slice(k, k + 1)
        sk = step(xb[one], nn.LstmState(h=hb[one], c=cb[one]), p)
        npt.assert_allclose(sb.h[one], sk.h, rtol=0, atol=1e-15)
        npt.assert_allclose(sb.c[one], sk.c, rtol=0, atol=1e-15)


def test_backward_zero_upstream():
    C, F = 2, 3
    p, rng = make_params(C, F, 3)
    x = randn((1, F), 1.0, rng)
    _, caches = step_cached(x, nn.LstmState(h=randn((1, C), 1.0, rng),
                                            c=randn((1, C), 1.0, rng)), p)
    da, gs, gp = step_backward(np.zeros((1, C)), np.zeros((1, C)), caches, x, p)
    assert not da.any() and not gs.h.any() and not gs.c.any()
    assert not gp.w_x.any() and not gp.w_h.any() and not gp.b.any()


def _lstm_loss(x, h, c, p, gh, gc):
    state = step(x, nn.LstmState(h=h, c=c), p)
    return float(np.sum(gh * state.h) + np.sum(gc * state.c))


def _fd_check_lstm(C, F, seed, coords=None, tol=1e-6):
    p, rng = make_params(C, F, seed)
    x = randn((1, F), 1.0, rng)
    h = randn((1, C), 1.0, rng)
    c = randn((1, C), 1.0, rng)
    gh = randn((1, C), 1.0, rng)
    gc = randn((1, C), 1.0, rng)

    _, caches = step_cached(x, nn.LstmState(h=h, c=c), p)
    da, gs, gp = step_backward(gh, gc, caches, x, p)
    gx = da @ p.w_x

    tensors = {
        "x": (x, gx), "h": (h, gs.h), "c": (c, gs.c),
        "w_x": (p.w_x, gp.w_x), "w_h": (p.w_h, gp.w_h), "b": (p.b, gp.b),
    }
    eps = 1e-6
    checked = 0
    for name, (arr, grad) in tensors.items():
        flat = arr.reshape(-1)
        gflat = np.asarray(grad).reshape(-1)
        if coords is None:
            picks = range(flat.size)
        else:
            picks = rng.randint_below(flat.size, coords).tolist()
        for k in picks:
            orig = flat[k]
            flat[k] = orig + eps
            up = _lstm_loss(x, h, c, p, gh, gc)
            flat[k] = orig - eps
            dn = _lstm_loss(x, h, c, p, gh, gc)
            flat[k] = orig
            fd = (up - dn) / (2 * eps)
            assert rel_err(gflat[k], fd) < tol, (
                f"{name}[{k}]: analytic {gflat[k]}, fd {fd}")
            checked += 1
    return checked


def test_backward_fd_single_unit_all_coords():
    # every parameter and input coordinate of a 1-unit cell
    n = _fd_check_lstm(1, 1, seed=101, coords=None, tol=1e-6)
    assert n == 1 + 1 + 1 + 4 + 4 + 4


def test_backward_fd_8unit_sampled():
    _fd_check_lstm(8, 5, seed=202, coords=20, tol=1e-5)


def test_backward_batched_is_sum_of_samples():
    C, F, B = 3, 2, 4
    p, rng = make_params(C, F, 31)
    xb = randn((B, F), 1.0, rng)
    hb = randn((B, C), 1.0, rng)
    cb = randn((B, C), 1.0, rng)
    ghb = randn((B, C), 1.0, rng)
    gcb = randn((B, C), 1.0, rng)
    _, caches = step_cached(xb, nn.LstmState(h=hb, c=cb), p)
    dab, gsb, gpb = step_backward(ghb, gcb, caches, xb, p)
    gxb = dab @ p.w_x

    acc = nn.LstmParams(w_x=np.zeros_like(p.w_x), w_h=np.zeros_like(p.w_h),
                        b=np.zeros_like(p.b))
    for k in range(B):
        one = slice(k, k + 1)
        _, ck = step_cached(xb[one], nn.LstmState(h=hb[one], c=cb[one]), p)
        da, gs, gp = step_backward(ghb[one], gcb[one], ck, xb[one], p)
        gx = da @ p.w_x
        npt.assert_allclose(gxb[one], gx, atol=1e-14)
        npt.assert_allclose(gsb.h[one], gs.h, atol=1e-14)
        acc.w_x += gp.w_x
        acc.w_h += gp.w_h
        acc.b += gp.b
    npt.assert_allclose(gpb.w_x, acc.w_x, atol=1e-12)
    npt.assert_allclose(gpb.w_h, acc.w_h, atol=1e-12)
    npt.assert_allclose(gpb.b, acc.b, atol=1e-12)


def test_backward_bit_exact_against_per_gate_form():
    # reference: the four gate gradients formed one by one and
    # concatenated, with the input gradient from every step
    C, F, B = 32, 9, 7
    p, rng = make_params(C, F, 19)
    state = nn.LstmState(h=randn((B, C), 1.0, rng), c=randn((B, C), 1.0, rng))
    x = randn((B, F), 3.0, rng)
    _, caches = step_cached(x, state, p)
    gh = randn((B, C), 1.0, rng)
    gc = randn((B, C), 1.0, rng)
    g = {name: gate.copy() for name, gate in gates(caches).items()}
    da, gs, gp = step_backward(gh, gc, caches, x, p)
    assert np.shares_memory(da, caches.act)

    t = np.tanh(caches.c[1])
    dc = gc + gh * g["o"] * (1.0 - t * t)
    want = np.concatenate([
        (dc * g["g"]) * g["i"] * (1.0 - g["i"]),
        (dc * state.c) * g["f"] * (1.0 - g["f"]),
        (dc * g["i"]) * (1.0 - g["g"] * g["g"]),
        (gh * t) * g["o"] * (1.0 - g["o"]),
    ], axis=-1)
    for got, ref in ((da, want), (gs.c, dc * g["f"]), (gs.h, want @ p.w_h),
                     (da @ p.w_x, want @ p.w_x), (gp.w_x, want.T @ x),
                     (gp.w_h, want.T @ state.h), (gp.b, want.sum(axis=0))):
        npt.assert_array_equal(got.view(np.int64), ref.view(np.int64))


def test_step_shape_errors():
    p, _ = make_params(2, 3, 1)
    # a raw input must match f_in; a rank-1 input has no batch
    for x in (np.zeros((1, 4)), np.zeros(3)):
        with pytest.raises(DimensionError):
            nn.input_projection(x, p)
    # a projected input must be 4C wide, and the state C wide
    with pytest.raises(DimensionError):
        nn.lstm_step(np.zeros((1, 3)), nn.zero_state(2, 1), p)
    with pytest.raises(DimensionError):
        nn.lstm_step(np.zeros((1, 8)), nn.zero_state(5, 1), p)
    # input and state must carry the same batch; a rank-1 input has none
    for xw in (np.zeros(8), np.zeros((5, 8))):
        with pytest.raises(DimensionError):
            nn.lstm_step(xw, nn.zero_state(2, 4), p)


def test_backward_cache_params_mismatch():
    p, rng = make_params(2, 3, 1)
    _, caches = step_cached(randn((1, 3), 1.0, rng), nn.zero_state(2, 1), p)
    other, _ = make_params(4, 3, 2)
    with pytest.raises(DimensionError):
        nn.lstm_step_backward(np.zeros((1, 4)), np.zeros((1, 4)), caches, 0,
                              other)


def test_linear_identity_and_bias():
    p = nn.LinearParams(w=np.eye(3), b=np.zeros(3))
    x = np.array([[1.0, -2.0, 0.5]])
    npt.assert_array_equal(nn.linear_forward(x, p), x)
    p2 = nn.LinearParams(w=np.zeros((2, 3)), b=np.array([7.0, -1.0]))
    y2 = nn.linear_forward(np.zeros((1, 3)), p2)
    npt.assert_array_equal(y2[0], p2.b)


def test_linear_hand_case():
    p = nn.LinearParams(w=np.array([[1.0, 2.0], [3.0, 4.0]]),
                        b=np.array([1.0, 1.0]))
    y = nn.linear_forward(np.array([[1.0, 1.0]]), p)
    npt.assert_array_equal(y, np.array([[4.0, 8.0]]))


def test_linear_backward_zero_and_bias_identity():
    rng = RngState(77)
    p = nn.init_linear(2, 3, rng)
    x = randn((1, 3), 1.0, rng)
    gp = nn.linear_backward(np.zeros((1, 2)), x, p)
    assert not gp.w.any() and not gp.b.any()

    gy = randn((1, 2), 1.0, rng)
    gp = nn.linear_backward(gy, x, p)
    npt.assert_array_equal(gp.b, gy[0])
    # stacked [T, B, .] rows give the sum of the per-step gradients
    xs = randn((3, 2, 3), 1.0, rng)
    gys = randn((3, 2, 2), 1.0, rng)
    gp = nn.linear_backward(gys, xs, p)
    npt.assert_allclose(gp.w, sum(gys[t].T @ xs[t] for t in range(3)),
                        rtol=0, atol=1e-14)
    npt.assert_allclose(gp.b, gys.sum(axis=(0, 1)), rtol=0, atol=1e-14)
    with pytest.raises(DimensionError):
        nn.linear_backward(gys, xs[..., :2], p)


def test_linear_backward_fd():
    rng = RngState(88)
    p = nn.init_linear(2, 3, rng)
    x = randn((1, 3), 1.0, rng)
    gy = randn((1, 2), 1.0, rng)
    gx = gy @ p.w
    gp = nn.linear_backward(gy, x, p)

    def loss():
        return float(np.sum(gy * nn.linear_forward(x, p)))

    eps = 1e-6
    for arr, grad in ((x, gx), (p.w, gp.w), (p.b, gp.b)):
        flat = arr.reshape(-1)
        gflat = np.asarray(grad).reshape(-1)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + eps
            up = loss()
            flat[k] = orig - eps
            dn = loss()
            flat[k] = orig
            fd = (up - dn) / (2 * eps)
            assert rel_err(gflat[k], fd) < 1e-8
