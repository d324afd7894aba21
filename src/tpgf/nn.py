"""LSTM cell and linear projection with hand-derived backward passes.

The model zoo is fixed (one LSTM cell plus one output projection), so
gradients are written out analytically instead of pulling in an autodiff
framework; the finite-difference tests are the safety net.

Gate rows in the stacked weight matrices are ordered (i, f, g, o):
input gate, forget gate, candidate, output gate. The cell is the
standard one without peepholes:

    c' = f * c + i * g
    h' = o * tanh(c')

Every step function works on a batch: activations, states and their
gradients are [B, F] arrays, one row per sample.

Products that do not depend on the recurrence are stacked over time
(the cuDNN recipe, Appleyard et al. 2016, arXiv:1604.01946): the input
projection x @ w_x.T of many steps is one GEMM (input_projection),
each step adds only h @ w_h.T and b, and the weight gradients of a whole
unroll are single GEMMs over the stacked gate gradients. The caches
that make this possible are preallocated [T, B, .] arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .rng import RngState
from .tensor import randn, sigmoid

# standard deviation of every initial weight; biases start at zero
_INIT_SCALE = 0.1


@dataclass
class LstmParams:
    w_x: np.ndarray  # [4C, F_in]
    w_h: np.ndarray  # [4C, C]
    b: np.ndarray  # [4C]

    @property
    def hidden(self) -> int:
        return self.w_h.shape[1]

    @property
    def f_in(self) -> int:
        return self.w_x.shape[1]


@dataclass
class LstmState:
    h: np.ndarray
    c: np.ndarray


@dataclass
class LinearParams:
    w: np.ndarray  # [F_out, C]
    b: np.ndarray  # [F_out]


@dataclass
class LstmCaches:
    """The forward activations of T steps, preallocated time-major.

    Step t reads the state (h[t], c[t]) and writes act[t], h[t + 1] and
    c[t + 1]; h[0] and c[0] hold the initial state. `act` holds the four
    gate activations of a step stacked like the weight rows, until the
    backward pass turns it into their gradients. The backward pass
    recomputes tanh(c[t + 1]) rather than keep it.
    """

    act: np.ndarray  # [T, B, 4C]
    h: np.ndarray  # [T + 1, B, C]
    c: np.ndarray  # [T + 1, B, C]


def init_lstm(hidden: int, f_in: int, rng: RngState) -> LstmParams:
    """Weights ~ _INIT_SCALE * N(0,1), biases zero."""
    return LstmParams(
        w_x=randn((4 * hidden, f_in), _INIT_SCALE, rng),
        w_h=randn((4 * hidden, hidden), _INIT_SCALE, rng),
        b=np.zeros(4 * hidden),
    )


def init_linear(f_out: int, hidden: int, rng: RngState) -> LinearParams:
    return LinearParams(w=randn((f_out, hidden), _INIT_SCALE, rng),
                        b=np.zeros(f_out))


def zero_state(hidden: int, batch: int) -> LstmState:
    return LstmState(h=np.zeros((batch, hidden)), c=np.zeros((batch, hidden)))


def lstm_caches(steps: int, state: LstmState) -> LstmCaches:
    """Room for `steps` steps from `state`, which is copied into slot 0."""
    batch, hidden = state.h.shape
    caches = LstmCaches(act=np.empty((steps, batch, 4 * hidden)),
                        h=np.empty((steps + 1, batch, hidden)),
                        c=np.empty((steps + 1, batch, hidden)))
    caches.h[0] = state.h
    caches.c[0] = state.c
    return caches


def _check_vec(x: np.ndarray, width: int, what: str):
    if x.ndim != 2 or x.shape[1] != width:
        raise DimensionError(
            f"{what} must be [B, {width}], got shape {list(x.shape)}")


def input_projection(x: np.ndarray, p: LstmParams,
                     out: np.ndarray | None = None) -> np.ndarray:
    """x @ w_x.T over the last axis of x, as one GEMM whatever the
    leading axes: a time-major [T, B, F_in] stack gives [T, B, 4C]. The
    result goes into `out`, a contiguous array of its shape, when given.
    The bias is left to lstm_step."""
    if x.ndim < 2 or x.shape[-1] != p.f_in:
        raise DimensionError(
            f"lstm input must be [..., B, {p.f_in}], got shape {list(x.shape)}")
    rows = None if out is None else out.reshape(-1, p.w_x.shape[0])
    xw = np.matmul(x.reshape(-1, p.f_in), p.w_x.T, out=rows)
    return xw.reshape(x.shape[:-1] + (xw.shape[-1],))


def lstm_step(xw: np.ndarray, state: LstmState, p: LstmParams,
              caches: LstmCaches | None = None, t: int = 0) -> LstmState:
    """One forward step from the projected input xw = x @ w_x.T.

    The pre-activation is (xw + h @ w_h.T) + b, associated as in the
    per-step form x @ w_x.T + h @ w_h.T + b. With `caches`, the step's
    activations go into its slot t and the returned state is a view of
    slot t + 1; without, nothing is kept. xw may be the slot
    caches.act[t] itself: it is read before the activations overwrite
    it.
    """
    hidden = p.hidden
    _check_vec(xw, 4 * hidden, "projected lstm input")
    _check_vec(state.h, hidden, "hidden state")
    if state.h.shape != state.c.shape:
        raise DimensionError(
            f"state shapes differ: h {list(state.h.shape)} vs c {list(state.c.shape)}"
        )
    batch = state.h.shape[0]
    if xw.shape[0] != batch:
        raise DimensionError(
            f"lstm input batch {xw.shape[0]} differs from state batch {batch}")
    if caches is None:
        act = np.empty((batch, 4 * hidden))
        h, c = np.empty((batch, hidden)), np.empty((batch, hidden))
    else:
        act, h, c = caches.act[t], caches.h[t + 1], caches.c[t + 1]
    pre = state.h @ p.w_h.T
    pre += xw
    pre += p.b
    # one sigmoid over all four gate blocks, then tanh over the g rows
    sigmoid(pre, out=act)
    np.tanh(pre[:, 2 * hidden:3 * hidden], out=act[:, 2 * hidden:3 * hidden])
    i = act[:, 0 * hidden:1 * hidden]
    f = act[:, 1 * hidden:2 * hidden]
    g = act[:, 2 * hidden:3 * hidden]
    o = act[:, 3 * hidden:4 * hidden]
    np.multiply(f, state.c, out=c)
    c += i * g
    np.multiply(o, np.tanh(c), out=h)
    return LstmState(h=h, c=c)


def lstm_step_backward(grad_h: np.ndarray, grad_c: np.ndarray,
                       caches: LstmCaches, t: int, p: LstmParams) -> LstmState:
    """Exact gradients of step t of a cached unroll.

    Overwrites caches.act[t] with da, the gradient of the step's stacked
    [B, 4C] gate pre-activations: backward runs once per unroll, and no
    later step reads slot t's activations. Returns the gradient flowing
    into the step's input state (h[t], c[t]). The input gradient
    da @ w_x and the weight gradients are left to callers: those of all
    steps are single GEMMs over the stacked da (see recurrent_grads).
    """
    hidden = p.hidden
    if caches.act.shape[-1] != 4 * hidden:
        raise DimensionError(
            f"caches built for hidden={caches.act.shape[-1] // 4}; "
            f"params expect hidden={hidden}")
    act = caches.act[t]
    i = act[:, 0 * hidden:1 * hidden]
    f = act[:, 1 * hidden:2 * hidden]
    g = act[:, 2 * hidden:3 * hidden]
    o = act[:, 3 * hidden:4 * hidden]
    tc = np.tanh(caches.c[t + 1])
    dc = grad_c + grad_h * o * (1.0 - tc * tc)
    dc_prev = dc * f

    # gradients of the activations i, f, g, o, stacked like act
    dact = np.empty_like(act)
    np.multiply(dc, g, out=dact[:, 0 * hidden:1 * hidden])
    np.multiply(dc, caches.c[t], out=dact[:, 1 * hidden:2 * hidden])
    np.multiply(dc, i, out=dact[:, 2 * hidden:3 * hidden])
    np.multiply(grad_h, tc, out=dact[:, 3 * hidden:4 * hidden])
    # through the activations: sigmoid' = a(1-a), tanh' = 1-g^2; the
    # last product lands in act, which becomes da
    d_g = dact[:, 2 * hidden:3 * hidden] * (1.0 - g * g)
    dact *= act
    np.subtract(1.0, act, out=act)
    da = np.multiply(dact, act, out=act)
    da[:, 2 * hidden:3 * hidden] = d_g
    return LstmState(h=da @ p.w_h, c=dc_prev)


def recurrent_grads(da: np.ndarray, caches: LstmCaches):
    """(w_h, b) gradients of all cached steps from their stacked [T, B,
    4C] gate gradients, one GEMM and one sum. The w_x gradient depends
    on how the caller formed the inputs, so it is left to the caller."""
    rows = da.reshape(-1, da.shape[-1])
    h_prev = caches.h[:-1].reshape(-1, caches.h.shape[-1])
    return rows.T @ h_prev, rows.sum(axis=0)


def linear_forward(x: np.ndarray, p: LinearParams) -> np.ndarray:
    """y = x @ W.T + b for a [B, C] batch."""
    _check_vec(x, p.w.shape[1], "linear input")
    return x @ p.w.T + p.b


def linear_backward(grad_y: np.ndarray, x: np.ndarray,
                    p: LinearParams) -> LinearParams:
    """Parameter gradients over every leading axis of the [..., F_out]
    upstream gradients and their [..., C] inputs, one GEMM and one sum.
    The input gradient grad_y @ W is left to callers."""
    if grad_y.shape[-1] != p.w.shape[0] or x.shape[-1] != p.w.shape[1]:
        raise DimensionError(
            f"linear gradients need [..., {p.w.shape[0]}] and inputs "
            f"[..., {p.w.shape[1]}], got {list(grad_y.shape)} and "
            f"{list(x.shape)}")
    rows = grad_y.reshape(-1, grad_y.shape[-1])
    return LinearParams(w=rows.T @ x.reshape(-1, x.shape[-1]),
                        b=rows.sum(axis=0))
