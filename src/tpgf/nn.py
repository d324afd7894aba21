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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .rng import RngState
from .tensor import randn, sigmoid, tanh


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
class StepCache:
    """Everything the matching backward call needs, nothing recomputed.

    `act` holds the four gate activations stacked like the weight rows;
    i, f, g and o are views into it.
    """

    x: np.ndarray
    h_prev: np.ndarray
    c_prev: np.ndarray
    act: np.ndarray
    i: np.ndarray
    f: np.ndarray
    g: np.ndarray
    o: np.ndarray
    c_new: np.ndarray
    tanh_c_new: np.ndarray


def init_lstm(hidden: int, f_in: int, rng: RngState, scale: float = 0.1) -> LstmParams:
    """Weights ~ scale * N(0,1), biases zero."""
    return LstmParams(
        w_x=randn((4 * hidden, f_in), scale, rng),
        w_h=randn((4 * hidden, hidden), scale, rng),
        b=np.zeros(4 * hidden),
    )


def init_linear(f_out: int, hidden: int, rng: RngState, scale: float = 0.1) -> LinearParams:
    return LinearParams(w=randn((f_out, hidden), scale, rng), b=np.zeros(f_out))


def zero_state(hidden: int, batch: int) -> LstmState:
    return LstmState(h=np.zeros((batch, hidden)), c=np.zeros((batch, hidden)))


def _check_vec(x: np.ndarray, width: int, what: str):
    if x.ndim != 2 or x.shape[1] != width:
        raise DimensionError(
            f"{what} must be [B, {width}], got shape {list(x.shape)}")


def lstm_step(x: np.ndarray, state: LstmState, p: LstmParams):
    """One forward step; returns (next_state, cache)."""
    hidden = p.hidden
    _check_vec(x, p.f_in, "lstm input")
    _check_vec(state.h, hidden, "hidden state")
    if state.h.shape != state.c.shape:
        raise DimensionError(
            f"state shapes differ: h {list(state.h.shape)} vs c {list(state.c.shape)}"
        )
    if x.shape[0] != state.h.shape[0]:
        raise DimensionError(
            f"lstm input batch {x.shape[0]} differs from state batch "
            f"{state.h.shape[0]}")
    # in place, in the order of x @ w_x.T + h @ w_h.T + b, so same bits
    pre = x @ p.w_x.T
    pre += state.h @ p.w_h.T
    pre += p.b
    # one sigmoid over all four gate blocks, then tanh over the g rows
    act = sigmoid(pre)
    act[..., 2 * hidden:3 * hidden] = tanh(pre[..., 2 * hidden:3 * hidden])
    i = act[..., 0 * hidden:1 * hidden]
    f = act[..., 1 * hidden:2 * hidden]
    g = act[..., 2 * hidden:3 * hidden]
    o = act[..., 3 * hidden:4 * hidden]
    c_new = f * state.c
    c_new += i * g
    t = np.tanh(c_new)
    cache = StepCache(x=x, h_prev=state.h, c_prev=state.c, act=act,
                      i=i, f=f, g=g, o=o, c_new=c_new, tanh_c_new=t)
    return LstmState(h=o * t, c=c_new), cache


def lstm_step_backward(grad_h: np.ndarray, grad_c: np.ndarray,
                       cache: StepCache, p: LstmParams):
    """Exact gradients of one step.

    Returns (grad_pre, grad_state, grad_params). grad_pre is the
    gradient of the stacked [B, 4C] gate pre-activations; the input
    gradient is grad_pre @ p.w_x, left to callers that need it.
    grad_state is the gradient flowing into the previous step's (h, c).
    """
    hidden = p.hidden
    if cache.i.shape[-1] != hidden or cache.x.shape[-1] != p.f_in:
        raise DimensionError(
            f"cache built for hidden={cache.i.shape[-1]}, f_in={cache.x.shape[-1]}; "
            f"params expect hidden={hidden}, f_in={p.f_in}"
        )
    t = cache.tanh_c_new
    dc = grad_c + grad_h * cache.o * (1.0 - t * t)
    dc_prev = dc * cache.f

    # gradients of the activations i, f, g, o, stacked like cache.act
    da = np.empty_like(cache.act)
    np.multiply(dc, cache.g, out=da[..., 0 * hidden:1 * hidden])
    np.multiply(dc, cache.c_prev, out=da[..., 1 * hidden:2 * hidden])
    np.multiply(dc, cache.i, out=da[..., 2 * hidden:3 * hidden])
    np.multiply(grad_h, t, out=da[..., 3 * hidden:4 * hidden])
    # through the activations: sigmoid' = a(1-a), tanh' = 1-g^2
    d_g = da[..., 2 * hidden:3 * hidden] * (1.0 - cache.g * cache.g)
    da *= cache.act
    da *= 1.0 - cache.act
    da[..., 2 * hidden:3 * hidden] = d_g

    dh_prev = da @ p.w_h
    grad_params = LstmParams(w_x=da.T @ cache.x, w_h=da.T @ cache.h_prev,
                             b=da.sum(axis=0))
    return da, LstmState(h=dh_prev, c=dc_prev), grad_params


def linear_forward(x: np.ndarray, p: LinearParams):
    """y = W x + b; returns (y, cache)."""
    _check_vec(x, p.w.shape[1], "linear input")
    return x @ p.w.T + p.b, x


def linear_backward(grad_y: np.ndarray, cache: np.ndarray, p: LinearParams):
    x = cache
    _check_vec(grad_y, p.w.shape[0], "linear upstream gradient")
    grad_x = grad_y @ p.w
    grad_params = LinearParams(w=grad_y.T @ x, b=grad_y.sum(axis=0))
    return grad_x, grad_params
