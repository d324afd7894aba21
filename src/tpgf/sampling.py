"""Decoder-input selection: the decay schedules that set the coin-flip
probability, and the half-timescale subsampling used by the two-stage
curriculum. The coin flips themselves are drawn in `training`.

Conventions fixed here and relied on everywhere else:
  - time positions are 1-based for parity purposes; position 1 is odd
  - the sequence index v for decoder step s (1-based) is v = s + 1, so
    the first replaceable decoder input has v = 2
  - epsilon is the probability of picking the preferred source (ground
    truth, or the intermediate model during the transition stage); with
    probability 1 - epsilon the decoder consumes its own prediction
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError, check_ranges

# exp() overflows float64 just above 709; past this the epsilon value
# underflows to 0 anyway
_MAX_EXPONENT = 700.0


class Strategy(enum.Enum):
    TEACHER_FORCING = "teacher_forcing"
    SCHEDULED_SAMPLING = "scheduled_sampling"
    TPG = "tpg"


@dataclass
class ScheduleConfig:
    strategy: Strategy
    lam: float = 100.0
    index_aware: bool = True
    stage1_iters: int = 0

    def __post_init__(self):
        check_ranges(lam=self.lam, stage1_iters=self.stage1_iters,
                     strategy=self.strategy.value)


def _decayed(i: int, lam: float, rate: float) -> float:
    """lam / (lam + exp(i * rate / lam)), clipped to 0 when exp would
    overflow."""
    if i < 0:
        raise ConfigError(f"batch index must be non-negative, got {i}")
    e = i * rate / lam
    if e > _MAX_EXPONENT:
        return 0.0
    return lam / (lam + math.exp(e))


def inverse_sigmoid_epsilon(i: int, lam: float) -> float:
    """lam / (lam + exp(i / lam)), clipped to 0 when exp would overflow."""
    return _decayed(i, lam, 1)


def index_aware_epsilon(i: int, v: int, lam: float) -> float:
    """lam / (lam + exp(i * log(v) / lam)); faster decay the deeper into
    the horizon the step sits."""
    if v < 2:
        raise ConfigError(f"sequence index must be >= 2, got {v}")
    return _decayed(i, lam, math.log(v))


def epsilon_for(config: ScheduleConfig, i: int, v: int) -> float:
    """Probability of the preferred source at global batch i, sequence
    index v, under the configured strategy."""
    if config.strategy is Strategy.TEACHER_FORCING:
        return 1.0
    if config.strategy is Strategy.SCHEDULED_SAMPLING:
        return inverse_sigmoid_epsilon(i, config.lam)
    # two-stage curriculum: full preference until the transition starts
    if i < config.stage1_iters:
        return 1.0
    j = i - config.stage1_iters
    if config.index_aware:
        return index_aware_epsilon(j, v, config.lam)
    return inverse_sigmoid_epsilon(j, config.lam)


def subsample_odd_even(seq: np.ndarray):
    """Split along the leading time axis into 1-based odd positions
    (1, 3, 5, ...) and even positions; order preserved."""
    seq = np.asarray(seq)
    if seq.shape[0] < 1:
        raise DimensionError("cannot subsample an empty sequence")
    return seq[0::2], seq[1::2]


def interleave_odd_even(odd: np.ndarray, even: np.ndarray) -> np.ndarray:
    """Inverse of subsample_odd_even: each half is written into the
    parity slots that subsample_odd_even takes of the result, as the
    two-stage curriculum's m1 precompute writes its two rollouts."""
    odd = np.asarray(odd)
    even = np.asarray(even)
    n_odd, n_even = odd.shape[0], even.shape[0]
    if n_odd - n_even not in (0, 1):
        raise DimensionError(
            f"cannot interleave lengths {n_odd} (odd) and {n_even} (even)")
    if odd.shape[1:] != even.shape[1:] and n_even > 0:
        raise DimensionError(
            f"interleave trailing shapes differ: {list(odd.shape[1:])} vs "
            f"{list(even.shape[1:])}")
    out = np.empty((n_odd + n_even,) + odd.shape[1:], dtype=odd.dtype)
    slots_odd, slots_even = subsample_odd_even(out)
    slots_odd[...] = odd
    slots_even[...] = even
    return out
