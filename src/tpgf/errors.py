"""Shared exception types, and the one table of single-value range rules
that every config entry point (the dataclasses, the data functions and
the CLI) checks its values against."""

import math
import numbers


class ConfigError(ValueError):
    """Invalid configuration value or violated precondition."""


class DimensionError(ValueError):
    """Tensor shapes incompatible with the requested operation."""


class DataFormatError(ValueError):
    """Malformed dataset, checkpoint, or config file."""


class DivergenceError(RuntimeError):
    """Training produced non-finite values.

    Carries the best parameters and curves seen so far, so callers can
    retain the last usable checkpoint.
    """

    def __init__(self, message, params=None, curves=None):
        super().__init__(message)
        self.params = params
        self.curves = curves


# every predicate is False on nan
_POSITIVE = (lambda v: math.isfinite(v) and v > 0, "finite and > 0")
_NON_NEGATIVE = (lambda v: math.isfinite(v) and v >= 0, "finite and >= 0")
_UNIT = (lambda v: math.isfinite(v) and 0 <= v <= 1, "finite and in [0, 1]")
_COUNT = (lambda v: isinstance(v, numbers.Integral) and v >= 0,
          "an integer >= 0")
_SIZE = (lambda v: isinstance(v, numbers.Integral) and v >= 1,
         "an integer >= 1")

# attribute name -> (predicate, rule text)
RANGES = {
    "seed": (lambda v: isinstance(v, numbers.Integral) and 0 <= v < 2 ** 64,
             "an integer in [0, 2^64)"),
    **dict.fromkeys(("lam", "learning_rate", "clip_norm"), _POSITIVE),
    "noise": _NON_NEGATIVE,
    **dict.fromkeys(("coupling", "train_frac", "val_frac", "test_frac"), _UNIT),
    **dict.fromkeys(("total_iters", "stage1_iters"), _COUNT),
    **dict.fromkeys(("hidden", "batch_size", "val_every", "t_in", "horizon",
                     "stride", "nodes", "channels", "length", "height",
                     "width", "num_sprites", "seq_length", "seq_count",
                     "sprite_size"), _SIZE),
}


def check_ranges(where=None, **values):
    """Raise ConfigError for the first value that breaks its RANGES rule.

    The message names the attribute, or starts with `where` instead
    when given.
    """
    for name, value in values.items():
        test, rule = RANGES[name]
        if not test(value):
            raise ConfigError(f"{where or name} must be {rule}, got {value}")
