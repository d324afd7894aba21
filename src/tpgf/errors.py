"""Shared exception types; the one table of config rules, single-value
and cross-key, that every config entry point (the dataclasses, the data
and training functions and the CLI) checks its values against; the one
temp-file writer every artifact goes through; and the one binary reader
and writer that checkpoints and data files share."""

import contextlib
import math
import numbers
import os
import struct


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
                     "width", "num_sprites", "speed_min", "speed_max",
                     "seq_length", "seq_count", "sprite_size"), _SIZE),
}

# (attribute names, predicate over their values, rule text) for the rules
# that relate several values; each predicate is False on nan, and an error
# names the first attribute
RULES = (
    (("train_frac", "val_frac", "test_frac"),
     lambda a, b, c: abs(a + b + c - 1.0) <= 1e-9,
     "must sum to 1 with val_frac and test_frac"),
    (("target_channels",),
     lambda cs: 0 < len(cs) == len(set(cs))
     and all(isinstance(c, numbers.Integral) for c in cs),
     "must be distinct integers, at least one"),
    (("target_channels", "channels"), lambda cs, n: all(0 <= c < n for c in cs),
     "must lie in [0, channels)"),
    (("speed_min", "speed_max"), lambda lo, hi: lo <= hi,
     "must be <= speed_max"),
    (("sprite_size", "height", "width"), lambda s, h, w: s <= h and s <= w,
     "must be <= min(height, width)"),
    # one reflection per step keeps a sprite on the grid only this far
    (("speed_max", "height", "width", "sprite_size"),
     lambda v, h, w, s: v + s <= h and v + s <= w,
     "must be <= min(height, width) - sprite_size"),
    *(((span, "t_in", "horizon"), lambda n, t, k: n >= t + k,
       "must be >= t_in + horizon") for span in ("length", "seq_length")),
    (("stage1_iters", "strategy"), lambda s, how: how != "tpg" or s >= 1,
     "must be >= 1 for strategy = tpg"),
    (("stage1_iters", "total_iters", "strategy"),
     lambda s, n, how: how != "tpg" or s < n,
     "must be < total_iters for strategy = tpg"),
    (("horizon", "strategy"), lambda k, how: how != "tpg" or k >= 2,
     "must be >= 2 for strategy = tpg to subsample"),
    (("t_in", "strategy"), lambda t, how: how != "tpg" or t >= 2,
     "must be >= 2 for strategy = tpg to subsample"),
)

# attribute name -> (predicate, rule text, the RULES entries it heads, or None)
_CHECKS = {name: (*RANGES.get(name, (lambda v: True, "")),
                  tuple(r for r in RULES if r[0][0] == name) or None)
           for name in {*RANGES, *(n for names, _, _ in RULES for n in names)}}


def check_ranges(where=None, **values):
    """Raise ConfigError for the first value that breaks its RANGES rule,
    else for the first broken RULES entry whose attributes were all passed.
    A message starts with the (first) attribute's name, or `where[name]`."""
    later = None
    for name, value in values.items():
        test, rule, rules = _CHECKS[name]
        if not test(value):
            raise ConfigError(f"{(where or {}).get(name, name)} must be "
                              f"{rule}, got {value}")
        if rules is not None:
            later = rules if later is None else later + rules
    # every decoder step calls this with one name that heads no entry: keep
    # that to two `is None` tests, and no closure over `values` (a cell each)
    if later is None:
        return
    for names, test, rule in later:
        args = tuple(map(values.get, names))
        if values.keys() >= set(names) and not test(*args):
            got = ", ".join(map("{} = {}".format, names, args))
            raise ConfigError(f"{(where or {}).get(names[0], names[0])} "
                              f"{rule}, got {got}")


@contextlib.contextmanager
def replacing(path, mode: str = "w"):
    """Open a temp file beside `path` for writing, in text ("w": UTF-8,
    LF line ends) or binary ("wb") mode. When the block completes it
    replaces `path`; when anything fails it is removed, so a failed write
    leaves the previous file intact."""
    tmp = f"{path}.tmp"
    text = {} if "b" in mode else {"encoding": "utf-8", "newline": "\n"}
    try:
        with open(tmp, mode, **text) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


_BINARY_HEADER = struct.Struct("<5I")


def write_binary(path, magic: bytes, version: int, dims, payload):
    """Write magic, then `version` and four `dims` as little-endian u32,
    then the bytes of each little-endian array of `payload`, through one
    temp file."""
    with replacing(path, "wb") as fh:
        fh.write(magic + _BINARY_HEADER.pack(version, *dims))
        for array in payload:
            fh.write(array.tobytes())


def read_binary(path, magic: bytes, version: int, names, payload_bytes):
    """(dims, payload memoryview) of a file write_binary wrote. Each dim,
    named by `names`, must be >= 1 and payload_bytes(*dims) bytes follow
    the header. Each fault is a DataFormatError that starts with `path`."""
    with open(path, "rb") as fh:
        blob = fh.read()
    start = len(magic) + _BINARY_HEADER.size
    if len(blob) < start:
        raise DataFormatError(f"{path}: truncated before header end")
    if blob[:len(magic)] != magic:
        raise DataFormatError(f"{path}: bad magic {blob[:len(magic)]!r}")
    got, *dims = _BINARY_HEADER.unpack_from(blob, len(magic))
    if got != version:
        raise DataFormatError(f"{path}: unsupported version {got}")
    for name, size in zip(names, dims):
        if size < 1:
            raise DataFormatError(f"{path}: header {name} must be >= 1, got {size}")
    need = start + payload_bytes(*dims)  # a Python int: no overflow
    if len(blob) != need:
        fault = "truncated" if len(blob) < need else "trailing bytes"
        raise DataFormatError(f"{path}: {fault}: {len(blob)} bytes where "
                              f"the header implies {need}")
    return dims, memoryview(blob)[start:]
