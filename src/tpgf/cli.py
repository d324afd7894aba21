"""Command line front end.

Four subcommands cover the experiment lifecycle: `generate` writes the
dataset files, `train` fits a model and emits curves plus checkpoints,
`evaluate` scores a checkpoint on the test split, and `compare` joins
several evaluated runs into one table.

Configs are flat UTF-8 `key = value` files with `#` comments. Unknown
keys are rejected and every error names the offending key and line. The
resolved config (defaults included) is echoed into the output directory
so any artifact can be reproduced from the echo alone.

Exit codes: 0 success, 2 config error, 3 runtime error. Each command
imports what it needs when it runs: `training` and the modules only it
loads take about 12 ms to import (2-vCPU Xeon), which `generate` skips.
"""

import argparse
import dataclasses
import math
import os
import sys
import zlib

from .errors import (RANGES, RULES, ConfigError, DataFormatError,
                     DimensionError, DivergenceError, check_ranges, replacing)

# key, attribute, kind, default. Order fixes the echo layout.
_SCHEMA = [
    ("out_dir", "out_dir", "str", "out"),
    ("seed", "seed", "int", 0),
    ("dataset", "dataset", "choice:multinode,sprites", "multinode"),
    ("strategy", "strategy",
     "choice:teacher_forcing,scheduled_sampling,tpg", "scheduled_sampling"),
    ("lambda", "lam", "float", 200.0),
    ("index_aware", "index_aware", "bool", True),
    ("stage1_iters", "stage1_iters", "int", 0),
    ("hidden", "hidden", "int", 32),
    ("learning_rate", "learning_rate", "float", 0.01),
    ("batch_size", "batch_size", "int", 32),
    ("total_iters", "total_iters", "int", 2000),
    ("clip_norm", "clip_norm", "float", 5.0),
    ("val_every", "val_every", "int", 50),
    ("warm_start_m2", "warm_start_m2", "bool", True),
    ("t_in", "t_in", "int", 24),
    ("horizon", "horizon", "int", 12),
    ("stride", "stride", "int", 1),
    ("train_frac", "train_frac", "float", 0.8),
    ("val_frac", "val_frac", "float", 0.1),
    ("test_frac", "test_frac", "float", 0.1),
    ("nodes", "nodes", "int", 10),
    ("channels", "channels", "int", 9),
    ("length", "length", "int", 2000),
    ("coupling", "coupling", "float", 0.5),
    ("noise", "noise", "float", 0.1),
    ("target_channels", "target_channels", "ints", (0, 1, 2)),
    ("height", "height", "int", 16),
    ("width", "width", "int", 16),
    ("num_sprites", "num_sprites", "int", 1),
    ("speed_min", "speed_min", "int", 1),
    ("speed_max", "speed_max", "int", 2),
    ("seq_length", "seq_length", "int", 40),
    ("seq_count", "seq_count", "int", 200),
    ("sprite_size", "sprite_size", "int", 5),
    ("checkpoint", "checkpoint", "str", ""),
]

# dataset family -> the keys `generate` reads for it, which data/meta.txt
# records: the shared ones, then the family's own
_SHARED = ("dataset", "seed", "t_in", "horizon", "train_frac", "val_frac",
           "test_frac")
_GENERATOR_KEYS = {
    "multinode": (*_SHARED, "nodes", "channels", "length", "coupling",
                  "noise", "stride"),
    "sprites": (*_SHARED, "height", "width", "num_sprites", "speed_min",
                "speed_max", "seq_length", "seq_count", "sprite_size"),
}

_FIELDS = {key: (attr, kind) for key, attr, kind, _ in _SCHEMA}
_KIND_TYPES = {"int": int, "float": float, "bool": bool,
               "ints": tuple}

# one field per schema row, in schema order; "str" and "choice:" are str
ExperimentConfig = dataclasses.make_dataclass(
    "ExperimentConfig",
    [(attr, _KIND_TYPES.get(kind, str)) for _, attr, kind, _ in _SCHEMA])


def _number(kind, text: str):
    """kind(text) for kind int or float, refusing the non-ASCII digits
    and '_' separators those accept; raises ValueError."""
    if not text.isascii() or "_" in text:
        raise ValueError("a number is ASCII, without '_'")
    return kind(text)


def _convert(kind: str, text: str, where: str):
    """The value of one config text; `where` starts the error message.
    Numbers follow _number, and no item of a list is empty."""
    try:
        if kind == "int":
            return _number(int, text)
        if kind == "float":
            return _number(float, text)
        if kind == "bool":
            low = text.lower()
            if low not in ("true", "false"):
                raise ValueError("expected true or false")
            return low == "true"
        if kind == "ints":
            return (tuple(_number(int, part) for part in text.split(","))
                    if text else ())
        if kind.startswith("choice:"):
            options = kind.split(":", 1)[1].split(",")
            if text not in options:
                raise ValueError(f"expected one of {', '.join(options)}")
            return text
        return text
    except ValueError as exc:
        raise ConfigError(f"{where} bad value {text!r} ({exc})")


def _read_pairs(path, keys, error, hint: str) -> dict:
    """The `key = value` lines of a UTF-8 file as {key: (line, text)}.

    `#` starts a comment. An unreadable file, a line without `=`, a key
    not in `keys` and a repeated key raise `error`, naming `path:line`
    where there is one, with `hint` appended.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise error(f"cannot read {path} ({exc.strerror}){hint}") from None
    except UnicodeDecodeError as exc:
        raise error(f"{path} is not UTF-8 text ({exc}){hint}") from None
    pairs = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise error(f"{path}:{lineno}: expected 'key = value', "
                        f"got {line!r}{hint}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in keys:
            raise error(f"{path}:{lineno}: unknown key '{key}'{hint}")
        if key in pairs:
            raise error(f"{path}:{lineno}: duplicate key '{key}' "
                        f"(first set on line {pairs[key][0]}){hint}")
        pairs[key] = (lineno, val.strip())
    return pairs


def _write_lines(path, lines) -> None:
    """Write text lines through errors.replacing's temp file."""
    with replacing(path) as fh:
        fh.writelines(lines)


def _write_pairs(path, pairs) -> None:
    """Write (key, text) pairs as `key = value` lines."""
    _write_lines(path, (f"{key} = {text}\n" for key, text in pairs))


def parse_config(path: str) -> ExperimentConfig:
    """Read and validate a flat key = value config file."""
    return _parse_config(path)[0]


def _parse_config(path: str):
    """parse_config's config, and {key: the start of an error message
    about it}: the file's path, the key and the line that sets it."""
    pairs = _read_pairs(path, _FIELDS, ConfigError, "")
    where = {key: f"{path}: key '{key}'"
             + (f" (line {pairs[key][0]}):" if key in pairs else ":")
             for key in _FIELDS}
    values = {key: _convert(_FIELDS[key][1], text, where[key])
              for key, (_, text) in pairs.items()}

    fields = {}
    for key, attr, _, default in _SCHEMA:
        fields[attr] = values.get(key, default)
    cfg = ExperimentConfig(**fields)
    _validate(cfg, {attr: where[key] for key, attr, _, _ in _SCHEMA})
    return cfg, where


def _validate(cfg: ExperimentConfig, where: dict) -> None:
    """Check every rule, naming a broken one's key and line by `where`."""
    for _, attr, _, _ in _SCHEMA:
        if attr in RANGES:
            check_ranges(where, **{attr: getattr(cfg, attr)})
    # generate has no file to write for an empty split
    for attr in ("train_frac", "val_frac", "test_frac"):
        if getattr(cfg, attr) == 0:
            raise ConfigError(f"{where[attr]} must be > 0, got "
                              f"{getattr(cfg, attr)}")
    # a family is not held to the rules of the keys it does not read
    unread = (set().union(*_GENERATOR_KEYS.values())
              - set(_GENERATOR_KEYS[cfg.dataset]))
    for names, _, _ in RULES:
        if unread.isdisjoint(names):
            check_ranges(where, **{n: getattr(cfg, n) for n in names})


def _format_value(kind: str, value) -> str:
    if kind == "bool":
        return "true" if value else "false"
    if kind == "ints":
        return ",".join(str(v) for v in value)
    if kind == "float":
        return repr(float(value))
    return str(value)


def _config_pairs(cfg: ExperimentConfig, keys):
    """(key, text) of the named config keys, as the echo writes them."""
    return [(key, _format_value(_FIELDS[key][1], getattr(cfg, _FIELDS[key][0])))
            for key in keys]


def write_echo(cfg: ExperimentConfig, out_dir: str) -> str:
    """Persist the fully resolved config; the echo re-parses to cfg."""
    path = os.path.join(out_dir, "config.echo")
    _write_pairs(path, _config_pairs(cfg, _FIELDS))
    return path


# ---------------------------------------------------------------------------
# config -> module objects

def _train_config(cfg: ExperimentConfig):
    from .sampling import ScheduleConfig, Strategy
    from .training import TrainConfig
    schedule = ScheduleConfig(strategy=Strategy(cfg.strategy), lam=cfg.lam,
                              index_aware=cfg.index_aware,
                              stage1_iters=cfg.stage1_iters)
    return TrainConfig(schedule=schedule, hidden=cfg.hidden,
                       learning_rate=cfg.learning_rate,
                       batch_size=cfg.batch_size,
                       total_iters=cfg.total_iters, clip_norm=cfg.clip_norm,
                       warm_start_m2=cfg.warm_start_m2, seed=cfg.seed,
                       val_every=cfg.val_every)


def _data_dir(cfg: ExperimentConfig) -> str:
    return os.path.join(cfg.out_dir, "data")


_SPLIT_NAMES = ("train", "val", "test")


def _dataset_paths(cfg: ExperimentConfig):
    return [os.path.join(_data_dir(cfg), f"{name}.frames")
            for name in _SPLIT_NAMES]


def _meta_path(cfg: ExperimentConfig) -> str:
    return os.path.join(_data_dir(cfg), "meta.txt")


_META_KEYS = {*set().union(*_GENERATOR_KEYS.values()),
              *(f"{name}_{fact}" for name in _SPLIT_NAMES
                for fact in ("windows", "crc32"))}


def _crc32(path) -> str:
    """The CRC-32 of a file's bytes, as meta.txt records it."""
    with open(path, "rb") as fh:
        return "%08x" % zlib.crc32(fh.read())


def _load_splits(cfg: ExperimentConfig, names=_SPLIT_NAMES):
    """Load generated files and window the named datasets, in order.

    meta.txt must record the config's value of every key `generate`
    reads, and the CRC-32 and window count of each loaded split. A file
    is checked against its CRC-32 after its reader has parsed it, so a
    malformed file keeps the reader's message. Both families are frame
    files; a multinode file is one sequence, its split's series z-scored
    with the training statistics, so its windows are the model's inputs
    as loaded, marked normalized, and only the named files are read.
    """
    from . import data as dt

    paths = dict(zip(_SPLIT_NAMES, _dataset_paths(cfg)))
    missing = [paths[n] for n in names if not os.path.exists(paths[n])]
    if missing:
        raise FileNotFoundError(
            f"dataset file {missing[0]} not found; run `tpgf generate` "
            f"with this config first")
    meta = _meta_path(cfg)
    rerun = "rerun `tpgf generate` with this config"
    pairs = _read_pairs(meta, _META_KEYS, DataFormatError, f"; {rerun}")

    def expect(key, want, source):
        if key not in pairs:
            raise DataFormatError(f"{meta}: no '{key}' line; {rerun}")
        lineno, text = pairs[key]
        if text != want:
            raise DataFormatError(f"{meta}:{lineno}: key '{key}': {text!r} "
                                  f"does not match {want!r} from {source}; "
                                  f"{rerun}")

    for key, text in _config_pairs(cfg, _GENERATOR_KEYS[cfg.dataset]):
        expect(key, text, "the config")
    parts, sprites = [], cfg.dataset == "sprites"
    for name in names:
        path = paths[name]
        source = dt.load_frame_sequences(path)
        expect(f"{name}_crc32", _crc32(path), path)
        part = (dt.windowize_sequences(source, cfg.t_in, cfg.horizon,
                                       grid=(cfg.height, cfg.width))
                if sprites else
                dt.windowize(source[0], cfg.t_in, cfg.horizon, cfg.stride,
                             target_channels=list(cfg.target_channels)))
        expect(f"{name}_windows", str(len(part)), path)
        part.meta.normalized = not sprites
        parts.append(part)
    return tuple(parts)


# ---------------------------------------------------------------------------
# CSV plumbing

_CURVE_HEADER = "iter,split,metric,value"


def _write_metric_csv(rows, path) -> None:
    _write_lines(path, [f"{_CURVE_HEADER}\n"] + [
        f"{r.iteration},{r.split},{r.metric},{r.value:.17g}\n" for r in rows])


def _read_metric_csv(path):
    from .training import MetricsRow
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise DataFormatError(f"cannot read metrics {path}: {exc}")
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"metrics {path} is not UTF-8 text ({exc})") from None
    lines = text.splitlines()
    if not lines or lines[0] != _CURVE_HEADER:
        raise DataFormatError(f"{path}: expected header '{_CURVE_HEADER}'")
    rows = []
    for lineno, line in enumerate(lines[1:], 2):
        parts = line.split(",")
        if len(parts) != 4:
            raise DataFormatError(f"{path}:{lineno}: expected 4 fields, "
                                  f"got {len(parts)}")
        try:
            rows.append(MetricsRow(_number(int, parts[0]), parts[1],
                                   parts[2], _number(float, parts[3])))
        except ValueError as exc:
            raise DataFormatError(f"{path}:{lineno}: {exc}") from None
        if not math.isfinite(rows[-1].value):
            raise DataFormatError(
                f"{path}:{lineno}: non-finite value {parts[3]!r}")
    return rows


# ---------------------------------------------------------------------------
# commands

def cmd_generate(cfg: ExperimentConfig, where: dict) -> int:
    """Write the data files; `where` names a config key in errors, as
    _parse_config returns it."""
    from . import data as dt

    data_dir = _data_dir(cfg)
    os.makedirs(data_dir, exist_ok=True)
    paths = _dataset_paths(cfg)

    if cfg.dataset == "multinode":
        source = dt.gen_multinode_series(cfg.nodes, cfg.channels, cfg.length,
                                         cfg.coupling, cfg.noise, cfg.seed)
        ds = dt.windowize(source, cfg.t_in, cfg.horizon, cfg.stride,
                          target_channels=list(cfg.target_channels))
    else:
        source = dt.gen_moving_sprites(cfg.height, cfg.width, cfg.num_sprites,
                                       (cfg.speed_min, cfg.speed_max),
                                       cfg.seq_length, cfg.seed,
                                       count=cfg.seq_count,
                                       sprite_size=cfg.sprite_size)
        ds = dt.windowize_sequences(source, cfg.t_in, cfg.horizon,
                                    grid=(cfg.height, cfg.width))
    parts = dt.split(ds, (cfg.train_frac, cfg.val_frac, cfg.test_frac),
                     where)
    if cfg.dataset == "multinode":
        parts = dt.normalize(*parts)
    for part, path in zip(parts, paths):
        # a series segment [T, N, F] is one sequence of (N, F) frames
        dt.write_frame_sequences(
            part.source.reshape(-1, *part.source.shape[-3:]), path)
    dropped = len(ds) - sum(map(len, parts))

    counts = {name: len(part) for name, part in zip(_SPLIT_NAMES, parts)}
    # the benchmark reads the `test_windows` line. The files' checksums
    # come last and are CRC-32s: they catch an edited or swapped file,
    # and importing hashlib for sha256 adds 3.49 MB of OpenSSL to each
    # command's peak RSS
    _write_pairs(_meta_path(cfg), [
        *_config_pairs(cfg, _GENERATOR_KEYS[cfg.dataset]),
        *((f"{name}_windows", counts[name]) for name in _SPLIT_NAMES),
        *((f"{name}_crc32", _crc32(path))
          for name, path in zip(_SPLIT_NAMES, paths))])
    for name in _SPLIT_NAMES:
        print(f"{name}: {counts[name]} samples")
    if dropped:
        print(f"dropped {dropped} boundary windows")
    return 0


def cmd_train(cfg: ExperimentConfig) -> int:
    from . import model as md
    from . import training as tr

    splits = _load_splits(cfg)
    tcfg = _train_config(cfg)
    curves_path = os.path.join(cfg.out_dir, "curves.csv")

    try:
        if cfg.strategy == "tpg":
            m1, m2, curves = tr.train_tpg(splits, tcfg)
            md.save_checkpoint(m1, os.path.join(cfg.out_dir, "m1.ckpt"))
            md.save_checkpoint(m2, os.path.join(cfg.out_dir, "m2.ckpt"))
        else:
            p = tr.init_model(splits[0], tcfg)
            p, curves = tr.train_scheduled(p, splits, tcfg)
            md.save_checkpoint(p, os.path.join(cfg.out_dir, "model.ckpt"))
    except DivergenceError as exc:
        # keep what the run produced so far, then report the failure
        _write_metric_csv(exc.curves, curves_path)
        md.save_checkpoint(exc.params, os.path.join(cfg.out_dir, "best.ckpt"))
        raise

    _write_metric_csv(curves, curves_path)
    # the last row wins: for tf and ss, the kept parameters' evaluation
    final = {r.metric: r.value for r in curves
             if r.iteration == cfg.total_iters and r.split == "test"
             and r.metric in ("loss", "rmse", "mae")}
    for metric, value in final.items():
        print(f"test {metric}: {value:.6g}")
    return 0


def _checkpoint_path(cfg: ExperimentConfig) -> str:
    if cfg.checkpoint:
        if os.path.isabs(cfg.checkpoint):
            return cfg.checkpoint
        return os.path.join(cfg.out_dir, cfg.checkpoint)
    name = "m2.ckpt" if cfg.strategy == "tpg" else "model.ckpt"
    return os.path.join(cfg.out_dir, name)


def cmd_evaluate(cfg: ExperimentConfig) -> int:
    from . import model as md
    from . import training as tr

    path = _checkpoint_path(cfg)
    if not os.path.exists(path):
        raise FileNotFoundError(f"checkpoint {path} not found; run "
                                f"`tpgf train` with this config first")
    p = md.load_checkpoint(path)
    test, = _load_splits(cfg, ("test",))
    f_in = test.contexts.shape[2] * test.contexts.shape[3]
    if p.f_in != f_in:
        raise DimensionError(
            f"checkpoint {path} expects {p.f_in} input features per step, "
            f"dataset provides {f_in}")
    slots = md.make_target_slots(test.contexts.shape[2],
                                 test.contexts.shape[3],
                                 test.meta.target_channels).tolist()
    if p.target_slots.tolist() != slots:
        raise DimensionError(
            f"checkpoint {path} predicts input slots "
            f"{p.target_slots.tolist()}, config target_channels give {slots}")

    rows = tr.evaluate(p, test, "test", cfg.total_iters)
    rows += tr.evaluate_horizon(p, test, "test", cfg.total_iters)
    _write_metric_csv(rows, os.path.join(cfg.out_dir, "metrics.csv"))
    for r in rows:
        if r.metric in ("loss", "rmse", "mae", "ssim"):
            print(f"test {r.metric}: {r.value:.6g}")
    return 0


_HIGHER_BETTER = ("ssim",)


def _is_horizon_metric(name: str) -> bool:
    for prefix in ("rmse.h", "mae.h"):
        if name.startswith(prefix) and name[len(prefix):].isdigit():
            return True
    return False


def cmd_compare(cfgs, labels, out_dir: str) -> int:
    runs = []
    for cfg, label in zip(cfgs, labels):
        path = os.path.join(cfg.out_dir, "metrics.csv")
        if not os.path.exists(path):
            raise FileNotFoundError(
                f"run '{label}': {path} not found; run `tpgf evaluate` first")
        metrics = {}
        for lineno, r in enumerate(_read_metric_csv(path), 2):
            if r.split == "test" and not _is_horizon_metric(r.metric):
                if r.metric in metrics:
                    raise DataFormatError(f"{path}:{lineno}: repeated row "
                                          f"for test metric '{r.metric}'")
                metrics[r.metric] = r.value
        runs.append((cfg.strategy, metrics))

    columns = list(runs[0][1])
    for label, (_, metrics) in zip(labels, runs):
        if set(metrics) != set(runs[0][1]):
            raise ConfigError(
                f"run '{label}' reports a different metric set; re-evaluate "
                f"the runs with matching configs")

    best = {}
    for m in columns:
        values = [metrics[m] for _, metrics in runs]
        best[m] = max(values) if m in _HIGHER_BETTER else min(values)

    os.makedirs(out_dir, exist_ok=True)
    _write_lines(os.path.join(out_dir, "comparison.csv"), [
        ",".join(["strategy", *columns]) + "\n",
        *(",".join([strategy] + [f"{metrics[m]:.17g}" for m in columns]) + "\n"
          for strategy, metrics in runs)])

    cells = [["strategy"] + columns]
    for strategy, metrics in runs:
        row = [strategy]
        for m in columns:
            flag = "*" if metrics[m] == best[m] else ""
            row.append(f"{metrics[m]:.6g}{flag}")
        cells.append(row)
    widths = [max(len(row[j]) for row in cells) for j in range(len(cells[0]))]
    rendered = "\n".join(
        "  ".join(cell.ljust(widths[j]) for j, cell in enumerate(row)).rstrip()
        for row in cells) + "\n"
    _write_lines(os.path.join(out_dir, "comparison.txt"), [rendered])
    print(rendered, end="")
    return 0


# ---------------------------------------------------------------------------
# entry point

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tpgf",
        description="Seq2Seq forecasting with progressive sampling curricula")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
            ("generate", "write the dataset files for a config"),
            ("train", "fit a model and emit curves and checkpoints"),
            ("evaluate", "score a checkpoint on the test split"),
            ("compare", "join several evaluated runs into one table")):
        cmd = sub.add_parser(name, help=helptext)
        cmd.add_argument("--config", action="append", required=True,
                         metavar="PATH", help="experiment config file; "
                         "repeat for compare")
        cmd.add_argument("--seed", default=None,
                         help="override the config seed")
        cmd.add_argument("--out", default=None,
                         help="override the config output directory")
    return parser


def _dispatch(args) -> int:
    if args.seed is not None:
        args.seed = _convert("int", args.seed, "--seed:")
        check_ranges({"seed": "--seed"}, seed=args.seed)

    if args.command == "compare":
        if len(args.config) < 2:
            raise ConfigError("compare needs at least two --config runs")
        cfgs = [parse_config(path) for path in args.config]
        labels = [os.path.splitext(os.path.basename(p))[0]
                  for p in args.config]
        out_dir = args.out if args.out else cfgs[0].out_dir
        return cmd_compare(cfgs, labels, out_dir)

    if len(args.config) != 1:
        raise ConfigError(f"{args.command} takes exactly one --config")
    cfg, where = _parse_config(args.config[0])
    if args.seed is not None:
        cfg.seed = args.seed
    if args.out is not None:
        cfg.out_dir = args.out
    os.makedirs(cfg.out_dir, exist_ok=True)
    write_echo(cfg, cfg.out_dir)
    if args.command == "generate":
        return cmd_generate(cfg, where)
    if args.command == "train":
        return cmd_train(cfg)
    return cmd_evaluate(cfg)


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return _dispatch(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DataFormatError, DimensionError, DivergenceError,
            FloatingPointError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
