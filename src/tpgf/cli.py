"""Command line front end.

Four subcommands cover the experiment lifecycle: `generate` writes the
dataset files, `train` fits a model and emits curves plus checkpoints,
`evaluate` scores a checkpoint on the test split, and `compare` joins
several evaluated runs into one table.

Configs are flat UTF-8 `key = value` files with `#` comments. Unknown
keys are rejected and every error names the offending key and line. The
resolved config (defaults included) is echoed into the output directory
so any artifact can be reproduced from the echo alone.

Exit codes: 0 success, 2 config error, 3 runtime error. The env var
TPGF_THREADS caps the thread pools of the numeric backend; it must be
set before the process starts heavy work, so `main` applies it first.
"""

import argparse
import dataclasses
import os
import sys

from .errors import (RANGES, ConfigError, DataFormatError, DimensionError,
                     DivergenceError, check_ranges)

_U64_MAX = 2 ** 64 - 1

# key, attribute, kind, default. Order fixes the echo layout.
_SCHEMA = [
    ("out_dir", "out_dir", "str", "out"),
    ("seed", "seed", "u64", 0),
    ("dataset", "dataset", "choice:multinode,sprites", "multinode"),
    ("strategy", "strategy",
     "choice:teacher_forcing,scheduled_sampling,tpg", "scheduled_sampling"),
    ("lambda", "lam", "float", 200.0),
    ("index_aware", "index_aware", "bool", True),
    ("stage1_iters", "stage1_iters", "int", 0),
    ("transition_iters", "transition_iters", "int", 0),
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

_KIND_TYPES = {"u64": int, "int": int, "float": float, "bool": bool,
               "ints": tuple}

# one field per schema row, in schema order; "str" and "choice:" are str
ExperimentConfig = dataclasses.make_dataclass(
    "ExperimentConfig",
    [(attr, _KIND_TYPES.get(kind, str)) for _, attr, kind, _ in _SCHEMA])


def _convert(key: str, kind: str, text: str, where: str):
    try:
        if kind == "int" or kind == "u64":
            value = int(text)
            if kind == "u64" and not 0 <= value <= _U64_MAX:
                raise ValueError("outside the unsigned 64-bit range")
            return value
        if kind == "float":
            return float(text)
        if kind == "bool":
            low = text.lower()
            if low not in ("true", "false"):
                raise ValueError("expected true or false")
            return low == "true"
        if kind == "ints":
            return tuple(int(part.strip()) for part in text.split(",")
                         if part.strip())
        if kind.startswith("choice:"):
            options = kind.split(":", 1)[1].split(",")
            if text not in options:
                raise ValueError(f"expected one of {', '.join(options)}")
            return text
        return text
    except ValueError as exc:
        raise ConfigError(f"{where}: key '{key}': bad value {text!r} ({exc})")


def parse_config(path: str) -> ExperimentConfig:
    """Read and validate a flat key = value config file."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8 text ({exc})") from None

    kinds = {key: kind for key, _, kind, _ in _SCHEMA}
    values = {}
    lines = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', "
                              f"got {line!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in kinds:
            raise ConfigError(f"{path}:{lineno}: unknown key '{key}'")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key '{key}' "
                              f"(first set on line {lines[key]})")
        values[key] = _convert(key, kinds[key], val, f"{path}:{lineno}")
        lines[key] = lineno

    fields = {}
    for key, attr, _, default in _SCHEMA:
        fields[attr] = values.get(key, default)
    cfg = ExperimentConfig(**fields)
    _validate(cfg, lines, path)
    return cfg


def _validate(cfg: ExperimentConfig, lines: dict, path: str) -> None:
    def where(key):
        loc = f" (line {lines[key]})" if key in lines else ""
        return f"{path}: key '{key}'{loc}:"

    def fail(key, msg):
        raise ConfigError(f"{where(key)} {msg}")

    for key, attr, _, _ in _SCHEMA:
        if attr in RANGES:
            check_ranges(where(key), **{attr: getattr(cfg, attr)})
    fracs = (cfg.train_frac, cfg.val_frac, cfg.test_frac)
    if abs(sum(fracs) - 1.0) > 1e-9:
        fail("train_frac", "train_frac + val_frac + test_frac must sum to 1, "
             f"got {fracs}")
    for key, frac in zip(("train_frac", "val_frac", "test_frac"), fracs):
        if frac == 0:
            fail(key, f"must be > 0, got {frac}")
    if not cfg.target_channels:
        fail("target_channels", "must name at least one channel")
    if len(set(cfg.target_channels)) != len(cfg.target_channels):
        fail("target_channels", f"must be distinct, got {cfg.target_channels}")
    if cfg.dataset == "multinode":
        for c in cfg.target_channels:
            if not 0 <= c < cfg.channels:
                fail("target_channels",
                     f"channel {c} out of range for channels = {cfg.channels}")
    if cfg.dataset == "sprites":
        if cfg.speed_min < 1 or cfg.speed_min > cfg.speed_max:
            fail("speed_min", f"need 1 <= speed_min <= speed_max, got "
                 f"{cfg.speed_min}..{cfg.speed_max}")
        travel = min(cfg.height, cfg.width) - cfg.sprite_size
        if travel < 0:
            fail("sprite_size", f"must fit the {cfg.height}x{cfg.width} "
                 f"grid, got {cfg.sprite_size}")
        if cfg.speed_max > travel:
            fail("speed_max", f"must be <= min(height, width) - sprite_size "
                 f"= {travel}, got {cfg.speed_max}")
    span = "length" if cfg.dataset == "multinode" else "seq_length"
    if getattr(cfg, span) < cfg.t_in + cfg.horizon:
        fail(span, f"must cover t_in + horizon = {cfg.t_in + cfg.horizon}, "
             f"got {getattr(cfg, span)}")

    if cfg.strategy == "tpg":
        if cfg.stage1_iters < 1:
            fail("stage1_iters", "strategy = tpg requires stage1_iters >= 1")
        if cfg.stage1_iters >= cfg.total_iters:
            fail("stage1_iters", f"must be < total_iters = {cfg.total_iters}")
        if cfg.horizon < 2:
            fail("horizon", "strategy = tpg needs horizon >= 2 to subsample")
        if cfg.transition_iters == 0:
            cfg.transition_iters = cfg.total_iters - cfg.stage1_iters
        elif cfg.stage1_iters + cfg.transition_iters != cfg.total_iters:
            fail("transition_iters",
                 f"stage1_iters + transition_iters must equal total_iters "
                 f"({cfg.stage1_iters} + {cfg.transition_iters} != "
                 f"{cfg.total_iters})")


def _format_value(kind: str, value) -> str:
    if kind == "bool":
        return "true" if value else "false"
    if kind == "ints":
        return ",".join(str(v) for v in value)
    if kind == "float":
        return repr(float(value))
    return str(value)


def write_echo(cfg: ExperimentConfig, out_dir: str) -> str:
    """Persist the fully resolved config; the echo re-parses to cfg."""
    path = os.path.join(out_dir, "config.echo")
    rows = []
    for key, attr, kind, _ in _SCHEMA:
        rows.append(f"{key} = {_format_value(kind, getattr(cfg, attr))}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(rows) + "\n")
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
    ext = "csv" if cfg.dataset == "multinode" else "frames"
    return [os.path.join(_data_dir(cfg), f"{name}.{ext}")
            for name in _SPLIT_NAMES]


def _load_splits(cfg: ExperimentConfig, names=_SPLIT_NAMES):
    """Load generated files and rebuild the named datasets, in order.

    A multinode dataset is normalized with the training split's
    statistics, so its training file is read whatever the names.
    """
    from . import data as dt

    paths = dict(zip(_SPLIT_NAMES, _dataset_paths(cfg)))
    wanted = tuple(names)
    if cfg.dataset == "multinode" and "train" not in wanted:
        wanted = ("train",) + wanted
    missing = [paths[n] for n in wanted if not os.path.exists(paths[n])]
    if missing:
        raise FileNotFoundError(
            f"dataset file {missing[0]} not found; run `tpgf generate` "
            f"with this config first")
    if cfg.dataset == "multinode":
        parts = []
        for name in wanted:
            raw = dt.load_series_csv(paths[name])
            parts.append(dt.windowize(raw, cfg.t_in, cfg.horizon, cfg.stride,
                                      target_channels=list(cfg.target_channels)))
        return dt.normalize(*parts)[len(wanted) - len(names):]
    parts = []
    for name in wanted:
        seqs = dt.load_frame_sequences(paths[name])
        parts.append(dt.windowize_sequences(seqs, cfg.t_in, cfg.horizon,
                                            grid=(cfg.height, cfg.width)))
    return tuple(parts)


# ---------------------------------------------------------------------------
# CSV plumbing

_CURVE_HEADER = "iter,split,metric,value"


def _write_metric_csv(rows, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_CURVE_HEADER + "\n")
        for r in rows:
            fh.write(f"{r.iteration},{r.split},{r.metric},{r.value:.17g}\n")


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
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise DataFormatError(f"{path}:{lineno}: expected 4 fields, "
                                  f"got {len(parts)}")
        try:
            rows.append(MetricsRow(int(parts[0]), parts[1], parts[2],
                                   float(parts[3])))
        except ValueError as exc:
            raise DataFormatError(f"{path}:{lineno}: {exc}") from None
    return rows


# ---------------------------------------------------------------------------
# commands

def cmd_generate(cfg: ExperimentConfig) -> int:
    from . import data as dt

    data_dir = _data_dir(cfg)
    os.makedirs(data_dir, exist_ok=True)
    paths = _dataset_paths(cfg)

    if cfg.dataset == "multinode":
        raw = dt.gen_multinode_series(cfg.nodes, cfg.channels, cfg.length,
                                      cfg.coupling, cfg.noise, cfg.seed)
        ds = dt.windowize(raw, cfg.t_in, cfg.horizon, cfg.stride,
                          target_channels=list(cfg.target_channels))
        parts = dt.split(ds, (cfg.train_frac, cfg.val_frac, cfg.test_frac))
        window = cfg.t_in + cfg.horizon
        for part, path in zip(parts, paths):
            starts = part.meta.window_starts
            segment = raw[int(starts[0]):int(starts[-1]) + window]
            dt.write_series_csv(segment, path)
        dropped = parts[0].meta.dropped_windows
    else:
        seqs = dt.gen_moving_sprites(cfg.height, cfg.width, cfg.num_sprites,
                                     (cfg.speed_min, cfg.speed_max),
                                     cfg.seq_length, cfg.seed,
                                     count=cfg.seq_count,
                                     sprite_size=cfg.sprite_size)
        ds = dt.windowize_sequences(seqs, cfg.t_in, cfg.horizon,
                                    grid=(cfg.height, cfg.width))
        parts = dt.split(ds, (cfg.train_frac, cfg.val_frac, cfg.test_frac))
        offset = 0
        for part, path in zip(parts, paths):
            n = len(part)
            dt.write_frame_sequences(seqs[offset:offset + n], path)
            offset += n
        dropped = 0

    counts = {name: len(part) for name, part in zip(_SPLIT_NAMES, parts)}
    meta_path = os.path.join(data_dir, "meta.txt")
    with open(meta_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"dataset = {cfg.dataset}\n")
        for name in _SPLIT_NAMES:
            fh.write(f"{name}_windows = {counts[name]}\n")
        fh.write(f"dropped_windows = {dropped}\n")
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
    final = [r for r in curves if r.iteration == cfg.total_iters
             and r.split == "test" and r.metric in ("loss", "rmse", "mae")]
    for r in final:
        print(f"test {r.metric}: {r.value:.6g}")
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
        rows = _read_metric_csv(path)
        metrics = {}
        order = []
        for r in rows:
            if r.split == "test" and not _is_horizon_metric(r.metric):
                if r.metric not in metrics:
                    order.append(r.metric)
                metrics[r.metric] = r.value
        runs.append((cfg.strategy, metrics, order))

    columns = runs[0][2]
    for label, (_, metrics, _) in zip(labels, runs):
        if set(metrics) != set(runs[0][1]):
            raise ConfigError(
                f"run '{label}' reports a different metric set; re-evaluate "
                f"the runs with matching configs")

    best = {}
    for m in columns:
        values = [metrics[m] for _, metrics, _ in runs]
        best[m] = max(values) if m in _HIGHER_BETTER else min(values)

    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "comparison.csv")
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("strategy," + ",".join(columns) + "\n")
        for strategy, metrics, _ in runs:
            cells = [f"{metrics[m]:.17g}" for m in columns]
            fh.write(",".join([strategy] + cells) + "\n")

    cells = [["strategy"] + columns]
    for strategy, metrics, _ in runs:
        row = [strategy]
        for m in columns:
            flag = "*" if metrics[m] == best[m] else ""
            row.append(f"{metrics[m]:.6g}{flag}")
        cells.append(row)
    widths = [max(len(row[j]) for row in cells) for j in range(len(cells[0]))]
    rendered = "\n".join(
        "  ".join(cell.ljust(widths[j]) for j, cell in enumerate(row)).rstrip()
        for row in cells) + "\n"
    with open(os.path.join(out_dir, "comparison.txt"), "w",
              encoding="utf-8", newline="\n") as fh:
        fh.write(rendered)
    print(rendered, end="")
    return 0


# ---------------------------------------------------------------------------
# entry point

def _apply_thread_cap() -> None:
    cap = os.environ.get("TPGF_THREADS")
    if cap is None:
        return
    if not cap.isdigit() or int(cap) < 1:
        raise ConfigError(f"TPGF_THREADS must be a positive integer, "
                          f"got {cap!r}")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[var] = cap


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
        cmd.add_argument("--seed", type=int, default=None,
                         help="override the config seed")
        cmd.add_argument("--out", default=None,
                         help="override the config output directory")
    return parser


def _dispatch(args) -> int:
    if args.seed is not None and not 0 <= args.seed <= _U64_MAX:
        raise ConfigError(f"--seed must be in [0, 2^64), got {args.seed}")

    if args.command == "compare":
        if len(args.config) < 2:
            raise ConfigError("compare needs at least two --config runs")
        cfgs = [parse_config(path) for path in args.config]
        for cfg in cfgs:
            if args.seed is not None:
                cfg.seed = args.seed
        labels = [os.path.splitext(os.path.basename(p))[0]
                  for p in args.config]
        out_dir = args.out if args.out else cfgs[0].out_dir
        return cmd_compare(cfgs, labels, out_dir)

    if len(args.config) != 1:
        raise ConfigError(f"{args.command} takes exactly one --config")
    cfg = parse_config(args.config[0])
    if args.seed is not None:
        cfg.seed = args.seed
    if args.out is not None:
        cfg.out_dir = args.out
    os.makedirs(cfg.out_dir, exist_ok=True)
    write_echo(cfg, cfg.out_dir)
    if args.command == "generate":
        return cmd_generate(cfg)
    if args.command == "train":
        return cmd_train(cfg)
    return cmd_evaluate(cfg)


def main(argv=None) -> int:
    try:
        _apply_thread_cap()
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
