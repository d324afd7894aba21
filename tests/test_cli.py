import contextlib
import io
import math
import os
import struct
import subprocess
import sys
import tempfile
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from test_acceptance import CLI_CFG
from tpgf import cli
from tpgf import data as dt
from tpgf import model as md
from tpgf import sampling as sp
from tpgf import training as tr
from tpgf.errors import RANGES, RULES, ConfigError, check_ranges


def write_cfg(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


BASE = """
dataset = multinode
nodes = 3
channels = 3
length = 260
coupling = 0.4
noise = 0.05
target_channels = 0,1
t_in = 8
horizon = 4
stride = 2
hidden = 6
batch_size = 8
total_iters = 50
val_every = 25
lambda = 20.0
seed = 3
"""


def make_run(tmp_path, name, extra=""):
    out = tmp_path / name
    cfg = write_cfg(tmp_path / f"{name}.cfg",
                    BASE + f"out_dir = {out}\n" + extra)
    return cfg, out


# ---------------------------------------------------------------------------
# config parsing

def test_empty_config_gives_defaults_and_full_echo(tmp_path):
    cfg_path = write_cfg(tmp_path / "empty.cfg", "")
    cfg = cli.parse_config(cfg_path)
    assert cfg.hidden == 32 and cfg.strategy == "scheduled_sampling"

    cfg.out_dir = str(tmp_path)
    echo = cli.write_echo(cfg, str(tmp_path))
    lines = [l for l in open(echo, encoding="utf-8") if l.strip()]
    assert len(lines) == len(cli._SCHEMA)
    assert cli.parse_config(echo) == cfg


def test_bad_lambda_names_key_and_line(tmp_path):
    cfg_path = write_cfg(tmp_path / "bad.cfg", "hidden = 4\nlambda = -1\n")
    with pytest.raises(ConfigError) as ei:
        cli.parse_config(cfg_path)
    msg = str(ei.value)
    assert "lambda" in msg and "line 2" in msg


def _sprites(h=16, w=16, speeds=(1, 2), size=5):
    return lambda: dt.gen_moving_sprites(h, w, 1, speeds, 40, seed=0,
                                         sprite_size=size)


def _windows(length=40, channels=9, targets=(0, 1, 2)):
    return lambda: dt.windowize(np.zeros((length, 1, channels)), 24, 12,
                                target_channels=list(targets))


def _tpg(stage1, total=2000, horizon=12, t_in=24):
    def train():
        schedule = sp.ScheduleConfig(strategy=sp.Strategy.TPG,
                                     stage1_iters=stage1)
        cfg = tr.TrainConfig(schedule=schedule, total_iters=total)
        windows = dt.windowize(np.zeros((40, 1, 1)), t_in, horizon)
        tr.train_tpg((windows, None, None), cfg)
    return train


# a config breaking one rule; what parse_config says after the file name;
# the library entry point that checks the same rule, given the same values
@pytest.mark.parametrize("text, want, library", [
    ("length = 20\n",
     "key 'length' (line 1): must be >= t_in + horizon, got length = 20, "
     "t_in = 24, horizon = 12", _windows(length=20)),
    ("dataset = sprites\nheight = 4\nwidth = 6\nsprite_size = 5\n",
     "key 'sprite_size' (line 4): must be <= min(height, width), got "
     "sprite_size = 5, height = 4, width = 6", _sprites(4, 6)),
    ("train_frac = 0.0\nval_frac = 0.5\ntest_frac = 0.5\n",
     "key 'train_frac' (line 1): must be > 0, got 0.0", None),
    ("val_frac = 0.0\ntest_frac = 0.2\n",
     "key 'val_frac' (line 1): must be > 0, got 0.0", None),
    ("val_frac = 0.2\ntest_frac = 0\n",
     "key 'test_frac' (line 2): must be > 0, got 0.0", None),
    ("dataset = sprites\nheight = 8\nwidth = 6\nsprite_size = 3\n"
     "speed_max = 4\n",
     "key 'speed_max' (line 5): must be <= min(height, width) - sprite_size, "
     "got speed_max = 4, height = 8, width = 6, sprite_size = 3",
     _sprites(8, 6, (1, 4), 3)),
    ("train_frac = 0.5\nval_frac = 0.2\ntest_frac = 0.2\n",
     "key 'train_frac' (line 1): must sum to 1 with val_frac and test_frac, "
     "got train_frac = 0.5, val_frac = 0.2, test_frac = 0.2",
     lambda: dt.split(_windows()(), (0.5, 0.2, 0.2))),
    ("target_channels =\n",
     "key 'target_channels' (line 1): must be distinct integers, at least "
     "one, got target_channels = ()", _windows(targets=())),
    ("target_channels = 0,0\n",
     "key 'target_channels' (line 1): must be distinct integers, at least "
     "one, got target_channels = (0, 0)", _windows(targets=(0, 0))),
    ("channels = 2\ntarget_channels = 0,2\n",
     "key 'target_channels' (line 2): must lie in [0, channels), got "
     "target_channels = (0, 2), channels = 2",
     _windows(channels=2, targets=(0, 2))),
    ("dataset = sprites\nspeed_min = 3\nspeed_max = 2\n",
     "key 'speed_min' (line 2): must be <= speed_max, got speed_min = 3, "
     "speed_max = 2", _sprites(speeds=(3, 2))),
    ("dataset = sprites\nspeed_min = 0\n",
     "key 'speed_min' (line 2): must be an integer >= 1, got 0",
     _sprites(speeds=(0, 2))),
    ("dataset = sprites\nseq_length = 30\n",
     "key 'seq_length' (line 2): must be >= t_in + horizon, got "
     "seq_length = 30, t_in = 24, horizon = 12",
     lambda: dt.windowize_sequences(np.zeros((1, 30, 4, 4)), 24, 12,
                                    grid=(4, 4))),
    ("strategy = tpg\nstage1_iters = 0\n",
     "key 'stage1_iters' (line 2): must be >= 1 for strategy = tpg, got "
     "stage1_iters = 0, strategy = tpg",
     lambda: sp.ScheduleConfig(strategy=sp.Strategy.TPG, stage1_iters=0)),
    ("strategy = tpg\nstage1_iters = 50\ntotal_iters = 50\n",
     "key 'stage1_iters' (line 2): must be < total_iters for strategy = tpg, "
     "got stage1_iters = 50, total_iters = 50, strategy = tpg",
     _tpg(50, total=50)),
    ("strategy = tpg\nstage1_iters = 5\nhorizon = 1\n",
     "key 'horizon' (line 3): must be >= 2 for strategy = tpg to subsample, "
     "got horizon = 1, strategy = tpg", _tpg(5, horizon=1)),
    ("strategy = tpg\nstage1_iters = 5\nt_in = 1\n",
     "key 't_in' (line 3): must be >= 2 for strategy = tpg to subsample, "
     "got t_in = 1, strategy = tpg", _tpg(5, t_in=1)),
    # int() and float() alone accept any Unicode digit and '_' separators
    ("hidden = \u0661\u0662\n",
     "key 'hidden' (line 1): bad value '\u0661\u0662' (a number is ASCII, "
     "without '_')", None),
    ("seed = 1\ntotal_iters = 1_000\n",
     "key 'total_iters' (line 2): bad value '1_000' (a number is ASCII, "
     "without '_')", None),
    ("lambda = 2_0.5\n",
     "key 'lambda' (line 1): bad value '2_0.5' (a number is ASCII, without "
     "'_')", None),
    ("target_channels = 0,,2,\n",
     "key 'target_channels' (line 1): bad value '0,,2,' (invalid literal "
     "for int() with base 10: '')", None),
], ids=["length", "sprite_size", "train_frac", "val_frac", "test_frac",
        "speed_max", "fraction_sum", "no_target_channel",
        "repeated_target_channel", "target_channel", "speed_order",
        "speed_zero", "seq_length", "stage1_zero", "stage1_iters",
        "tpg_horizon", "tpg_t_in", "non_ascii_int", "underscore_int",
        "underscore_float", "empty_list_item"])
def test_data_shape_errors_name_key_and_line(tmp_path, text, want, library):
    cfg_path = write_cfg(tmp_path / "shape.cfg", text)
    with pytest.raises(ConfigError) as ei:
        cli.parse_config(cfg_path)
    assert str(ei.value) == f"{cfg_path}: {want}"
    if library is not None:
        key = want.split("'")[1]
        rule = want.split("): ", 1)[1].split(", got ")[0]
        with pytest.raises(ConfigError) as ei:
            library()
        assert str(ei.value).startswith(f"{key} {rule}, got ")


# the config's text before out_dir, and what follows the file name in the
# error: the fraction's key and line, and the split that got no window
@pytest.mark.parametrize("text, want", [
    (BASE + "val_frac = 0.0\ntest_frac = 0.2\n",
     "key 'val_frac' (line 18): must be > 0, got 0.0"),
    (BASE + "val_frac = 1e-12\ntest_frac = 0.2\n",
     "key 'val_frac' (line 18): split fraction 1e-12 produced an empty "
     "partition: the val split gets none of the 125 windows"),
    ("length = 30\nt_in = 10\nhorizon = 5\ntrain_frac = 0.6\n"
     "val_frac = 0.2\ntest_frac = 0.2\n",
     "key 'val_frac' (line 5): split fraction 0.2 produced an empty "
     "partition: the val split gets none of the 16 windows"),
], ids=["zero", "tiny", "short_series"])
def test_generate_rejects_empty_split(tmp_path, capsys, text, want):
    out = tmp_path / "empty"
    cfg_path = write_cfg(tmp_path / "empty.cfg", text + f"out_dir = {out}\n")
    assert cli.main(["generate", "--config", cfg_path]) == 2
    assert f"error: {cfg_path}: {want}\n" == capsys.readouterr().err
    assert not (out / "data" / "val.frames").exists()


def test_every_range_rule_rejects_nan_and_inf():
    for name in RANGES:
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ConfigError, match=f"^{name} must be"):
                check_ranges(**{name: bad})
    # values that keep every cross-key rule; nan in any number breaks it
    good = dict(train_frac=0.8, val_frac=0.1, test_frac=0.1,
                target_channels=(0, 1), channels=3, speed_min=1, speed_max=2,
                sprite_size=5, height=16, width=16, length=40, seq_length=40,
                t_in=24, horizon=12, stage1_iters=5, total_iters=50,
                strategy="tpg")
    for names, test, _ in RULES:
        assert test(*(good[n] for n in names)), names
        for bad in set(names) - {"strategy"}:
            nan = (0, math.nan) if bad == "target_channels" else math.nan
            assert not test(*(nan if n == bad else good[n] for n in names)), \
                (names, bad)


def test_every_rule_reads_config_attributes():
    # so parse_config can check every rule, and name the key and line
    attrs = {attr for _, attr, _, _ in cli._SCHEMA}
    named = {*RANGES, *(n for names, _, _ in RULES for n in names)}
    assert named <= attrs, named - attrs


@pytest.mark.parametrize("key, value", [
    ("noise", "nan"), ("noise", "inf"), ("train_frac", "nan"),
    ("lambda", "inf"), ("lambda", "nan"),
])
def test_non_finite_value_names_key_and_line(tmp_path, capsys, key, value):
    # nan passes every comparison-based bound, and inf passes a lower one
    out = tmp_path / "nonfinite"
    base = "".join(line + "\n" for line in BASE.splitlines()
                   if line.split(" = ")[0] != key)
    cfg_path = write_cfg(tmp_path / "nonfinite.cfg",
                         f"{key} = {value}\nout_dir = {out}\n{base}")
    assert cli.main(["generate", "--config", cfg_path]) == 2
    err = capsys.readouterr().err
    assert f"{cfg_path}: key '{key}' (line 1): must be finite" in err
    assert not (out / "data").exists()


def test_repeated_target_channel_names_key_and_line(tmp_path, capsys):
    # a repeated channel gave two different rmse.ch0 rows in metrics.csv
    out = tmp_path / "dup"
    text = BASE.replace("target_channels = 0,1", "target_channels = 0,0")
    cfg_path = write_cfg(tmp_path / "dup.cfg", text + f"out_dir = {out}\n")
    assert cli.main(["generate", "--config", cfg_path]) == 2
    err = capsys.readouterr().err
    assert f"{cfg_path}: key 'target_channels' (line 8): must be distinct" in err


def test_tpg_cross_field_error(tmp_path):
    cfg_path = write_cfg(tmp_path / "x.cfg",
                         "strategy = tpg\nstage1_iters = 0\n")
    with pytest.raises(ConfigError) as ei:
        cli.parse_config(cfg_path)
    assert "stage1_iters" in str(ei.value)


@pytest.mark.parametrize("dataset", ["multinode", "sprites"])
def test_tpg_with_one_context_frame_exits_2(tmp_path, capsys, dataset):
    # stage 1's odd half holds every other context frame: none of one
    out = tmp_path / "tin"
    base = BASE if dataset == "multinode" else SPRITES
    text = "".join(("t_in = 1" if line.startswith("t_in =") else line) + "\n"
                   for line in base.splitlines())
    cfg_path = write_cfg(tmp_path / "tin.cfg", text + f"out_dir = {out}\n"
                         "strategy = tpg\nstage1_iters = 2\n")
    line = text.splitlines().index("t_in = 1") + 1
    for command in ("generate", "train", "evaluate"):
        assert cli.main([command, "--config", cfg_path]) == 2
        assert capsys.readouterr().err == (
            f"error: {cfg_path}: key 't_in' (line {line}): must be >= 2 for "
            f"strategy = tpg to subsample, got t_in = 1, strategy = tpg\n")
    assert not (out / "data").exists()


def test_transition_iters_is_an_unknown_key(tmp_path):
    # stage 2 always runs total_iters - stage1_iters, so no key sets it
    cfg_path = write_cfg(tmp_path / "t.cfg",
                         "strategy = tpg\nstage1_iters = 30\n"
                         "total_iters = 80\ntransition_iters = 50\n")
    with pytest.raises(ConfigError) as ei:
        cli.parse_config(cfg_path)
    assert str(ei.value) == f"{cfg_path}:4: unknown key 'transition_iters'"

    cfg = cli.parse_config(write_cfg(
        tmp_path / "g.cfg", "strategy = tpg\nstage1_iters = 30\n"))
    echo = Path(cli.write_echo(cfg, str(tmp_path))).read_text()
    assert "stage1_iters = 30\n" in echo and "transition_iters" not in echo


def test_unknown_duplicate_and_type_errors(tmp_path):
    with pytest.raises(ConfigError) as ei:
        cli.parse_config(write_cfg(tmp_path / "u.cfg", "wat = 1\n"))
    assert "unknown key 'wat'" in str(ei.value) and ":1" in str(ei.value)

    with pytest.raises(ConfigError) as ei:
        cli.parse_config(write_cfg(tmp_path / "d.cfg",
                                   "hidden = 4\nhidden = 5\n"))
    assert "duplicate" in str(ei.value)

    with pytest.raises(ConfigError) as ei:
        cli.parse_config(write_cfg(tmp_path / "t.cfg", "hidden = soup\n"))
    assert "key 'hidden' (line 1)" in str(ei.value)


def test_comments_and_blank_lines(tmp_path):
    cfg = cli.parse_config(write_cfg(
        tmp_path / "c.cfg", "# comment\n\nhidden = 9  # trailing\n"))
    assert cfg.hidden == 9


def test_missing_config_file(tmp_path):
    assert cli.main(["train", "--config", str(tmp_path / "nope.cfg")]) == 2


def test_non_utf8_config_file(tmp_path, capsys):
    path = tmp_path / "latin1.cfg"
    path.write_bytes(b"# caf\xe9\nhidden = 4\n")
    assert cli.main(["train", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and "UTF-8" in err


# ---------------------------------------------------------------------------
# generate

def test_generate_multinode_counts(tmp_path, capsys):
    cfg_path, out = make_run(tmp_path, "gen")
    assert cli.main(["generate", "--config", cfg_path]) == 0
    for name in ("train", "val", "test"):
        assert (out / "data" / f"{name}.frames").exists()

    # counts printed and recorded must match an in-memory split
    cfg = cli.parse_config(cfg_path)
    raw = dt.gen_multinode_series(cfg.nodes, cfg.channels, cfg.length,
                                  cfg.coupling, cfg.noise, cfg.seed)
    ds = dt.windowize(raw, cfg.t_in, cfg.horizon, cfg.stride,
                      target_channels=list(cfg.target_channels))
    parts = dt.split(ds, (0.8, 0.1, 0.1))
    meta = (out / "data" / "meta.txt").read_text()
    printed = capsys.readouterr().out
    for name, part in zip(("train", "val", "test"), parts):
        assert f"{name}_windows = {len(part)}" in meta
        assert f"{name}: {len(part)} samples" in printed
    # the window counts, then the CRC-32 of each file's bytes: no
    # statistics line
    assert meta.splitlines()[-6:] == [
        *(f"{name}_windows = {len(part)}"
          for name, part in zip(("train", "val", "test"), parts)),
        *(f"{name}_crc32 = %08x" % zlib.crc32(
            (out / "data" / f"{name}.frames").read_bytes())
          for name in ("train", "val", "test"))]


@pytest.mark.parametrize("stride", [1, 2, 3])
@pytest.mark.parametrize("fracs", [(0.8, 0.1, 0.1), (0.6, 0.2, 0.2),
                                   (0.34, 0.33, 0.33)])
def test_generate_statistics_roundtrip_exactly(tmp_path, stride, fracs):
    # the files hold the z-scored splits, so train and evaluate load the
    # windows the in-memory pipeline builds, bit for bit
    out = tmp_path / "rt"
    cfg_path = write_cfg(
        tmp_path / "rt.cfg",
        BASE.replace("stride = 2", f"stride = {stride}")
        + f"out_dir = {out}\ntrain_frac = {fracs[0]}\n"
        f"val_frac = {fracs[1]}\ntest_frac = {fracs[2]}\n")
    assert cli.main(["generate", "--config", cfg_path]) == 0
    cfg = cli.parse_config(cfg_path)
    raw = dt.gen_multinode_series(cfg.nodes, cfg.channels, cfg.length,
                                  cfg.coupling, cfg.noise, cfg.seed)
    ds = dt.windowize(raw, cfg.t_in, cfg.horizon, stride,
                      target_channels=list(cfg.target_channels))
    want = dt.normalize(*dt.split(ds, fracs))
    for got, part in zip(cli._load_splits(cfg), want):
        assert got.meta.normalized
        assert got.contexts.tobytes() == part.contexts.tobytes()
        assert got.targets.tobytes() == part.targets.tobytes()
    # the train file is one sequence: the z-scored train source
    train = dt.load_frame_sequences(out / "data" / "train.frames")
    assert train.shape == (1, *want[0].source.shape)
    assert train.tobytes() == want[0].source.tobytes()


def test_generate_same_seed_byte_identical(tmp_path):
    cfg_a, out_a = make_run(tmp_path, "a")
    cfg_b, out_b = make_run(tmp_path, "b")
    assert cli.main(["generate", "--config", cfg_a]) == 0
    assert cli.main(["generate", "--config", cfg_b]) == 0
    for name in ("train", "val", "test"):
        pa = (out_a / "data" / f"{name}.frames").read_bytes()
        pb = (out_b / "data" / f"{name}.frames").read_bytes()
        assert pa == pb


def test_generate_huge_noise_exits_2_without_csv(tmp_path, capsys):
    # nor any other data file: no .frames file and no meta.txt
    out = tmp_path / "noisy"
    cfg_path = write_cfg(tmp_path / "noisy.cfg",
                         BASE.replace("noise = 0.05", "noise = 1e308")
                         + f"out_dir = {out}\n")
    assert cli.main(["generate", "--config", cfg_path]) == 2
    assert "noise 1e+308" in capsys.readouterr().err
    assert not list((out / "data").glob("*"))


def test_generate_sprites_header(tmp_path):
    out = tmp_path / "spr"
    cfg_path = write_cfg(tmp_path / "spr.cfg", f"""
dataset = sprites
height = 8
width = 8
sprite_size = 3
speed_min = 1
speed_max = 2
seq_length = 10
seq_count = 12
t_in = 6
horizon = 4
out_dir = {out}
""")
    assert cli.main(["generate", "--config", cfg_path]) == 0
    blob = (out / "data" / "train.frames").read_bytes()
    assert blob[:8] == b"TPGFRAME"
    version, t, h, w, count = struct.unpack("<5I", blob[8:28])
    assert (version, t, h, w) == (1, 10, 8, 8)
    assert count == 9  # 0.8 of 12, index split


def test_generate_sprites_split_files_hold_their_sequences(tmp_path):
    out = tmp_path / "spr"
    cfg_path = write_cfg(tmp_path / "spr.cfg", f"""
dataset = sprites
height = 8
width = 8
sprite_size = 3
seq_length = 10
seq_count = 23
t_in = 6
horizon = 4
train_frac = 0.6
val_frac = 0.25
test_frac = 0.15
seed = 5
out_dir = {out}
""")
    assert cli.main(["generate", "--config", cfg_path]) == 0
    cfg = cli.parse_config(cfg_path)
    seqs = dt.gen_moving_sprites(8, 8, cfg.num_sprites,
                                 (cfg.speed_min, cfg.speed_max), 10, 5,
                                 count=23, sprite_size=3)
    # by sample index: int(0.6 * 23) = 13, int(0.85 * 23) = 19
    for name, lo, hi in (("train", 0, 13), ("val", 13, 19),
                         ("test", 19, 23)):
        got = dt.load_frame_sequences(out / "data" / f"{name}.frames")
        assert got.tobytes() == seqs[lo:hi].tobytes()


def test_seed_override_reaches_echo_and_files(tmp_path):
    cfg_path, out = make_run(tmp_path, "ovr")
    assert cli.main(["generate", "--config", cfg_path, "--seed", "99"]) == 0
    echo = (out / "config.echo").read_text()
    assert "seed = 99" in echo


# artifact, its path under out_dir, the command that writes it, the dataset
@pytest.mark.parametrize("name, where, command, dataset", [
    ("config.echo", "config.echo", "generate", "multinode"),
    ("meta.txt", "data/meta.txt", "generate", "multinode"),
    ("train.frames", "data/train.frames", "generate", "multinode"),
    ("train.frames", "data/train.frames", "generate", "sprites"),
    ("model.ckpt", "model.ckpt", "train", "multinode"),
    ("curves.csv", "curves.csv", "train", "multinode"),
    ("metrics.csv", "metrics.csv", "evaluate", "multinode"),
    ("comparison.csv", "comparison.csv", "compare", "multinode"),
], ids=["config.echo", "meta.txt", "multinode-train.frames", "train.frames",
        "model.ckpt", "curves.csv", "metrics.csv", "comparison.csv"])
def test_failed_write_keeps_previous_file(tmp_path, monkeypatch, name, where,
                                          command, dataset):
    sizes = ("height = 8\nwidth = 8\nsprite_size = 3\nseq_length = 12\n"
             "seq_count = 20\n" if dataset == "sprites" else "")
    out = tmp_path / "atomic"
    text = BASE.replace("multinode", dataset) + sizes + f"out_dir = {out}\n"
    cfg_path = write_cfg(tmp_path / "atomic.cfg", text)
    steps = ["generate", "train", "evaluate", "compare"]
    argv = {cmd: [cmd, "--config", cfg_path] for cmd in steps}
    argv["compare"] += ["--config", cfg_path]
    for cmd in steps[:steps.index(command) + 1]:
        assert cli.main(argv[cmd]) == 0
    path = out / where
    before = path.read_bytes()
    # the rerun writes other bytes: train and evaluate refuse data of
    # another seed, so they rerun with a key the generator does not read
    rerun = argv[command] + ["--seed", "99"]
    if command in ("train", "evaluate"):
        write_cfg(tmp_path / "atomic.cfg",
                  text.replace("total_iters = 50", "total_iters = 40"))
        rerun = argv[command]

    def crash(src, dst):
        # the temp file is complete here; the crash comes before it lands
        if str(dst) == str(path):
            raise OSError("simulated crash")
        os.rename(src, dst)

    monkeypatch.setattr(cli.os, "replace", crash)
    assert cli.main(rerun) == 3
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert not list(out.rglob("*.tmp"))

    def pairs():
        yield "seed", "99"
        raise OSError("disk full")  # midway through the temp file

    with pytest.raises(OSError, match="disk full"):
        cli._write_pairs(path, pairs())
    assert path.read_bytes() == before
    assert not list(out.rglob("*.tmp"))


# ---------------------------------------------------------------------------
# train

def expected_scheduled_rows(total, val_every, n_targets):
    cadences = len(range(0, total, val_every))
    train_rows = cadences
    eval_rows = 2 * (cadences + 1)          # val + test, plus final cadence
    final_eval = 2 * (3 + 2 * n_targets)     # evaluate() on val and test
    return train_rows + eval_rows + final_eval


def test_train_teacher_forcing_smoke(tmp_path):
    cfg_path, out = make_run(tmp_path, "tf", "strategy = teacher_forcing\n")
    assert cli.main(["generate", "--config", cfg_path]) == 0
    assert cli.main(["train", "--config", cfg_path]) == 0
    assert (out / "model.ckpt").exists()
    lines = (out / "curves.csv").read_text().splitlines()
    assert lines[0] == "iter,split,metric,value"
    assert len(lines) - 1 == expected_scheduled_rows(50, 25, 2)


def test_train_tpg_emits_both_checkpoints(tmp_path):
    cfg_path, out = make_run(
        tmp_path, "tpg",
        "strategy = tpg\nstage1_iters = 25\n")
    assert cli.main(["generate", "--config", cfg_path]) == 0
    assert cli.main(["train", "--config", cfg_path]) == 0
    assert (out / "m1.ckpt").exists() and (out / "m2.ckpt").exists()
    rows = cli._read_metric_csv(str(out / "curves.csv"))
    metrics = {r.metric for r in rows}
    assert "m1.loss" in metrics and "m2.loss" in metrics
    assert max(r.iteration for r in rows if r.metric == "m1.loss") <= 25
    assert min(r.iteration for r in rows if r.metric == "m2.loss") >= 25


@pytest.mark.parametrize("extra", ["strategy = teacher_forcing\n",
                                   "strategy = scheduled_sampling\n",
                                   "strategy = tpg\nstage1_iters = 25\n"])
def test_train_prints_each_final_metric_once(tmp_path, capsys, extra):
    # tf and ss write test,loss at total_iters twice, from the last cadence
    # and from the final evaluation of the kept parameters; the second is
    # the checkpoint's, and the only one printed
    cfg_path, out = make_run(tmp_path, "pr", extra)
    assert cli.main(["generate", "--config", cfg_path]) == 0
    capsys.readouterr()
    assert cli.main(["train", "--config", cfg_path]) == 0
    printed = capsys.readouterr().out.splitlines()
    rows = [r for r in cli._read_metric_csv(str(out / "curves.csv"))
            if (r.iteration, r.split) == (50, "test")]
    losses = [r for r in rows if r.metric == "loss"]
    assert len(losses) == (1 if "tpg" in extra else 2)
    last = {r.metric: r.value for r in rows}
    assert printed == [f"test {m}: {last[m]:.6g}"
                       for m in ("loss", "rmse", "mae")]


def test_train_rerun_identical_artifacts(tmp_path):
    cfg_path, out = make_run(tmp_path, "det")
    assert cli.main(["generate", "--config", cfg_path]) == 0
    assert cli.main(["train", "--config", cfg_path]) == 0
    first_curves = (out / "curves.csv").read_bytes()
    first_ckpt = (out / "model.ckpt").read_bytes()
    assert cli.main(["train", "--config", cfg_path]) == 0
    assert (out / "curves.csv").read_bytes() == first_curves
    assert (out / "model.ckpt").read_bytes() == first_ckpt


def test_diverging_train_keeps_curves_and_best_checkpoint(tmp_path, capsys):
    cfg_path, out = make_run(tmp_path, "div", "learning_rate = 1e300\n")
    assert cli.main(["generate", "--config", cfg_path]) == 0
    capsys.readouterr()
    assert cli.main(["train", "--config", cfg_path]) == 3
    err = capsys.readouterr().err
    assert "non-finite training loss at iteration 1, stage main" in err
    rows = cli._read_metric_csv(str(out / "curves.csv"))
    assert rows and {r.iteration for r in rows} == {0}
    params = md.load_checkpoint(out / "best.ckpt")
    assert all(np.isfinite(t).all() for t in params.tensors())
    assert not (out / "model.ckpt").exists()


def test_stage2_divergence_keeps_m1(tmp_path, capsys, monkeypatch):
    extra = "strategy = tpg\nstage1_iters = 25\n"
    cfg_path, out = trained_run(tmp_path, "whole", extra)
    # a fresh directory, so no earlier run's m1.ckpt can stand in
    cfg_path, diverged = make_run(tmp_path, "div2", extra)
    assert cli.main(["generate", "--config", cfg_path]) == 0
    forward = tr.forward_train
    iteration = iter(range(50))  # one forward pass per iteration

    def nan_at_30(model, *args):
        preds, caches = forward(model, *args)
        return (preds * np.nan if next(iteration) == 30 else preds), caches

    monkeypatch.setattr(tr, "forward_train", nan_at_30)
    capsys.readouterr()
    assert cli.main(["train", "--config", cfg_path]) == 3
    assert ("non-finite training loss at iteration 30, stage Transition"
            in capsys.readouterr().err)
    assert (diverged / "m1.ckpt").read_bytes() == \
        (out / "m1.ckpt").read_bytes()
    assert (diverged / "best.ckpt").exists()
    assert not (diverged / "m2.ckpt").exists()


_SHORT = BASE.replace("total_iters = 50", "total_iters = 20")
_TF = "strategy = teacher_forcing\n"
_DIVERGE = "learning_rate = 1e300\n"


def _train_twice(tmp_path, first, second):
    """Generate, then train with the config extras `first` and `second` in
    one out_dir. Returns (exit code, the .ckpt names left) of each train,
    the second config's path and the out_dir."""
    out, runs = tmp_path / "rerun", []
    for i, extra in enumerate((first, second)):
        cfg_path = write_cfg(tmp_path / f"rerun{i}.cfg",
                             _SHORT + f"out_dir = {out}\n" + extra)
        if i == 0:
            assert cli.main(["generate", "--config", cfg_path]) == 0
        code = cli.main(["train", "--config", cfg_path])
        runs.append((code, sorted(p.name for p in out.glob("*.ckpt"))))
    return runs, cfg_path, out


def test_diverged_rerun_leaves_no_earlier_checkpoint(tmp_path, capsys):
    # `evaluate` would score the first run's model beside the second
    # run's curves and exit 0
    runs, cfg_path, out = _train_twice(tmp_path, _TF, _TF + _DIVERGE)
    assert runs == [(0, ["model.ckpt"]), (3, ["best.ckpt"])]
    capsys.readouterr()
    assert cli.main(["evaluate", "--config", cfg_path]) == 3
    assert f"checkpoint {out / 'model.ckpt'} not found" in \
        capsys.readouterr().err


@pytest.mark.parametrize("first, first_run", [
    (_TF + _DIVERGE, (3, ["best.ckpt"])),
    ("strategy = tpg\nstage1_iters = 10\n", (0, ["m1.ckpt", "m2.ckpt"]))],
    ids=["stale_best", "stale_tpg"])
def test_finished_rerun_removes_earlier_checkpoints(tmp_path, first,
                                                    first_run):
    runs, _, _ = _train_twice(tmp_path, first, _TF)
    assert runs == [first_run, (0, ["model.ckpt"])]


def test_diverged_rerun_leaves_no_earlier_metrics(tmp_path, capsys):
    # `compare` would table the first run's metrics beside the second
    # run's curves and exit 0
    cfgs = {}
    for name, extra in (("runA", _TF), ("runB", "")):
        out = tmp_path / name
        cfgs[name] = write_cfg(tmp_path / f"{name}.cfg",
                               _SHORT + f"out_dir = {out}\n" + extra)
        for command in ("generate", "train", "evaluate"):
            assert cli.main([command, "--config", cfgs[name]]) == 0
    rerun = write_cfg(tmp_path / "runA.cfg", _SHORT + _TF + _DIVERGE
                      + f"out_dir = {tmp_path / 'runA'}\n")
    assert cli.main(["train", "--config", rerun]) == 3
    assert not (tmp_path / "runA" / "metrics.csv").exists()
    capsys.readouterr()
    assert cli.main(["compare", "--config", rerun,
                     "--config", cfgs["runB"]]) == 3
    assert (f"run 'runA': {tmp_path / 'runA' / 'metrics.csv'} not found"
            in capsys.readouterr().err)


def test_train_rejects_non_finite_data_cell(tmp_path, capsys):
    cfg_path, out = make_run(tmp_path, "nan")
    assert cli.main(["generate", "--config", cfg_path]) == 0
    # a series is one sequence whose frames are its time steps
    path = out / "data" / "train.frames"
    seqs = dt.load_frame_sequences(path)
    seqs[0, 5, 1, 1] = np.nan
    dt.write_frame_sequences(seqs, path)
    assert cli.main(["train", "--config", cfg_path]) == 3
    err = capsys.readouterr().err
    assert "sequence 0, frame 5" in err and "non-finite" in err
    assert str(path) in err


def test_train_rejects_non_utf8_data_file(tmp_path, capsys):
    # a data file is binary, never decoded as text: a byte that is not
    # UTF-8 changes a value, and the CRC-32 in meta.txt refuses the file
    cfg_path, out = make_run(tmp_path, "latin1")
    assert cli.main(["generate", "--config", cfg_path]) == 0
    path = out / "data" / "val.frames"
    blob = path.read_bytes()
    path.write_bytes(blob[:40] + b"\xe9" + blob[41:])
    capsys.readouterr()
    assert cli.main(["train", "--config", cfg_path]) == 3
    assert capsys.readouterr().err == _crc_refusal(out, path, 18)


SPRITES = """
dataset = sprites
height = 8
width = 8
sprite_size = 3
speed_min = 1
speed_max = 2
seq_length = 10
seq_count = 12
t_in = 6
horizon = 4
hidden = 4
total_iters = 4
val_every = 2
"""


def test_train_rejects_non_finite_pixel(tmp_path, capsys):
    out = tmp_path / "px"
    cfg_path = write_cfg(tmp_path / "px.cfg", SPRITES + f"out_dir = {out}\n")
    assert cli.main(["generate", "--config", cfg_path]) == 0
    path = out / "data" / "train.frames"
    seqs = dt.load_frame_sequences(path)
    seqs[2, 7, 3, 4] = np.inf
    dt.write_frame_sequences(seqs, path)
    assert cli.main(["train", "--config", cfg_path]) == 3
    err = capsys.readouterr().err
    assert "sequence 2, frame 7" in err and str(path) in err


def test_train_names_damaged_frame_file(tmp_path, capsys):
    out = tmp_path / "cut"
    cfg_path = write_cfg(tmp_path / "cut.cfg", SPRITES + f"out_dir = {out}\n")
    assert cli.main(["generate", "--config", cfg_path]) == 0
    path = out / "data" / "val.frames"
    path.write_bytes(path.read_bytes()[:-8])
    capsys.readouterr()
    assert cli.main(["train", "--config", cfg_path]) == 3
    assert capsys.readouterr().err.startswith(f"error: {path}: truncated")


@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_sprite_grid_unlike_frames_exits_3(tmp_path, capsys, command):
    out = tmp_path / "grid"
    cfg_path = write_cfg(tmp_path / "grid.cfg", SPRITES + f"out_dir = {out}\n")
    assert cli.main(["generate", "--config", cfg_path]) == 0
    assert cli.main(["train", "--config", cfg_path]) == 0
    # meta.txt refuses a config of another grid, so the file changes
    path = out / "data" / f"{'train' if command == 'train' else 'test'}.frames"
    seqs = dt.load_frame_sequences(path)
    dt.write_frame_sequences(np.pad(seqs, ((0, 0), (0, 0), (0, 2), (0, 2))),
                             path)
    capsys.readouterr()
    assert cli.main([command, "--config", cfg_path]) == 3
    assert capsys.readouterr().err == _crc_refusal(
        out, path, 19 if command == "train" else 21)


# a fresh interpreter runs the three commands, then names what they
# imported of numpy.ma and _hashlib. numpy.ma's lazy import (np.unique,
# say) adds about 1.6 MB to the peak RSS the benchmark measures, and
# _hashlib, which `import hashlib` loads with OpenSSL, 3.49 MB: meta.txt's
# file checksums are CRC-32s for that reason
_NUMPY_MA_RUN = """
import sys
from tpgf import cli
for command in ("generate", "train", "evaluate"):
    assert cli.main([command, "--config", sys.argv[1]]) == 0, command
print([name for name in ("numpy.ma", "_hashlib") if name in sys.modules])
"""


@pytest.mark.parametrize("config", [
    BASE + "strategy = tpg\nstage1_iters = 20\n", SPRITES],
    ids=["multinode-tpg", "sprites"])
def test_commands_do_not_import_numpy_ma(tmp_path, config):
    cfg_path = write_cfg(tmp_path / "ma.cfg",
                         config + f"out_dir = {tmp_path / 'out'}\n")
    src = str(Path(cli.__file__).resolve().parent.parent)
    run = subprocess.run([sys.executable, "-c", _NUMPY_MA_RUN, cfg_path],
                         env=dict(os.environ, PYTHONPATH=src), check=True,
                         capture_output=True, text=True)
    assert run.stdout.splitlines()[-1] == "[]"


def test_train_without_dataset_hints_generate(tmp_path, capsys):
    cfg_path, out = make_run(tmp_path, "nogen")
    assert cli.main(["train", "--config", cfg_path]) == 3
    assert "generate" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# evaluate

def trained_run(tmp_path, name="run", extra=""):
    cfg_path, out = make_run(tmp_path, name, extra)
    assert cli.main(["generate", "--config", cfg_path]) == 0
    assert cli.main(["train", "--config", cfg_path]) == 0
    return cfg_path, out


def test_evaluate_matches_final_training_rows(tmp_path):
    cfg_path, out = trained_run(tmp_path)
    assert cli.main(["evaluate", "--config", cfg_path]) == 0
    metrics = cli._read_metric_csv(str(out / "metrics.csv"))
    curves = cli._read_metric_csv(str(out / "curves.csv"))
    final = {r.metric: r.value for r in curves
             if r.iteration == 50 and r.split == "test"}
    got = {r.metric: r.value for r in metrics}
    for name in ("loss", "rmse", "mae", "rmse.ch0", "mae.ch1"):
        assert got[name] == final[name]


def test_evaluate_reads_only_test(tmp_path, monkeypatch):
    # the test metrics come from test.frames, checked against meta.txt
    cfg_path, out = trained_run(tmp_path)
    assert cli.main(["evaluate", "--config", cfg_path]) == 0
    want = (out / "metrics.csv").read_bytes()
    (out / "data" / "train.frames").unlink()
    (out / "data" / "val.frames").unlink()
    loaded = []
    load = dt.load_frame_sequences
    monkeypatch.setattr(dt, "load_frame_sequences",
                        lambda path: loaded.append(path) or load(path))
    assert cli.main(["evaluate", "--config", cfg_path]) == 0
    assert (out / "metrics.csv").read_bytes() == want
    assert loaded == [str(out / "data" / "test.frames")]


def test_train_and_evaluate_compute_no_statistics(tmp_path, monkeypatch):
    # generate wrote the z-scored splits, so nothing after it computes or
    # applies training statistics
    cfg_path, out = trained_run(tmp_path)
    assert cli.main(["evaluate", "--config", cfg_path]) == 0
    names = ("curves.csv", "model.ckpt", "metrics.csv")
    want = [(out / name).read_bytes() for name in names]

    def refuse(*args, **kwargs):
        raise AssertionError("training statistics used after generate")
    monkeypatch.setattr(dt, "train_statistics", refuse)
    monkeypatch.setattr(dt, "normalize", refuse)
    for command in ("train", "evaluate"):
        assert cli.main([command, "--config", cfg_path]) == 0
    assert [(out / name).read_bytes() for name in names] == want


def _edit_meta(out, key, value):
    path = out / "data" / "meta.txt"
    lines = [line for line in path.read_text().splitlines()
             if not line.startswith(f"{key} =")]
    if value is not None:
        lines.append(f"{key} = {value}")
    path.write_text("\n".join(lines) + "\n")
    return path


_RERUN = "; rerun `tpgf generate` with this config"


def _crc_refusal(out, path, line):
    """The whole message for a data file whose bytes changed after
    `generate`: meta.txt's line `line` records the old CRC-32."""
    meta = out / "data" / "meta.txt"
    key = f"{path.stem}_crc32"
    old = dict(text.split(" = ")
               for text in meta.read_text().splitlines())[key]
    new = "%08x" % zlib.crc32(path.read_bytes())
    return (f"error: {meta}:{line}: key '{key}': '{old}' does not match "
            f"'{new}' from {path}{_RERUN}\n")


@pytest.mark.parametrize("command", ["train", "evaluate"])
@pytest.mark.parametrize("key, value, want", [
    # generate writes no statistics, and nothing asks for them
    ("mean", None, None),
    ("std", None, None),
    # a statistics line, whatever its value, is one generate no longer
    # writes
    ("mean", "0.5,0.25", f"meta.txt:20: unknown key 'mean'{_RERUN}"),
    ("std", "1,nan,1", f"meta.txt:20: unknown key 'std'{_RERUN}"),
    ("mean", "1,2,inf", f"meta.txt:20: unknown key 'mean'{_RERUN}"),
    ("std", "1,0,1", f"meta.txt:20: unknown key 'std'{_RERUN}"),
    ("std", "1,x,1", f"meta.txt:20: unknown key 'std'{_RERUN}"),
    ("wat", "1", f"meta.txt:20: unknown key 'wat'{_RERUN}"),
    ("dataset", "sprites", "meta.txt:19: key 'dataset': 'sprites' does not "
                           f"match 'multinode' from the config{_RERUN}"),
    ("test_windows", "999", "meta.txt:19: key 'test_windows': '999' does not "
                            "match '8' from "),
    # evaluate loads only test.frames, so it checks no val count
    ("val_windows", "x", "meta.txt:19: key 'val_windows': 'x' does not match "
                         "'8' from "),
    # the line that a data directory written before meta.txt recorded the
    # generator keys fails on
    ("dropped_windows", "10", f"meta.txt:20: unknown key 'dropped_windows'"
                              f"{_RERUN}"),
    ("seed", None, f"no 'seed' line{_RERUN}"),
    # int() accepts this; meta.txt holds what generate writes
    ("test_windows", "0_8", "meta.txt:19: key 'test_windows': '0_8' does not "
                            "match '8' from "),
    ("mean", "0.0_1,0,0", f"meta.txt:20: unknown key 'mean'{_RERUN}"),
], ids=["no_mean", "no_std", "count", "nan_std", "inf_mean", "zero_std",
        "bad_float", "unknown_key", "dataset", "test_windows", "val_windows",
        "dropped_windows", "missing_seed", "underscore_count",
        "underscore_mean"])
def test_bad_statistics_exit_3_naming_meta(tmp_path, capsys, command, key,
                                           value, want):
    cfg_path, out = trained_run(tmp_path, "meta")
    path = _edit_meta(out, key, value)
    capsys.readouterr()
    code = 0 if want is None or (command, key) == ("evaluate",
                                                   "val_windows") else 3
    assert cli.main([command, "--config", cfg_path]) == code
    err = capsys.readouterr().err
    assert (str(path) in err and want in err) if code else err == ""


@pytest.mark.parametrize("command", ["train", "evaluate"])
@pytest.mark.parametrize("line, want", [
    ("seed = 3", "meta.txt:20: duplicate key 'seed' (first set on line "
                 f"2){_RERUN}"),
    ("no equals sign", "meta.txt:20: expected 'key = value', got "
                       f"'no equals sign'{_RERUN}"),
], ids=["duplicate_seed", "no_equals"])
def test_malformed_meta_line_exits_3(tmp_path, capsys, command, line, want):
    cfg_path, out = trained_run(tmp_path, "metaline")
    path = out / "data" / "meta.txt"
    path.write_text(path.read_text() + line + "\n")
    capsys.readouterr()
    assert cli.main([command, "--config", cfg_path]) == 3
    assert want in capsys.readouterr().err


def test_sprites_evaluate_checks_recorded_window_count(tmp_path, capsys):
    out = tmp_path / "sprmeta"
    cfg_path = write_cfg(tmp_path / "sprmeta.cfg",
                         SPRITES + f"out_dir = {out}\n")
    for command in ("generate", "train", "evaluate"):
        assert cli.main([command, "--config", cfg_path]) == 0
    path = _edit_meta(out, "test_windows", "99")
    capsys.readouterr()
    assert cli.main(["evaluate", "--config", cfg_path]) == 3
    err = capsys.readouterr().err
    assert f"{path}:21: key 'test_windows': '99' does not match '2'" in err


@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_missing_meta_exits_3(tmp_path, capsys, command):
    cfg_path, out = trained_run(tmp_path, "nometa")
    path = out / "data" / "meta.txt"
    path.unlink()
    capsys.readouterr()
    assert cli.main([command, "--config", cfg_path]) == 3
    err = capsys.readouterr().err
    assert str(path) in err and "rerun `tpgf generate`" in err


def test_evaluate_rejects_channel_count_unlike_meta(tmp_path, capsys):
    # the config's channels, not this file's, made the recorded checksum
    cfg_path, out = trained_run(tmp_path, "chan")
    path = out / "data" / "test.frames"
    dt.write_frame_sequences(dt.load_frame_sequences(path)[..., :2], path)
    capsys.readouterr()
    assert cli.main(["evaluate", "--config", cfg_path]) == 3
    assert capsys.readouterr().err == _crc_refusal(out, path, 19)


@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_meta_with_statistics_lines_exits_3(tmp_path, capsys, command):
    # a data directory as generate wrote it while the files held raw
    # values: their statistics in meta.txt and CRC-32s that match them
    cfg_path, out = trained_run(tmp_path, "raw")
    cfg = cli.parse_config(cfg_path)
    raw = dt.gen_multinode_series(cfg.nodes, cfg.channels, cfg.length,
                                  cfg.coupling, cfg.noise, cfg.seed)
    parts = dt.split(dt.windowize(raw, cfg.t_in, cfg.horizon, cfg.stride,
                                  target_channels=list(cfg.target_channels)),
                     (0.8, 0.1, 0.1))
    files = [out / "data" / f"{name}.frames"
             for name in ("train", "val", "test")]
    for part, file in zip(parts, files):
        dt.write_frame_sequences(part.source[None], file)
    path = out / "data" / "meta.txt"
    lines = [line for line in path.read_text().splitlines()
             if "_crc32 = " not in line]
    lines += [f"{key} = " + ",".join("%.17g" % v for v in values)
              for key, values in zip(("mean", "std"),
                                     dt.train_statistics(parts[0]))]
    lines += [f"{file.stem}_crc32 = %08x" % zlib.crc32(file.read_bytes())
              for file in files]
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert cli.main([command, "--config", cfg_path]) == 3
    assert capsys.readouterr().err == (
        f"error: {path}:17: unknown key 'mean'{_RERUN}\n")


@pytest.mark.parametrize("command, name", [("train", "train"),
                                           ("evaluate", "test")])
def test_series_csv_data_directory_exits_3(tmp_path, capsys, command, name):
    # a data directory as generate wrote it while multinode splits were
    # `time,node,channel,value` CSVs, with meta.txt recording their CRC-32s
    cfg_path, out = trained_run(tmp_path, "csvdir")
    data = out / "data"
    meta = data / "meta.txt"
    lines = [line for line in meta.read_text().splitlines()
             if "_crc32 = " not in line]
    for split in ("train", "val", "test"):
        frames = data / f"{split}.frames"
        series = dt.load_frame_sequences(frames)[0]
        rows = [f"{t},{n},{f},{series[t, n, f]:.17g}\n"
                for t, n, f in np.ndindex(series.shape)]
        csv = data / f"{split}.csv"
        csv.write_text("time,node,channel,value\n" + "".join(rows))
        frames.unlink()
        lines.append(f"{split}_crc32 = %08x" % zlib.crc32(csv.read_bytes()))
    meta.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert cli.main([command, "--config", cfg_path]) == 3
    assert capsys.readouterr().err == (
        f"error: dataset file {data / f'{name}.frames'} not found; run "
        f"`tpgf generate` with this config first\n")


def test_evaluate_horizon_resolved_rows(tmp_path):
    cfg_path, out = trained_run(tmp_path, "hz")
    assert cli.main(["evaluate", "--config", cfg_path]) == 0
    rows = cli._read_metric_csv(str(out / "metrics.csv"))
    rmse_h = [r for r in rows if cli._is_horizon_metric(r.metric)
              and r.metric.startswith("rmse.h")]
    mae_h = [r for r in rows if cli._is_horizon_metric(r.metric)
             and r.metric.startswith("mae.h")]
    assert len(rmse_h) == 4 and len(mae_h) == 4
    assert [r.metric for r in rmse_h] == [f"rmse.h{s}" for s in range(1, 5)]


def test_evaluate_tampered_checkpoint(tmp_path, capsys):
    cfg_path, out = trained_run(tmp_path, "tamper")
    orig = (out / "model.ckpt").read_bytes()
    blob = bytearray(orig)
    blob[0] ^= 0xFF
    (out / "model.ckpt").write_bytes(bytes(blob))
    assert cli.main(["evaluate", "--config", cfg_path]) == 3
    assert "magic" in capsys.readouterr().err.lower()

    # restore the magic, then point the first slot far outside f_in
    blob[0] ^= 0xFF
    blob[24:28] = (10 ** 6).to_bytes(4, "little")
    (out / "model.ckpt").write_bytes(bytes(blob))
    assert cli.main(["evaluate", "--config", cfg_path]) == 3
    assert "slot table entry 1000000" in capsys.readouterr().err

    # a model with no hidden units: header, slot table, f_out zero biases
    f_out = int.from_bytes(orig[16:20], "little")
    (out / "model.ckpt").write_bytes(
        orig[:8] + bytes(4) + orig[12:24 + 4 * f_out] + bytes(8 * f_out))
    assert cli.main(["evaluate", "--config", cfg_path]) == 3
    assert "hidden must be >= 1" in capsys.readouterr().err

    # one non-finite weight, named with its tensor
    (out / "model.ckpt").write_bytes(orig)
    p = md.load_checkpoint(out / "model.ckpt")
    p.decoder.w_h[0, 0] = math.nan
    md.save_checkpoint(p, out / "model.ckpt")
    assert cli.main(["evaluate", "--config", cfg_path]) == 3
    assert "non-finite value in decoder.w_h" in capsys.readouterr().err


def test_evaluate_dim_mismatch(tmp_path, capsys):
    cfg_a, out_a = trained_run(tmp_path, "dima")
    # a 4-node dataset has a wider feature axis than the checkpoint
    out_b = tmp_path / "dimb"
    text = BASE.replace("nodes = 3", "nodes = 4") + \
        f"out_dir = {out_b}\ncheckpoint = {out_a / 'model.ckpt'}\n"
    cfg_b = write_cfg(tmp_path / "dimb.cfg", text)
    assert cli.main(["generate", "--config", cfg_b]) == 0
    assert cli.main(["evaluate", "--config", cfg_b]) == 3
    assert "features" in capsys.readouterr().err

    # same feature width, but other predicted channels (same count, or fewer)
    for channels, want in (("1,2", "[1, 2, 4, 5, 7, 8]"), ("0", "[0, 3, 6]")):
        out_c = tmp_path / f"dimc{channels}"
        text = BASE.replace("target_channels = 0,1",
                            f"target_channels = {channels}") + \
            f"out_dir = {out_c}\ncheckpoint = {out_a / 'model.ckpt'}\n"
        cfg_c = write_cfg(tmp_path / "dimc.cfg", text)
        assert cli.main(["generate", "--config", cfg_c]) == 0
        assert cli.main(["evaluate", "--config", cfg_c]) == 3
        err = capsys.readouterr().err
        assert "model.ckpt" in err
        assert "[0, 1, 3, 4, 6, 7]" in err and want in err


def test_evaluate_missing_checkpoint(tmp_path, capsys):
    cfg_path, out = make_run(tmp_path, "nock")
    assert cli.main(["generate", "--config", cfg_path]) == 0
    assert cli.main(["evaluate", "--config", cfg_path]) == 3
    assert "train" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# compare

def test_compare_identical_runs_tie_flagged(tmp_path):
    cfg_a, out_a = trained_run(tmp_path, "cmpa")
    cfg_b, out_b = trained_run(tmp_path, "cmpb")
    assert cli.main(["evaluate", "--config", cfg_a]) == 0
    assert cli.main(["evaluate", "--config", cfg_b]) == 0
    cmp_dir = tmp_path / "cmp"
    assert cli.main(["compare", "--config", cfg_a, "--config", cfg_b,
                     "--out", str(cmp_dir)]) == 0
    csv_lines = (cmp_dir / "comparison.csv").read_text().splitlines()
    assert len(csv_lines) == 3
    assert csv_lines[1].split(",")[1:] == csv_lines[2].split(",")[1:]
    txt = (cmp_dir / "comparison.txt").read_text().splitlines()
    # every cell ties, so both data rows carry flags
    assert "*" in txt[1] and "*" in txt[2]


def test_compare_three_strategies(tmp_path):
    runs = []
    for name, extra in (
            ("c_tf", "strategy = teacher_forcing\n"),
            ("c_ss", "strategy = scheduled_sampling\n"),
            ("c_tpg", "strategy = tpg\nstage1_iters = 25\n")):
        cfg_path, out = trained_run(tmp_path, name, extra)
        assert cli.main(["evaluate", "--config", cfg_path]) == 0
        runs.append(cfg_path)
    cmp_dir = tmp_path / "threeway"
    argv = ["compare"]
    for r in runs:
        argv += ["--config", r]
    argv += ["--out", str(cmp_dir)]
    assert cli.main(argv) == 0
    lines = (cmp_dir / "comparison.csv").read_text().splitlines()
    assert len(lines) == 4
    header = lines[0].split(",")
    for col in ("rmse.ch0", "mae.ch0", "rmse.ch1", "mae.ch1"):
        assert col in header
    strategies = [l.split(",")[0] for l in lines[1:]]
    assert strategies == ["teacher_forcing", "scheduled_sampling", "tpg"]


def test_compare_errors(tmp_path, capsys):
    cfg_a, out_a = trained_run(tmp_path, "ea")
    assert cli.main(["evaluate", "--config", cfg_a]) == 0
    cfg_b, out_b = make_run(tmp_path, "eb")

    assert cli.main(["compare", "--config", cfg_a]) == 2

    assert cli.main(["compare", "--config", cfg_a, "--config", cfg_b]) == 3
    assert "eb" in capsys.readouterr().err

    # doctor run b's metrics to a different metric set
    assert cli.main(["generate", "--config", cfg_b]) == 0
    assert cli.main(["train", "--config", cfg_b]) == 0
    assert cli.main(["evaluate", "--config", cfg_b]) == 0
    path = out_b / "metrics.csv"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n50,test,extra_metric,1.0\n")
    assert cli.main(["compare", "--config", cfg_a, "--config", cfg_b]) == 2
    assert "metric set" in capsys.readouterr().err


def test_compare_non_numeric_cell_names_line(tmp_path, capsys):
    for bad, line in (("20,test,loss,abc", 2),
                      ("20,test,loss,1.0\nx,test,mae,1.0", 3),
                      ("20,test,loss,nan", 2),
                      ("20,test,loss,1.0\n20,test,rmse,inf", 3),
                      ("20,test,loss,1.0\n20,test,loss,2.0", 3),
                      # int() and float() accept these; tpgf never writes them
                      ("2_0,test,loss,1.0", 2), ("20,test,loss,0.5_1", 2),
                      ("\u0665,test,loss,\u0661.5", 2)):
        argv = ["compare"]
        for name, rows in (("na", "20,test,loss,0.5"), ("nb", bad)):
            cfg_path, out = make_run(tmp_path, name)
            out.mkdir(exist_ok=True)
            (out / "metrics.csv").write_text(
                "iter,split,metric,value\n" + rows + "\n", encoding="utf-8")
            argv += ["--config", cfg_path]
        assert cli.main(argv) == 3
        assert f"metrics.csv:{line}" in capsys.readouterr().err


def test_compare_non_utf8_metrics_names_path(tmp_path, capsys):
    argv = ["compare"]
    for name, rows in (("ua", b"20,test,loss,0.5"),
                       ("ub", b"20,test,loss,0.5\n20,test,caf\xe9,1.0")):
        cfg_path, out = make_run(tmp_path, name)
        out.mkdir(exist_ok=True)
        (out / "metrics.csv").write_bytes(
            b"iter,split,metric,value\n" + rows + b"\n")
        argv += ["--config", cfg_path]
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert str(tmp_path / "ub" / "metrics.csv") in err and "UTF-8" in err


# ---------------------------------------------------------------------------
# entry point details

def test_artifacts_identical_across_thread_caps(tmp_path):
    # BLAS reads its thread count when numpy loads, so every command runs
    # in a fresh interpreter
    src = str(Path(cli.__file__).resolve().parent.parent)
    artifacts = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OMP_NUM_THREADS=threads,
                   OPENBLAS_NUM_THREADS=threads)
        out = tmp_path / f"threads{threads}"
        cfg_path = write_cfg(tmp_path / f"threads{threads}.cfg",
                             CLI_CFG + f"out_dir = {out}\n")
        for command in ("generate", "train", "evaluate"):
            subprocess.run([sys.executable, "-m", "tpgf.cli", command,
                            "--config", cfg_path],
                           env=env, check=True, capture_output=True)
        artifacts.append({name: (out / name).read_bytes()
                          for name in ("model.ckpt", "curves.csv",
                                       "metrics.csv")})
    assert artifacts[0] == artifacts[1]


# A desk-size library run (hidden 32, B 32, 10 nodes x 9 channels = 90
# features): its GEMMs are large enough for OpenBLAS to split across
# threads, which hidden 6 above never does.
_DESK_RUN = """
import hashlib, sys
from tpgf import data as dt, model as md, training as tr
from tpgf.sampling import ScheduleConfig, Strategy
raw = dt.gen_multinode_series(10, 9, 400, 0.5, 0.2, seed=1)
ds = dt.windowize(raw, 24, 12, 1, target_channels=[0, 1, 2])
splits = dt.normalize(*dt.split(ds, (0.8, 0.1, 0.1)))
cfg = tr.TrainConfig(
    schedule=ScheduleConfig(strategy=Strategy.SCHEDULED_SAMPLING, lam=200.0),
    hidden=32, batch_size=32, total_iters=40, val_every=20, seed=1)
p, curves = tr.train_scheduled(tr.init_model(splits[0], cfg), splits, cfg)
md.save_checkpoint(p, sys.argv[1])
rows = "".join(f"{r.iteration},{r.split},{r.metric},{r.value:.17g}\\n"
               for r in curves)
print(hashlib.sha256(rows.encode()).hexdigest())
with open(sys.argv[1], "rb") as fh:
    print(hashlib.sha256(fh.read()).hexdigest())
"""


def test_desk_size_artifacts_identical_across_thread_caps(tmp_path):
    src = str(Path(cli.__file__).resolve().parent.parent)
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OMP_NUM_THREADS=threads,
                   OPENBLAS_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        run = subprocess.run(
            [sys.executable, "-c", _DESK_RUN, str(tmp_path / f"{threads}.ckpt")],
            env=env, check=True, capture_output=True, text=True)
        digests.append(run.stdout.split())
    assert len(digests[0]) == 2 and digests[0] == digests[1]


def test_single_command_rejects_multiple_configs(tmp_path):
    cfg_a, _ = make_run(tmp_path, "ma")
    cfg_b, _ = make_run(tmp_path, "mb")
    assert cli.main(["train", "--config", cfg_a, "--config", cfg_b]) == 2


def test_bad_seed_override(tmp_path, capsys):
    cfg_path, out = make_run(tmp_path, "sd")
    assert cli.main(["generate", "--config", cfg_path, "--seed", "-1"]) == 2
    # int() alone reads this as 10
    assert cli.main(["generate", "--config", cfg_path,
                     "--seed", "\u0661_0"]) == 2
    assert "error: --seed: bad value" in capsys.readouterr().err
    assert not out.exists()


def test_out_overrides_config_out_dir(tmp_path):
    cfg_path, out = make_run(tmp_path, "cfgout")
    other = tmp_path / "other"
    for command in ("generate", "train", "evaluate"):
        assert cli.main([command, "--config", cfg_path,
                         "--out", str(other)]) == 0
        echo = cli.parse_config(str(other / "config.echo"))
        assert echo.out_dir == str(other)
    for name in ("data/train.frames", "data/val.frames", "data/test.frames",
                 "data/meta.txt", "model.ckpt", "curves.csv", "metrics.csv"):
        assert (other / name).exists(), name
    assert not out.exists()


def test_relative_checkpoint_is_under_out_dir(tmp_path, capsys):
    cfg_path, out = trained_run(tmp_path, "rel")
    assert cli.main(["evaluate", "--config", cfg_path]) == 0
    want = (out / "metrics.csv").read_bytes()
    (out / "model.ckpt").rename(out / "renamed.ckpt")
    for name, code in (("renamed.ckpt", 0), ("model.ckpt", 3)):
        cfg_rel = write_cfg(tmp_path / "relck.cfg", Path(cfg_path).read_text()
                            + f"checkpoint = {name}\n")
        capsys.readouterr()
        assert cli.main(["evaluate", "--config", cfg_rel]) == code
    assert f"checkpoint {out / 'model.ckpt'} not found" in \
        capsys.readouterr().err
    assert (out / "metrics.csv").read_bytes() == want


# ---------------------------------------------------------------------------
# meta.txt records the keys generate reads

@pytest.mark.parametrize("command", ["train", "evaluate"])
@pytest.mark.parametrize("base, key, old, new, line", [
    (BASE, "seed", "3", "12", 2),
    (BASE, "noise", "0.05", "0.06", 12),
    (BASE, "length", "260", "250", 10),
    (SPRITES, "height", "8", "10", 8),
], ids=["seed", "noise", "length", "sprites_height"])
def test_changed_generator_key_exits_3(tmp_path, capsys, command, base, key,
                                       old, new, line):
    out = tmp_path / "rec"
    text = base + f"out_dir = {out}\n"
    cfg_path = write_cfg(tmp_path / "rec.cfg", text)
    for step in ("generate", "train"):
        assert cli.main([step, "--config", cfg_path]) == 0
    argv = [command, "--config", cfg_path]
    if key == "seed":
        argv += ["--seed", new]
    else:
        write_cfg(tmp_path / "rec.cfg",
                  text.replace(f"{key} = {old}\n", f"{key} = {new}\n"))
    capsys.readouterr()
    assert cli.main(argv) == 3
    assert capsys.readouterr().err == (
        f"error: {out / 'data' / 'meta.txt'}:{line}: key '{key}': '{old}' "
        f"does not match '{new}' from the config{_RERUN}\n")


def test_train_runs_after_keys_generate_does_not_read(tmp_path):
    cfg_path, out = make_run(tmp_path, "free")
    assert cli.main(["generate", "--config", cfg_path]) == 0
    text = Path(cfg_path).read_text()
    for old, new in (("hidden = 6", "hidden = 5"),
                     ("total_iters = 50", "total_iters = 40"),
                     ("target_channels = 0,1", "target_channels = 2")):
        write_cfg(Path(cfg_path), text.replace(old, new))
        assert cli.main(["train", "--config", cfg_path]) == 0, new


# a multinode run whose windows span t_in + horizon = 6 steps
_TINY = BASE.replace("nodes = 3", "nodes = 2").replace(
    "channels = 3", "channels = 2").replace("t_in = 8", "t_in = 4").replace(
    "horizon = 4", "horizon = 2")


@pytest.mark.parametrize("dataset", ["multinode", "sprites"])
def test_data_file_shorter_than_window_exits_3(tmp_path, capsys, dataset):
    out = tmp_path / "short"
    config = _TINY if dataset == "multinode" else SPRITES
    cfg_path = write_cfg(tmp_path / "short.cfg", config + f"out_dir = {out}\n")
    for command in ("generate", "train"):
        assert cli.main([command, "--config", cfg_path]) == 0
    # 2 steps where t_in + horizon is 6, and 5 frames where it is 10
    path = out / "data" / "test.frames"
    steps = 2 if dataset == "multinode" else 5
    dt.write_frame_sequences(dt.load_frame_sequences(path)[:, :steps], path)
    capsys.readouterr()
    assert cli.main(["evaluate", "--config", cfg_path]) == 3
    line = 19 if dataset == "multinode" else 21
    assert capsys.readouterr().err == _crc_refusal(out, path, line)


# ---------------------------------------------------------------------------
# meta.txt records the CRC-32 of each data file

@pytest.mark.parametrize("command, name, line", [
    ("train", "train", 17), ("train", "val", 18), ("train", "test", 19),
    ("evaluate", "test", 19)])
def test_value_edited_after_generate_exits_3(tmp_path, capsys, command, name,
                                             line):
    # the reader accepts one value rewritten in generate's format
    cfg_path, out = make_run(tmp_path, "edit")
    for step in ("generate", "train")[:2 if command == "evaluate" else 1]:
        assert cli.main([step, "--config", cfg_path]) == 0
    path = out / "data" / f"{name}.frames"
    seqs = dt.load_frame_sequences(path)
    seqs[0, 0, 1, 1] = 9.5
    dt.write_frame_sequences(seqs, path)
    capsys.readouterr()
    assert cli.main([command, "--config", cfg_path]) == 3
    assert capsys.readouterr().err == _crc_refusal(out, path, line)
    written = "curves.csv" if command == "train" else "metrics.csv"
    assert not (out / written).exists()


@pytest.mark.parametrize("command, name, line", [
    ("train", "train", 19), ("evaluate", "test", 21)])
def test_sprites_pixel_rewritten_after_generate_exits_3(tmp_path, capsys,
                                                        command, name, line):
    out = tmp_path / "pixel"
    cfg_path = write_cfg(tmp_path / "pixel.cfg", SPRITES + f"out_dir = {out}\n")
    for step in ("generate", "train")[:2 if command == "evaluate" else 1]:
        assert cli.main([step, "--config", cfg_path]) == 0
    path = out / "data" / f"{name}.frames"
    seqs = dt.load_frame_sequences(path)
    seqs[1, 3, 2, 5] = 0.5
    dt.write_frame_sequences(seqs, path)
    capsys.readouterr()
    assert cli.main([command, "--config", cfg_path]) == 3
    assert capsys.readouterr().err == _crc_refusal(out, path, line)


def test_crlf_data_file_exits_3(tmp_path, capsys):
    # a text-mode copy that turns each LF byte into CR LF lengthens the
    # file, and the frame reader refuses it before any CRC-32 compare
    cfg_path, out = trained_run(tmp_path, "crlf")
    path = out / "data" / "test.frames"
    blob = path.read_bytes()
    assert b"\n" in blob[28:] and b"\n" not in blob[:28]
    path.write_bytes(blob.replace(b"\n", b"\r\n"))
    capsys.readouterr()
    assert cli.main(["evaluate", "--config", cfg_path]) == 3
    assert capsys.readouterr().err == (
        f"error: {path}: trailing bytes: {path.stat().st_size} bytes where "
        f"the header implies {len(blob)}\n")


@pytest.mark.parametrize("command, name", [("train", "train"),
                                           ("evaluate", "test")])
def test_meta_without_checksums_exits_3(tmp_path, capsys, command, name):
    # meta.txt as generate wrote it before it recorded the files' CRC-32s
    cfg_path, out = trained_run(tmp_path, "nocrc")
    path = out / "data" / "meta.txt"
    path.write_text("".join(line for line in path.read_text().splitlines(True)
                            if "_crc32 = " not in line))
    capsys.readouterr()
    assert cli.main([command, "--config", cfg_path]) == 3
    assert capsys.readouterr().err == (
        f"error: {path}: no '{name}_crc32' line{_RERUN}\n")


# ---------------------------------------------------------------------------
# fuzz: whatever the config, every command exits 0, 2 or 3

# a valid tiny run; the drawn keys override it, and no drawn size exceeds 8
_FUZZ_BASE = {"nodes": "2", "channels": "2", "length": "80",
              "target_channels": "0,1", "t_in": "4", "horizon": "2",
              "hidden": "3", "batch_size": "4", "total_iters": "3",
              "stage1_iters": "1", "val_every": "1", "height": "6",
              "width": "6", "sprite_size": "2", "seq_length": "8",
              "seq_count": "10"}
_FUZZ_FLOATS = (math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-12, 0.5, 1.0,
                1e308)


def _fuzz_value(key, kind):
    if key == "total_iters":
        return st.integers(-2, 3).map(str)
    if kind == "int":
        return st.integers(-2, 8).map(str)
    if kind == "float":
        return st.sampled_from(_FUZZ_FLOATS).map(repr)
    if kind == "bool":
        return st.sampled_from(["true", "false", "yes"])
    if kind == "ints":
        return st.lists(st.integers(-1, 3), max_size=3).map(
            lambda cs: ",".join(map(str, cs)))
    return st.sampled_from(kind.split(":", 1)[1].split(","))


_FUZZ_ENTRY = st.one_of([st.tuples(st.just(key), _fuzz_value(key, kind))
                         for key, _, kind, _ in cli._SCHEMA
                         if kind != "str"])
_FUZZ_JUNK = st.one_of(
    st.sampled_from(["no equals sign", "= 1", "hidden == 2", "wat = 1",
                     "hidden = 1.5", "seed = 18446744073709551616",
                     "target_channels = 0,,x", "lambda = 1e999"]),
    st.text(st.characters(exclude_categories=("Cs",)), max_size=20))


_FUZZ_KINDS = {key: (attr, kind) for key, attr, kind, _ in cli._SCHEMA}


def _in_range(key, text):
    """Whether a drawn override parses and keeps its RANGES rule."""
    attr, kind = _FUZZ_KINDS[key]
    try:
        value = cli._convert(kind, text, "fuzz")
    except ConfigError:
        return False
    return attr not in RANGES or RANGES[attr][0](value)


def _mutate_meta(path, number, junk):
    """Keep meta.txt, drop, duplicate or replace one of its lines, or flip
    bits of one byte. `number` picks the edit and its place; as a plain
    integer it spreads evenly over the few drawn configs that generate."""
    kind, where = number % 5, number // 5
    blob = bytearray(Path(path).read_bytes())
    if kind == 4:
        blob[where % len(blob)] ^= 1 + number % 255
    else:
        lines = bytes(blob).splitlines(keepends=True)
        i = where % len(lines)
        lines[i:i + 1] = ([lines[i]], [], [lines[i]] * 2,
                          [junk.encode() + b"\n"])[kind]
        blob = b"".join(lines)
    Path(path).write_bytes(blob)


@settings(max_examples=200, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
# tpg stage 1 gives the odd half every other context frame, so t_in = 1
# left it none
@example(overrides={"strategy": "tpg", "t_in": "1"}, junk=[], tail=b"",
         meta_edit=0, meta_junk="", rough=0)
@example(overrides={"dataset": "sprites", "strategy": "tpg", "t_in": "1"},
         junk=[], tail=b"", meta_edit=0, meta_junk="", rough=0)
@given(overrides=st.lists(_FUZZ_ENTRY, max_size=4).map(dict),
       junk=st.one_of(st.just([]), st.lists(_FUZZ_JUNK, min_size=1,
                                            max_size=2)),
       tail=st.one_of(st.just(b""), st.binary(min_size=1, max_size=16)),
       meta_edit=st.integers(0, 2 ** 16), meta_junk=_FUZZ_JUNK,
       rough=st.integers(0, 3))
def test_cli_fuzz_exits_0_2_or_3(tmp_path, overrides, junk, tail, meta_edit,
                                meta_junk, rough):
    # only rough == 3 keeps the junk lines, the binary tail and the
    # range-breaking overrides (hypothesis draws 0 most often); the other
    # configs mostly generate, so train, evaluate and the meta.txt edits
    # get most of the examples
    if rough != 3:
        overrides = {k: v for k, v in overrides.items() if _in_range(k, v)}
        junk, tail = [], b""
    run = tempfile.mkdtemp(dir=tmp_path)
    lines = [f"out_dir = {run}", "checkpoint = "]
    lines += [f"{k} = {v}" for k, v in dict(_FUZZ_BASE, **overrides).items()]
    path = os.path.join(run, "fuzz.cfg")
    with open(path, "wb") as fh:
        fh.write("".join(line + "\n" for line in lines + junk).encode())
        fh.write(tail)
    meta = os.path.join(run, "data", "meta.txt")
    for command in ("generate", "train", "evaluate"):
        if command == "train" and os.path.exists(meta):
            _mutate_meta(meta, meta_edit, meta_junk)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([command, "--config", path])
        assert code in (0, 2, 3), (command, code, err.getvalue())
        assert "Traceback" not in err.getvalue()
