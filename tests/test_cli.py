import contextlib
import io
import math
import os
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from test_acceptance import CLI_CFG
from tpgf import cli
from tpgf import data as dt
from tpgf.errors import RANGES, ConfigError, check_ranges


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


@pytest.mark.parametrize("text, want", [
    ("length = 20\n",
     "key 'length' (line 1): must cover t_in + horizon = 36, got 20"),
    ("dataset = sprites\nheight = 4\nwidth = 6\nsprite_size = 5\n",
     "key 'sprite_size' (line 4): must fit the 4x6 grid, got 5"),
    ("train_frac = 0.0\nval_frac = 0.5\ntest_frac = 0.5\n",
     "key 'train_frac' (line 1): must be > 0, got 0.0"),
    ("val_frac = 0.0\ntest_frac = 0.2\n",
     "key 'val_frac' (line 1): must be > 0, got 0.0"),
    ("val_frac = 0.2\ntest_frac = 0\n",
     "key 'test_frac' (line 2): must be > 0, got 0.0"),
    ("dataset = sprites\nheight = 8\nwidth = 6\nsprite_size = 3\n"
     "speed_max = 4\n",
     "key 'speed_max' (line 5): must be <= min(height, width) - sprite_size "
     "= 3, got 4"),
], ids=["length", "sprite_size", "train_frac", "val_frac", "test_frac",
        "speed_max"])
def test_data_shape_errors_name_key_and_line(tmp_path, text, want):
    cfg_path = write_cfg(tmp_path / "shape.cfg", text)
    with pytest.raises(ConfigError) as ei:
        cli.parse_config(cfg_path)
    assert str(ei.value) == f"{cfg_path}: {want}"


@pytest.mark.parametrize("val_frac, want", [
    ("0.0", "key 'val_frac' (line 19): must be > 0, got 0.0"),
    ("1e-12", "split fraction 1e-12 produced an empty partition"),
], ids=["zero", "tiny"])
def test_generate_rejects_empty_split(tmp_path, capsys, val_frac, want):
    cfg_path, out = make_run(tmp_path, "empty",
                             f"val_frac = {val_frac}\ntest_frac = 0.2\n")
    assert cli.main(["generate", "--config", cfg_path]) == 2
    assert want in capsys.readouterr().err
    assert not (out / "data" / "val.csv").exists()


def test_every_range_rule_rejects_nan_and_inf():
    for name in RANGES:
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ConfigError, match=f"^{name} must be"):
                check_ranges(**{name: bad})


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


def test_tpg_transition_autofill_and_mismatch(tmp_path):
    good = write_cfg(tmp_path / "g.cfg",
                     "strategy = tpg\nstage1_iters = 30\ntotal_iters = 80\n")
    cfg = cli.parse_config(good)
    assert cfg.transition_iters == 50

    bad = write_cfg(tmp_path / "b.cfg",
                    "strategy = tpg\nstage1_iters = 30\ntotal_iters = 80\n"
                    "transition_iters = 10\n")
    with pytest.raises(ConfigError) as ei:
        cli.parse_config(bad)
    assert "transition_iters" in str(ei.value)


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
    assert "hidden" in str(ei.value) and ":1" in str(ei.value)


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
        assert (out / "data" / f"{name}.csv").exists()

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


def test_generate_same_seed_byte_identical(tmp_path):
    cfg_a, out_a = make_run(tmp_path, "a")
    cfg_b, out_b = make_run(tmp_path, "b")
    assert cli.main(["generate", "--config", cfg_a]) == 0
    assert cli.main(["generate", "--config", cfg_b]) == 0
    for name in ("train", "val", "test"):
        pa = (out_a / "data" / f"{name}.csv").read_bytes()
        pb = (out_b / "data" / f"{name}.csv").read_bytes()
        assert pa == pb


def test_generate_huge_noise_exits_2_without_csv(tmp_path, capsys):
    out = tmp_path / "noisy"
    cfg_path = write_cfg(tmp_path / "noisy.cfg",
                         BASE.replace("noise = 0.05", "noise = 1e308")
                         + f"out_dir = {out}\n")
    assert cli.main(["generate", "--config", cfg_path]) == 2
    assert "noise 1e+308" in capsys.readouterr().err
    assert not list((out / "data").glob("*.csv"))


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


def test_seed_override_reaches_echo_and_files(tmp_path):
    cfg_path, out = make_run(tmp_path, "ovr")
    assert cli.main(["generate", "--config", cfg_path, "--seed", "99"]) == 0
    echo = (out / "config.echo").read_text()
    assert "seed = 99" in echo


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


def test_train_rerun_identical_artifacts(tmp_path):
    cfg_path, out = make_run(tmp_path, "det")
    assert cli.main(["generate", "--config", cfg_path]) == 0
    assert cli.main(["train", "--config", cfg_path]) == 0
    first_curves = (out / "curves.csv").read_bytes()
    first_ckpt = (out / "model.ckpt").read_bytes()
    assert cli.main(["train", "--config", cfg_path]) == 0
    assert (out / "curves.csv").read_bytes() == first_curves
    assert (out / "model.ckpt").read_bytes() == first_ckpt


def test_train_rejects_non_finite_data_cell(tmp_path, capsys):
    cfg_path, out = make_run(tmp_path, "nan")
    assert cli.main(["generate", "--config", cfg_path]) == 0
    path = out / "data" / "train.csv"
    lines = path.read_text().splitlines()
    t, n, f, _ = lines[5].split(",")
    lines[5] = f"{t},{n},{f},nan"
    path.write_text("\n".join(lines) + "\n")
    assert cli.main(["train", "--config", cfg_path]) == 3
    err = capsys.readouterr().err
    assert "line 6" in err and "non-finite" in err and str(path) in err


def test_train_rejects_non_utf8_data_file(tmp_path, capsys):
    cfg_path, out = make_run(tmp_path, "latin1")
    assert cli.main(["generate", "--config", cfg_path]) == 0
    path = out / "data" / "val.csv"
    blob = path.read_bytes()
    path.write_bytes(blob[:40] + b"\xe9" + blob[41:])
    assert cli.main(["train", "--config", cfg_path]) == 3
    err = capsys.readouterr().err
    assert str(path) in err and "UTF-8" in err


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


def test_evaluate_reads_only_train_and_test(tmp_path):
    # the validation file plays no part in the test metrics
    cfg_path, out = trained_run(tmp_path)
    assert cli.main(["evaluate", "--config", cfg_path]) == 0
    want = (out / "metrics.csv").read_bytes()
    (out / "data" / "val.csv").unlink()
    assert cli.main(["evaluate", "--config", cfg_path]) == 0
    assert (out / "metrics.csv").read_bytes() == want


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
    blob = bytearray((out / "model.ckpt").read_bytes())
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
                      ("20,test,loss,1.0\nx,test,mae,1.0", 3)):
        argv = ["compare"]
        for name, rows in (("na", "20,test,loss,0.5"), ("nb", bad)):
            cfg_path, out = make_run(tmp_path, name)
            out.mkdir(exist_ok=True)
            (out / "metrics.csv").write_text(
                "iter,split,metric,value\n" + rows + "\n")
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

def test_thread_cap_env(tmp_path, monkeypatch):
    monkeypatch.setenv("TPGF_THREADS", "zero")
    assert cli.main(["generate", "--config", "whatever.cfg"]) == 2

    monkeypatch.setenv("TPGF_THREADS", "2")
    cfg_path, out = make_run(tmp_path, "thr")
    assert cli.main(["generate", "--config", cfg_path]) == 0
    assert os.environ["OMP_NUM_THREADS"] == "2"


def test_artifacts_identical_across_thread_caps(tmp_path):
    # the cap only takes effect before numpy loads, so every command runs
    # in a fresh interpreter
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    artifacts = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        cfg_path = write_cfg(tmp_path / f"threads{threads}.cfg",
                             CLI_CFG + f"out_dir = {out}\n")
        for command in ("generate", "train"):
            subprocess.run([sys.executable, "-m", "tpgf.cli", command,
                            "--config", cfg_path],
                           env=dict(env, TPGF_THREADS=threads), check=True,
                           capture_output=True)
        artifacts.append({name: (out / name).read_bytes()
                          for name in ("model.ckpt", "curves.csv")})
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


def test_bad_seed_override(tmp_path):
    cfg_path, _ = make_run(tmp_path, "sd")
    assert cli.main(["generate", "--config", cfg_path, "--seed", "-1"]) == 2


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
    if kind in ("int", "u64"):
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


@settings(max_examples=200, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(overrides=st.lists(_FUZZ_ENTRY, max_size=4).map(dict),
       junk=st.one_of(st.just([]), st.lists(_FUZZ_JUNK, min_size=1,
                                            max_size=2)),
       tail=st.one_of(st.just(b""), st.binary(min_size=1, max_size=16)))
def test_cli_fuzz_exits_0_2_or_3(tmp_path, overrides, junk, tail):
    run = tempfile.mkdtemp(dir=tmp_path)
    lines = [f"out_dir = {run}", "checkpoint = "]
    lines += [f"{k} = {v}" for k, v in dict(_FUZZ_BASE, **overrides).items()]
    path = os.path.join(run, "fuzz.cfg")
    with open(path, "wb") as fh:
        fh.write("".join(line + "\n" for line in lines + junk).encode())
        fh.write(tail)
    for command in ("generate", "train", "evaluate"):
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([command, "--config", path])
        assert code in (0, 2, 3), (command, code, err.getvalue())
        assert "Traceback" not in err.getvalue()
