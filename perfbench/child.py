"""One benchmark operation, run in a fresh process by run.py.

Usage: child.py REQUEST_JSON SPAWN_STAMP

The request names the operation: a whole library workload repeat
(`library`) or one `tpgf` CLI command (`cli`). SPAWN_STAMP is the
parent's time.monotonic() just before it started this process, so the
phase times below include interpreter start and imports. The result
JSON is written to the path the request names, whether or not the
operation succeeded; the exit code is 0 only on success.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext

FRACTIONS = (0.8, 0.1, 0.1)


class Phases:
    """Monotonic start/end stamps per phase, mirrored as tracer spans."""

    def __init__(self, tracer):
        self.stamps: dict[str, list[float]] = {}
        self.tracer = tracer

    @contextmanager
    def __call__(self, name: str):
        start = time.monotonic()
        with self.tracer.span(f"bench.{name}") if self.tracer else nullcontext():
            yield
        self.stamps[name] = [start, time.monotonic()]


def _write_rows(rows, path) -> None:
    # the layout of the CLI's curves.csv and metrics.csv
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("iter,split,metric,value\n")
        for r in rows:
            fh.write(f"{r.iteration},{r.split},{r.metric},{r.value:.17g}\n")


def run_library(spec: dict, seed: int, out_dir: str, phase: Phases) -> dict:
    """Scheduled sampling through training.train_scheduled on in-memory
    data, then `eval_passes` closed-loop passes over the test split."""
    from tpgf import data, model, training
    from tpgf.sampling import ScheduleConfig, Strategy

    with phase("setup"):
        if spec["dataset"] == "multinode":
            raw = data.gen_multinode_series(
                spec["nodes"], spec["channels"], spec["length"],
                spec["coupling"], spec["noise"], seed)
            ds = data.windowize(raw, spec["t_in"], spec["horizon"], 1,
                                target_channels=spec["target_channels"])
            splits = data.normalize(*data.split(ds, FRACTIONS))
        else:
            size = spec["size"]
            seqs = data.gen_moving_sprites(
                size, size, 1, spec["speed"], spec["seq_length"], seed,
                count=spec["seq_count"], sprite_size=spec["sprite_size"])
            ds = data.windowize_sequences(seqs, spec["t_in"], spec["horizon"],
                                          grid=(size, size))
            splits = data.split(ds, FRACTIONS)
        cfg = training.TrainConfig(
            schedule=ScheduleConfig(strategy=Strategy.SCHEDULED_SAMPLING,
                                    lam=spec["lambda"]),
            hidden=spec["hidden"], batch_size=spec["batch_size"],
            total_iters=spec["iters"], seed=seed, val_every=spec["val_every"])
        p = training.init_model(splits[0], cfg)
    with phase("train"):
        p, curves = training.train_scheduled(p, splits, cfg)
    test = splits[2]
    with phase("eval"):
        for _ in range(spec["eval_passes"]):
            rows = (training.evaluate(p, test, "test", cfg.total_iters)
                    + training.evaluate_horizon(p, test, "test", cfg.total_iters))
    with phase("write"):
        _write_rows(curves, os.path.join(out_dir, "curves.csv"))
        model.save_checkpoint(p, os.path.join(out_dir, "model.ckpt"))
        _write_rows(rows, os.path.join(out_dir, "metrics.csv"))
    return {"eval_passes": spec["eval_passes"], "test_windows": len(test)}


def run_cli(command: str, config: str, phase: Phases) -> dict:
    from tpgf import cli

    with phase(command):
        code = cli.main([command, "--config", config])
    if code != 0:
        raise RuntimeError(f"tpgf {command} exited with code {code}")
    return {"eval_passes": int(command == "evaluate")}


def _environment() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        pass
    return {"numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}"}


def main(request_path: str, spawn: float) -> int:
    with open(request_path, encoding="utf-8") as fh:
        req = json.load(fh)
    os.chdir(req["cwd"])
    result = {"ok": False, "spawn": spawn, "error": None}
    tracer = None
    phase = Phases(None)
    try:
        import tpgf
        src = os.path.realpath(os.path.dirname(tpgf.__file__))
        if src != os.path.realpath(req["package_dir"]):
            raise RuntimeError(f"imported tpgf from {src}, expected "
                               f"{req['package_dir']}")
        if req["trace"]:
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
            offset = time.perf_counter() - time.monotonic()
            tracer.add_span("bench.import", spawn + offset, time.perf_counter())
            phase.tracer = tracer
        with tracer.span("bench.child") if tracer else nullcontext():
            if req["kind"] == "library":
                info = run_library(req["spec"], req["seed"], req["cwd"], phase)
            else:
                info = run_cli(req["command"], req["config"], phase)
        result["end"] = time.monotonic()
        result.update(info, ok=True)
    except Exception:
        result["error"] = traceback.format_exc()
    result.setdefault("end", time.monotonic())
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result["maxrss_mb"] = usage.ru_maxrss / 1024.0
    result["cpu_s"] = usage.ru_utime + usage.ru_stime
    result["phases"] = phase.stamps
    result["env"] = _environment()
    if tracer is not None:
        result["layers"] = tracer.summary()
        tracer.dump(req["spans_path"])
    with open(req["result_path"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0 if result["ok"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], float(sys.argv[2])))
