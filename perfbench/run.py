"""The tpgf benchmark: three workloads, end-to-end and per-layer metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload desk-ss --seed 1 --seconds 40 --trace 0

Workloads (why each exists is recorded in BENCHMARK.json):
  desk-ss     the acceptance desk fixture trained with scheduled sampling
              through training.train_scheduled on in-memory data
  sprites-ss  the criterion-10 sprite pipeline, the only SSIM user
  cli-tpg     `tpgf generate`, `train`, `evaluate` on a desk-size tpg config

The load is a closed loop with one client: repeats run one after another,
each in fresh child processes (one per repeat, or one per CLI command),
until the next repeat would end past --seconds. Every repeat uses the
same seed, so their artifacts must be byte-identical. Rates and wall
time are totals over the repeats of one run; set-up time, memory and
quality are medians (see e2e_summary); per-layer numbers are medians
over the traced repeats. Seed 1 is the default; seed 7 is held out, for
re-checking a claim on a seed it was not tuned on.

--trace 0 reports the end-to-end metrics of BENCHMARK.json from untraced
repeats. --trace 1 alternates untraced and traced repeats and reports the
per-layer metrics: the traced children patch every public tpgf function
(see tracer.py) and the untraced ones give the tracing overhead.

BLAS threads are pinned to BLAS_THREADS through the usual environment
variables of every child. The environment, per-repeat records, artifact
digests and the last traced span dump go under .perfbench/ in the
repository root; the last stdout line is the result JSON. perfbench/layers.json says which end-to-end metric each per-layer
metric should move, on which workload.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
PACKAGE_DIR = ROOT / "src" / "tpgf"
WORK = ROOT / ".perfbench"

DEFAULT_SEED = 1
HELD_OUT_SEED = 7
# One thread: on a 2-CPU machine a second OpenBLAS thread gave no speed-up
# on these small GEMMs, but spun a second core and made runs noisier.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "TPGF_THREADS")
HARD_LIMIT_S = 160.0  # the whole run must end well inside 180 s

DESK = {"dataset": "multinode", "nodes": 10, "channels": 9, "length": 2000,
        "coupling": 0.5, "noise": 0.2, "target_channels": [0, 1, 2],
        "t_in": 24, "horizon": 12, "hidden": 32, "batch_size": 32}

# Iteration counts are cut from the paper's 2000 so that one repeat
# takes a few seconds and a run holds several repeats; the per-iteration
# work is the full-size fixture's.
WORKLOADS = {
    "desk-ss": {"kind": "library", "spec": {
        **DESK, "lambda": 200.0, "iters": 150, "val_every": 50,
        "eval_passes": 10}},
    "sprites-ss": {"kind": "library", "spec": {
        "dataset": "sprites", "size": 16, "speed": [1, 1], "seq_length": 40,
        "seq_count": 60, "sprite_size": 7, "t_in": 20, "horizon": 20,
        "hidden": 96, "batch_size": 32, "lambda": 100.0, "iters": 40,
        "val_every": 100, "eval_passes": 10}},
    "cli-tpg": {"kind": "cli", "config": {
        **{k: v for k, v in DESK.items() if k != "target_channels"},
        "target_channels": "0,1,2", "strategy": "tpg", "lambda": 30.0,
        "total_iters": 150, "stage1_iters": 75, "val_every": 50,
        "out_dir": "run"}},
}
CLI_COMMANDS = ("generate", "train", "evaluate")

# artifact -> index of the operation that writes it
ARTIFACTS = {
    "library": {"curves.csv": 0, "model.ckpt": 0, "metrics.csv": 0},
    "cli": {"run/data/train.csv": 0, "run/data/val.csv": 0,
            "run/data/test.csv": 0, "run/curves.csv": 1, "run/m1.ckpt": 1,
            "run/m2.ckpt": 1, "run/metrics.csv": 2},
}
SPAN_FIELDS = ("calls", "self_s", "incl_s", "bytes")


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(PACKAGE_DIR.parent)
    for var in THREAD_VARS:
        env[var] = str(BLAS_THREADS)
    return env


def spawn(req: dict, work: Path, tag: str, deadline: float) -> dict:
    """Run one operation in a fresh child; returns its result record."""
    req = dict(req, cwd=str(work), package_dir=str(PACKAGE_DIR),
               result_path=str(work / f"{tag}.result.json"),
               spans_path=str(WORK / f"spans-{tag}.json"))
    req_path = work / f"{tag}.request.json"
    req_path.write_text(json.dumps(req), encoding="utf-8")
    with open(work / f"{tag}.log", "w", encoding="utf-8") as log:
        start = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "child.py"), str(req_path),
             repr(start)], stdout=log, stderr=subprocess.STDOUT,
            env=child_env(), cwd=work)
        try:
            code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return {"ok": False, "error": "timed out"}
    try:
        res = json.loads(Path(req["result_path"]).read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {"ok": False, "error": f"exit code {code}, no result"}
    res["ok"] = res["ok"] and code == 0
    return res


def sha256(path: Path):
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return None


def read_rows(path: Path) -> list:
    """(split, metric, value) rows of a curves.csv / metrics.csv."""
    rows = []
    for line in path.read_text(encoding="utf-8").splitlines()[1:]:
        _, split, metric, value = line.split(",")
        rows.append((split, metric, float(value)))
    return rows


def run_repeat(name: str, seed: int, traced: bool, deadline: float) -> dict:
    wl = WORKLOADS[name]
    kind = wl["kind"]
    work = WORK / "work" / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    if kind == "library":
        reqs = [{"kind": kind, "spec": wl["spec"], "seed": seed}]
    else:
        cfg = dict(wl["config"], seed=seed)
        (work / "exp.cfg").write_text(
            "".join(f"{k} = {v}\n" for k, v in cfg.items()), encoding="utf-8")
        reqs = [{"kind": kind, "command": c, "config": "exp.cfg"}
                for c in CLI_COMMANDS]
    reqs = [dict(r, trace=traced) for r in reqs]

    start = time.monotonic()
    results = []
    for i, req in enumerate(reqs):
        res = spawn(req, work, f"{name}-op{i}", deadline)
        results.append(res)
        if not res["ok"]:
            print(f"perfbench: {name} op {i} failed: {res.get('error')}",
                  file=sys.stderr)
            break  # later CLI commands need the earlier ones' files
    failed = {i for i, r in enumerate(results) if not r["ok"]}
    failed |= set(range(len(results), len(reqs)))

    owners = ARTIFACTS[kind]
    digests = {a: sha256(work / a) for a in owners}
    rmse = None
    for art in ("curves.csv", "metrics.csv"):
        path = next(a for a in owners if a.endswith(art))
        try:
            rows = read_rows(work / path)
        except (OSError, ValueError):
            rows = [("", "", math.nan)]
        if not all(math.isfinite(v) for _, _, v in rows):
            failed.add(owners[path])
        if art == "metrics.csv":
            rmse = next((v for s, m, v in rows if (s, m) == ("test", "rmse")),
                        None)
            if rmse is None:
                failed.add(owners[path])
    rec = {"traced": traced, "attempted": len(reqs), "failed": failed,
           "digests": digests, "duration": time.monotonic() - start,
           "results": results}
    if not failed:
        rec["e2e"] = e2e_metrics(name, results, rmse, work)
        if traced:
            rec["layers"] = layer_metrics(results)
    return rec


def e2e_metrics(name: str, results: list, rmse: float, work: Path) -> dict:
    """Raw amounts of one repeat: work done and the time it took."""
    wl = WORKLOADS[name]
    walls = [r["end"] - r["spawn"] for r in results]
    if wl["kind"] == "library":
        r = results[0]
        train = r["phases"]["train"]
        ev = r["phases"]["eval"]
        out = {"setup_s": train[0] - r["spawn"],
               "train_iters": wl["spec"]["iters"], "train_s": train[1] - train[0],
               "eval_windows": r["eval_passes"] * r["test_windows"],
               "eval_s": ev[1] - ev[0]}
    else:
        meta = (work / "run" / "data" / "meta.txt").read_text(encoding="utf-8")
        out = {"setup_s": walls[0],
               "train_iters": wl["config"]["total_iters"], "train_s": walls[1],
               "eval_windows": int(meta.split("test_windows = ")[1].split()[0]),
               "eval_s": walls[2]}
    out.update(wall_s=sum(walls),
               peak_rss_mb=max(r["maxrss_mb"] for r in results),
               test_rmse=rmse,
               cpu_s=sum(r["cpu_s"] for r in results))
    return out


def e2e_summary(recs: list) -> dict:
    """End-to-end metrics of a run. Rates and times are totals over all
    repeats: this machine's speed drifts over seconds, and a total
    averages the drift where a median of a few repeats jumps with it.
    Set-up time, memory and the quality guard are medians."""
    def total(key):
        return sum(r["e2e"][key] for r in recs)

    return {"setup_s": median_of(recs, "e2e", "setup_s"),
            "train_iters_per_s": total("train_iters") / total("train_s"),
            "eval_windows_per_s": total("eval_windows") / total("eval_s"),
            "wall_s": total("wall_s") / len(recs),
            "peak_rss_mb": median_of(recs, "e2e", "peak_rss_mb"),
            "test_rmse": median_of(recs, "e2e", "test_rmse"),
            "cpu_s": total("cpu_s") / len(recs)}


def layer_metrics(results: list) -> dict:
    """Per-layer numbers of one traced repeat, summed over its children."""
    tot: dict[str, float] = {}
    for r in results:
        for key, value in r["layers"].items():
            tot[key] = tot.get(key, 0.0) + value

    def ratio(num, den):
        return tot.get(num, 0.0) / tot[den] if tot.get(den) else 0.0

    out = {k: v for k, v in tot.items() if k.rsplit(".", 1)[-1] in SPAN_FIELDS}
    passes = sum(r["eval_passes"] for r in results)
    out.update({
        "training.clip_gradients.clipped_frac":
            ratio("clipped", "training.clip_gradients.calls"),
        "training.cadence_eval_s": tot.get("cadence_eval_s", 0.0),
        "training.m1_precompute_s": tot.get("m1_precompute_s", 0.0),
        "training.final_eval_s": tot.get("final_eval_s", 0.0),
        "training.rollout_batch.cache_mb": tot.get("cache_bytes", 0.0) / 2**20,
        "training.evaluate.rollouts": tot["eval_rollouts"] / passes,
        "sampling.tau1_frac": ratio("tau1", "taus"),
        "trace.self_sum_s": tot["self_sum_s"],
        "trace.coverage_frac": ratio("tpgf_self_s", "self_sum_s"),
    })
    return out


def median_of(recs: list, group: str, key: str, default=None) -> float:
    values = [r[group].get(key, default) for r in recs]
    if any(v is None for v in values):
        raise KeyError(f"metric {key} missing from a repeat")
    return statistics.median(values)


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(recs: list) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    src = hashlib.sha256()
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    child = next((r["env"] for rec in recs for r in rec["results"]
                  if "env" in r), {})
    return {"nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(), **child,
            "blas_threads": BLAS_THREADS,
            "child_thread_env": {v: str(BLAS_THREADS) for v in THREAD_VARS},
            "inherited_thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
            "git_commit": git_commit(), "source_sha256": src.hexdigest()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; "
                             f"{HELD_OUT_SEED} is the held-out seed)")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not 0 <= args.seed < 2**64:
        fail(f"--seed must be an unsigned 64-bit integer, got {args.seed}")
    if not (PACKAGE_DIR / "__init__.py").is_file():
        fail(f"no tpgf sources at {PACKAGE_DIR}; run from a repository checkout")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")

    import compileall
    compileall.compile_dir(str(PACKAGE_DIR), quiet=1)  # no .pyc writes in repeats
    start = time.monotonic()
    budget_end = start + min(args.seconds, HARD_LIMIT_S - 20.0)
    deadline = start + HARD_LIMIT_S
    recs = []
    while True:
        traced = bool(args.trace) and len(recs) % 2 == 1
        recs.append(run_repeat(args.workload, args.seed, traced, deadline))
        typical = statistics.median(r["duration"] for r in recs)
        if len(recs) >= 2 and time.monotonic() + typical > budget_end:
            break
        if time.monotonic() + typical > deadline:
            break

    attempted = sum(r["attempted"] for r in recs)
    failed = 0
    ref = next((r["digests"] for r in recs if not r["failed"]), None)
    for r in recs:
        mismatched = {ARTIFACTS[WORKLOADS[args.workload]["kind"]][a]
                      for a, d in r["digests"].items() if ref and d != ref[a]}
        r["failed"] |= mismatched
        failed += len(r["failed"])
    good = [r for r in recs if not r["failed"]]
    plain = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]
    if not plain or (args.trace and not traced):
        fail(f"{args.workload}: no successful repeat; logs under {WORK}")

    summary = e2e_summary(plain)
    if args.trace:
        declared = spec["per_layer"]
        metrics = {
            "process.cpu_s": summary["cpu_s"],
            "trace.untraced_wall_s": summary["wall_s"],
            "trace.overhead_frac":
                e2e_summary(traced)["wall_s"] / summary["wall_s"] - 1.0,
            "trace.artifacts_match":
                sum(r["digests"] == ref for r in traced) / len(traced)}
        for m in declared:
            name = m["name"]
            if name not in metrics:
                # a span that never ran has no entry: it counts as zero
                zero = 0.0 if name.rsplit(".", 1)[-1] in SPAN_FIELDS else None
                metrics[name] = median_of(traced, "layers", name, zero)
    else:
        declared = spec["end_to_end"]
        metrics = dict(summary, ok_frac=(attempted - failed) / attempted)
        del metrics["cpu_s"]

    refs_path = BENCH_DIR / "reference_digests.json"
    refs = json.loads(refs_path.read_text()) if refs_path.exists() else {}
    expected = refs.get(args.workload, {}).get(str(args.seed))
    reference = ("none recorded" if expected is None else
                 "match" if expected == ref else "differs")
    env = environment(recs)
    report = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "environment": env, "digests": ref,
              "reference_digests": reference, "metrics": metrics,
              "repeats": [dict(r, failed=sorted(r["failed"])) for r in recs]}
    WORK.mkdir(exist_ok=True)
    out = WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(report, indent=1), encoding="utf-8")

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(recs)} repeats ({len(traced)} traced), "
          f"{failed}/{attempted} operations failed")
    print("environment " + json.dumps(env))
    print(f"artifact digests vs reference (information only): {reference}")
    for m in declared:
        print(f"  {m['name']} = {metrics[m['name']]:.6g} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
