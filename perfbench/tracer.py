"""In-memory span tracer for the tpgf package, installed from outside it.

`Tracer.install` replaces every public function of the tpgf modules, and
the public methods of `RngState`, with a wrapper that records one span
per call: name, start, end and the index of the enclosing span. A
function is rebound at every module attribute that holds it, because
modules import each other's functions by name (`nn` binds
`tensor.sigmoid`, `training` binds `model.encode_full`, ...); patching
only the defining module would miss exactly the hot calls.

Spans stay in memory until `summary` folds them into per-name totals and
`dump` writes them out, both after the measured work. The wrappers
return what the wrapped function returns, so a traced run writes the
same bytes as an untraced one.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from contextlib import contextmanager

MODULES = ("rng", "tensor", "nn", "sampling", "model", "data", "metrics",
           "training", "cli")
RNG_METHODS = ("uniform", "normal", "bernoulli", "randint_below", "split")

# spans under these count as the benchmark's evaluation phase
EVAL_PHASES = ("bench.eval", "cli.cmd_evaluate")

_CALLERS_FINAL_EVAL = ("evaluate", "evaluate_horizon")
_CALLERS_M1_PRECOMPUTE = ("train_tpg",)


def _cache_bytes(p, contexts, horizon: int) -> int:
    """Bytes of the backward caches one closed-loop rollout keeps alive.

    Computed from shapes, not measured: per LSTM step the new [B, H]
    arrays i, f, g, o, c', tanh(c') and h', and per decoder step after
    the first a fresh [B, F_in] input frame.
    """
    b, t_in, f_in = contexts.shape
    return 8 * b * (7 * p.hidden * (t_in + horizon) + (horizon - 1) * f_in)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []  # [name id, start, end, parent index]
        self._stack = [-1]
        self.counts: dict[str, float] = {}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + value

    def _parent_name(self) -> str:
        top = self._stack[-1]
        return self.names[self.spans[top][0]] if top >= 0 else ""

    # -- recording -------------------------------------------------------

    def wrap(self, name: str, fn, hook=None):
        nid = self._id(name)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [nid, clock(), 0.0, stack[-1]]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(args, result, span[2] - span[1])
            return result

        return traced

    @contextmanager
    def span(self, name: str):
        """Span around a block of the benchmark's own code."""
        idx = len(self.spans)
        span = [self._id(name), time.perf_counter(), 0.0, self._stack[-1]]
        self.spans.append(span)
        self._stack.append(idx)
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def add_span(self, name: str, start: float, end: float) -> None:
        """A finished top-level span, for time spent before install."""
        self.spans.append([self._id(name), start, end, -1])

    # -- counters taken where the work happens ---------------------------

    def _hooks(self):
        def forward_train(args, result, seconds):
            # rollout_batch feeds all-zero taus; only training draws count
            if self._parent_name() != "training.rollout_batch":
                taus = args[3]
                self._add("tau1", float(taus.sum()))
                self._add("taus", float(taus.size))

        def clip_gradients(args, result, seconds):
            # clip_gradients returns its input list unchanged when it
            # does not clip
            self._add("clipped", float(result is not args[0]))

        def rollout_batch(args, result, seconds):
            # frames: 0 this hook, 1 the wrapper, 2 the caller
            caller = sys._getframe(2).f_code.co_name
            if caller in _CALLERS_FINAL_EVAL:
                key = "final_eval_s"
            elif caller in _CALLERS_M1_PRECOMPUTE:
                key = "m1_precompute_s"
            else:
                key = "cadence_eval_s"
            self._add(key, seconds)
            self._add("cache_bytes", float(_cache_bytes(*args[:3])))

        def csv_bytes(key, path_arg):
            def hook(args, result, seconds):
                self._add(key, float(os.path.getsize(args[path_arg])))
            return hook

        return {
            "training.forward_train": forward_train,
            "training.clip_gradients": clip_gradients,
            "training.rollout_batch": rollout_batch,
            "data.write_series_csv": csv_bytes("data.write_series_csv.bytes", 1),
            "data.load_series_csv": csv_bytes("data.load_series_csv.bytes", 0),
        }

    def install(self) -> None:
        hooks = self._hooks()
        mods = [importlib.import_module(f"tpgf.{m}") for m in MODULES]
        wrapped = {}
        for short, mod in zip(MODULES, mods):
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    full = f"{short}.{name}"
                    wrapped[obj] = self.wrap(full, obj, hooks.get(full))
        for mod in mods:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, name, wrapped[obj])
        rng_cls = importlib.import_module("tpgf.rng").RngState
        for name in RNG_METHODS:
            setattr(rng_cls, name, self.wrap(f"rng.{name}", getattr(rng_cls, name)))

    # -- output ----------------------------------------------------------

    def summary(self) -> dict:
        """Flat totals: <span>.calls, .self_s and .incl_s for every span
        name, the raw counters, and the roll-ups the benchmark derives
        its per-layer metrics from."""
        spans = self.spans
        child = [0.0] * len(spans)
        for nid, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        out = dict(self.counts)
        self_sum = 0.0
        tpgf_self = 0.0
        eval_ids = {self._ids[n] for n in EVAL_PHASES if n in self._ids}
        rollout_id = self._ids.get("training.rollout_batch")
        eval_rollouts = 0
        for idx, (nid, start, end, parent) in enumerate(spans):
            name = self.names[nid]
            own = end - start - child[idx]
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
            out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + own
            out[f"{name}.incl_s"] = out.get(f"{name}.incl_s", 0.0) + end - start
            self_sum += own
            if not name.startswith("bench."):
                tpgf_self += own
            if nid == rollout_id:
                up = parent
                while up >= 0 and spans[up][0] not in eval_ids:
                    up = spans[up][3]
                eval_rollouts += up >= 0
        out["eval_rollouts"] = eval_rollouts
        out["self_sum_s"] = self_sum
        out["tpgf_self_s"] = tpgf_self
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh)
