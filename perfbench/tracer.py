"""Span tracer for the traced benchmark run.

The tracer wraps, from outside the package, every public function and every
public method of a public class in each segadapt module (the layers). A
wrapped call records one span ``[name, start, end, parent, run_id]``; spans
stay in memory and are summarised, and written out, when the run ends.

Functions imported by name into another module (``from .pseudolabel import
make_pseudo_label``) are re-bound there too, so a call is traced wherever it
is looked up. Generator functions are left alone: a span around one would
close before any work is done, so their time counts to the caller.

Besides spans the tracer keeps a few counters, taken where the work happens:
computed conv2d FLOPs, tape nodes per backward, one tracemalloc peak over a
taped step, reliable pixels of each pseudo-label bundle and checkpoint bytes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
import tracemalloc

LAYERS = ("autodiff", "model", "transforms", "pseudolabel", "losses", "optim",
          "inference", "estimators", "metrics", "synthdata", "data", "checkpoint", "cli")

NAME, START, END, PARENT, RUN = range(5)

TAPE_SPAN = "autodiff.Tape"  # one span per ``with Tape()`` block
FIT_SPANS = ("estimators.SourceTrainer.fit", "estimators.MultiHeadAdapter.fit")
# first traced calls of a UPL step's tape-free pseudo-label pass
PSEUDO_PASS_START = ("transforms.sample_transform", "transforms.apply_transform",
                     "model.SegModel.forward_head")


def _shape(x):
    return getattr(x, "data", x).shape


def _conv2d_flops(tracer, args, kwargs):
    x = args[0] if args else kwargs["x"]
    w = args[1] if len(args) > 1 else kwargs["w"]
    b, _, h, wd = _shape(x)
    cout, cin, k, _ = _shape(w)
    tracer.count("conv2d.flop", 2 * b * h * wd * cout * cin * k * k)


def _tape_nodes(tracer, args, kwargs):
    tracer.count("tape.nodes", len(args[0]))
    tracer.count("tape.steps", 1)


def _bundle_pixels(tracer, args, kwargs, result):
    rel = result.reliability
    tracer.count("pseudolabel.reliable_px", float(rel.sum()))
    tracer.count("pseudolabel.attempted_px", int(rel.size))


def _file_bytes(tracer, args, kwargs, result=None):
    path = args[0] if args else kwargs["path"]
    if os.path.exists(path):
        tracer.count("checkpoint.bytes", os.path.getsize(path))


# name -> (called before the wrapped call with its arguments,
#          called after it with its arguments and result)
PROBES = {
    "autodiff.conv2d": (_conv2d_flops, None),
    "autodiff.Tape.backward": (_tape_nodes, None),
    "pseudolabel.make_pseudo_label": (None, _bundle_pixels),
    "checkpoint.load_checkpoint": (_file_bytes, None),
    "checkpoint.save_checkpoint": (None, _file_bytes),
}


class Tracer:
    """In-memory span recorder. ``run_id`` tags the spans of one CLI stage."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[tuple, float] = {}
        self.run_id = 0
        self._stack: list[int] = []
        self._peak_pending = True  # measure one taped step with tracemalloc
        self._peak_active = False

    def count(self, key: str, value):
        k = (self.run_id, key)
        self.counters[k] = self.counters.get(k, 0) + value

    def open(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.run_id]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = time.perf_counter()
        return span

    def close(self, span: list):
        span[END] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        before, after = PROBES.get(name, (None, None))
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(tracer, args, kwargs)
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return traced

    # -- the Tape context -------------------------------------------------

    def _wrap_tape(self, tape_cls):
        enter, exit_ = tape_cls.__enter__, tape_cls.__exit__
        tracer = self

        def traced_enter(tape):
            result = enter(tape)
            if tracer._peak_pending:
                tracer._peak_pending = False
                tracer._peak_active = True
                tracemalloc.start()
            tracer.open(TAPE_SPAN)
            return result

        def traced_exit(tape, *exc):
            tracer.close(tracer.spans[tracer._stack[-1]])
            if tracer._peak_active:
                tracer._peak_active = False
                tracer.count("tape.peak_bytes", tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
            return exit_(tape, *exc)

        tape_cls.__enter__ = traced_enter
        tape_cls.__exit__ = traced_exit

    def install(self):
        """Wrap every layer's public callables; re-bind imported names."""
        wrapped = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"segadapt.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                    wrapped[obj] = self.wrap(f"{layer}.{attr}", obj)
                    setattr(mod, attr, wrapped[obj])
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if (meth.startswith("_") or not inspect.isfunction(fn)
                                or inspect.isgeneratorfunction(fn)):
                            continue
                        setattr(obj, meth, self.wrap(f"{layer}.{obj.__name__}.{meth}", fn))
        self._wrap_tape(importlib.import_module("segadapt.autodiff").Tape)
        for name, mod in list(sys.modules.items()):
            if mod is None or not name.startswith("segadapt"):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])


# ---------------------------------------------------------------------------
# summaries


def _tree(spans):
    n = len(spans)
    dur = [s[END] - s[START] for s in spans]
    children: list[list[int]] = [[] for _ in range(n)]
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children[s[PARENT]].append(i)
    self_s = [dur[i] - sum(dur[c] for c in children[i]) for i in range(n)]
    return dur, children, self_s


def _upl_phases(spans, dur, children, fits):
    """Split each UPL step at the Tape context boundaries: pseudo-label pass
    (first traced call of the step up to the Tape entry), taped pass (inside
    the Tape less backward), backward, and the Adam update."""
    out = {"pseudo_pass_s": 0.0, "taped_pass_s": 0.0, "backward_s": 0.0, "adam_s": 0.0}
    for fit in fits:
        step_start = None
        for c in children[fit]:
            name = spans[c][NAME]
            if name == TAPE_SPAN:
                if step_start is not None:
                    out["pseudo_pass_s"] += spans[c][START] - step_start
                bw = sum(dur[g] for g in children[c]
                         if spans[g][NAME] == "autodiff.Tape.backward")
                out["taped_pass_s"] += dur[c] - bw
                out["backward_s"] += bw
                step_start = None
            elif name in ("optim.Adam.step", "optim.Adam.zero_grad"):
                out["adam_s"] += dur[c]
            elif step_start is None and name in PSEUDO_PASS_START:
                step_start = spans[c][START]
    return out


def _nearest(spans, i, name):
    p = spans[i][PARENT]
    while p >= 0 and spans[p][NAME] != name:
        p = spans[p][PARENT]
    return p


def summarize(spans, counters, run_ids) -> dict:
    """Layer metrics over the spans whose run id is in ``run_ids``."""
    dur, children, self_s = _tree(spans)
    keep = [i for i, s in enumerate(spans) if s[RUN] in run_ids]
    calls: dict[str, int] = {}
    incl: dict[str, float] = {}
    layer_self: dict[str, float] = {layer: 0.0 for layer in LAYERS}
    for i in keep:
        name = spans[i][NAME]
        calls[name] = calls.get(name, 0) + 1
        p = spans[i][PARENT]
        if p < 0 or spans[p][NAME] != name:  # outermost of a direct recursion
            incl[name] = incl.get(name, 0.0) + dur[i]
        layer_self[name.split(".", 1)[0]] += self_s[i]

    def counter(key):
        return sum(v for (rid, k), v in counters.items() if k == key and rid in run_ids)

    fits = [i for i in keep if spans[i][NAME] in FIT_SPANS]
    fit_wall = sum(dur[i] for i in fits)
    fit_self = sum(self_s[i] for i in fits)
    conv_per_head: dict[int, int] = {}
    for i in keep:
        if spans[i][NAME] == "autodiff.conv2d":
            head = _nearest(spans, i, "model.SegModel.forward_head")
            conv_per_head[head] = conv_per_head.get(head, 0) + 1
    heads = [i for i in keep if spans[i][NAME] == "model.SegModel.forward_head"]
    tape_steps = counter("tape.steps")
    attempted_px = counter("pseudolabel.attempted_px")
    return {
        "calls": calls,
        "incl_s": incl,
        "layer_self_s": layer_self,
        "fit_wall_s": fit_wall,
        "fit_coverage": (1.0 - fit_self / fit_wall) if fit_wall > 0 else None,
        "conv2d_per_forward_head": sorted({conv_per_head.get(h, 0) for h in heads}),
        "forward_head_per_fit": [
            sum(1 for c in heads if _nearest(spans, c, spans[f][NAME]) == f) for f in fits],
        "upl": _upl_phases(spans, dur, children,
                           [i for i in fits if spans[i][NAME] == FIT_SPANS[1]]),
        "conv2d_gflop": counter("conv2d.flop") / 1e9,
        "tape_nodes_per_step": counter("tape.nodes") / tape_steps if tape_steps else 0.0,
        "tape_peak_mb": counter("tape.peak_bytes") / 2**20,
        "reliable_fraction": (counter("pseudolabel.reliable_px") / attempted_px
                              if attempted_px else None),
        "checkpoint_bytes": counter("checkpoint.bytes"),
    }
