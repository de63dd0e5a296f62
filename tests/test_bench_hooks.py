"""The names the benchmark under ``perfbench/`` hooks into still resolve.

The span tracer wraps callables by their dotted names, and its checks and
probes read a few of them (``FIT_SPANS``, ``PSEUDO_PASS_START``, the
``PROBES`` keys); the untraced run patches ``optim.Adam.step`` and the
``infer_*`` functions that ``cli`` looks up as its own globals. A rename
that breaks one of these fails here rather than as a failed benchmark.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from segadapt import cli, inference, optim
from segadapt.autodiff import Tape
from segadapt.pseudolabel import make_pseudo_label

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


tracer = load_tracer()


def resolve(name: str):
    """``layer.function`` or ``layer.Class.method`` as the tracer names it:
    a public, non-generator function defined in ``segadapt.<layer>``."""
    layer, *attrs = name.split(".")
    assert layer in tracer.LAYERS, name
    mod = importlib.import_module(f"segadapt.{layer}")
    owner = getattr(mod, attrs[0])
    assert owner.__module__ == mod.__name__, name
    fn = owner
    for attr in attrs[1:]:
        fn = vars(fn)[attr]
    assert inspect.isfunction(fn) and not inspect.isgeneratorfunction(fn), name
    assert not any(a.startswith("_") for a in attrs), name
    return fn


@pytest.mark.parametrize("name", [*tracer.FIT_SPANS, *tracer.PSEUDO_PASS_START,
                                  *tracer.PROBES])
def test_traced_name_resolves(name):
    resolve(name)


def test_probes_read_arguments_by_their_names():
    # the conv2d FLOP probe reads x and w, the file probes read path
    assert list(inspect.signature(resolve("autodiff.conv2d")).parameters)[:2] == ["x", "w"]
    for name in ("checkpoint.load_checkpoint", "checkpoint.save_checkpoint"):
        assert list(inspect.signature(resolve(name)).parameters)[0] == "path"


def test_tape_context_and_node_count():
    # the tracer wraps Tape's context methods and counts a tape's nodes with len()
    assert callable(Tape.__enter__) and callable(Tape.__exit__)
    with Tape() as tape:
        assert len(tape) == 0
    assert inspect.isfunction(vars(Tape)["backward"])


def test_bundle_reliability_probe():
    mean = np.full((1, 2, 4, 4), 0.5, np.float32)
    mean[:, 0, :2] = 0.99
    mean[:, 1, :2] = 0.01
    rel = make_pseudo_label(mean, 0.9).reliability
    assert float(rel.sum()) == 8.0 and int(rel.size) == 16


def test_untraced_hooks_reach_the_cli():
    assert inspect.isfunction(vars(optim.Adam)["step"])
    for name in ("infer_single", "infer_ensemble"):
        assert getattr(cli, name) is getattr(inference, name)
