"""One benchmark process: runs segadapt CLI stages through ``cli.main``.

Usage: ``python3 perfbench/stage.py SPEC.json RESULT.json``

SPEC holds ``pre`` (argv lists run once, in order), ``round`` (argv lists
run as one closed-loop round), ``seconds`` (keep starting rounds while the
time left is at least the last round's duration; ``null`` runs one round),
``hash`` (files hashed after every invocation), ``instrument`` (``none``,
``train``, ``eval`` or ``trace``) and ``spans_out``.

``train`` and ``eval`` install the only instrumentation of an untraced run:
one timestamp taken when ``optim.Adam.step`` returns, or when an
``inference.infer_*`` function returns. ``trace`` installs the span tracer.
The result records each invocation's exit code, wall time and timestamps,
this process's peak RSS and the machine it ran on.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import gzip
import hashlib
import io
import json
import os
import platform
import resource
import sys
import time
import traceback

import numpy as np

from segadapt import cli, inference, optim


def _install_hook(kind: str) -> list:
    stamps: list[float] = []
    clock = time.perf_counter
    if kind == "train":
        step = optim.Adam.step

        def hooked_step(self):
            step(self)
            stamps.append(clock())

        optim.Adam.step = hooked_step
    else:
        for name in ("infer_single", "infer_ensemble"):
            def hooked(*args, _fn=getattr(inference, name), **kwargs):
                out = _fn(*args, **kwargs)
                stamps.append(clock())
                return out

            setattr(inference, name, hooked)
            setattr(cli, name, hooked)  # cli imported it by name
    return stamps


def _blas_threads():
    """Thread count reported by numpy's bundled OpenBLAS, if it is found."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads() or os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _sha256(path: str) -> str | None:
    if not os.path.exists(path):
        return None
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def _invoke(argv: list, stamps: list, hash_paths: list) -> dict:
    first = len(stamps)
    out = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            rc = cli.main(argv)
    except SystemExit as e:  # argparse usage errors
        rc = e.code if isinstance(e.code, int) else 2
    except Exception:  # a traceback is a failed stage, reported by the parent
        rc = 1
        out.write(traceback.format_exc())
    wall = time.perf_counter() - t0
    return {"argv": argv, "rc": rc, "wall_s": wall, "stamps": stamps[first:],
            "hashes": {p: _sha256(p) for p in hash_paths},
            "output": out.getvalue()[-2000:]}


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path, encoding="utf-8") as f:
        spec = json.load(f)
    instrument = spec.get("instrument", "none")
    stamps: list[float] = []
    tracer = None
    if instrument in ("train", "eval"):
        stamps = _install_hook(instrument)
    elif instrument == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    hash_paths = spec.get("hash", [])
    result = {"machine": machine(), "pre": [], "rounds": []}

    def run(argv):
        if tracer is not None:
            tracer.run_id += 1
        inv = _invoke(argv, stamps, hash_paths)
        inv["run_id"] = tracer.run_id if tracer is not None else None
        return inv

    for argv in spec.get("pre", []):
        result["pre"].append(run(argv))
        if result["pre"][-1]["rc"] != 0:
            break
    else:
        seconds = spec.get("seconds")
        t0 = time.perf_counter()
        while spec.get("round"):
            r0 = time.perf_counter()
            invs = [run(argv) for argv in spec["round"]]
            result["rounds"].append({"wall_s": time.perf_counter() - r0, "invocations": invs})
            elapsed = time.perf_counter() - t0
            last = result["rounds"][-1]["wall_s"]
            if (seconds is None or elapsed + last > seconds
                    or any(inv["rc"] != 0 for inv in invs)):
                break
    result["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        from tracer import summarize

        round_ids = {inv["run_id"] for r in result["rounds"] for inv in r["invocations"]}
        pre_ids = {inv["run_id"] for inv in result["pre"]}
        result["layers"] = summarize(tracer.spans, tracer.counters, round_ids)
        result["setup_layers"] = summarize(tracer.spans, tracer.counters, pre_ids)
        result["span_count"] = len(tracer.spans)
        if spec.get("spans_out"):
            with gzip.open(spec["spans_out"], "wt", encoding="utf-8") as f:
                json.dump({"fields": ["name", "start", "end", "parent", "run_id"],
                           "spans": tracer.spans}, f)
    with open(result_path, "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
