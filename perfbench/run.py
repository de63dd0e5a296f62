"""segadapt benchmark: end-to-end and per-layer metrics of the CLI.

Usage (from the repository root)::

    python3 perfbench/run.py --workload adapt-upl --seed 1 --seconds 30 --trace 0

``--workload all`` runs every workload in turn, each with its own table and
result line.

One run is one closed-loop client. It builds the workload's inputs from the
seed in set-up processes, then drives ``segadapt.cli.main`` in a fresh timed
process, repeating the workload's round of CLI stages while the time left is
at least the last round's duration. Check processes then evaluate the outputs.
Workloads, their inputs and the layer-to-metric predictions live in
``perfbench/workloads.json``.

``--trace 0`` reports the end-to-end metrics. The timed process carries one
timestamp hook, at each ``optim.Adam.step`` return (training) or
``inference.infer_*`` return (eval), and nothing else.

End-to-end metrics of one run:

- ``setup_s``: median wall time of the repeated ``gen-data``, plus the
  ``pretrain`` of the source checkpoint where the workload needs one.
- ``slices_per_s``: slices x epochs (training) or slices x modes (eval) per
  second of CLI wall time, validation included.
- ``step_p50_s``, ``step_p90_s``: latency of one unit of work. Training: the
  interval between two ``Adam.step`` returns in one epoch, one 10-slice
  batch. Eval: one case through every mode, scaled to 10 slices, since case
  sizes vary with the seed.
- ``peak_rss_mb``: ``ru_maxrss`` of the timed process.
- ``dice_mean`` and ``error_rate`` (table only): mean foreground Dice of the
  workload's output, and failed over attempted stages.

``--trace 1`` runs one untraced round and then the same round in a process
where ``perfbench/tracer.py`` wraps every layer's public functions, and
reports the per-layer metrics plus the tracing overhead (traced round wall
minus untraced round wall). Spans are written to ``.perfbench_out/``.

Every run prints a table of all metrics by name and unit, then, as the last
line, ``{"correct", "attempted", "failed", "metrics"}``. A stage fails on a
non-zero exit (4 is a non-finite loss) or a failed output check.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DEADLINE_S = 170.0  # the whole run, children included, ends before 180 s
CONV2D_PER_HEAD = 13  # 2 levels: 6 encoder + 6 decoder convs + the 1x1 output

# printed besides BENCHMARK.json's end_to_end metrics but left out of the result
# line: dice varies with the seed's data far beyond any usable bound, and
# error_rate is 0 on a healthy run (the result line carries failed/attempted)
END_TO_END_TABLE = [("dice_mean", "ratio"), ("error_rate", "ratio")]


def load_workloads() -> dict:
    with open(BENCH / "workloads.json", encoding="utf-8") as f:
        return json.load(f)


def parse_args(argv, names):
    p = argparse.ArgumentParser(description="segadapt benchmark run")
    p.add_argument("--workload", required=True, choices=names + ["all"],
                   help="one workload, or all of them one after another")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        p.error("--seed must fit in u64")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def write_ini(path: Path, config: dict):
    lines = []
    for section, keys in config.items():
        lines.append(f"[{section}]")
        lines += [f"{k} = {v}" for k, v in keys.items()]
        lines.append("")
    path.write_text("\n".join(lines), encoding="utf-8")


def mean_dice(csv_path: Path) -> float:
    with open(csv_path, newline="", encoding="utf-8") as f:
        return statistics.fmean(float(row["dice"]) for row in csv.DictReader(f))


class Run:
    """One benchmark run: child processes, stage outcomes and output checks.

    Every CLI invocation is a stage; an output check marks the stage whose
    output it checked as failed."""

    def __init__(self, args, spec: dict, common: dict):
        self.args, self.spec, self.common = args, spec, common
        self.t0 = time.monotonic()
        self.work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
        self.stages: dict[str, bool] = {}
        self.notes: list[str] = []
        self.machine: dict = {}
        self.samples = self.beyond_p90 = self.rounds = 0
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.env["PYTHONDONTWRITEBYTECODE"] = "1"
        threads = str(common["blas_threads"])
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = threads

    # -- stage bookkeeping ---------------------------------------------------

    def stage(self, label: str, ok: bool, why: str = ""):
        self.stages[label] = self.stages.get(label, True) and ok
        if not ok:
            self.notes.append(f"FAIL {label}: {why}")

    def check(self, label: str, ok: bool, what: str):
        self.stage(label, ok, what)
        if ok:
            self.notes.append(f"ok   {label}: {what}")

    @staticmethod
    def _inv_label(inv) -> str:
        argv = inv["argv"]
        return f"{argv[0]}-{argv[argv.index('--mode') + 1]}" if "--mode" in argv else argv[0]

    @classmethod
    def round_label(cls, name: str, result: dict, r: int) -> str:
        """Label of the last stage of round ``r`` (0-based) of a child."""
        return f"{name}:{cls._inv_label(result['rounds'][r]['invocations'][-1])}#r{r + 1}"

    @staticmethod
    def all_ok(result: dict | None) -> bool:
        return result is not None and all(
            inv["rc"] == 0 for inv in result["pre"] + [
                i for r in result["rounds"] for i in r["invocations"]])

    # -- child processes -----------------------------------------------------

    def child(self, name: str, spec: dict) -> dict | None:
        spec_path = self.work / f"{name}.spec.json"
        out_path = self.work / f"{name}.result.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        left = DEADLINE_S - (time.monotonic() - self.t0)
        proc = subprocess.Popen([sys.executable, str(BENCH / "stage.py"), str(spec_path),
                                 str(out_path)], env=self.env, cwd=str(ROOT),
                                stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        try:
            log, _ = proc.communicate(timeout=max(left, 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            self.stage(f"{name}:process", False, "timed out before the run deadline")
            return None
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        if proc.returncode != 0 or not out_path.exists():
            self.stage(f"{name}:process", False,
                       f"exit {proc.returncode}: {log.strip()[-500:]}")
            return None
        result = json.loads(out_path.read_text(encoding="utf-8"))
        labelled = [(f"{name}:{inv['argv'][0]}#{i + 1}", inv)
                    for i, inv in enumerate(result["pre"])]
        labelled += [(f"{name}:{self._inv_label(inv)}#r{r + 1}", inv)
                     for r, rnd in enumerate(result["rounds"]) for inv in rnd["invocations"]]
        for label, inv in labelled:
            self.stage(label, inv["rc"] == 0,
                       f"exit code {inv['rc']}: {inv['output'].strip()[-300:]}")
        self.machine = result["machine"]
        return result

    # -- inputs --------------------------------------------------------------

    def argv(self, command: str, *rest) -> list:
        return [command, *map(str, rest), "--config", str(self.ini), "--seed",
                str(self.args.seed)]

    def round_argv(self) -> tuple[list, list]:
        """The timed round and the files it must reproduce on every round."""
        stage = self.spec["stage"]
        if stage["command"] == "pretrain":
            out = self.work / "trained"
            return ([self.argv("pretrain", "--data", self.data, "--out", out)],
                    [str(out / "checkpoint.uplc"), str(out / "trainlog.jsonl")])
        if stage["command"] == "adapt":
            out = self.work / "adapted"
            return ([self.argv("adapt", "--checkpoint", self.ckpt, "--data", self.data,
                               "--out", out, "--method", stage["method"])],
                    [str(out / "adapted.uplc"), str(out / "trainlog.jsonl")])
        split = self.data / f"{stage['split']}.upld"
        csvs = [self.work / "eval" / f"{mode}.csv" for mode in stage["modes"]]
        return ([self.argv("eval", "--checkpoint", self.ckpt, "--data", split, "--out", c,
                           "--mode", mode) for mode, c in zip(stage["modes"], csvs)],
                [str(c) for c in csvs])

    def schedule(self) -> dict:
        """What one training round does: epochs, steps per epoch, the train
        and val sets and the head count, as the code's schedule sets them."""
        section = self.spec["stage"]["command"]  # "pretrain" or "adapt"
        cfg = self.spec["config"][section]
        domain = "source" if section == "pretrain" else "target"
        train = self.sets[f"{domain}_train"]
        return {"epochs": cfg["epochs"], "steps": math.ceil(len(train) / int(cfg["batch"])),
                "train": train, "val": self.sets[f"{domain}_val"],
                "heads": cfg["heads"] if section == "adapt" else 1}

    # -- the run -------------------------------------------------------------

    def execute(self) -> tuple[dict, dict | None]:
        self.work.mkdir(parents=True, exist_ok=True)
        self.ini = self.work / "workload.ini"
        write_ini(self.ini, self.spec["config"])
        self.data = self.work / "data"
        self.ckpt = self.work / "source" / "checkpoint.uplc"
        data_files = [str(self.data / f"{d}_{s}.upld")
                      for d in ("source", "target") for s in ("train", "val", "test")]

        repeats = self.common["setup_repeats"]
        pre = [self.argv("gen-data", "--out", self.data)] * repeats
        if "pretrain" in self.spec["setup"]:
            pre.append(self.argv("pretrain", "--data", self.data, "--out", self.ckpt.parent))
        setup = self.child("setup", {"pre": pre, "hash": data_files})
        if not self.all_ok(setup):
            return {}, None
        gens = setup["pre"][:repeats]
        self.check("setup:gen-data#1", all(g["hashes"] == gens[0]["hashes"] for g in gens)
                   and None not in gens[0]["hashes"].values(),
                   f"{repeats} gen-data repeats wrote byte-identical datasets")
        if not self._load_back(data_files):
            return {}, None
        if "pretrain" in self.spec["setup"]:
            self._load_ckpt(f"setup:pretrain#{repeats + 1}", self.ckpt)
        e2e = {"setup_s": statistics.median(g["wall_s"] for g in gens)
               + sum(inv["wall_s"] for inv in setup["pre"][repeats:])}

        round_argv, round_files = self.round_argv()
        kind = "eval" if self.spec["stage"]["command"] == "eval" else "train"
        trace = self.args.trace == 1
        # a traced run compares one untraced and one traced round, each after
        # the same gen-data, which also gives the traced set-up layers
        pre = [self.argv("gen-data", "--out", self.work / "pre-data")] if trace else []
        timed = self.child("timed", {"pre": pre, "round": round_argv, "hash": round_files,
                                     "instrument": kind,
                                     "seconds": None if trace else self.args.seconds})
        if not self.all_ok(timed) or not timed["rounds"]:
            return e2e, None
        e2e.update(self._timed_metrics(timed, kind))
        first = timed["rounds"][0]["invocations"][-1]["hashes"]
        for r, rnd in enumerate(timed["rounds"][1:], start=1):
            self.check(self.round_label("timed", timed, r),
                       rnd["invocations"][-1]["hashes"] == first,
                       "outputs byte-identical to round 1")
        e2e.update(self._output_checks(self.round_label("timed", timed, self.rounds - 1)))
        if not trace:
            return e2e, None
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        spans = out_dir / f"{self.args.workload}-seed{self.args.seed}-spans.json.gz"
        traced = self.child("traced", {
            "pre": pre, "round": round_argv, "hash": round_files, "instrument": "trace",
            "seconds": None, "spans_out": str(spans)})
        if traced is None or not traced["rounds"]:
            return e2e, None
        traced["spans_path"] = str(spans.relative_to(ROOT))
        traced["overhead_s"] = traced["rounds"][0]["wall_s"] - timed["rounds"][0]["wall_s"]
        traced["overhead_share"] = traced["overhead_s"] / timed["rounds"][0]["wall_s"]
        if self.all_ok(traced):
            self._check_counts(traced)
        return e2e, traced

    def _load_back(self, data_files) -> bool:
        from segadapt.data import DatasetError, load_dataset

        try:
            self.sets = {Path(p).stem: load_dataset(p) for p in data_files}
        except (DatasetError, OSError) as e:
            self.check("setup:gen-data#1", False, f"dataset does not load back: {e}")
            return False
        self.check("setup:gen-data#1", True, "all six datasets load back")
        return True

    def _load_ckpt(self, label: str, path: Path):
        from segadapt.checkpoint import CheckpointError, load_checkpoint

        try:
            load_checkpoint(path)
            self.check(label, True, f"{path.name} loads back")
        except (CheckpointError, OSError) as e:
            self.check(label, False, f"{path.name} does not load back: {e}")

    def _timed_metrics(self, timed: dict, kind: str) -> dict:
        invs = [inv for r in timed["rounds"] for inv in r["invocations"]]
        label = self.round_label("timed", timed, 0)
        latencies: list[float] = []
        if kind == "train":
            sch = self.schedule()
            epochs, steps = sch["epochs"], sch["steps"]
            work = len(sch["train"]) * epochs * len(invs)
            for inv in invs:
                st = inv["stamps"]
                if len(st) != steps * epochs:
                    self.stage(label, False, f"{len(st)} Adam steps, schedule says "
                                             f"{steps * epochs}")
                    continue
                for e in range(epochs):  # the first step of an epoch has no start stamp
                    ep = st[e * steps:(e + 1) * steps]
                    latencies += [b - a for a, b in zip(ep, ep[1:])]
        else:
            split = self.sets[self.spec["stage"]["split"]]
            sizes = [len(split.case_slices(c)) for c in range(split.n_cases)]
            work = len(split) * len(invs)
            unit = self.common["unit_slices"]
            for r in timed["rounds"]:  # a unit is one case through every mode
                per_mode = [inv["stamps"] for inv in r["invocations"]]
                if any(len(st) != len(sizes) for st in per_mode):
                    self.stage(label, False, "infer calls do not match the split's cases")
                    continue
                for c in range(1, len(sizes)):  # case 0 has no start stamp
                    t = sum(st[c] - st[c - 1] for st in per_mode)
                    latencies.append(t * unit / sizes[c])
        self.rounds, self.samples = len(timed["rounds"]), len(latencies)
        out = {"slices_per_s": work / sum(inv["wall_s"] for inv in invs),
               "peak_rss_mb": timed["maxrss_mb"]}
        if len(latencies) < 2:
            self.stage(label, False, f"{len(latencies)} latency samples, need 2")
            return out
        out["step_p50_s"] = statistics.median(latencies)
        out["step_p90_s"] = statistics.quantiles(latencies, n=10, method="inclusive")[8]
        self.beyond_p90 = sum(1 for x in latencies if x > out["step_p90_s"])
        return out

    def _output_checks(self, label: str) -> dict:
        """Load the timed stage's outputs back and evaluate them; returns
        dice_mean. ``label`` names the stage that wrote them."""
        stage = self.spec["stage"]
        if stage["command"] == "eval":
            csvs = [Path(p) for p in self.round_argv()[1]]
            return {"dice_mean": statistics.fmean(mean_dice(c) for c in csvs)}
        trained = self.work / ("trained/checkpoint.uplc" if stage["command"] == "pretrain"
                               else "adapted/adapted.uplc")
        self._load_ckpt(label, trained)
        evals = self.work / "checks"
        if stage["command"] == "pretrain":
            runs = {"trained": (trained, "source_test", "single")}
        else:
            runs = {"source": (self.ckpt, "target_test", "ensemble"),
                    "adapted": (trained, "target_test", "ensemble")}
        argvs = [self.argv("eval", "--checkpoint", ck, "--data", self.data / f"{split}.upld",
                           "--out", evals / f"{name}.csv", "--mode", mode)
                 for name, (ck, split, mode) in runs.items()]
        if not self.all_ok(self.child("check", {"pre": argvs})):
            return {}
        dice = {name: mean_dice(evals / f"{name}.csv") for name in runs}
        if stage["command"] == "adapt":
            self.check(f"check:eval#{len(runs)}", dice["adapted"] > dice["source"],
                       f"adapted ensemble dice {dice['adapted']:.4f} > source-only "
                       f"{dice['source']:.4f} on target_test")
            return {"dice_mean": dice["adapted"]}
        return {"dice_mean": dice["trained"]}

    def _check_counts(self, traced: dict):
        """Exact call counts must match the code's schedule."""
        lay = traced["layers"]
        calls = lay["calls"]
        label = self.round_label("traced", traced, 0)
        self.check(label, lay["conv2d_per_forward_head"] == [CONV2D_PER_HEAD],
                   f"conv2d calls per forward_head {lay['conv2d_per_forward_head']} "
                   f"== [{CONV2D_PER_HEAD}]")
        stage = self.spec["stage"]
        if stage["command"] == "eval":
            n, heads = self.sets[stage["split"]].n_cases, self.spec["config"]["adapt"]["heads"]
            want = {"inference.infer_single": n, "inference.infer_ensemble": n,
                    "model.SegModel.forward_head": n * (1 + heads)}
        else:
            sch = self.schedule()
            k, steps = sch["heads"], sch["steps"]
            # UPL: K heads in each of two passes per step; validation: K per case
            per_epoch = (2 * k * steps if stage["command"] == "adapt" else steps)
            per_fit = sch["epochs"] * (per_epoch + k * sch["val"].n_cases)
            self.check(label, lay["forward_head_per_fit"] == [per_fit],
                       f"forward_head calls per fit {lay['forward_head_per_fit']} == [{per_fit}]")
            want = {"optim.Adam.step": sch["epochs"] * steps}
            cov, floor = lay["fit_coverage"], self.common["coverage_min"]
            self.check(label, cov is not None and cov >= floor,
                       f"traced spans cover {cov or 0:.1%} of fit wall time (>= {floor:.0%})")
        for name, n in want.items():
            self.check(label, calls.get(name, 0) == n, f"{name} calls {calls.get(name, 0)} == {n}")


# ---------------------------------------------------------------------------
# per-layer metrics


def layer_metrics(traced: dict, timed_rcs: list) -> list:
    """(name, unit, value) for every per-layer metric, from one traced round."""
    lay, setup = traced["layers"], traced["setup_layers"]
    c, t = lay["calls"], lay["incl_s"]
    upl = lay["upl"]
    rows = [
        ("autodiff.conv2d.calls", "count", c.get("autodiff.conv2d", 0)),
        ("autodiff.conv2d.fwd_s", "s", t.get("autodiff.conv2d", 0.0)),
        ("autodiff.conv2d.gflop", "GFLOP_computed", lay["conv2d_gflop"]),
        ("autodiff.Tape.backward.s", "s", t.get("autodiff.Tape.backward", 0.0)),
        ("autodiff.tape.nodes", "count", lay["tape_nodes_per_step"]),
        ("autodiff.tape.peak_mb", "MB", lay["tape_peak_mb"]),
        ("autodiff.BatchNorm2d.forward.s", "s", t.get("autodiff.BatchNorm2d.forward", 0.0)),
        ("model.forward_head.calls", "count", c.get("model.SegModel.forward_head", 0)),
        ("model.forward_head.s", "s", t.get("model.SegModel.forward_head", 0.0)),
        ("model.Encoder.forward.calls", "count", c.get("model.Encoder.forward", 0)),
        ("model.Encoder.forward.s", "s", t.get("model.Encoder.forward", 0.0)),
        ("model.Decoder.forward.s", "s", t.get("model.Decoder.forward", 0.0)),
        ("model.clone.s", "s", t.get("model.SegModel.clone", 0.0)),
        ("transforms.apply.calls", "count", c.get("transforms.apply_transform", 0)),
        ("transforms.apply.s", "s", t.get("transforms.apply_transform", 0.0)),
        ("pseudolabel.make_pseudo_label.s", "s", t.get("pseudolabel.make_pseudo_label", 0.0)),
        ("pseudolabel.cleanup_label_map.calls", "count",
         c.get("pseudolabel.cleanup_label_map", 0)),
        ("pseudolabel.cleanup_label_map.s", "s", t.get("pseudolabel.cleanup_label_map", 0.0)),
        ("pseudolabel.reliable_fraction", "ratio", lay["reliable_fraction"]),
        ("losses.multi_head_dice_loss.s", "s", t.get("losses.multi_head_dice_loss", 0.0)),
        ("losses.mean_prediction_entropy.s", "s",
         t.get("losses.mean_prediction_entropy", 0.0)),
        ("losses.dice_loss.s", "s", t.get("losses.dice_loss", 0.0)),
        ("optim.Adam.step.calls", "count", c.get("optim.Adam.step", 0)),
        ("optim.Adam.step.s", "s", t.get("optim.Adam.step", 0.0)),
        ("inference.infer_single.s", "s", t.get("inference.infer_single", 0.0)),
        ("inference.infer_ensemble.calls", "count", c.get("inference.infer_ensemble", 0)),
        ("inference.infer_ensemble.s", "s", t.get("inference.infer_ensemble", 0.0)),
        ("estimators.validation_dice.s", "s", t.get("estimators.validation_dice", 0.0)),
        ("estimators.upl.pseudo_pass_s", "s", upl["pseudo_pass_s"]),
        ("estimators.upl.taped_pass_s", "s", upl["taped_pass_s"]),
        ("estimators.upl.backward_s", "s", upl["backward_s"]),
        ("estimators.upl.adam_s", "s", upl["adam_s"]),
        ("metrics.assd.s", "s", t.get("metrics.assd", 0.0)),
        ("metrics.dice_coefficient.s", "s", t.get("metrics.dice_coefficient", 0.0)),
        # gen-data runs in set-up only; one traced gen-data gives these two
        ("synthdata.generate_benchmark.s", "s",
         setup["incl_s"].get("synthdata.generate_benchmark", 0.0)),
        ("data.save_dataset.s", "s", setup["incl_s"].get("data.save_dataset", 0.0)),
        ("data.load_dataset.s", "s", t.get("data.load_dataset", 0.0)),
        ("checkpoint.save_checkpoint.s", "s", t.get("checkpoint.save_checkpoint", 0.0)),
        ("checkpoint.load_checkpoint.s", "s", t.get("checkpoint.load_checkpoint", 0.0)),
        ("checkpoint.bytes", "bytes", lay["checkpoint_bytes"]),
        ("cli.main.s", "s", t.get("cli.main", 0.0)),
        ("estimators.NumericFailure.count", "count", sum(1 for rc in timed_rcs if rc == 4)),
    ]
    rows += [(f"layer.{name}.self_s", "s", v) for name, v in lay["layer_self_s"].items()]
    rows.append(("trace.fit_coverage", "ratio", lay["fit_coverage"]))
    return rows


def bench_metrics(kind: str) -> list:
    """(name, unit) of BENCHMARK.json's ``end_to_end`` or ``per_layer`` list."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return [(m["name"], m["unit"]) for m in json.load(f)[kind]]


def fmt(v) -> str:
    if v is None:
        return "n/a"
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def main(argv=None) -> int:
    if not (SRC / "segadapt" / "cli.py").is_file():
        print(f"benchmark error: no segadapt sources under {SRC}", file=sys.stderr)
        return 2
    common = load_workloads()
    args = parse_args(argv, sorted(common["workloads"]))
    sys.path.insert(0, str(SRC))
    sys.dont_write_bytecode = True
    names = sorted(common["workloads"]) if args.workload == "all" else [args.workload]
    for name in names:
        args.workload = name
        run_workload(args, common)
    return 0


def run_workload(args, common: dict):
    """One run of one workload: the metric table, then the result line."""
    run = Run(args, common["workloads"][args.workload], common)
    try:
        e2e, traced = run.execute()
    except Exception:  # a broken run still reports its failure on the result line
        run.stage("benchmark", False, traceback.format_exc().strip()[-800:])
        e2e, traced = {}, None
    finally:
        shutil.rmtree(run.work, ignore_errors=True)

    attempted = len(run.stages)
    failed = sum(1 for ok in run.stages.values() if not ok)
    e2e["error_rate"] = failed / attempted if attempted else 1.0
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print("machine  " + "  ".join(f"{k}={v}" for k, v in run.machine.items()))
    end_to_end = bench_metrics("end_to_end")
    for name, unit in end_to_end + END_TO_END_TABLE:
        extra = ""
        if name.startswith("step_") and run.samples:
            extra = f"  (n={run.samples} samples over {run.rounds} round(s)"
            extra += f", {run.beyond_p90} beyond p90)" if name == "step_p90_s" else ")"
        if name == "error_rate":
            extra = f"  ({failed} of {attempted} stages failed)"
        print(f"e2e    {name:34s} {fmt(e2e.get(name)):>14s} {unit}{extra}")
    metrics = {}
    if args.trace == 0:
        for name, unit in end_to_end:
            if name in e2e and math.isfinite(e2e[name]):
                metrics[name] = {"value": e2e[name], "unit": unit}
    elif traced is not None:
        rcs = [inv["rc"] for r in traced["rounds"] for inv in r["invocations"]]
        rows = layer_metrics(traced, rcs)
        for name, unit, value in rows:
            print(f"layer  {name:34s} {fmt(value):>14s} {unit}")
        print(f"trace  overhead {traced['overhead_s']:.3f} s = "
              f"{traced['overhead_share']:.1%} of the untraced round; "
              f"{traced['span_count']} spans in {traced['spans_path']}")
        wanted = {name for name, _ in bench_metrics("per_layer")}
        metrics = {name: {"value": value, "unit": unit} for name, unit, value in rows
                   if name in wanted and value is not None}
    for note in run.notes:
        print(f"check  {note}")
    correct = failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed if attempted else 1, "metrics": metrics}))


if __name__ == "__main__":
    sys.exit(main())
