"""Command line interface.

Subcommands: gen-data, pretrain, adapt, eval, ablate. Every run writes a
manifest.json (config snapshot, root seed, input hashes, outputs, timing)
next to its outputs. Exit codes: 0 success, 2 usage or config error,
3 data or format error, 4 numeric failure (non-finite loss, with a
diagnostic dump in the output directory).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import itertools
import json
import sys
import time
from dataclasses import asdict, replace
from functools import partial
from pathlib import Path

import numpy as np

from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .config import Config, ConfigError, check_bounds, check_tau, default_config, parse_config
from .data import DatasetError, LabeledSet, load_dataset, save_dataset
from .estimators import (ABLATIONS, FineTuner, MultiHeadAdapter, NumericFailure,
                         PtbnAdapter, SelfTrainAdapter, SourceTrainer, TentAdapter,
                         check_ablate)
from .inference import infer_ensemble, infer_single
from .metrics import (CaseResult, DegenerateStatsError, aggregate, assd,
                      dice_coefficient, paired_t_test)
from .model import ArchConfig
from .pseudolabel import export_label_pgm, export_reliability_pgm
from .rng import named_stream
from .synthdata import generate_benchmark

SPLITS = ("train", "val", "test")
DOMAINS = ("source", "target")

# --method -> the adapter it fits on the source model and the [adapt] section;
# target-only trains a SourceTrainer on [pretrain] instead
ADAPTERS = {"upl": MultiHeadAdapter, "tent": TentAdapter, "ptbn": PtbnAdapter,
            "selftrain": SelfTrainAdapter, "finetune-train": FineTuner,
            "finetune-valid": FineTuner}


def _sha256(path) -> str:
    h = hashlib.sha256()
    h.update(Path(path).read_bytes())
    return h.hexdigest()


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------


def cmd_gen_data(args, cfg: Config):
    if args.benchmark:
        cfg.data.benchmark = args.benchmark  # manifest snapshots the effective name
        check_bounds(cfg.data, "data")
    out = _out_dir(args)
    domains = generate_benchmark(cfg.data.benchmark, cfg.data.n_cases, args.seed,
                                 size=cfg.data.image_size)
    outputs = []
    for domain in DOMAINS:
        for split in SPLITS:
            path = out / f"{domain}_{split}.upld"
            save_dataset(path, domains[domain][split])
            outputs.append(path)
    print(f"wrote {len(outputs)} dataset files to {out}")
    return out, "gen-data", {}, outputs


def _dataset(path, arch: ArchConfig, labels: bool = False) -> LabeledSet:
    """The dataset at ``path``, which a model of ``arch`` must be able to take:
    its slice shape, and with ``labels`` also its label classes. Any misfit is
    a DatasetError naming the file."""
    path = Path(path)
    if not path.exists():
        raise DatasetError(f"missing dataset file: {path}")
    ds = load_dataset(path)
    if len(ds) == 0:
        raise DatasetError(f"dataset {path} has no slices")
    try:
        arch.check_input(ds.images.shape)
    except ValueError as e:
        raise DatasetError(f"dataset {path} does not fit the model: {e}") from None
    # one-sided: a split may legitimately lack its highest class
    if labels and ds.num_classes > arch.num_classes:
        raise DatasetError(
            f"class count mismatch: checkpoint has {arch.num_classes} classes, "
            f"dataset {path} has labels up to class {ds.num_classes - 1}")
    return ds


def _build(method: str, checkpoint, data, cfg: Config, seed: int,
           ablate: frozenset = frozenset(), where: str = "[adapt]"):
    """``(estimator, train, val, the set it fits, the files it read)`` for
    ``method``, checked against the checkpoint and the split of ``data`` it
    reads before anything is written; ``where`` prefixes a tau error."""
    domain = "source" if method == "pretrain" else "target"
    inputs = {f"{domain}_{s}": Path(data) / f"{domain}_{s}.upld" for s in ("train", "val")}
    arch, model = ArchConfig(), None
    if method not in ("pretrain", "target-only"):
        model, _ = load_checkpoint(checkpoint)
        if model.num_heads != 1:
            raise CheckpointError("adaptation expects a single-head source checkpoint")
        if method == "upl":
            check_tau(cfg.adapt.tau, model.num_classes, where)
        arch = model.arch
    supervised = method.startswith("finetune")
    train, val = (_dataset(path, arch, labels=supervised) for path in inputs.values())
    if model is None:
        return SourceTrainer(cfg.pretrain, train.num_classes, seed), train, val, train, inputs
    inputs["checkpoint"] = checkpoint
    extra = {"ablate": ablate} if method == "upl" else {}
    est = ADAPTERS[method](model, cfg.adapt, seed, **extra)
    # source-free methods never see target labels
    fit_set = {"finetune-train": train, "finetune-valid": val}.get(method, train.drop_labels())
    return est, train, val, fit_set, inputs


def _progress(stage: str, rec, epochs: int):
    loss = "-" if rec.loss is None else f"{rec.loss:.4f}"
    print(f"{stage} epoch {rec.epoch + 1}/{epochs}: loss {loss}, val dice "
          f"{rec.val_dice_mean:.4f}, {rec.wall_time_s:.2f} s", file=sys.stderr)


def _fit_summary(est) -> str:
    if est.best_epoch_ < 0:
        return "no epochs run"
    return f"best val dice {est.best_val_dice_:.4f} at epoch {est.best_epoch_}"


def _fit_and_save(args, est, fit_set, val, ckpt_name: str, stage: str):
    """Fit ``est`` with progress lines labelled ``stage``, then write its model
    as ``ckpt_name`` and its log as trainlog.jsonl in --out, which is made
    here, once every check has passed. Returns (out, [checkpoint, log])."""
    out = _out_dir(args)
    est.on_epoch = partial(_progress, stage)
    est.fit(fit_set, val)
    ckpt, logp = out / ckpt_name, out / "trainlog.jsonl"
    save_checkpoint(ckpt, est.model_, epoch=est.best_epoch_, seeds={"root": args.seed})
    est.log_.write(logp)
    return out, [ckpt, logp]


def cmd_pretrain(args, cfg: Config):
    trainer, _, val, train, inputs = _build("pretrain", None, args.data, cfg, args.seed)
    out, outputs = _fit_and_save(args, trainer, train, val, "checkpoint.uplc", "pretrain")
    print(_fit_summary(trainer))
    return out, "pretrain", inputs, outputs


def cmd_adapt(args, cfg: Config):
    ablate = frozenset()
    if args.ablate:
        if args.method != "upl":
            raise ConfigError(f"--ablate only applies to --method upl, got {args.method}")
        try:
            ablate = check_ablate(token.strip() for token in args.ablate.split(","))
        except ValueError as e:
            raise ConfigError(f"--ablate: {e}") from None
    est, train, val, fit_set, inputs = _build(args.method, args.checkpoint, args.data, cfg,
                                              args.seed, ablate)
    if args.dump_maps:  # a file in the way fails here, before --out exists
        Path(args.dump_maps).mkdir(parents=True, exist_ok=True)
    out, outputs = _fit_and_save(args, est, fit_set, val, "adapted.uplc",
                                 f"adapt {args.method}")
    if args.dump_maps:
        outputs += _dump_maps(Path(args.dump_maps), est, train, cfg)
    print(f"method {args.method}: {_fit_summary(est)}")
    return out, f"adapt:{args.method}", inputs, outputs


def _dump_maps(dump_dir: Path, est, train: LabeledSet, cfg: Config) -> list:
    """PGM snapshots of the fitted model's pseudo labels and reliability on
    the first training case."""
    model = est.model_
    imgs = train.images[train.case_slices(0)]
    if model.num_heads > 1:
        rng = named_stream(est.seed, "dump")
        labels, probs = infer_ensemble(model, imgs, rng, cleanup=cfg.adapt.cleanup)
    else:
        labels, probs = infer_single(model, imgs, cleanup=cfg.adapt.cleanup)
    rel = probs.max(axis=1) > cfg.adapt.tau
    outputs = []
    for i in range(len(imgs)):
        lp = dump_dir / f"pseudo_{i:03d}.pgm"
        rp = dump_dir / f"reliability_{i:03d}.pgm"
        export_label_pgm(lp, labels[i], model.num_classes)
        export_reliability_pgm(rp, rel[i])
        outputs += [lp, rp]
    return outputs


def _eval_results(model, ds: LabeledSet, mode: str, cfg: Config, seed: int,
                  method_name: str) -> list:
    if mode == "ensemble" and model.num_heads == 1:
        model = model.grow(cfg.adapt.heads)  # transform ensemble of one head
    rng = named_stream(seed, "eval")
    results = []
    for cid, imgs, labs in ds.cases():
        if mode == "ensemble":
            pred, _ = infer_ensemble(model, imgs, rng, cleanup=cfg.adapt.cleanup)
        else:
            pred, _ = infer_single(model, imgs, cleanup=cfg.adapt.cleanup)
        for c in range(1, model.num_classes):
            results.append(CaseResult(method_name, cid, c,
                                      dice_coefficient(pred, labs, c),
                                      assd(pred, labs, c)))
    return results


def _write_results_csv(path, results: list):
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(["method", "case_id", "class", "dice", "assd", "flags"])
        for r in results:
            flags = "" if r.assd_defined else "EMPTY"
            w.writerow([r.method, r.case_id, r.cls, f"{r.dice:.6f}",
                        "" if not r.assd_defined else f"{r.assd:.6f}", flags])


def _read_results_csv(path) -> list:
    """CaseResults of a results CSV; DatasetError on undecodable bytes or cells."""
    results = []
    try:
        with open(path, newline="", encoding="utf-8") as f:
            reader = csv.DictReader(f)
            need = {"method", "case_id", "class", "dice", "assd", "flags"}
            if reader.fieldnames is None or not need.issubset(reader.fieldnames):
                raise DatasetError(f"{path}: not a results CSV (columns {reader.fieldnames})")
            for row in reader:
                try:  # a short row's missing cells are None
                    cls, dice = int(row["class"]), float(row["dice"])
                    dist = float(row["assd"]) if row["assd"] else np.nan
                except (TypeError, ValueError):
                    cls, dice, dist = None, np.nan, np.nan
                if not (0.0 <= dice <= 1.0 and (not row["assd"] or 0.0 <= dist < np.inf)):
                    raise DatasetError(f"{path} line {reader.line_num}: needs an integer class, "
                                       "a dice in [0, 1] and an empty or finite assd >= 0")
                results.append(CaseResult(row["method"], row["case_id"], cls, dice, dist))
    except UnicodeDecodeError as e:
        raise DatasetError(f"{path}: not UTF-8 ({e})") from e
    return results


def _write_summary_csv(path, results: list, baseline: list | None):
    summary = aggregate(results)
    tcols = baseline is not None
    base_by_key = {}
    if tcols:
        base_by_key = {(r.case_id, r.cls): r.dice for r in baseline}
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        header = ["class", "n", "dice_mean", "dice_sd", "assd_mean", "assd_sd", "assd_excluded"]
        if tcols:
            header += ["t_vs_baseline", "p_vs_baseline"]
        w.writerow(header)
        for cls, s in summary.items():
            row = [cls, s.n, f"{s.dice_mean:.6f}", f"{s.dice_sd:.6f}",
                   f"{s.assd_mean:.6f}" if np.isfinite(s.assd_mean) else "",
                   f"{s.assd_sd:.6f}" if np.isfinite(s.assd_sd) else "",
                   s.assd_excluded]
            if tcols:
                ours, theirs = [], []
                for r in results:  # cmd_eval checked that the baseline has every case
                    if r.cls == cls:
                        ours.append(r.dice)
                        theirs.append(base_by_key[(r.case_id, r.cls)])
                t, p = paired_t_test(ours, theirs)
                row += [f"{t:.6f}", f"{p:.6g}"]
            w.writerow(row)


def cmd_eval(args, cfg: Config):
    model, _ = load_checkpoint(args.checkpoint)
    ds = _dataset(args.data, model.arch, labels=True)
    # read the baseline before evaluating, so a bad one leaves no results behind
    baseline = None
    if args.baseline:
        baseline = _read_results_csv(args.baseline)
        have = {(r.case_id, r.cls) for r in baseline}
        for cid in ds.case_ids:
            for c in range(1, model.num_classes):
                if (cid, c) not in have:
                    raise DatasetError(f"baseline {args.baseline} lacks case {cid} class {c}")
    name = args.name or args.mode
    results = _eval_results(model, ds, args.mode, cfg, args.seed, name)
    out_csv = Path(args.out)
    out_csv.parent.mkdir(parents=True, exist_ok=True)
    _write_results_csv(out_csv, results)
    # summary and t-test read the emitted CSV back so both comparison sides
    # carry the same 6-decimal quantization (a file against itself is exactly
    # zero-difference, which the t-test rejects as degenerate)
    results = _read_results_csv(out_csv)
    summary_csv = out_csv.with_name(out_csv.stem + "_summary.csv")
    _write_summary_csv(summary_csv, results, baseline)
    inputs = {"checkpoint": args.checkpoint, "data": args.data}
    if args.baseline:
        inputs["baseline"] = args.baseline
    mean_dice = float(np.mean([r.dice for r in results]))
    print(f"evaluated {ds.n_cases} cases: mean foreground dice {mean_dice:.4f}")
    return out_csv.parent, "eval", inputs, [out_csv, summary_csv]


def _parse_grid(tokens: list) -> list:
    allowed = {"heads": int, "tau": float, "entropy_weight": float}
    axes = []
    for token in tokens:
        if "=" not in token:
            raise ConfigError(f"grid token {token!r} is not key=v1,v2,...")
        key, vals = token.split("=", 1)
        key = key.strip()
        if key not in allowed:
            raise ConfigError(f"grid key {key!r} not allowed; choose from {sorted(allowed)}")
        if key in dict(axes):
            raise ConfigError(f"grid {key}: given twice; list its values in one token")
        try:
            values = [allowed[key](v) for v in vals.split(",") if v.strip()]
        except ValueError as e:
            raise ConfigError(f"grid axis {key!r}: {e}") from e
        if not values:
            raise ConfigError(f"grid axis {key!r} has no values")
        axes.append((key, values))
    if not axes:
        raise ConfigError("empty grid")
    names = [k for k, _ in axes]
    combos = [dict(zip(names, combo)) for combo in itertools.product(*[v for _, v in axes])]
    return combos


def cmd_ablate(args, cfg: Config):
    combos = _parse_grid(args.grid)
    grid = [replace(cfg, adapt=replace(cfg.adapt, **combo)) for combo in combos]
    for point in grid:
        check_bounds(point.adapt, "adapt", "grid")
    ests = []
    for point in grid:  # every point passes adapt's checks before --out exists
        est, _, val, fit_set, inputs = _build("upl", args.checkpoint, args.data, point,
                                              args.seed, where="grid")
        ests.append(est)
    # every point reads the same files, so one point's sets serve every fit
    out = _out_dir(args)
    rows = []
    for combo, est in zip(combos, ests):
        est.on_epoch = partial(_progress, f"ablate {combo}")
        est.fit(fit_set, val)
        ran = est.best_epoch_ >= 0  # a point that ran no epoch has no measurement
        rows.append({**combo, "val_dice": est.best_val_dice_ if ran else "",
                     "best_epoch": est.best_epoch_ if ran else ""})
        print(f"{combo} -> {_fit_summary(est)}")
    keys = sorted({k for row in rows for k in row})
    sweep_csv = out / "sweep.csv"
    with open(sweep_csv, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(keys)
        for row in rows:
            w.writerow([row.get(k, "") for k in keys])
    return out, "ablate", inputs, [sweep_csv]


# ---------------------------------------------------------------------------


def _seed(text: str) -> int:
    """``--seed``: an integer in [0, 2^64), the range of a root seed."""
    if not (text.isascii() and text.isdigit() and int(text) < 2**64):
        raise argparse.ArgumentTypeError(f"must be an integer in [0, 2^64), got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="segadapt",
                                description="source-free segmentation adaptation toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="write the synthetic two-domain benchmark")
    g.add_argument("--out", required=True)
    g.add_argument("--benchmark", help="benchmark name (default: from config)")
    g.set_defaults(func=cmd_gen_data)

    t = sub.add_parser("pretrain", help="supervised source training")
    t.add_argument("--data", required=True, help="directory from gen-data")
    t.add_argument("--out", required=True)
    t.set_defaults(func=cmd_pretrain)

    a = sub.add_parser("adapt", help="adapt a source checkpoint to the target domain")
    a.add_argument("--checkpoint", help="source checkpoint (unused for target-only)")
    a.add_argument("--data", required=True)
    a.add_argument("--out", required=True)
    a.add_argument("--method", default="upl",
                   choices=[*ADAPTERS, "target-only"])
    a.add_argument("--ablate", help=f"comma list from {','.join(ABLATIONS)} (upl only)")
    a.add_argument("--dump-maps", help="directory for PGM pseudo-label dumps")
    a.set_defaults(func=cmd_adapt)

    e = sub.add_parser("eval", help="evaluate a checkpoint on one dataset file")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--data", required=True, help="a single .upld file")
    e.add_argument("--out", required=True, help="per-case results CSV path")
    e.add_argument("--mode", default="ensemble", choices=["ensemble", "single"])
    e.add_argument("--baseline", help="earlier results CSV for a paired t-test")
    e.add_argument("--name", help="method column value (default: the mode)")
    e.set_defaults(func=cmd_eval)

    b = sub.add_parser("ablate", help="hyperparameter sweep of the adaptation")
    b.add_argument("--checkpoint", required=True)
    b.add_argument("--data", required=True)
    b.add_argument("--out", required=True)
    b.add_argument("--grid", nargs="+", required=True,
                   help="axes like heads=1,2,4 tau=0.9,0.95 entropy_weight=0.5,1")
    b.set_defaults(func=cmd_ablate)
    for cmd in (g, t, a, e, b):
        cmd.add_argument("--config")
        cmd.add_argument("--seed", type=_seed, default=0)
    return p


def main(argv=None) -> int:
    """Run one command and return its exit code. The command takes the args and
    the config, and returns ``(out_dir, command, inputs, outputs)``: where the
    manifest goes, its command name, the input files by name and the outputs."""
    args = build_parser().parse_args(argv)
    if args.command == "adapt" and args.method != "target-only" and not args.checkpoint:
        print("adapt needs --checkpoint for this method", file=sys.stderr)
        return 2
    try:
        t0 = time.monotonic()
        cfg = parse_config(args.config) if args.config else default_config()
        out, command, inputs, outputs = args.func(args, cfg)
        if args.config:
            inputs = dict(inputs, config=args.config)
        manifest = {
            "command": command,
            "config": asdict(cfg),
            "seed": args.seed,
            "inputs": {str(k): _sha256(v) for k, v in inputs.items()},
            "outputs": sorted(str(o) for o in outputs),
            "timing_s": time.monotonic() - t0,
        }
        (out / "manifest.json").write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        return 0
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (DatasetError, CheckpointError, DegenerateStatsError, OSError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 3
    except NumericFailure as e:
        out = Path(getattr(args, "out", "."))
        out.mkdir(parents=True, exist_ok=True)
        dump = out / "nan_dump.json"
        dump.write_text(json.dumps(e.diagnostics, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
        print(f"numeric failure: {e} (diagnostics in {dump})", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
