"""Command line interface.

Subcommands: gen-data, pretrain, adapt, eval, ablate. Every run writes a
manifest.json (config snapshot, root seed, input hashes, outputs, timing)
next to its outputs. Exit codes: 0 success, 2 usage or config error,
3 data or format error, 4 numeric failure (a non-finite loss or prediction,
with a diagnostic dump in the output directory).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
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
from .estimators import (ABLATIONS, FineTuner, MultiHeadAdapter, PtbnAdapter,
                         SelfTrainAdapter, SourceTrainer, TentAdapter, check_ablate)
from .inference import NumericFailure, infer_ensemble, infer_single
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


def _inputs(method: str, checkpoint, data):
    """``(model, train, val, paths)``: the single-head source model (None for
    pretrain and target-only) and the train and val sets that ``method`` reads,
    checked before anything is written, and each file's path by manifest name."""
    domain = "source" if method == "pretrain" else "target"
    paths = {f"{domain}_{s}": Path(data) / f"{domain}_{s}.upld" for s in ("train", "val")}
    arch, model = ArchConfig(), None
    if method not in ("pretrain", "target-only"):
        if not checkpoint:
            raise ConfigError(f"--method {method} needs --checkpoint")
        model, _ = load_checkpoint(checkpoint)
        if model.num_heads != 1:
            raise CheckpointError("adaptation expects a single-head source checkpoint")
        arch = model.arch
    supervised = method.startswith("finetune")
    train, val = (_dataset(path, arch, labels=supervised) for path in paths.values())
    if model is not None:
        paths["checkpoint"] = checkpoint
    return model, train, val, paths


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
    _, train, val, inputs = _inputs("pretrain", None, args.data)
    trainer = SourceTrainer(cfg.pretrain, train.num_classes, args.seed)
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
    if args.dump_maps and (args.method not in ("upl", "selftrain") or "TFS" in ablate
                           or cfg.adapt.epochs == 0):
        raise ConfigError("--dump-maps needs a run that builds pseudo labels: --method upl "
                          "without TFS ablated, or selftrain, and [adapt] epochs >= 1")
    model, train, val, inputs = _inputs(args.method, args.checkpoint, args.data)
    if model is None:
        est = SourceTrainer(cfg.pretrain, train.num_classes, args.seed)
    elif args.method == "upl":
        check_tau(cfg.adapt.tau, model.num_classes)
        est = MultiHeadAdapter(model, cfg.adapt, args.seed, ablate)
    else:
        est = ADAPTERS[args.method](model, cfg.adapt, args.seed)
    # source-free methods never see target labels
    fit_set = {"target-only": train, "finetune-train": train,
               "finetune-valid": val}.get(args.method, train.drop_labels())
    if args.dump_maps:  # a file in the way fails here, before --out exists
        Path(args.dump_maps).mkdir(parents=True, exist_ok=True)
        rows = dict.fromkeys(train.case_slices(0).tolist())  # each epoch overwrites the last

        def keep_rows(idx, bundle):
            for r, i in enumerate(idx):
                if i in rows:
                    rows[i] = bundle.pseudo_onehot[r].argmax(0), bundle.reliability[r].copy()
        est.on_bundle = keep_rows
    out, outputs = _fit_and_save(args, est, fit_set, val, "adapted.uplc",
                                 f"adapt {args.method}")
    if args.dump_maps:
        outputs += _dump_maps(Path(args.dump_maps), rows.values(), est.model_.num_classes)
    print(f"method {args.method}: {_fit_summary(est)}")
    return out, f"adapt:{args.method}", inputs, outputs


def _dump_maps(dump_dir: Path, rows, num_classes: int) -> list:
    """PGM pairs of ``(labels, reliability)`` rows, in order."""
    outputs = []
    for i, (labels, rel) in enumerate(rows):
        lp = dump_dir / f"pseudo_{i:03d}.pgm"
        rp = dump_dir / f"reliability_{i:03d}.pgm"
        export_label_pgm(lp, labels, num_classes)
        export_reliability_pgm(rp, rel)
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
            pred, _ = infer_ensemble(model, imgs, rng, cfg.adapt.cleanup, stage="eval", case=cid)
        else:
            pred, _ = infer_single(model, imgs, cfg.adapt.cleanup, stage="eval", case=cid)
        for c in range(1, model.num_classes):
            results.append(CaseResult(method_name, cid, c,
                                      dice_coefficient(pred, labs, c),
                                      assd(pred, labs, c)))
    return results


def _results_csv(results: list) -> str:
    f = io.StringIO()
    w = csv.writer(f)
    w.writerow(["method", "case_id", "class", "dice", "assd", "flags"])
    for r in results:
        flags = "" if r.assd_defined else "EMPTY"
        w.writerow([r.method, r.case_id, r.cls, f"{r.dice:.6f}",
                    "" if not r.assd_defined else f"{r.assd:.6f}", flags])
    return f.getvalue()


def _read_results_csv(f, path) -> list:
    """CaseResults of results CSV ``path``, open as ``f``; DatasetError on bad bytes or cells."""
    results = []
    try:
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


def _summary_csv(results: list, baseline: list | None) -> str:
    summary = aggregate(results)
    base_by_key = {(r.case_id, r.cls): r.dice for r in baseline or ()}
    f = io.StringIO()
    w = csv.writer(f)
    header = ["class", "n", "dice_mean", "dice_sd", "assd_mean", "assd_sd", "assd_excluded"]
    if baseline is not None:
        header += ["t_vs_baseline", "p_vs_baseline"]
    w.writerow(header)
    for cls, s in summary.items():
        row = [cls, s.n, f"{s.dice_mean:.6f}", f"{s.dice_sd:.6f}",
               f"{s.assd_mean:.6f}" if np.isfinite(s.assd_mean) else "",
               f"{s.assd_sd:.6f}" if np.isfinite(s.assd_sd) else "",
               s.assd_excluded]
        if baseline is not None:  # cmd_eval checked that the baseline has every case
            mine = [r for r in results if r.cls == cls]
            t, p = paired_t_test([r.dice for r in mine], [base_by_key[r.case_id, cls] for r in mine])
            row += [f"{t:.6f}", f"{p:.6g}"]
        w.writerow(row)
    return f.getvalue()


def cmd_eval(args, cfg: Config):
    model, _ = load_checkpoint(args.checkpoint)
    ds = _dataset(args.data, model.arch, labels=True)
    # read the baseline before evaluating, so a bad one leaves no results behind
    baseline = None
    if args.baseline:
        with open(args.baseline, newline="", encoding="utf-8") as f:
            baseline = _read_results_csv(f, args.baseline)
        have = set()
        for r in baseline:  # the t-test pairs each case with its one baseline row
            if (r.case_id, r.cls) in have:
                raise DatasetError(f"baseline {args.baseline} repeats case {r.case_id} class {r.cls}")
            have.add((r.case_id, r.cls))
        for cid in ds.case_ids:
            for c in range(1, model.num_classes):
                if (cid, c) not in have:
                    raise DatasetError(f"baseline {args.baseline} lacks case {cid} class {c}")
    name = args.name or args.mode
    text = _results_csv(_eval_results(model, ds, args.mode, cfg, args.seed, name))
    # summary and t-test read the CSV back so both comparison sides carry its 6-decimal
    # quantization (a file against itself is exactly zero-difference, which the t-test
    # rejects as degenerate); they run before any file is written
    results = _read_results_csv(io.StringIO(text, newline=""), args.out)
    summary = _summary_csv(results, baseline)
    out_csv = Path(args.out)
    summary_csv = out_csv.with_name(out_csv.stem + "_summary.csv")
    out_csv.parent.mkdir(parents=True, exist_ok=True)
    out_csv.write_text(text, encoding="utf-8", newline="")
    summary_csv.write_text(summary, encoding="utf-8", newline="")
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
    points = [replace(cfg.adapt, **combo) for combo in combos]
    for point in points:
        check_bounds(point, "adapt", "grid")
    model, train, val, inputs = _inputs("upl", args.checkpoint, args.data)
    for point in points:  # every point passes adapt's checks before --out exists
        check_tau(point.tau, model.num_classes, "grid")
    out = _out_dir(args)
    rows = []
    for combo, point in zip(combos, points):
        # fit adapts a copy of the model, so every point starts from the same source
        est = MultiHeadAdapter(model, point, args.seed)
        est.on_epoch = partial(_progress, f"ablate {combo}")
        est.fit(train.drop_labels(), val)
        ran = est.best_epoch_ >= 0  # a point that ran no epoch has no measurement
        rows.append({**combo, "val_dice": est.best_val_dice_ if ran else "",
                     "best_epoch": est.best_epoch_ if ran else ""})
        print(f"{combo} -> {_fit_summary(est)}")
    sweep_csv = out / "sweep.csv"
    with open(sweep_csv, "w", newline="", encoding="utf-8") as f:
        w = csv.DictWriter(f, sorted(rows[0]))  # every row has the same keys
        w.writeheader()
        w.writerows(rows)
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
    except NumericFailure as e:  # eval's --out is its results CSV
        out = Path(args.out).parent if args.func is cmd_eval else Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        dump = out / "nan_dump.json"
        dump.write_text(json.dumps(e.diagnostics, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
        print(f"numeric failure: {e} (diagnostics in {dump})", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
