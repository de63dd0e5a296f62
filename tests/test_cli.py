"""Command line coverage on a miniature benchmark.

Everything runs in-process through cli.main so exit codes and stderr are
checked directly. A module-scoped workspace generates one tiny dataset and
one pre-trained checkpoint that the command tests share.
"""

import csv
import hashlib
import io
import json
import struct
import zlib
from dataclasses import asdict
from types import SimpleNamespace

import numpy as np
import pytest

from segadapt import cli, estimators
from segadapt.checkpoint import load_checkpoint, read_entries, save_checkpoint
from segadapt.config import default_config, parse_config
from segadapt.data import LabeledSet, load_dataset, save_dataset
from segadapt.estimators import (FineTuner, MultiHeadAdapter, PtbnAdapter, SelfTrainAdapter,
                                 SourceTrainer, TentAdapter)
from segadapt.pseudolabel import cleanup_label_map
from test_model import reserialize

MINI_CFG = """\
[data]
n_cases = 10
image_size = 32

[pretrain]
epochs = 2

[adapt]
heads = 2
epochs = 1
"""

DATA_FILES = [f"{d}_{s}.upld" for d in ("source", "target") for s in ("train", "val", "test")]


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_jsonl(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


def read_manifest(out_dir):
    return json.loads((out_dir / "manifest.json").read_text())


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    root = tmp_path_factory.mktemp("cliws")
    cfg = root / "mini.cfg"
    cfg.write_text(MINI_CFG)
    data = root / "data"
    rc = cli.main(["gen-data", "--out", str(data), "--config", str(cfg), "--seed", "5"])
    assert rc == 0
    pre = root / "pre"
    rc = cli.main(["pretrain", "--data", str(data), "--out", str(pre),
                   "--config", str(cfg), "--seed", "5"])
    assert rc == 0
    return SimpleNamespace(root=root, cfg=cfg, data=data, pre=pre,
                           ckpt=pre / "checkpoint.uplc")


class TestGenData:
    def test_writes_six_files_and_manifest(self, ws):
        for name in DATA_FILES:
            assert (ws.data / name).exists(), name
        m = read_manifest(ws.data)
        assert m["command"] == "gen-data"
        assert m["outputs"] == sorted(str(ws.data / n) for n in DATA_FILES)
        assert m["seed"] == 5

    def test_rerun_same_seed_identical_hashes(self, ws):
        again = ws.root / "data2"
        rc = cli.main(["gen-data", "--out", str(again), "--config", str(ws.cfg),
                       "--seed", "5"])
        assert rc == 0
        for name in DATA_FILES:
            assert sha(again / name) == sha(ws.data / name), name

    def test_file_sizes_match_header_arithmetic(self, ws):
        for name in DATA_FILES:
            path = ws.data / name
            ds = load_dataset(path)
            n, c, h, w = ds.images.shape
            expected = (4 + 2 + 16 + 4
                        + sum(2 + len(cid.encode()) for cid in ds.case_ids)
                        + 4 * n + 4 * n * c * h * w + n * h * w)
            assert path.stat().st_size == expected, name

    def test_unknown_benchmark_flag_exits_2_naming_key(self, ws, capsys, tmp_path):
        out = tmp_path / "x"
        rc = cli.main(["gen-data", "--out", str(out), "--benchmark", "nope"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "[data] benchmark" in err and "nope" in err
        assert not out.exists()

    def test_benchmark_flag_lands_in_manifest(self, ws, tmp_path):
        out = tmp_path / "named"
        rc = cli.main(["gen-data", "--out", str(out), "--config", str(ws.cfg),
                       "--benchmark", "syn-a2b", "--seed", "5"])
        assert rc == 0
        assert read_manifest(out)["config"]["data"]["benchmark"] == "syn-a2b"

    def test_unwritable_out_path_exits_3(self, ws, capsys, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        rc = cli.main(["gen-data", "--out", str(blocker / "sub")])
        assert rc == 3


class TestConfigErrors:
    def run_gen(self, cfg_path, tmp_path):
        return cli.main(["gen-data", "--out", str(tmp_path / "o"),
                         "--config", str(cfg_path)])

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[adapt]\nbogus = 1\n")
        assert self.run_gen(bad, tmp_path) == 2
        assert "bogus" in capsys.readouterr().err

    def test_unknown_section_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[training]\nepochs = 4\n")
        assert self.run_gen(bad, tmp_path) == 2
        assert "training" in capsys.readouterr().err

    def test_bad_value_exits_2_naming_key(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[data]\nn_cases = soup\n")
        assert self.run_gen(bad, tmp_path) == 2
        err = capsys.readouterr().err
        assert "n_cases" in err and "data" in err

    def test_missing_config_file_exits_2(self, tmp_path):
        assert self.run_gen(tmp_path / "absent.cfg", tmp_path) == 2

    def test_config_path_naming_a_directory_exits_2(self, tmp_path, capsys):
        folder = tmp_path / "cfg.d"
        folder.mkdir()
        assert self.run_gen(folder, tmp_path) == 2
        assert str(folder) in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_config_not_utf8_exits_2_naming_file(self, tmp_path, capsys):
        bad = tmp_path / "latin1.cfg"
        bad.write_bytes("[data]\n# caf\xe9\nn_cases = 10\n".encode("latin-1"))
        assert self.run_gen(bad, tmp_path) == 2
        assert "latin1.cfg" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("section", ["pretrain", "adapt"])
    @pytest.mark.parametrize("key,value", [("epochs", "-1"), ("batch", "0"),
                                           ("batch", "abc")])
    def test_out_of_range_schedule_exits_2_naming_key(self, ws, tmp_path, capsys,
                                                      section, key, value):
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"[{section}]\n{key} = {value}\n")
        out = tmp_path / "o"
        if section == "pretrain":
            argv = ["pretrain", "--data", str(ws.data)]
        else:
            argv = ["adapt", "--data", str(ws.data), "--checkpoint", str(ws.ckpt)]
        assert cli.main(argv + ["--out", str(out), "--config", str(bad)]) == 2
        assert f"[{section}] {key}" in capsys.readouterr().err
        assert not out.exists()  # rejected before anything is written

    @pytest.mark.parametrize("section", ["pretrain", "adapt"])
    def test_non_ascii_digit_batch_exits_2_naming_key(self, ws, tmp_path, capsys, section):
        # "²".isdigit() holds, but int("²") raises
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"[{section}]\nbatch = \u00b2\n", encoding="utf-8")
        out = tmp_path / "o"
        if section == "pretrain":
            argv = ["pretrain", "--data", str(ws.data)]
        else:
            argv = ["adapt", "--data", str(ws.data), "--checkpoint", str(ws.ckpt)]
        assert cli.main(argv + ["--out", str(out), "--config", str(bad)]) == 2
        assert f"[{section}] batch" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key,value", [
        ("tau", "1.5"), ("tau", "0"), ("tau", "nan"),
        ("heads", "0"), ("heads", "20"),
        ("lr", "-1"), ("lr", "nan"), ("lr", "inf"),
        ("entropy_weight", "-0.5"), ("entropy_weight", "nan"),
    ])
    def test_out_of_range_adapt_value_exits_2_naming_key(self, ws, tmp_path, capsys,
                                                         key, value):
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"[adapt]\n{key} = {value}\n")
        out = tmp_path / "o"
        assert cli.main(["adapt", "--data", str(ws.data), "--checkpoint", str(ws.ckpt),
                         "--out", str(out), "--config", str(bad)]) == 2
        assert f"[adapt] {key}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("section,key,value", [
        ("pretrain", "lr", "-1"), ("pretrain", "lr", "0"),
        ("pretrain", "lr_decay", "-2"), ("pretrain", "lr_decay", "nan"),
        ("pretrain", "decay_every", "0"),
        ("data", "image_size", "0"), ("data", "image_size", "8"),
        ("data", "image_size", "30"),
        ("data", "n_cases", "9"), ("data", "n_cases", "0"), ("data", "n_cases", "-1"),
        ("data", "n_cases", "100000000000"), ("data", "n_cases", "1001"),
        ("data", "image_size", "1024"),
        ("data", "benchmark", "nope"),
    ])
    def test_out_of_range_pretrain_or_data_value_exits_2_naming_key(
            self, ws, tmp_path, capsys, section, key, value):
        bad = tmp_path / "bad.cfg"
        out = tmp_path / "o"
        if section == "pretrain":
            bad.write_text(f"[pretrain]\nepochs = 1\n{key} = {value}\n")
            argv = ["pretrain", "--data", str(ws.data)]
        else:
            small = "" if key == "n_cases" else "n_cases = 10\n"
            bad.write_text(f"[data]\n{small}{key} = {value}\n")
            argv = ["gen-data"]
        assert cli.main(argv + ["--out", str(out), "--config", str(bad)]) == 2
        assert f"[{section}] {key}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["pretrain", "target-only"])
    def test_zero_pretrain_epochs_exits_2_before_any_output(self, ws, tmp_path, capsys,
                                                            command):
        # a model that saw no batch has no BatchNorm statistics to evaluate with
        bad = tmp_path / "bad.cfg"
        bad.write_text("[pretrain]\nepochs = 0\n")
        out = tmp_path / "o"
        argv = (["pretrain"] if command == "pretrain"
                else ["adapt", "--method", "target-only"])
        assert cli.main(argv + ["--data", str(ws.data), "--out", str(out),
                                "--config", str(bad)]) == 2
        assert "[pretrain] epochs" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command,named", [("adapt", "[adapt] tau"),
                                               ("ablate", "grid tau")])
    def test_tau_at_or_below_one_over_classes_exits_2_before_training(
            self, ws, tmp_path, capsys, command, named):
        # in (0, 1), so it parses; the 3-class checkpoint then rules it out
        bad = tmp_path / "bad.cfg"
        bad.write_text("[adapt]\ntau = 0.2\n")
        out = tmp_path / "o"
        argv = [command, "--data", str(ws.data), "--checkpoint", str(ws.ckpt),
                "--out", str(out), "--config", str(bad)]
        if command == "ablate":
            argv += ["--grid", "heads=2"]
        assert cli.main(argv) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text,named", [
        ("[data]\nbenchmark = syn%a2b\n", "[data] benchmark"),
        ("[adapt]\ntau = %(x)s\n", "[adapt] tau"),
        ("[adapt]\nlr = 0.5\nentropy_weight = %(lr)s\n", "[adapt] entropy_weight"),
        ("[DEFAULT]\n", "[DEFAULT]"),
        ("[DEFAULT]\nlr = 0.5\n[pretrain]\nepochs = 1\n", "[DEFAULT]"),
    ], ids=["percent", "interpolation-missing", "interpolation", "default", "default-beside"])
    def test_values_are_literal_and_default_is_unknown(self, tmp_path, capsys, text, named):
        bad = tmp_path / "bad.cfg"
        bad.write_text(text)
        assert self.run_gen(bad, tmp_path) == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_tent_observe_only_lr_zero_is_valid(self, tmp_path):
        cfg = tmp_path / "tent.cfg"
        cfg.write_text("[adapt]\nlr = 0\nentropy_weight = 0\n")
        assert parse_config(cfg).adapt.lr == 0.0


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
@pytest.mark.parametrize("command", ["gen-data", "pretrain", "adapt", "eval", "ablate"])
def test_seed_out_of_range_exits_2_before_out(ws, tmp_path, capsys, command, seed):
    out = tmp_path / "o"
    argv = {"gen-data": ["--out", out],
            "pretrain": ["--data", ws.data, "--out", out],
            "adapt": ["--checkpoint", ws.ckpt, "--data", ws.data, "--out", out],
            "eval": ["--checkpoint", ws.ckpt, "--data", ws.data / "target_test.upld",
                     "--out", out / "r.csv"],
            "ablate": ["--checkpoint", ws.ckpt, "--data", ws.data, "--out", out,
                       "--grid", "heads=1"]}[command]
    with pytest.raises(SystemExit) as exit_:
        cli.main([command, *map(str, argv), "--seed", seed])
    assert exit_.value.code == 2
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


def test_seed_takes_the_whole_u64_range():
    for seed in (0, 2**64 - 1):
        args = cli.build_parser().parse_args(["gen-data", "--out", "x", "--seed", str(seed)])
        assert args.seed == seed


class TestPretrain:
    def test_missing_data_exits_3_naming_path(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        rc = cli.main(["pretrain", "--data", str(empty), "--out", str(tmp_path / "o")])
        assert rc == 3
        assert "source_train.upld" in capsys.readouterr().err

    def test_log_has_one_record_per_epoch(self, ws):
        records = read_jsonl(ws.pre / "trainlog.jsonl")
        assert [r["epoch"] for r in records] == [0, 1]
        for r in records:
            assert set(r) == {"epoch", "loss", "loss_entropy", "val_dice",
                              "val_dice_mean", "reliable_fraction", "lr"}

    def test_checkpoint_header_records_seed_and_best_epoch(self, ws):
        model, header = load_checkpoint(ws.ckpt)
        assert header["seeds"] == {"root": 5}
        records = read_jsonl(ws.pre / "trainlog.jsonl")
        vals = [r["val_dice_mean"] for r in records]
        best = int(np.argmax(vals))  # first maximum wins under strict improvement
        assert header["epoch"] == best
        assert model.num_heads == 1

    def test_rerun_byte_identical_outputs(self, ws):
        again = ws.root / "pre2"
        rc = cli.main(["pretrain", "--data", str(ws.data), "--out", str(again),
                       "--config", str(ws.cfg), "--seed", "5"])
        assert rc == 0
        assert sha(again / "checkpoint.uplc") == sha(ws.ckpt)
        assert sha(again / "trainlog.jsonl") == sha(ws.pre / "trainlog.jsonl")
        a, b = read_manifest(again), read_manifest(ws.pre)
        a.pop("timing_s"), b.pop("timing_s")
        a["outputs"] = [p.replace("pre2", "pre") for p in a["outputs"]]
        assert a == b


class TestProgress:
    """pretrain, adapt and ablate print one stderr line per epoch; stdout and
    trainlog.jsonl are what they are without it."""

    @staticmethod
    def assert_lines(err: str, stage: str, records: list, epochs: int):
        lines = err.splitlines()
        assert len(lines) == len(records)
        for line, rec in zip(lines, records):
            loss = "-" if rec["loss"] is None else f"{rec['loss']:.4f}"
            head = (f"{stage} epoch {rec['epoch'] + 1}/{epochs}: loss {loss}, "
                    f"val dice {rec['val_dice_mean']:.4f}, ")
            assert line.startswith(head) and line.endswith(" s"), line
            float(line[len(head):-2])  # that epoch's wall time

    def test_pretrain_and_adapt_print_a_line_per_epoch(self, ws, tmp_path, capsys):
        cfg = parse_config(ws.cfg)
        train, val = (load_dataset(ws.data / f"source_{s}.upld") for s in ("train", "val"))
        silent = SourceTrainer(cfg.pretrain, train.num_classes, 5).fit(train, val)
        rc = cli.main(["pretrain", "--data", str(ws.data), "--out", str(tmp_path / "pre"),
                       "--config", str(ws.cfg), "--seed", "5"])
        assert rc == 0
        cap = capsys.readouterr()
        assert cap.out == f"best val dice {silent.best_val_dice_:.4f} at epoch " \
                          f"{silent.best_epoch_}\n"
        log = (tmp_path / "pre" / "trainlog.jsonl").read_text()
        assert log == silent.log_.to_jsonl()
        self.assert_lines(cap.err, "pretrain", read_jsonl(tmp_path / "pre" / "trainlog.jsonl"), 2)

        model, _ = load_checkpoint(ws.ckpt)
        train, val = (load_dataset(ws.data / f"target_{s}.upld") for s in ("train", "val"))
        for method, adapter in (("upl", MultiHeadAdapter), ("tent", TentAdapter),
                                ("ptbn", PtbnAdapter)):
            silent = adapter(model, cfg.adapt, 6).fit(train.drop_labels(), val)
            out = tmp_path / method
            rc = cli.main(["adapt", "--data", str(ws.data), "--out", str(out), "--config",
                           str(ws.cfg), "--method", method, "--seed", "6",
                           "--checkpoint", str(ws.ckpt)])
            assert rc == 0
            cap = capsys.readouterr()
            assert cap.out.startswith(f"method {method}: best val dice ")
            assert (out / "trainlog.jsonl").read_text() == silent.log_.to_jsonl()
            # ptbn runs no epoch loop: one forward pass, then validation
            records = [] if method == "ptbn" else read_jsonl(out / "trainlog.jsonl")
            self.assert_lines(cap.err, f"adapt {method}", records, 1)

    def test_ablate_prints_a_line_per_epoch_of_every_point(self, ws, tmp_path, capsys):
        rc = cli.main(["ablate", "--checkpoint", str(ws.ckpt), "--data", str(ws.data),
                       "--out", str(tmp_path / "o"), "--config", str(ws.cfg), "--seed", "6",
                       "--grid", "heads=1,2"])
        assert rc == 0
        cap = capsys.readouterr()
        lines = cap.err.splitlines()
        assert [line.split(": loss ")[0] for line in lines] == [
            "ablate {'heads': 1} epoch 1/1", "ablate {'heads': 2} epoch 1/1"]
        assert [line.split(" -> ")[0] for line in cap.out.splitlines()] == [
            "{'heads': 1}", "{'heads': 2}"]


METHODS = ["upl", "tent", "ptbn", "selftrain", "finetune-train", "finetune-valid",
           "target-only"]

# every [pretrain] and [adapt] value off its default
CUSTOM_CFG = """\
[pretrain]
epochs = 3
lr = 0.02
lr_decay = 0.5
decay_every = 2
batch = 4

[adapt]
heads = 3
tau = 0.8
entropy_weight = 0.5
lr = 0.002
epochs = 2
batch = 5
cleanup = false
"""


class Built(Exception):
    """Raised in place of ``fit``; carries the estimator that was built."""


def built_estimator(monkeypatch, argv):
    """The estimator ``cli.main(argv)`` builds, stopped before it trains."""
    def fit(self, *args):
        raise Built(self)

    for cls in (SourceTrainer, FineTuner, MultiHeadAdapter, PtbnAdapter, TentAdapter,
                SelfTrainAdapter):
        monkeypatch.setattr(cls, "fit", fit)
    with pytest.raises(Built) as info:
        cli.main(argv)
    return info.value.args[0]


@pytest.fixture(scope="module")
def runs(ws):
    outs = {}
    for method in METHODS:
        out = ws.root / f"adapt_{method}"
        argv = ["adapt", "--data", str(ws.data), "--out", str(out),
                "--config", str(ws.cfg), "--method", method, "--seed", "6"]
        if method != "target-only":
            argv += ["--checkpoint", str(ws.ckpt)]
        assert cli.main(argv) == 0, method
        outs[method] = out
    return outs


class TestAdapt:
    @pytest.mark.parametrize("method", METHODS)
    def test_method_writes_checkpoint_and_log(self, runs, method):
        out = runs[method]
        model, header = load_checkpoint(out / "adapted.uplc")
        assert model.num_heads == (2 if method == "upl" else 1)
        records = read_jsonl(out / "trainlog.jsonl")
        assert len(records) == (2 if method == "target-only" else 1)
        assert read_manifest(out)["command"] == f"adapt:{method}"

    def test_upl_log_carries_reliable_fraction(self, runs):
        rec = read_jsonl(runs["upl"] / "trainlog.jsonl")[0]
        assert rec["reliable_fraction"] is not None
        assert 0.0 <= rec["reliable_fraction"] <= 1.0
        assert rec["loss"] is not None and rec["loss_entropy"] is not None

    def test_missing_checkpoint_flag_exits_2(self, ws, capsys):
        rc = cli.main(["adapt", "--data", str(ws.data), "--out", str(ws.root / "x"),
                       "--method", "upl"])
        assert rc == 2
        assert "--checkpoint" in capsys.readouterr().err
        assert not (ws.root / "x").exists()

    def test_ablate_with_non_upl_method_exits_2(self, ws, capsys):
        rc = cli.main(["adapt", "--data", str(ws.data), "--out", str(ws.root / "x"),
                       "--method", "tent", "--checkpoint", str(ws.ckpt),
                       "--ablate", "M"])
        assert rc == 2
        assert "upl" in capsys.readouterr().err

    def test_unknown_ablate_token_exits_2(self, ws, capsys):
        rc = cli.main(["adapt", "--data", str(ws.data), "--out", str(ws.root / "x"),
                       "--method", "upl", "--checkpoint", str(ws.ckpt),
                       "--ablate", "M,XX"])
        assert rc == 2
        assert "XX" in capsys.readouterr().err

    @pytest.mark.parametrize("tokens", ["M", "TDG", "T", "TFS", "LMENT", "M, TDG,T"])
    def test_ablate_tokens_reach_the_adapter(self, ws, tmp_path, monkeypatch, tokens):
        est = built_estimator(monkeypatch, [
            "adapt", "--data", str(ws.data), "--out", str(tmp_path / "o"),
            "--checkpoint", str(ws.ckpt), "--ablate", tokens])
        assert isinstance(est, MultiHeadAdapter)
        assert est.ablate == {t.strip() for t in tokens.split(",")}

    def test_ablating_every_loss_term_exits_2(self, ws, tmp_path, capsys):
        out = tmp_path / "o"
        rc = cli.main(["adapt", "--data", str(ws.data), "--out", str(out),
                       "--checkpoint", str(ws.ckpt), "--ablate", "TFS,LMENT"])
        assert rc == 2
        assert "nothing to optimize" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["adapt", "ablate"])
    def test_multi_head_checkpoint_exits_3_before_any_output(self, ws, tmp_path, capsys,
                                                             command):
        model, _ = load_checkpoint(ws.ckpt)
        grown = tmp_path / "grown.uplc"
        save_checkpoint(grown, model.grow(4), epoch=0, seeds={"root": 0})
        out = tmp_path / "o"
        argv = [command, "--data", str(ws.data), "--checkpoint", str(grown),
                "--out", str(out), "--config", str(ws.cfg)]
        if command == "ablate":
            argv += ["--grid", "heads=2"]
        assert cli.main(argv) == 3
        assert "expects a single-head source checkpoint" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("method", ["upl", "tent", "selftrain", "finetune-train",
                                        "finetune-valid"])
    def test_lr_zero_leaves_every_parameter_bitwise_unchanged(self, ws, tmp_path, method):
        cfg = tmp_path / "lr0.cfg"
        cfg.write_text(MINI_CFG + "lr = 0\n")
        out = tmp_path / "o"
        assert cli.main(["adapt", "--data", str(ws.data), "--out", str(out),
                         "--config", str(cfg), "--method", method,
                         "--checkpoint", str(ws.ckpt)]) == 0
        source = load_checkpoint(ws.ckpt)[0].named_parameters()
        adapted = load_checkpoint(out / "adapted.uplc")[0].named_parameters()
        for name, t in adapted.items():
            # a grown head starts as a copy of head 0
            src = source[name if name.startswith("enc.") else "head0." + name.split(".", 1)[1]]
            assert t.data.tobytes() == src.data.tobytes(), name

    @pytest.mark.parametrize("method", METHODS)
    def test_estimator_is_built_on_the_ini_section(self, ws, tmp_path, monkeypatch, method):
        cfg_path = tmp_path / "custom.cfg"
        cfg_path.write_text(CUSTOM_CFG)
        cfg = parse_config(cfg_path)
        argv = ["adapt", "--data", str(ws.data), "--out", str(tmp_path / "o"),
                "--config", str(cfg_path), "--method", method, "--seed", "6"]
        if method != "target-only":
            argv += ["--checkpoint", str(ws.ckpt)]
        est = built_estimator(monkeypatch, argv)
        assert est.seed == 6
        if method == "target-only":
            assert (type(est), est.cfg, est.num_classes) == (SourceTrainer, cfg.pretrain, 3)
        else:
            assert type(est) is cli.ADAPTERS[method]
            assert est.cfg == cfg.adapt

    @pytest.mark.parametrize("method,stage", [("selftrain", "selftrain"), ("upl", "adapt")])
    def test_nan_checkpoint_exits_4_with_diagnostic_dump(self, ws, tmp_path, capsys,
                                                         method, stage):
        model, _ = load_checkpoint(ws.ckpt)
        bad = model.named_parameters()["enc.l0.c1.w"]
        bad.data = np.full_like(bad.data, np.nan)
        poisoned = tmp_path / "poisoned.uplc"
        save_checkpoint(poisoned, model, epoch=0, seeds={"root": 0})
        out = tmp_path / "o"
        rc = cli.main(["adapt", "--data", str(ws.data), "--out", str(out),
                       "--config", str(ws.cfg), "--method", method,
                       "--checkpoint", str(poisoned)])
        assert rc == 4
        dump = json.loads((out / "nan_dump.json").read_text())
        assert dump["stage"] == stage
        assert {"epoch", "step", "loss"} <= set(dump)
        assert "nan_dump.json" in capsys.readouterr().err

    @pytest.mark.parametrize("method,extra,cfg_text", [
        ("upl", [], MINI_CFG.replace("epochs = 1\n", "epochs = 2\n")),
        ("upl", [], MINI_CFG.replace("epochs = 1\n", "epochs = 2\ncleanup = false\n")),
        ("upl", ["--ablate", "M"], MINI_CFG),
        ("selftrain", [], MINI_CFG.replace("epochs = 1\n", "epochs = 2\n")),
    ], ids=["upl-2-epochs", "upl-2-epochs-no-cleanup", "upl-ablate-M", "selftrain-2-epochs"])
    def test_dump_maps_writes_pgm_pairs(self, ws, tmp_path, monkeypatch, method, extra,
                                        cfg_text):
        """The PGM pairs are the labels and reliability that training's last
        epoch built for the first training case, recorded here by wrapping
        the estimators' batch iterator and pseudo-label builder."""
        batches, bundles, cleanups = [], [], set()

        def record_batches(*args):
            for idx in real_batches(*args):
                batches.append(idx)
                yield idx

        def record_bundle(*args, cleanup):
            cleanups.add(cleanup)
            bundles.append(real_bundle(*args, cleanup=cleanup))
            return bundles[-1]

        real_batches, real_bundle = estimators.iter_batches, estimators.make_pseudo_label
        monkeypatch.setattr(estimators, "iter_batches", record_batches)
        monkeypatch.setattr(estimators, "make_pseudo_label", record_bundle)
        cfg = tmp_path / "dump.cfg"
        cfg.write_text(cfg_text)
        out, maps = tmp_path / "o", tmp_path / "maps"
        rc = cli.main(["adapt", "--data", str(ws.data), "--out", str(out),
                       "--config", str(cfg), "--method", method,
                       "--checkpoint", str(ws.ckpt), "--dump-maps", str(maps)] + extra)
        assert rc == 0
        cleanup = parse_config(cfg).adapt.cleanup
        assert cleanups == {cleanup}
        train = load_dataset(ws.data / "target_train.upld")
        case0 = train.case_slices(0)
        assert len(bundles) == len(batches)  # one bundle per step
        last = {}
        for idx, bundle in zip(batches, bundles):  # later epochs overwrite earlier ones
            for r, i in enumerate(idx):
                if i in case0:
                    last[int(i)] = (bundle.pseudo_onehot[r].argmax(axis=0), bundle.reliability[r])
        if not cleanup:  # labels that cleanup would change reach the dump
            assert any(not np.array_equal(cleanup_label_map(lab, 3), lab)
                       for lab, _ in last.values())
        pgms = sorted(maps.iterdir())
        assert [p.name for p in pgms] == (
            [f"pseudo_{i:03d}.pgm" for i in range(len(case0))]
            + [f"reliability_{i:03d}.pgm" for i in range(len(case0))])
        listed = set(read_manifest(out)["outputs"])
        assert {str(p) for p in pgms} <= listed
        scale = 255 // 2  # 3 classes
        for i, s in enumerate(case0):
            labels, rel = last[int(s)]
            pseudo = (maps / f"pseudo_{i:03d}.pgm").read_bytes()
            reliability = (maps / f"reliability_{i:03d}.pgm").read_bytes()
            assert pseudo == b"P5\n32 32\n255\n" + (labels * scale).astype(np.uint8).tobytes()
            assert reliability == b"P5\n32 32\n255\n" + (rel * 255).astype(np.uint8).tobytes()
            if method == "selftrain" or extra:  # no reliability mask in training
                assert set(reliability[-rel.size:]) == {255}, i

    @pytest.mark.parametrize("method,extra,cfg_text", [
        ("tent", [], MINI_CFG),
        ("ptbn", [], MINI_CFG),
        ("finetune-train", [], MINI_CFG),
        ("finetune-valid", [], MINI_CFG),
        ("target-only", [], MINI_CFG),
        ("upl", ["--ablate", "TFS"], MINI_CFG),
        ("upl", [], MINI_CFG.replace("epochs = 1\n", "epochs = 0\n")),
    ], ids=["tent", "ptbn", "finetune-train", "finetune-valid", "target-only",
            "upl-ablate-TFS", "upl-0-epochs"])
    def test_dump_maps_for_a_run_without_pseudo_labels_exits_2(self, ws, tmp_path, capsys,
                                                              method, extra, cfg_text):
        cfg = tmp_path / "dump.cfg"
        cfg.write_text(cfg_text)
        out, maps = tmp_path / "o", tmp_path / "maps"
        rc = cli.main(["adapt", "--data", str(ws.data), "--out", str(out),
                       "--config", str(cfg), "--method", method,
                       "--checkpoint", str(ws.ckpt), "--dump-maps", str(maps)] + extra)
        assert rc == 2
        assert "--dump-maps" in capsys.readouterr().err
        assert not out.exists() and not maps.exists()

    def test_dump_maps_onto_a_file_exits_3_before_training(self, ws, tmp_path, capsys):
        blocker = tmp_path / "maps"
        blocker.write_text("x")
        out = tmp_path / "o"
        rc = cli.main(["adapt", "--data", str(ws.data), "--out", str(out),
                       "--config", str(ws.cfg), "--method", "upl",
                       "--checkpoint", str(ws.ckpt), "--dump-maps", str(blocker)])
        assert rc == 3
        assert "data error" in capsys.readouterr().err
        assert not out.exists()  # no adapted.uplc, no log, no manifest
        assert blocker.read_text() == "x"

    def test_zero_epochs_say_so(self, ws, tmp_path, capsys):
        cfg = tmp_path / "zero.cfg"
        cfg.write_text(MINI_CFG.replace("epochs = 1\n", "epochs = 0\n"))
        rc = cli.main(["adapt", "--data", str(ws.data), "--out", str(tmp_path / "o"),
                       "--config", str(cfg), "--method", "upl",
                       "--checkpoint", str(ws.ckpt)])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "method upl: no epochs run"

    def test_rerun_byte_identical_outputs(self, ws, runs):
        again = ws.root / "upl_again"
        rc = cli.main(["adapt", "--data", str(ws.data), "--out", str(again),
                       "--config", str(ws.cfg), "--method", "upl", "--seed", "6",
                       "--checkpoint", str(ws.ckpt)])
        assert rc == 0
        assert sha(again / "adapted.uplc") == sha(runs["upl"] / "adapted.uplc")
        assert sha(again / "trainlog.jsonl") == sha(runs["upl"] / "trainlog.jsonl")


@pytest.fixture(scope="module")
def one_head_upl(ws):
    """``adapt --method upl`` with ``[adapt] heads = 1``: a one-head checkpoint
    saved with head dropout on."""
    cfg = ws.root / "one_head.cfg"
    cfg.write_text(MINI_CFG.replace("heads = 2", "heads = 1"))
    out = ws.root / "upl_one_head"
    assert cli.main(["adapt", "--data", str(ws.data), "--out", str(out), "--config",
                     str(cfg), "--checkpoint", str(ws.ckpt), "--seed", "6"]) == 0
    return out / "adapted.uplc"


@pytest.mark.parametrize("method", ["selftrain", "tent", "ptbn", "finetune-train",
                                    "finetune-valid"])
def test_one_head_upl_checkpoint_adapts_with_every_baseline(ws, tmp_path, one_head_upl,
                                                            method):
    assert read_entries(one_head_upl)[0]["head_dropout"] is True
    out = tmp_path / "o"
    assert cli.main(["adapt", "--data", str(ws.data), "--out", str(out), "--config",
                     str(ws.cfg), "--method", method, "--checkpoint", str(one_head_upl)]) == 0
    assert load_checkpoint(out / "adapted.uplc")[0].num_heads == 1


@pytest.fixture(scope="module")
def results(ws):
    out = ws.root / "eval_single" / "results.csv"
    rc = cli.main(["eval", "--checkpoint", str(ws.ckpt),
                   "--data", str(ws.data / "target_test.upld"),
                   "--out", str(out), "--mode", "single", "--seed", "9"])
    assert rc == 0
    return out


class TestEval:
    def test_row_per_case_and_class(self, ws, results):
        ds = load_dataset(ws.data / "target_test.upld")
        with open(results, newline="") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == ds.n_cases * 2
        assert sorted({r["case_id"] for r in rows}) == sorted(ds.case_ids)
        assert {r["class"] for r in rows} == {"1", "2"}
        assert all(r["method"] == "single" for r in rows)
        for r in rows:
            assert 0.0 <= float(r["dice"]) <= 1.0

    def test_eval_twice_identical_csv(self, ws, results, tmp_path):
        out = tmp_path / "r.csv"
        rc = cli.main(["eval", "--checkpoint", str(ws.ckpt),
                       "--data", str(ws.data / "target_test.upld"),
                       "--out", str(out), "--mode", "single", "--seed", "9"])
        assert rc == 0
        assert sha(out) == sha(results)
        assert sha(out.with_name("r_summary.csv")) == sha(
            results.with_name("results_summary.csv"))

    def test_ensemble_mode_runs_on_single_head_checkpoint(self, ws, tmp_path):
        out = tmp_path / "e.csv"
        rc = cli.main(["eval", "--checkpoint", str(ws.ckpt),
                       "--data", str(ws.data / "target_test.upld"),
                       "--out", str(out), "--mode", "ensemble", "--seed", "9",
                       "--config", str(ws.cfg)])
        assert rc == 0
        with open(out, newline="") as f:
            assert all(r["method"] == "ensemble" for r in csv.DictReader(f))

    def test_summary_matches_hand_aggregation(self, results):
        with open(results, newline="") as f:
            rows = list(csv.DictReader(f))
        with open(results.with_name("results_summary.csv"), newline="") as f:
            summary = {r["class"]: r for r in csv.DictReader(f)}
        for cls in ("1", "2"):
            dices = [float(r["dice"]) for r in rows if r["class"] == cls]
            assert float(summary[cls]["n"]) == len(dices)
            assert abs(float(summary[cls]["dice_mean"]) - np.mean(dices)) < 1e-6
            assert abs(float(summary[cls]["dice_sd"]) - np.std(dices)) < 1e-6

    def test_t_test_against_itself_exits_3(self, ws, results, tmp_path, capsys):
        """Against itself, or itself plus a constant, every difference is the
        same to the CSV's 6 decimals: exit 3 before any result is written."""
        with open(results, newline="") as f:
            rows = list(csv.reader(f))
        for shift in (0.0, 0.05):
            shifted = [rows[0]] + [row[:3] + [f"{float(row[3]) + shift:.6f}"] + row[4:]
                                   for row in rows[1:]]
            baseline = tmp_path / f"baseline{shift}.csv"
            with open(baseline, "w", newline="") as f:
                csv.writer(f).writerows(shifted)
            out = tmp_path / f"ev{shift}" / "r.csv"
            rc = cli.main(["eval", "--checkpoint", str(ws.ckpt),
                           "--data", str(ws.data / "target_test.upld"),
                           "--out", str(out), "--mode", "single",
                           "--seed", "9", "--baseline", str(baseline)])
            assert rc == 3, shift
            assert "data error: zero-variance differences" in capsys.readouterr().err
            assert not out.parent.exists()

    def test_t_test_against_shifted_baseline(self, ws, results, tmp_path):
        baseline = tmp_path / "baseline.csv"
        rng = np.random.default_rng(3)
        with open(results, newline="") as f:
            rows = list(csv.reader(f))
        for i, row in enumerate(rows[1:]):
            row[3] = f"{max(0.0, float(row[3]) - rng.uniform(0.01, 0.1)):.6f}"
        with open(baseline, "w", newline="") as f:
            csv.writer(f).writerows(rows)
        out = tmp_path / "r.csv"
        rc = cli.main(["eval", "--checkpoint", str(ws.ckpt),
                       "--data", str(ws.data / "target_test.upld"),
                       "--out", str(out), "--mode", "single", "--seed", "9",
                       "--baseline", str(baseline)])
        assert rc == 0
        with open(out.with_name("r_summary.csv"), newline="") as f:
            for row in csv.DictReader(f):
                assert float(row["t_vs_baseline"]) > 0  # we shifted baseline down
                assert 0.0 < float(row["p_vs_baseline"]) <= 1.0

    def test_not_a_results_csv_baseline_exits_3(self, ws, results, tmp_path, capsys):
        junk = tmp_path / "junk.csv"
        junk.write_text("a,b\n1,2\n")
        rc = cli.main(["eval", "--checkpoint", str(ws.ckpt),
                       "--data", str(ws.data / "target_test.upld"),
                       "--out", str(tmp_path / "r.csv"), "--mode", "single",
                       "--baseline", str(junk)])
        assert rc == 3
        assert "not a results CSV" in capsys.readouterr().err

    @pytest.mark.parametrize("col,cell", [
        (2, "abc"), (2, "1.5"), (3, "abc"), (3, "nan"), (3, "inf"), (3, "1.5"), (3, "-0.1"),
        (4, "abc"), (4, "nan"), (4, "inf"), (4, "-1"), (None, None),
    ], ids=["class-abc", "class-fraction", "dice-abc", "dice-nan", "dice-inf", "dice-above-1",
            "dice-negative", "assd-abc", "assd-nan", "assd-inf", "assd-negative", "not-utf8"])
    def test_malformed_baseline_exits_3_before_evaluating(self, ws, results, tmp_path, capsys,
                                                          col, cell):
        with open(results, newline="") as f:
            rows = list(csv.reader(f))
        if col is not None:
            rows[1][col] = cell
        text = io.StringIO()
        csv.writer(text).writerows(rows)
        data = text.getvalue().encode()
        if col is None:  # a byte that starts no UTF-8 sequence, in the first row's method
            data = data.replace(b"single", b"sin\xffgle", 1)
        baseline = tmp_path / "bad.csv"
        baseline.write_bytes(data)
        out = tmp_path / "o" / "r.csv"
        rc = cli.main(["eval", "--checkpoint", str(ws.ckpt),
                       "--data", str(ws.data / "target_test.upld"),
                       "--out", str(out), "--mode", "single", "--seed", "9",
                       "--baseline", str(baseline)])
        assert rc == 3
        assert "bad.csv" in capsys.readouterr().err
        assert not out.parent.exists()  # no results, summary or manifest

    def test_missing_baseline_exits_3_before_evaluating(self, ws, tmp_path, capsys):
        out = tmp_path / "r.csv"
        rc = cli.main(["eval", "--checkpoint", str(ws.ckpt),
                       "--data", str(ws.data / "target_test.upld"),
                       "--out", str(out), "--mode", "single",
                       "--baseline", str(tmp_path / "missing.csv")])
        assert rc == 3
        assert "missing.csv" in capsys.readouterr().err
        assert not out.exists() and not out.with_name("r_summary.csv").exists()

    def test_baseline_lacking_a_case_exits_3_before_evaluating(self, ws, results, tmp_path,
                                                               capsys):
        with open(results, newline="") as f:
            rows = list(csv.reader(f))
        dropped = rows[1][1]
        baseline = tmp_path / "partial.csv"
        with open(baseline, "w", newline="") as f:
            csv.writer(f).writerows([r for r in rows if r[1] != dropped])
        out = tmp_path / "r.csv"
        rc = cli.main(["eval", "--checkpoint", str(ws.ckpt),
                       "--data", str(ws.data / "target_test.upld"),
                       "--out", str(out), "--mode", "single", "--seed", "9",
                       "--baseline", str(baseline)])
        assert rc == 3
        assert f"lacks case {dropped}" in capsys.readouterr().err
        assert not out.exists() and not out.with_name("r_summary.csv").exists()

    def test_baseline_repeating_a_row_exits_3_before_evaluating(self, ws, results, tmp_path,
                                                                capsys):
        with open(results, newline="") as f:
            rows = list(csv.reader(f))
        rng = np.random.default_rng(3)
        for row in rows[1:]:  # a baseline the t-test takes, but for the repeat
            row[3] = f"{max(0.0, float(row[3]) - rng.uniform(0.01, 0.1)):.6f}"
        again = list(rows[1])
        again[3] = "0.500000"  # the t-test would pair the case with this row alone
        baseline = tmp_path / "twice.csv"
        with open(baseline, "w", newline="") as f:
            csv.writer(f).writerows(rows + [again])
        out = tmp_path / "o" / "r.csv"
        rc = cli.main(["eval", "--checkpoint", str(ws.ckpt),
                       "--data", str(ws.data / "target_test.upld"),
                       "--out", str(out), "--mode", "single", "--seed", "9",
                       "--baseline", str(baseline)])
        assert rc == 3
        assert f"repeats case {rows[1][1]} class {rows[1][2]}" in capsys.readouterr().err
        assert not out.parent.exists()

    def test_class_count_mismatch_exits_3(self, ws, tmp_path, capsys):
        ds = load_dataset(ws.data / "target_test.upld")
        labels = ds.labels.copy()
        labels[0, 0, 0] = 3  # one pixel beyond the checkpoint's classes
        rich = LabeledSet(ds.images, ds.case_index, list(ds.case_ids), labels=labels)
        path = tmp_path / "four_classes.upld"
        save_dataset(path, rich)
        rc = cli.main(["eval", "--checkpoint", str(ws.ckpt), "--data", str(path),
                       "--out", str(tmp_path / "r.csv")])
        assert rc == 3
        assert "class count mismatch" in capsys.readouterr().err


def rewrite_header(src, dst, header: bytes):
    """Copy a checkpoint with its header bytes replaced and a fresh CRC."""
    body = src.read_bytes()[:-4]
    hlen = struct.unpack_from("<I", body, 6)[0]
    body = body[:6] + struct.pack("<I", len(header)) + header + body[10 + hlen:]
    dst.write_bytes(body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))


def header_with(ckpt, **changes):
    header, _ = read_entries(ckpt)
    for key, value in changes.items():
        if key in header["arch"]:
            header["arch"][key] = value
        else:
            header[key] = value
    return json.dumps(header, sort_keys=True).encode()


class TestLoaderErrors:
    @pytest.mark.parametrize("header", [
        pytest.param(b"\xff\xfe{}", id="not-utf8"),
        pytest.param(b"{not json", id="not-json"),
        pytest.param({"levels": 0}, id="levels-0"),
        pytest.param({"num_heads": 0}, id="heads-0"),
        pytest.param({"num_heads": 50}, id="heads-50"),
        pytest.param({"base_channels": 0}, id="base-channels-0"),
        pytest.param({"in_channels": 0}, id="in-channels-0"),
        pytest.param({"leak": -0.5}, id="leak-negative"),
        pytest.param({"bn_eps": 1e-3}, id="bn-eps"),
        pytest.param({"bn_momentum": 0.2}, id="bn-momentum"),
    ])
    def test_bad_checkpoint_header_exits_3(self, ws, tmp_path, capsys, header):
        if isinstance(header, dict):
            header = header_with(ws.ckpt, **header)
        bad = tmp_path / "bad.uplc"
        rewrite_header(ws.ckpt, bad, header)
        rc = cli.main(["eval", "--checkpoint", str(bad), "--data",
                       str(ws.data / "target_test.upld"), "--out", str(tmp_path / "r.csv")])
        assert rc == 3
        assert "checkpoint" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("change", [
        pytest.param({"num_heads": 2}, id="heads-2-of-3"),
        pytest.param({"num_heads": 2.5}, id="heads-2.5"),
        pytest.param({"num_heads": True}, id="heads-true"),
        pytest.param({"num_heads": "3"}, id="heads-string"),
        pytest.param({"head_dropout": "false"}, id="dropout-string"),
        pytest.param({"head_dropout": 0}, id="dropout-0"),
        pytest.param(None, id="stray-entry"),
    ])
    def test_entries_and_head_fields_of_a_three_head_file_exit_3(self, ws, tmp_path, capsys,
                                                                 change):
        """A 3-head file must hold exactly a 3-head model's entries and say so
        with an integer num_heads and a boolean head_dropout."""
        model, _ = load_checkpoint(ws.ckpt)
        three, bad = tmp_path / "three.uplc", tmp_path / "bad.uplc"
        save_checkpoint(three, model.grow(3))
        if change is None:
            header, arrays = read_entries(three)
            arrays["head3.out.w"] = arrays["head2.out.w"]
            bad.write_bytes(reserialize(header, arrays))
        else:
            rewrite_header(three, bad, header_with(three, **change))
        out = tmp_path / "r.csv"
        rc = cli.main(["eval", "--checkpoint", str(bad), "--data",
                       str(ws.data / "target_test.upld"), "--out", str(out)])
        assert rc == 3
        assert "checkpoint" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_pixel_exits_3(self, ws, tmp_path, capsys):
        ds = load_dataset(ws.data / "target_test.upld")
        images = ds.images.copy()
        images[0, 0, 3, 3] = np.nan
        path = tmp_path / "nan.upld"
        save_dataset(path, LabeledSet(images, ds.case_index, list(ds.case_ids),
                                      labels=ds.labels))
        rc = cli.main(["eval", "--checkpoint", str(ws.ckpt), "--data", str(path),
                       "--out", str(tmp_path / "r.csv")])
        assert rc == 3
        assert "non-finite" in capsys.readouterr().err


def misfit_data(src, dst, change):
    """Copy of every dataset file in ``src`` with one change the checkpoint of
    ``ws`` (1 channel, 2 levels, 3 classes) cannot take."""
    dst.mkdir()
    for name in DATA_FILES:
        ds = load_dataset(src / name)
        images, labels = ds.images, ds.labels.copy()
        index, ids = ds.case_index, list(ds.case_ids)
        if change == "0-slice":
            images, labels, index, ids = images[:0], labels[:0], index[:0], []
        elif change == "34x34":  # not divisible by the 2 poolings
            images = np.pad(images, ((0, 0), (0, 0), (1, 1), (1, 1)))
            labels = np.pad(labels, ((0, 0), (1, 1), (1, 1)))
        elif change == "2-channel":
            images = np.concatenate([images, images], axis=1)
        else:  # one pixel of class 3
            labels[0, 0, 0] = 3
        save_dataset(dst / name, LabeledSet(images, index, ids, labels=labels))


class TestMisfitData:
    @pytest.mark.parametrize("command,change,named", [
        ("pretrain", "34x34", "source_train.upld"),
        ("adapt-upl", "34x34", "target_train.upld"),
        ("ablate", "34x34", "target_train.upld"),
        ("eval", "34x34", "target_test.upld"),
        ("eval", "2-channel", "target_test.upld"),
        ("adapt-finetune-train", "class-3", "target_train.upld"),
        ("pretrain", "0-slice", "source_train.upld"),
        ("adapt-upl", "0-slice", "target_train.upld"),
        ("ablate", "0-slice", "target_train.upld"),
        ("ablate", "2-channel", "target_train.upld"),
        ("eval", "0-slice", "target_test.upld"),
    ])
    def test_exits_3_naming_the_file_before_any_output(self, ws, tmp_path, capsys,
                                                        command, change, named):
        data, out = tmp_path / "data", tmp_path / "o"
        misfit_data(ws.data, data, change)
        ckpt = ["--checkpoint", str(ws.ckpt)]
        argv = {
            "pretrain": ["pretrain", "--data", str(data), "--out", str(out)],
            "adapt-upl": ["adapt", "--data", str(data), "--out", str(out)] + ckpt,
            "ablate": ["ablate", "--data", str(data), "--out", str(out), "--grid",
                       "heads=2"] + ckpt,
            "eval": ["eval", "--data", str(data / named), "--out", str(out / "r.csv")] + ckpt,
            "adapt-finetune-train": ["adapt", "--data", str(data), "--out", str(out),
                                     "--method", "finetune-train"] + ckpt,
        }[command]
        rc = cli.main(argv + ["--config", str(ws.cfg)])
        assert rc == 3
        assert named in capsys.readouterr().err
        assert not out.exists()


def add_empty_case(src, dst, cid="ghost"):
    """Copy of the dataset file ``src`` whose case table lists one more case,
    ``cid``, that owns no slices (``save_dataset`` refuses to write one)."""
    blob = src.read_bytes()
    n_cases = struct.unpack_from("<I", blob, 22)[0]
    pos = 26
    for _ in range(n_cases):
        pos += 2 + struct.unpack_from("<H", blob, pos)[0]
    entry = struct.pack("<H", len(cid)) + cid.encode()
    dst.write_bytes(blob[:22] + struct.pack("<I", n_cases + 1) + blob[26:pos] + entry
                    + blob[pos:])


class TestEmptyCase:
    @pytest.mark.parametrize("command,named", [
        ("pretrain", "source_train.upld"),
        ("adapt-upl", "target_train.upld"),
        ("eval-ensemble", "target_test.upld"),
        ("eval-single", "target_test.upld"),
    ])
    def test_a_case_without_slices_exits_3_naming_it(self, ws, tmp_path, capsys,
                                                      command, named):
        data, out = tmp_path / "data", tmp_path / "o"
        data.mkdir()
        for name in DATA_FILES:
            (data / name).write_bytes((ws.data / name).read_bytes())
        add_empty_case(ws.data / named, data / named)
        ckpt = ["--checkpoint", str(ws.ckpt)]
        argv = {
            "pretrain": ["pretrain", "--data", str(data), "--out", str(out)],
            "adapt-upl": ["adapt", "--data", str(data), "--out", str(out)] + ckpt,
            "eval-ensemble": ["eval", "--data", str(data / named), "--out",
                              str(out / "r.csv"), "--mode", "ensemble"] + ckpt,
            "eval-single": ["eval", "--data", str(data / named), "--out",
                            str(out / "r.csv"), "--mode", "single"] + ckpt,
        }[command]
        rc = cli.main(argv + ["--config", str(ws.cfg)])
        assert rc == 3
        assert "case 'ghost' owns no slices" in capsys.readouterr().err
        assert not out.exists()


def repeat_case_id(src, dst):
    """Copy of the dataset file ``src`` whose second case takes the first
    case's id (``save_dataset`` refuses to write one)."""
    blob = src.read_bytes()
    pos, entries = 26, []
    for _ in range(struct.unpack_from("<I", blob, 22)[0]):
        end = pos + 2 + struct.unpack_from("<H", blob, pos)[0]
        entries.append(blob[pos:end])
        pos = end
    dst.write_bytes(blob[:26] + entries[0] + entries[0] + b"".join(entries[2:]) + blob[pos:])
    return entries[0][2:].decode()


class TestRepeatedCaseId:
    @pytest.mark.parametrize("command,named", [
        ("adapt-upl", "target_train.upld"),
        ("eval-single", "target_test.upld"),
    ])
    def test_exits_3_naming_it_before_any_output(self, ws, tmp_path, capsys, command, named):
        data, out = tmp_path / "data", tmp_path / "o"
        data.mkdir()
        for name in DATA_FILES:
            (data / name).write_bytes((ws.data / name).read_bytes())
        cid = repeat_case_id(ws.data / named, data / named)
        ckpt = ["--checkpoint", str(ws.ckpt)]
        argv = {
            "adapt-upl": ["adapt", "--data", str(data), "--out", str(out)] + ckpt,
            "eval-single": ["eval", "--data", str(data / named), "--out",
                            str(out / "r.csv"), "--mode", "single"] + ckpt,
        }[command]
        rc = cli.main(argv + ["--config", str(ws.cfg)])
        assert rc == 3
        assert f"case {cid!r} is listed twice" in capsys.readouterr().err
        assert not out.exists()


def zero_size_copy(src, dst):
    """Copy of the dataset file ``src`` whose slices are 0x0: its header,
    case table and case index, no pixels or labels (``save_dataset`` refuses
    to write one)."""
    blob = src.read_bytes()
    n, c = struct.unpack_from("<II", blob, 6)
    pos = 26
    for _ in range(struct.unpack_from("<I", blob, 22)[0]):
        pos += 2 + struct.unpack_from("<H", blob, pos)[0]
    dst.write_bytes(blob[:6] + struct.pack("<IIII", n, c, 0, 0) + blob[22:pos + 4 * n])


class TestZeroSizeSlices:
    @pytest.mark.parametrize("command,named", [
        ("pretrain", "source_train.upld"),
        ("adapt-upl", "target_train.upld"),
        ("eval", "target_test.upld"),
    ])
    def test_exits_3_before_any_output(self, ws, tmp_path, capsys, command, named):
        data, out = tmp_path / "data", tmp_path / "o"
        data.mkdir()
        for name in DATA_FILES:
            (data / name).write_bytes((ws.data / name).read_bytes())
        zero_size_copy(ws.data / named, data / named)
        ckpt = ["--checkpoint", str(ws.ckpt)]
        argv = {
            "pretrain": ["pretrain", "--data", str(data), "--out", str(out)],
            "adapt-upl": ["adapt", "--data", str(data), "--out", str(out)] + ckpt,
            "eval": ["eval", "--data", str(data / named), "--out", str(out / "r.csv")] + ckpt,
        }[command]
        rc = cli.main(argv + ["--config", str(ws.cfg)])
        assert rc == 3
        assert "C, H and W" in capsys.readouterr().err
        assert not out.exists()


class TestAblate:
    def test_grid_rows_match_grid_size(self, ws):
        out = ws.root / "sweep"
        rc = cli.main(["ablate", "--checkpoint", str(ws.ckpt), "--data", str(ws.data),
                       "--out", str(out), "--config", str(ws.cfg), "--seed", "6",
                       "--grid", "heads=1,2", "tau=0.9,0.95"])
        assert rc == 0
        with open(out / "sweep.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 4
        assert {(r["heads"], r["tau"]) for r in rows} == {
            ("1", "0.9"), ("1", "0.95"), ("2", "0.9"), ("2", "0.95")}
        for r in rows:
            assert 0.0 <= float(r["val_dice"]) <= 1.0

    def test_grid_of_one_matches_single_adapt_run(self, ws, tmp_path):
        """Each row equals its own adapt run, in a grid of one and of two: the
        points share one loaded source model, and none carries state into the
        next."""
        for heads in ([2], [1, 2]):
            out = tmp_path / f"sweep{len(heads)}"
            rc = cli.main(["ablate", "--checkpoint", str(ws.ckpt), "--data", str(ws.data),
                           "--out", str(out), "--config", str(ws.cfg), "--seed", "6",
                           "--grid", "heads=" + ",".join(map(str, heads))])
            assert rc == 0
            with open(out / "sweep.csv", newline="") as f:
                rows = list(csv.DictReader(f))
            assert [int(row["heads"]) for row in rows] == heads
            for row, k in zip(rows, heads):
                cfg = tmp_path / f"heads{k}.cfg"
                cfg.write_text(MINI_CFG.replace("heads = 2\n", f"heads = {k}\n"))
                adapted = tmp_path / f"adapted{len(heads)}_{k}"
                rc = cli.main(["adapt", "--checkpoint", str(ws.ckpt), "--data", str(ws.data),
                               "--out", str(adapted), "--config", str(cfg), "--seed", "6",
                               "--method", "upl"])
                assert rc == 0
                vals = [r["val_dice_mean"] for r in read_jsonl(adapted / "trainlog.jsonl")]
                assert float(row["val_dice"]) == max(vals)
                assert int(row["best_epoch"]) == int(np.argmax(vals))

    def test_every_input_is_read_once(self, ws, tmp_path, monkeypatch):
        calls = {"load_checkpoint": 0, "load_dataset": 0}
        for name in calls:
            def counted(*args, _fn=getattr(cli, name), _name=name):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(cli, name, counted)
        cfg = tmp_path / "zero.cfg"
        cfg.write_text(MINI_CFG.replace("epochs = 1\n", "epochs = 0\n"))
        rc = cli.main(["ablate", "--checkpoint", str(ws.ckpt), "--data", str(ws.data),
                       "--out", str(tmp_path / "o"), "--config", str(cfg),
                       "--grid", "heads=1,2,4", "tau=0.9,0.95"])
        assert rc == 0
        assert calls == {"load_checkpoint": 1, "load_dataset": 2}

    @pytest.mark.parametrize("grid,fragment", [
        (["heads"], "not key"),
        (["lr=1e-4"], "not allowed"),
        (["heads="], "no values"),
        (["heads=two"], "heads"),
        (["heads=2,0"], "grid heads"),
        (["tau=0.9,nan"], "grid tau"),
        (["tau=0.2"], "grid tau"),  # below 1/3 for the 3-class checkpoint
        (["entropy_weight=-1"], "grid entropy_weight"),
        (["heads=1", "heads=2"], "grid heads"),  # would drop heads=1
    ])
    def test_bad_grid_exits_2(self, ws, tmp_path, capsys, grid, fragment):
        out = tmp_path / "o"
        rc = cli.main(["ablate", "--checkpoint", str(ws.ckpt), "--data", str(ws.data),
                       "--out", str(out), "--grid"] + grid)
        assert rc == 2
        assert fragment in capsys.readouterr().err
        assert not out.exists()

    def test_zero_epochs_say_so(self, ws, tmp_path, capsys):
        cfg = tmp_path / "zero.cfg"
        cfg.write_text(MINI_CFG.replace("epochs = 1\n", "epochs = 0\n"))
        rc = cli.main(["ablate", "--checkpoint", str(ws.ckpt), "--data", str(ws.data),
                       "--out", str(tmp_path / "o"), "--config", str(cfg),
                       "--grid", "heads=1,2"])
        assert rc == 0
        assert capsys.readouterr().out.splitlines() == [
            "{'heads': 1} -> no epochs run", "{'heads': 2} -> no epochs run"]
        with open(tmp_path / "o" / "sweep.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert [(r["heads"], r["val_dice"], r["best_epoch"]) for r in rows] == [
            ("1", "", ""), ("2", "", "")]


class TestManifests:
    """Every command's manifest: its command name, the sha256 of each input by
    name, its sorted outputs, the seed and the effective config."""

    @staticmethod
    def check(out, command, inputs, outputs, seed, cfg=None):
        m = read_manifest(out)
        assert set(m) == {"command", "config", "seed", "inputs", "outputs", "timing_s"}
        assert m["command"] == command
        if cfg is not None:
            inputs = dict(inputs, config=cfg)
        assert m["inputs"] == {k: sha(v) for k, v in inputs.items()}
        assert m["outputs"] == sorted(str(o) for o in outputs)
        assert m["seed"] == seed
        expected = parse_config(cfg) if cfg is not None else default_config()
        assert m["config"] == asdict(expected)

    def test_gen_data(self, ws):
        self.check(ws.data, "gen-data", {}, [ws.data / n for n in DATA_FILES], 5, ws.cfg)

    def test_pretrain(self, ws):
        inputs = {f"source_{s}": ws.data / f"source_{s}.upld" for s in ("train", "val")}
        self.check(ws.pre, "pretrain", inputs,
                   [ws.ckpt, ws.pre / "trainlog.jsonl"], 5, ws.cfg)

    @pytest.mark.parametrize("method", METHODS)
    def test_adapt(self, ws, runs, method):
        out = runs[method]
        inputs = {f"target_{s}": ws.data / f"target_{s}.upld" for s in ("train", "val")}
        if method != "target-only":
            inputs["checkpoint"] = ws.ckpt
        self.check(out, f"adapt:{method}", inputs,
                   [out / "adapted.uplc", out / "trainlog.jsonl"], 6, ws.cfg)

    def test_eval(self, ws, results):
        inputs = {"checkpoint": ws.ckpt, "data": ws.data / "target_test.upld"}
        self.check(results.parent, "eval", inputs,
                   [results, results.with_name("results_summary.csv")], 9)

    def test_eval_with_baseline(self, ws, results, tmp_path):
        with open(results, newline="") as f:
            rows = list(csv.reader(f))
        for i, row in enumerate(rows[1:]):  # a little worse on every case, by varying amounts
            row[3] = f"{max(0.0, float(row[3]) - 0.05 - 0.001 * i):.6f}"
        baseline = tmp_path / "baseline.csv"
        with open(baseline, "w", newline="") as f:
            csv.writer(f).writerows(rows)
        out = tmp_path / "ev" / "r.csv"
        rc = cli.main(["eval", "--checkpoint", str(ws.ckpt),
                       "--data", str(ws.data / "target_test.upld"), "--out", str(out),
                       "--mode", "single", "--seed", "9", "--baseline", str(baseline),
                       "--config", str(ws.cfg)])
        assert rc == 0
        inputs = {"checkpoint": ws.ckpt, "data": ws.data / "target_test.upld",
                  "baseline": baseline}
        self.check(out.parent, "eval", inputs, [out, out.with_name("r_summary.csv")],
                   9, ws.cfg)

    def test_ablate(self, ws, tmp_path):
        out = tmp_path / "o"
        rc = cli.main(["ablate", "--checkpoint", str(ws.ckpt), "--data", str(ws.data),
                       "--out", str(out), "--config", str(ws.cfg), "--seed", "6",
                       "--grid", "heads=1"])
        assert rc == 0
        inputs = {f"target_{s}": ws.data / f"target_{s}.upld" for s in ("train", "val")}
        inputs["checkpoint"] = ws.ckpt
        self.check(out, "ablate", inputs, [out / "sweep.csv"], 6, ws.cfg)
