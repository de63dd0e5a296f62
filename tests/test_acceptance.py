"""Release acceptance gate.

Every test here guards one release criterion and prints a single PASS/FAIL
line, so ``pytest tests/test_acceptance.py -v -s`` doubles as the checklist.
Fast numeric checks come first; the adaptation benchmark and its determinism
rerun share one module-scoped pipeline that drives the command line at seed
42 on the reference configuration below. The benchmark dice values were
locked after the first verified run of that pipeline.
"""

import csv
import hashlib
import json
import math
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import segadapt.autodiff as ad
from segadapt import cli
from segadapt.autodiff import BatchNorm2d, Tensor
from segadapt.data import LabeledSet
from segadapt.estimators import PtbnAdapter, SourceTrainer, TentAdapter
from segadapt.config import AdaptConfig, PretrainConfig
from segadapt.inference import head_probs, infer_single
from segadapt.losses import dice_loss, mean_prediction_entropy
from segadapt.metrics import assd, dice_coefficient, paired_t_test
from segadapt.model import ArchConfig, SegModel
from segadapt.pseudolabel import cleanup_label_map, ensemble_mean, one_hot, reliability_map
from segadapt.transforms import (
    IDENTITY,
    apply_inverse,
    apply_transform,
    sample_transform,
)
from _oracles import (
    assd_allpairs,
    bn_train_f64,
    cleanup_loop,
    conv2d_f64,
    finite_difference_check,
    leaky_f64,
    maxpool_f64,
    mean_entropy_f64,
    paired_t_reference,
    softmax_f64,
    upsample_f64,
    wdice_f64,
)


def report(check: str, ok: bool, detail: str) -> None:
    """One checklist line per criterion; the assert carries the same text."""
    line = f"[{'PASS' if ok else 'FAIL'}] {check}: {detail}"
    print(line, flush=True)
    assert ok, line


def _probs(rng, shape, caxis=1):
    g = rng.random(shape) + 0.2  # floor keeps every entry far from the log clamp
    return (g / g.sum(axis=caxis, keepdims=True)).astype(np.float32)


def _onehot_batch(rng, b, c, h, w):
    labs = rng.integers(0, c, (b, h, w))
    return np.stack([one_hot(l, c) for l in labs])


# ---------------------------------------------------------------------------
# gradient audit: every network primitive and every loss against central
# differences of an independent float64 recomputation


def _weighted_sum(out: Tensor, r: np.ndarray) -> Tensor:
    return ad.tsum(ad.mul(out, Tensor(r)))


class TestGradientAudit:
    def test_every_primitive_and_loss_matches_finite_differences(self):
        t0 = time.monotonic()
        rng = np.random.default_rng(11)
        reports = {}

        def check(name, ad_fn, ref_fn, tensors):
            reports[name] = finite_difference_check(ad_fn, ref_fn, tensors)

        def coeffs(shape):
            return rng.standard_normal(shape).astype(np.float32)

        x = Tensor(rng.standard_normal((1, 2, 5, 5)).astype(np.float32), requires_grad=True)
        w = Tensor((0.3 * rng.standard_normal((3, 2, 3, 3))).astype(np.float32), requires_grad=True)
        b = Tensor(rng.standard_normal(3).astype(np.float32), requires_grad=True)
        r = coeffs(ad.conv2d(Tensor(x.data), Tensor(w.data), Tensor(b.data)).data.shape)
        check(
            "conv2d",
            lambda: _weighted_sum(ad.conv2d(x, w, b), r),
            lambda: float((np.asarray(conv2d_f64(x.data, w.data, b.data)) * r).sum()),
            [x, w, b],
        )

        bn = BatchNorm2d(3)
        bn.gamma.data = (1.0 + 0.3 * rng.standard_normal(3)).astype(np.float32)
        bn.beta.data = (0.2 * rng.standard_normal(3)).astype(np.float32)
        xb = Tensor(rng.standard_normal((2, 3, 4, 4)).astype(np.float32), requires_grad=True)
        rb = coeffs((2, 3, 4, 4))
        check(
            "batchnorm-train",
            lambda: _weighted_sum(bn.forward(xb, train=True), rb),
            lambda: float((np.asarray(bn_train_f64(xb.data, bn.gamma.data, bn.beta.data, bn.eps)) * rb).sum()),
            [xb, bn.gamma, bn.beta],
        )

        # BatchNorm's activation: keep every normalized entry away from the
        # kink at zero so the difference quotient stays on one branch. The
        # batch's second slice mirrors its first, so the batch mean is ~0 and
        # at gamma 1, beta 0 each entry keeps its sign and distance.
        raw = rng.standard_normal((1, 2, 4, 4)).astype(np.float32)
        half = raw + np.sign(raw) * np.float32(0.05)
        rr = coeffs((2, 2, 4, 4))
        for name, leak in (("relu", 0.0), ("leaky-relu", 0.01)):
            bnl = BatchNorm2d(2, leak=leak)
            xl = Tensor(np.concatenate([half, -half]), requires_grad=True)
            check(
                f"batchnorm-{name}",
                lambda: _weighted_sum(bnl.forward(xl, train=True), rr),
                lambda: float((leaky_f64(bn_train_f64(xl.data, bnl.gamma.data, bnl.beta.data,
                                                      bnl.eps), leak) * rr).sum()),
                [xl, bnl.gamma, bnl.beta],
            )

        # distinct values with gaps far above 2h keep the pooling argmax fixed
        xm = Tensor(0.1 * rng.permutation(np.arange(72, dtype=np.float32)).reshape(1, 2, 6, 6),
                    requires_grad=True)
        rm = coeffs((1, 2, 3, 3))
        check(
            "maxpool2d",
            lambda: _weighted_sum(ad.maxpool2d(xm), rm),
            lambda: float((np.asarray(maxpool_f64(xm.data)) * rm).sum()),
            [xm],
        )

        xu = Tensor(rng.standard_normal((1, 2, 4, 4)).astype(np.float32), requires_grad=True)
        ru = coeffs((1, 2, 8, 8))
        check(
            "upsample-nearest2x",
            lambda: _weighted_sum(ad.upsample_nearest2x(xu), ru),
            lambda: float((np.asarray(upsample_f64(xu.data)) * ru).sum()),
            [xu],
        )

        ca = Tensor(rng.standard_normal((1, 2, 3, 3)).astype(np.float32), requires_grad=True)
        cb = Tensor(rng.standard_normal((1, 3, 3, 3)).astype(np.float32), requires_grad=True)
        wc = Tensor((0.3 * rng.standard_normal((2, 5, 3, 3))).astype(np.float32),
                    requires_grad=True)
        rc = coeffs((1, 2, 3, 3))
        check(
            "conv2d-skip",
            lambda: _weighted_sum(ad.conv2d(ca, wc, skip=cb), rc),
            lambda: float((np.asarray(conv2d_f64(np.concatenate([ca.data, cb.data], axis=1),
                                                 wc.data)) * rc).sum()),
            [ca, cb, wc],
        )

        xd = Tensor(rng.standard_normal((2, 3, 4, 4)).astype(np.float32), requires_grad=True)
        rd = coeffs((2, 3, 4, 4))
        keep = (np.random.default_rng(7).random(xd.data.shape) >= 0.5).astype(np.float64) / 0.5
        check(
            "dropout",
            lambda: _weighted_sum(ad.dropout(xd, 0.5, np.random.default_rng(7), train=True), rd),
            lambda: float((xd.data.astype(np.float64) * keep * rd).sum()),
            [xd],
        )

        z = Tensor(rng.standard_normal((2, 3, 4, 4)).astype(np.float32), requires_grad=True)
        rz = coeffs((2, 3, 4, 4))
        check(
            "softmax-channel",
            lambda: _weighted_sum(ad.softmax_channel(z), rz),
            lambda: float((np.asarray(softmax_f64(z.data, axis=1)) * rz).sum()),
            [z],
        )

        p = Tensor(_probs(rng, (2, 3, 4, 4)), requires_grad=True)
        y = _onehot_batch(rng, 2, 3, 4, 4)
        m = (rng.random((2, 4, 4)) < 0.6).astype(np.float32)
        m[0, 0, 0], m[0, 0, 1] = 0.0, 1.0  # both mask values present
        check(
            "weighted-dice",
            lambda: dice_loss([p], y, m),
            lambda: float(wdice_f64(p.data, y, m)),
            [p],
        )

        h1 = Tensor(_probs(rng, (1, 3, 4, 4)), requires_grad=True)
        h2 = Tensor(_probs(rng, (1, 3, 4, 4)), requires_grad=True)
        y1 = _onehot_batch(rng, 1, 3, 4, 4)
        m1 = (rng.random((1, 4, 4)) < 0.6).astype(np.float32)
        m1[0, 0, 0], m1[0, 0, 1] = 0.0, 1.0
        check(
            "multi-head-dice",
            lambda: dice_loss([h1, h2], y1, m1),
            lambda: float((wdice_f64(h1.data, y1, m1) + wdice_f64(h2.data, y1, m1)) / 2.0),
            [h1, h2],
        )
        check(
            "one-head-entropy",
            lambda: mean_prediction_entropy([h1]),
            lambda: float(mean_entropy_f64([h1.data])),
            [h1],
        )
        check(
            "mean-entropy",
            lambda: mean_prediction_entropy([h1, h2]),
            lambda: float(mean_entropy_f64([h1.data, h2.data])),
            [h1, h2],
        )
        check(
            "combined",
            lambda: dice_loss([p], y, m) + mean_prediction_entropy([h1, h2]) * 0.7,
            lambda: float(wdice_f64(p.data, y, m) + 0.7 * mean_entropy_f64([h1.data, h2.data])),
            [p, h1, h2],
        )

        wall = time.monotonic() - t0
        worst_p99 = max(rep.p99 for rep in reports.values())
        bad = [n for n, rep in reports.items() if rep.p99 > 1e-3 or rep.worst > 1e-2]
        report(
            "gradient-audit",
            not bad and wall <= 60.0,
            f"{len(reports)} primitives and losses, worst p99 rel err {worst_p99:.1e}, "
            f"{wall:.1f}s" + (f", failing: {bad}" if bad else ""),
        )


# ---------------------------------------------------------------------------
# entropy bounds on head ensembles


def per_head_mean(heads) -> np.float32:
    """Mean over heads of each head's own entropy, in float32."""
    return np.mean([mean_prediction_entropy([h]).data for h in heads], dtype=np.float32)


class TestEntropyBounds:
    def test_opposite_heads_hit_the_bounds_and_jensen_gap_never_flips(self):
        c0 = np.zeros((1, 2, 4, 4), np.float32)
        c0[:, 0] = 1.0
        c1 = np.zeros((1, 2, 4, 4), np.float32)
        c1[:, 1] = 1.0
        ph = float(per_head_mean([Tensor(c0), Tensor(c1)]))
        me = float(mean_prediction_entropy([Tensor(c0), Tensor(c1)]).data)
        zero_ok = ph == 0.0
        ln2_err = abs(me - math.log(2.0))

        rng = np.random.default_rng(23)
        worst_gap = -np.inf
        for _ in range(1000):
            k = int(rng.integers(1, 5))
            heads = [Tensor(_probs(rng, (1, 3, 4, 4))) for _ in range(k)]
            gap = float(per_head_mean(heads)) - float(mean_prediction_entropy(heads).data)
            worst_gap = max(worst_gap, gap)

        report(
            "entropy-bounds",
            zero_ok and ln2_err <= 1e-6 and worst_gap <= 1e-7,
            f"opposite heads: per-head {ph}, mean off ln2 by {ln2_err:.1e}; "
            f"worst per-head minus mean gap over 1000 ensembles {worst_gap:.1e}",
        )


# ---------------------------------------------------------------------------
# reliability gating: masked pixels out of the gradient, tau thresholds nest


class TestReliabilityGating:
    def test_masked_gradients_vanish_and_tau_sets_nest(self):
        rng = np.random.default_rng(31)
        zero_ok, lively_ok = True, True
        for _ in range(10):
            p = Tensor(_probs(rng, (1, 3, 6, 6)), requires_grad=True)
            y = _onehot_batch(rng, 1, 3, 6, 6)
            m = (rng.random((1, 6, 6)) < 0.5).astype(np.float32)
            m[0, 0, 0], m[0, 0, 1] = 0.0, 1.0
            p.grad = None
            with ad.Tape() as tape:
                tape.backward(dice_loss([p], y, m))
            g = p.grad
            zero_ok = zero_ok and bool(np.all(g[0][:, m[0] == 0.0] == 0.0))
            lively_ok = lively_ok and bool(np.any(g[0][:, m[0] == 1.0] != 0.0))

        nest_ok = True
        for _ in range(100):
            mp = _probs(rng, (3, 8, 8), caxis=0)
            lo, hi = np.sort(rng.uniform(1.0 / 3.0 + 1e-3, 1.0 - 1e-3, size=2))
            hi = max(hi, lo + 1e-6)
            nest_ok = nest_ok and bool(
                np.all(reliability_map(mp, float(hi)) <= reliability_map(mp, float(lo)))
            )

        report(
            "reliability-gating",
            zero_ok and lively_ok and nest_ok,
            "masked pixels carry exactly zero gradient on 10 draws; "
            "higher tau selects a subset on 100 ensembles",
        )


# ---------------------------------------------------------------------------
# transform invertibility and label equivariance


class TestTransformInvertibility:
    def test_round_trips_are_bitwise_and_argmax_commutes(self):
        rng = np.random.default_rng(43)
        trip_fail = 0
        for _ in range(1000):
            t = sample_transform(rng)
            x = rng.standard_normal((2, 3, 8, 8)).astype(np.float32)
            back = apply_inverse(t, apply_transform(t, x))
            if back.dtype != x.dtype or back.tobytes() != x.tobytes():
                trip_fail += 1

        commute_fail = 0
        for _ in range(100):
            t = sample_transform(rng)
            probs = _probs(rng, (2, 3, 8, 8))
            via_probs = apply_transform(t, probs).argmax(axis=1)
            via_labels = apply_transform(t, probs.argmax(axis=1))
            if not np.array_equal(via_probs, via_labels):
                commute_fail += 1

        report(
            "transform-invertibility",
            trip_fail == 0 and commute_fail == 0,
            f"1000 round trips bitwise ({trip_fail} failures); "
            f"argmax commutes on 100 draws ({commute_fail} failures)",
        )


# ---------------------------------------------------------------------------
# component cleanup and surface distance against brute force


def _blob_mask(rng, size=16):
    while True:
        m = rng.random((size, size)) < 0.35
        if m.any():
            return m


class TestCleanupAndSurfaceDistance:
    def test_cleanup_and_assd_match_brute_force(self):
        rng = np.random.default_rng(53)
        clean_fail = 0
        for _ in range(50):
            lab = rng.integers(0, 3, (16, 16)).astype(np.uint8)
            if not np.array_equal(cleanup_label_map(lab, 3), cleanup_loop(lab, 3)):
                clean_fail += 1

        worst = 0.0
        for _ in range(20):
            a, b = _blob_mask(rng), _blob_mask(rng)
            ref = assd_allpairs(a, b)
            got = assd(a.astype(np.uint8), b.astype(np.uint8), 1)
            worst = max(worst, abs(got - ref))

        same = _blob_mask(rng).astype(np.uint8)
        ident_ok = (
            dice_coefficient(same, same, 1) == 1.0 and assd(same, same, 1) == 0.0
        )

        report(
            "cleanup-and-assd",
            clean_fail == 0 and worst <= 1e-9 and ident_ok,
            f"50 cleanup maps equal flood fill ({clean_fail} failures); "
            f"worst all-pairs deviation {worst:.1e} over 20 pairs; "
            f"identical masks give dice 1 and distance 0",
        )


# ---------------------------------------------------------------------------
# head growth: duplicated heads and identity-forced ensembling


class TestHeadGrowth:
    def test_grown_heads_and_identity_ensemble_match_the_single_head(self):
        model = SegModel(ArchConfig(base_channels=4), np.random.default_rng(8))
        x = np.random.default_rng(61).standard_normal((2, 1, 16, 16)).astype(np.float32)
        model.forward_head(x, 0, train=True, rng=np.random.default_rng(9))  # prime running stats
        single = model.forward_head(x, 0, train=False).data

        grown = model.grow(4)
        head_fail = sum(
            grown.forward_head(x, k, train=False).data.tobytes() != single.tobytes()
            for k in range(4)
        )

        probs_e = ensemble_mean([p.data for p in head_probs(grown, x, [IDENTITY] * 4)])
        _, probs_s = infer_single(grown, x)
        ens_ok = probs_e.tobytes() == probs_s.tobytes()

        report(
            "head-growth",
            head_fail == 0 and ens_ok,
            f"4 grown heads bitwise equal in eval mode ({head_fail} failures); "
            "identity-forced ensemble reproduces the single head exactly",
        )


# ---------------------------------------------------------------------------
# adaptation scope of the normalization baselines


CLASS_MEANS = np.float32((-0.8, 0.8, 0.1))


def _square_set(seed, n_cases, n_slices=2, size=16, noise=0.1):
    rng = np.random.default_rng(seed)
    images, labels, idx = [], [], []
    for c in range(n_cases):
        for _ in range(n_slices):
            lab = np.zeros((size, size), np.uint8)
            r0, c0 = (int(v) for v in rng.integers(2, size - 8, size=2))
            lab[r0 : r0 + 6, c0 : c0 + 6] = 2
            lab[r0 + 2 : r0 + 4, c0 + 2 : c0 + 4] = 1
            img = CLASS_MEANS[lab] + noise * rng.standard_normal((size, size)).astype(np.float32)
            images.append(img[None])
            labels.append(lab)
            idx.append(c)
    return LabeledSet(np.stack(images), np.asarray(idx),
                      [f"case{c}" for c in range(n_cases)], np.stack(labels))


class TestNormalizationAdaptationScope:
    def test_ptbn_touches_only_running_stats_and_tent_only_affine(self):
        train, val = _square_set(0, n_cases=3), _square_set(1, n_cases=1)
        pre = SourceTrainer(PretrainConfig(epochs=3, lr=0.01), 3, 7).fit(train, val).model_
        ref_params = {n: t.data.copy() for n, t in pre.named_parameters().items()}
        ref_bn = {n: (bn.running_mean.copy(), bn.running_var.copy())
                  for n, bn in pre.bn_layers().items()}

        ptbn = PtbnAdapter(pre, AdaptConfig(), 0).fit(train.drop_labels(), val)
        ptbn_params_ok = all(
            np.array_equal(t.data, ref_params[n])
            for n, t in ptbn.model_.named_parameters().items()
        )
        stats_moved = any(
            not np.array_equal(bn.running_mean, ref_bn[n][0])
            for n, bn in ptbn.model_.bn_layers().items()
        )
        # float64 streaming replay of the first normalization layer
        w = pre.named_parameters()["enc.l0.c1.w"].data
        b = pre.named_parameters()["enc.l0.c1.b"].data
        rm = ref_bn["enc.l0.n1"][0].astype(np.float64)
        rv = ref_bn["enc.l0.n1"][1].astype(np.float64)
        for c in range(train.n_cases):
            xb = np.asarray(conv2d_f64(train.images[train.case_slices(c)], w, b))
            rm = 0.9 * rm + 0.1 * xb.mean(axis=(0, 2, 3))
            rv = 0.9 * rv + 0.1 * xb.var(axis=(0, 2, 3))
        bn0 = ptbn.model_.bn_layers()["enc.l0.n1"]
        stream_err = max(
            float(np.abs(bn0.running_mean - rm).max()),
            float(np.abs(bn0.running_var - rv).max()),
        )

        tent = TentAdapter(pre, AdaptConfig(lr=1e-3, epochs=2), 0).fit(train.drop_labels(), val)
        affine = {n for n in ref_params if n.endswith(".gamma") or n.endswith(".beta")}
        moved = {
            n for n, t in tent.model_.named_parameters().items()
            if not np.array_equal(t.data, ref_params[n])
        }
        tent_ok = bool(moved) and moved <= affine
        stats_frozen = all(
            np.array_equal(bn.running_mean, ref_bn[n][0])
            and np.array_equal(bn.running_var, ref_bn[n][1])
            for n, bn in tent.model_.bn_layers().items()
        )

        report(
            "bn-adaptation-scope",
            ptbn_params_ok and stats_moved and stream_err <= 1e-5 and tent_ok and stats_frozen,
            f"ptbn left every parameter bitwise intact, first-layer stats match the "
            f"streaming replay to {stream_err:.1e}; tent moved {len(moved)} tensors, "
            f"all scale or shift, with frozen running stats",
        )


# ---------------------------------------------------------------------------
# reference pipeline at seed 42 (shared by the benchmark and determinism tests)


ACCEPT_CFG = """\
[data]
n_cases = 10

[pretrain]
epochs = 12

[adapt]
heads = 4
epochs = 5
"""

# locked after the first verified run of this pipeline
LOCKED = {
    "source_val_best": 0.999876,
    "source_only": 0.560561,
    "source_only_ensemble": 0.570439,
    "selftrain": 0.833349,
    "upl": 0.853984,
}


def _run_cli(argv):
    t0 = time.monotonic()
    rc = cli.main(argv)
    return rc, time.monotonic() - t0


def _mean_fg_dice(summary_csv):
    with open(summary_csv, newline="") as f:
        rows = list(csv.DictReader(f))
    return float(np.mean([float(r["dice_mean"]) for r in rows]))


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _manifest_core(path: Path) -> dict:
    m = json.loads(path.read_text())
    m.pop("timing_s")
    m["outputs"] = sorted(Path(o).name for o in m["outputs"])
    m["inputs"] = {Path(k).name: v for k, v in m["inputs"].items()}
    return m


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("release")
    cfg = root / "acceptance.cfg"
    cfg.write_text(ACCEPT_CFG)
    times = {}

    def step(name, argv):
        rc, times[name] = _run_cli(argv)
        assert rc == 0, f"pipeline step {name} exited {rc}"

    data = root / "data"
    ckpt = root / "pre" / "checkpoint.uplc"
    step("gen", ["gen-data", "--out", str(data), "--config", str(cfg), "--seed", "42"])
    step("pretrain", ["pretrain", "--data", str(data), "--out", str(root / "pre"),
                      "--config", str(cfg), "--seed", "42"])
    step("eval-src", ["eval", "--checkpoint", str(ckpt),
                      "--data", str(data / "target_test.upld"),
                      "--out", str(root / "e_src" / "results.csv"), "--mode", "single",
                      "--config", str(cfg), "--seed", "42"])
    step("eval-src-ens", ["eval", "--checkpoint", str(ckpt),
                          "--data", str(data / "target_test.upld"),
                          "--out", str(root / "e_ens" / "results.csv"), "--mode", "ensemble",
                          "--config", str(cfg), "--seed", "42"])
    step("adapt-upl", ["adapt", "--checkpoint", str(ckpt), "--data", str(data),
                       "--out", str(root / "a_upl"), "--config", str(cfg),
                       "--method", "upl", "--seed", "42"])
    step("eval-upl", ["eval", "--checkpoint", str(root / "a_upl" / "adapted.uplc"),
                      "--data", str(data / "target_test.upld"),
                      "--out", str(root / "e_upl" / "results.csv"), "--mode", "ensemble",
                      "--config", str(cfg), "--seed", "42"])
    step("adapt-st", ["adapt", "--checkpoint", str(ckpt), "--data", str(data),
                      "--out", str(root / "a_st"), "--config", str(cfg),
                      "--method", "selftrain", "--seed", "42"])
    step("eval-st", ["eval", "--checkpoint", str(root / "a_st" / "adapted.uplc"),
                     "--data", str(data / "target_test.upld"),
                     "--out", str(root / "e_st" / "results.csv"), "--mode", "single",
                     "--config", str(cfg), "--seed", "42"])

    records = [json.loads(l) for l in (root / "pre" / "trainlog.jsonl").read_text().splitlines()]
    return SimpleNamespace(
        root=root,
        cfg=cfg,
        times=times,
        source_val_best=max(r["val_dice_mean"] for r in records),
        source_only=_mean_fg_dice(root / "e_src" / "results_summary.csv"),
        source_only_ensemble=_mean_fg_dice(root / "e_ens" / "results_summary.csv"),
        upl=_mean_fg_dice(root / "e_upl" / "results_summary.csv"),
        selftrain=_mean_fg_dice(root / "e_st" / "results_summary.csv"),
    )


@pytest.mark.slow
class TestAdaptationBenchmark:
    def test_target_recovery_ordering_and_locked_values(self, pipeline):
        p = pipeline
        wall = sum(p.times.values())
        checks = {
            "source val at least 0.90": p.source_val_best >= 0.90,
            "domain gap at least 10 points": p.source_only <= p.source_val_best - 0.10,
            "upl beats source-only": p.upl > p.source_only,
            "upl beats selftrain": p.upl > p.selftrain,
            "ensemble at least single": p.source_only_ensemble >= p.source_only,
            "wall within 600s": wall <= 600.0,
        }
        drift = max(abs(getattr(p, key) - val) for key, val in LOCKED.items())
        failing = sorted(name for name, ok in checks.items() if not ok)
        report(
            "adaptation-benchmark",
            not failing and drift <= 1e-6,
            f"source val {p.source_val_best:.4f}, target dice source-only "
            f"{p.source_only:.4f} / selftrain {p.selftrain:.4f} / upl {p.upl:.4f}, "
            f"locked-value drift {drift:.1e}, {wall:.0f}s"
            + (f", failing: {failing}" if failing else ""),
        )


@pytest.mark.slow
class TestDeterminism:
    def test_reruns_reproduce_every_artifact_byte_for_byte(self, pipeline):
        root = pipeline.root
        cfg = pipeline.cfg
        data = root / "data"
        ckpt = root / "pre" / "checkpoint.uplc"
        reruns = [
            ("gen", ["gen-data", "--out", str(root / "data2"), "--config", str(cfg),
                     "--seed", "42"],
             data, root / "data2",
             [f"{d}_{s}.upld" for d in ("source", "target") for s in ("train", "val", "test")]),
            ("eval", ["eval", "--checkpoint", str(ckpt),
                      "--data", str(data / "target_test.upld"),
                      "--out", str(root / "e_src2" / "results.csv"), "--mode", "single",
                      "--config", str(cfg), "--seed", "42"],
             root / "e_src", root / "e_src2",
             ["results.csv", "results_summary.csv"]),
            ("adapt", ["adapt", "--checkpoint", str(ckpt), "--data", str(data),
                       "--out", str(root / "a_st2"), "--config", str(cfg),
                       "--method", "selftrain", "--seed", "42"],
             root / "a_st", root / "a_st2",
             ["adapted.uplc", "trainlog.jsonl"]),
        ]
        mismatches = []
        for name, argv, first, second, files in reruns:
            rc, _ = _run_cli(argv)
            assert rc == 0, f"rerun {name} exited {rc}"
            for f in files:
                if _sha(first / f) != _sha(second / f):
                    mismatches.append(f"{name}:{f}")
            if _manifest_core(first / "manifest.json") != _manifest_core(second / "manifest.json"):
                mismatches.append(f"{name}:manifest.json")
        report(
            "determinism",
            not mismatches,
            "data generation, evaluation and adaptation reruns byte-identical "
            "(manifests compared without timings)"
            + (f"; mismatches: {mismatches}" if mismatches else ""),
        )


# ---------------------------------------------------------------------------
# paired t-test against a high precision reference


class TestPairedTTestReference:
    def test_matches_the_high_precision_computation(self):
        a, b = (1.0, 2.0, 3.0, 4.0), (1.1, 2.1, 2.9, 4.2)
        t, pv = paired_t_test(a, b)
        tr, pr = (float(v) for v in paired_t_reference(a, b))
        report(
            "t-test-reference",
            abs(t - tr) <= 1e-6 and abs(pv - pr) <= 1e-6,
            f"t {t:.8f} vs reference {tr:.8f}, p {pv:.8f} vs reference {pr:.8f}",
        )
