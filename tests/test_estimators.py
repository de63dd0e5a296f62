"""Training, adaptation and baseline procedures plus eval-mode inference."""

import hashlib
import inspect
import json
from dataclasses import fields

import numpy as np
import pytest

import segadapt.estimators as est
from segadapt.config import AdaptConfig, PretrainConfig
from segadapt.data import LabeledSet, UnlabeledSet
from segadapt.estimators import (
    FineTuner,
    MultiHeadAdapter,
    PtbnAdapter,
    SelfTrainAdapter,
    SourceTrainer,
    TentAdapter,
    iter_batches,
    validation_dice,
)
from segadapt.inference import head_probs, infer_ensemble, infer_single
from segadapt.model import ArchConfig, SegModel
from segadapt.pseudolabel import ensemble_mean
from segadapt.rng import named_stream
from segadapt.transforms import IDENTITY
from _oracles import (
    cleanup_loop,
    conv2d_f64,
    leaky_f64,
    maxpool_f64,
    softmax_f64,
    upsample_f64,
)

CLASS_MEANS = np.float32((-0.8, 0.8, 0.1))


def square_set(seed, n_cases=2, n_slices=2, size=16, noise=0.1):
    """Class-separable toy volumes: nested squares on flat background."""
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


def params_of(model):
    return {n: t.data.copy() for n, t in model.named_parameters().items()}


def bn_state_of(model):
    return {n: (bn.running_mean.copy(), bn.running_var.copy(), bn.num_batches)
            for n, bn in model.bn_layers().items()}


@pytest.fixture(scope="module")
def toy_data():
    return square_set(0, n_cases=3, n_slices=2), square_set(1, n_cases=1, n_slices=2)


@pytest.fixture(scope="module")
def pretrained(toy_data):
    train, val = toy_data
    return SourceTrainer(PretrainConfig(epochs=4, lr=0.01), 3, 7).fit(train, val).model_


def fit_digest(fitted) -> str:
    """sha256 over parameters, BN running statistics, the train log and the
    best-epoch selection of a fitted estimator."""
    h = hashlib.sha256()
    for n, t in sorted(fitted.model_.named_parameters().items()):
        h.update(n.encode())
        h.update(t.data.tobytes())
    for n, (rm, rv, nb) in sorted(bn_state_of(fitted.model_).items()):
        h.update(n.encode())
        h.update(rm.tobytes())
        h.update(rv.tobytes())
        h.update(str(nb).encode())
    h.update(fitted.log_.to_jsonl().encode())
    h.update(repr((fitted.best_epoch_, fitted.best_val_dice_)).encode())
    return h.hexdigest()


# name -> (estimator from the pretrained model, fits on labeled data, digest)
GOLDEN = {
    "source-volume": (
        lambda m: SourceTrainer(PretrainConfig(epochs=2), 3, 41), True,
        "1be56e3dc0c2e137f60f98fe33a41b3cb118c58d7fb12c7097481249f86b14c4"),
    "source-batch3": (
        lambda m: SourceTrainer(PretrainConfig(epochs=2, batch="3"), 3, 41), True,
        "8af124f8521bf3c1345babfb67508c459e0d8669a7acba664ffd1a4285124e2d"),
    "source-0-epochs": (
        lambda m: SourceTrainer(PretrainConfig(epochs=0), 3, 41), True,
        "b8e820df81294ce8a3518cb3997775250909bd84ef4cee6fa9fb997573590aee"),
    "finetune": (
        lambda m: FineTuner(m, AdaptConfig(epochs=2, lr=1e-3), 42), True,
        "9ae600a6adb14f5c25436ecf4be0cd96221978584a884346e26d9cf99996748f"),
    "upl": (
        lambda m: MultiHeadAdapter(m, AdaptConfig(heads=2, epochs=2, lr=1e-3), 43), False,
        "31880f44913f547f877bb57381951f51aceaa036ade3ca7ffaa801892426acf5"),
    "upl-no-entropy": (
        lambda m: MultiHeadAdapter(m, AdaptConfig(heads=2, epochs=2, lr=1e-3), 43,
                                   {"LMENT"}), False,
        "0ab0bf6ec4ef85e0ca6f01679ed44dc28e04934b2dd9bb48b4c619bccdfe307d"),
    "upl-no-pseudo": (
        lambda m: MultiHeadAdapter(m, AdaptConfig(heads=2, epochs=2, lr=1e-3), 43,
                                   {"TFS"}), False,
        "287228bcad66e3c8cdd13e57957053cbfcc0b6666014d10df4cc32ca805c36b3"),
    "upl-no-M-TDG-T-batch2": (
        lambda m: MultiHeadAdapter(m, AdaptConfig(heads=2, epochs=2, lr=1e-3, batch="2"), 43,
                                   {"M", "TDG", "T"}), False,
        "cce435f3a7dea828c2d6e82dd1a0a73977a75fbf8eb22b231798287976d23d93"),
    "tent": (
        lambda m: TentAdapter(m, AdaptConfig(lr=1e-3, epochs=2), 44), False,
        "33fcf27dd2a31968b78c4dda150ef8443b1d88e9d66d9e47c97b577550746660"),
    "tent-lr0": (
        lambda m: TentAdapter(m, AdaptConfig(lr=0.0, epochs=2), 44), False,
        "3462c4a231217f5428f5fb96bf8ee4a1042bdfe9a4614ba2d4e3fa81e2702dfc"),
    "ptbn": (
        lambda m: PtbnAdapter(m, AdaptConfig(), 45), False,
        "068518e444456191fed7aca68a2d526fe1a4cb24870a396b78a25bb8c0173990"),
    "selftrain": (
        lambda m: SelfTrainAdapter(m, AdaptConfig(epochs=2, lr=1e-3), 46), False,
        "ef25a0569957365216372d92f6fa94063d519f6b96765d6d2cec9cd0917f7545"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_fit_digest(name, toy_data, pretrained):
    """Every estimator's fitted state and log are pinned bit for bit."""
    make, labeled, digest = GOLDEN[name]
    train, val = toy_data
    fitted = make(pretrained).fit(train if labeled else train.drop_labels(), val)
    assert fit_digest(fitted) == digest, name


def test_constructors_declare_no_config_field():
    """Hyperparameters and their defaults live in config.py only, and a
    fitted estimator exposes ``model_``, not a predict surface."""
    owned = {f.name for section in (PretrainConfig, AdaptConfig) for f in fields(section)}
    classes = [c for c in vars(est).values()
               if isinstance(c, type) and issubclass(c, est.SegmentationEstimator)]
    assert len(classes) == 7  # the base and its six procedures
    for cls in classes:
        params = set(inspect.signature(cls).parameters)
        assert not params & owned, (cls.__name__, sorted(params & owned))
        assert not hasattr(cls, "predict") and not hasattr(cls, "fitted_model"), cls


class TestBatching:
    def test_volume_mode_yields_whole_cases(self, toy_data):
        train, _ = toy_data
        seen = []
        for idx in iter_batches(train, "volume", np.random.default_rng(0)):
            cases = set(train.case_index[idx])
            assert len(cases) == 1  # one case per batch
            assert set(idx) == set(train.case_slices(cases.pop()))
            seen.extend(idx)
        assert sorted(seen) == list(range(len(train)))

    def test_fixed_mode_chunks_all_slices(self, toy_data):
        train, _ = toy_data
        batches = list(iter_batches(train, 4, np.random.default_rng(1)))
        assert [len(b) for b in batches] == [4, 2]
        assert sorted(np.concatenate(batches)) == list(range(len(train)))

    def test_bad_batch_size_rejected(self, toy_data):
        train, _ = toy_data
        with pytest.raises(ValueError):
            list(iter_batches(train, 0, np.random.default_rng(2)))


class TestValidationDice:
    def test_hand_computed_aggregation(self):
        val = square_set(3, n_cases=2, n_slices=1)
        predictions = {0: val.labels[0:1].copy(), 1: np.zeros_like(val.labels[1:2])}
        calls = iter(range(2))

        def predict_fn(imgs):
            return predictions[next(calls)]

        mean, per_class = validation_dice(predict_fn, val, 3)
        # case0 predicted perfectly (dice 1 per class), case1 all background
        assert per_class == [0.5, 0.5]
        assert mean == 0.5


class TestSourceTrainer:
    def test_loss_decreases_on_separable_data(self, toy_data, pretrained):
        train, val = toy_data
        t = SourceTrainer(PretrainConfig(epochs=4, lr=0.01), 3, 7)
        records = t.fit(train, val).log_.records
        assert records[-1].loss < records[0].loss

    def test_lr_schedule_steps_every_four_epochs(self, toy_data):
        train, val = toy_data
        t = SourceTrainer(PretrainConfig(epochs=8, lr=0.01, lr_decay=0.9, decay_every=4), 3, 2)
        lrs = [r.lr for r in t.fit(train, val).log_.records]
        assert lrs[:4] == [0.01] * 4
        assert all(abs(v - 0.009) < 1e-12 for v in lrs[4:])

    def test_best_validation_checkpoint_is_kept(self, toy_data, monkeypatch):
        train, val = toy_data

        def scripted(vals):
            it = iter(vals)
            return lambda predict_fn, v, c: (next(it), [0.0])

        monkeypatch.setattr(est, "validation_dice", scripted([0.1, 0.9, 0.2, 0.3]))
        a = SourceTrainer(PretrainConfig(epochs=4), 3, 5).fit(train, val)
        monkeypatch.setattr(est, "validation_dice", scripted([0.1, 0.9]))
        b = SourceTrainer(PretrainConfig(epochs=2), 3, 5).fit(train, val)
        assert a.best_epoch_ == b.best_epoch_ == 1
        assert a.best_val_dice_ == 0.9
        for n, arr in params_of(a.model_).items():
            assert np.array_equal(arr, params_of(b.model_)[n]), n

        monkeypatch.setattr(est, "validation_dice", scripted([0.1, 0.2, 0.3, 0.9]))
        c = SourceTrainer(PretrainConfig(epochs=4), 3, 5).fit(train, val)
        assert c.best_epoch_ == 3
        assert any(
            not np.array_equal(arr, params_of(c.model_)[n])
            for n, arr in params_of(a.model_).items()
        )

    def test_validation_ties_keep_the_earlier_epoch(self, toy_data, monkeypatch):
        train, val = toy_data
        vals = iter([0.5, 0.8, 0.8])
        monkeypatch.setattr(est, "validation_dice",
                            lambda predict_fn, v, c: (next(vals), [0.0]))
        t = SourceTrainer(PretrainConfig(epochs=3), 3, 6).fit(train, val)
        assert t.best_epoch_ == 1

    def test_zero_epochs_returns_the_fresh_init_ignoring_data(self, toy_data):
        train, val = toy_data
        other = square_set(9, n_cases=3, n_slices=2)
        a = SourceTrainer(PretrainConfig(epochs=0), 3, 11).fit(train, val).model_
        b = SourceTrainer(PretrainConfig(epochs=0), 3, 11).fit(other, val).model_
        raw = SegModel(ArchConfig(), named_stream(11, "init"))
        for n, arr in params_of(a).items():
            assert np.array_equal(arr, params_of(b)[n])
            assert np.array_equal(arr, params_of(raw)[n])

    def test_deterministic_refit(self, toy_data):
        train, val = toy_data
        a = SourceTrainer(PretrainConfig(epochs=2), 3, 13).fit(train, val)
        b = SourceTrainer(PretrainConfig(epochs=2), 3, 13).fit(train, val)
        assert a.log_.to_jsonl() == b.log_.to_jsonl()
        for n, arr in params_of(a.model_).items():
            assert np.array_equal(arr, params_of(b.model_)[n])

    def test_log_is_parseable_jsonl_without_wall_time(self, toy_data):
        train, val = toy_data
        t = SourceTrainer(PretrainConfig(epochs=2), 3, 14).fit(train, val)
        lines = t.log_.to_jsonl().strip().split("\n")
        assert len(lines) == 2
        for i, line in enumerate(lines):
            rec = json.loads(line)
            assert rec["epoch"] == i
            assert "wall_time_s" not in rec
            assert set(rec) == {"epoch", "loss", "loss_entropy", "val_dice",
                                "val_dice_mean", "reliable_fraction", "lr"}


class TestMultiHeadAdapter:
    def test_preconditions(self, toy_data, pretrained):
        train, val = toy_data
        target = train.drop_labels()
        with pytest.raises(ValueError, match="single-head"):
            MultiHeadAdapter(pretrained.grow(2), AdaptConfig(), 0).fit(target, val)
        with pytest.raises(ValueError, match="nothing to optimize"):
            MultiHeadAdapter(pretrained, AdaptConfig(), 0, {"TFS", "LMENT"})
        with pytest.raises(ValueError, match="XX"):
            MultiHeadAdapter(pretrained, AdaptConfig(), 0, {"M", "XX"})

    def test_fit_grows_heads_and_logs_all_terms(self, toy_data, pretrained):
        train, val = toy_data
        a = MultiHeadAdapter(pretrained, AdaptConfig(heads=4, epochs=1), 21)
        a.fit(train.drop_labels(), val)
        assert a.model_.num_heads == 4
        assert pretrained.num_heads == 1  # input untouched
        rec = a.log_.records[0]
        assert rec.loss is not None and rec.loss_entropy is not None
        assert 0.0 <= rec.reliable_fraction <= 1.0

    def test_everything_masked_and_no_entropy_leaves_parameters_frozen(self, toy_data, pretrained):
        train, val = toy_data
        numb = pretrained.clone()
        numb.named_parameters()["head0.out.w"].data[:] = 0.0
        numb.named_parameters()["head0.out.b"].data[:] = 0.0
        before = params_of(numb)
        a = MultiHeadAdapter(numb, AdaptConfig(heads=4, tau=0.95, epochs=2), 22, {"LMENT"})
        a.fit(train.drop_labels(), val)
        after = {n: t.data for n, t in a.model_.named_parameters().items()}
        for n, arr in after.items():
            src = "head0." + n.split(".", 1)[1] if n.startswith("head") else n
            assert np.array_equal(arr, before[src]), n
        assert a.log_.records[0].reliable_fraction == 0.0
        assert a.log_.records[0].loss == 1.0

    def test_toggles_off_single_head_matches_selftrain_step(self, pretrained):
        data = square_set(25, n_cases=1, n_slices=2)
        target, val = data.drop_labels(), data
        upl = MultiHeadAdapter(pretrained, AdaptConfig(heads=1, epochs=1), 26,
                               {"M", "TDG", "T"})
        upl.fit(target, val)
        st = SelfTrainAdapter(pretrained, AdaptConfig(epochs=1), 26)
        st.fit(target, val)
        stp = params_of(st.model_)
        for n, arr in params_of(upl.model_).items():
            assert np.array_equal(arr, stp[n]), n

    def test_reliability_toggle_marks_everything_reliable(self, toy_data, pretrained):
        train, val = toy_data
        a = MultiHeadAdapter(pretrained, AdaptConfig(heads=2, epochs=1), 27, {"M"})
        a.fit(train.drop_labels(), val)
        assert a.log_.records[0].reliable_fraction == 1.0

    def test_loss_term_toggles_reflected_in_the_log(self, toy_data, pretrained):
        train, val = toy_data
        no_sup = MultiHeadAdapter(pretrained, AdaptConfig(heads=2, epochs=1), 28, {"TFS"})
        no_sup.fit(train.drop_labels(), val)
        rec = no_sup.log_.records[0]
        assert rec.loss is None and rec.reliable_fraction is None
        assert rec.loss_entropy is not None

        no_ent = MultiHeadAdapter(pretrained, AdaptConfig(heads=2, epochs=1), 28, {"LMENT"})
        no_ent.fit(train.drop_labels(), val)
        assert no_ent.log_.records[0].loss_entropy is None

    def test_deterministic_refit(self, toy_data, pretrained):
        train, val = toy_data
        a = MultiHeadAdapter(pretrained, AdaptConfig(heads=2, epochs=1), 29)
        b = MultiHeadAdapter(pretrained, AdaptConfig(heads=2, epochs=1), 29)
        a.fit(train.drop_labels(), val)
        b.fit(train.drop_labels(), val)
        assert a.log_.to_jsonl() == b.log_.to_jsonl()
        bp = params_of(b.model_)
        for n, arr in params_of(a.model_).items():
            assert np.array_equal(arr, bp[n]), n


class TestPtbn:
    def test_zero_batches_leave_the_model_bitwise_unchanged(self, toy_data, pretrained):
        empty = UnlabeledSet(np.zeros((0, 1, 16, 16), np.float32), np.zeros(0, int), [])
        a = PtbnAdapter(pretrained, AdaptConfig(), 0).fit(empty, toy_data[1])
        for n, arr in params_of(a.model_).items():
            assert np.array_equal(arr, params_of(pretrained)[n])
        ref = bn_state_of(pretrained)
        for n, (rm, rv, nb) in bn_state_of(a.model_).items():
            assert np.array_equal(rm, ref[n][0]) and np.array_equal(rv, ref[n][1])
            assert nb == ref[n][2]

    def test_only_bn_statistics_move(self, toy_data, pretrained):
        train, val = toy_data
        a = PtbnAdapter(pretrained, AdaptConfig(), 0).fit(train.drop_labels(), val)
        ref = params_of(pretrained)
        for n, arr in params_of(a.model_).items():
            assert np.array_equal(arr, ref[n]), n  # gamma/beta included
        before = bn_state_of(pretrained)
        for n, (rm, rv, nb) in bn_state_of(a.model_).items():
            assert nb == before[n][2] + train.n_cases
            assert not np.array_equal(rm, before[n][0])

    def test_first_layer_stats_match_streaming_oracle(self, toy_data, pretrained):
        train, val = toy_data
        a = PtbnAdapter(pretrained, AdaptConfig(), 0).fit(train.drop_labels(), val)
        w = pretrained.named_parameters()["enc.l0.c1.w"].data
        b = pretrained.named_parameters()["enc.l0.c1.b"].data
        batches = [conv2d_f64(train.images[train.case_slices(c)], w, b)
                   for c in range(train.n_cases)]
        # float64 replay of the blend, seeded from the pretrained buffers
        rm = pretrained.bn_layers()["enc.l0.n1"].running_mean.astype(np.float64)
        rv = pretrained.bn_layers()["enc.l0.n1"].running_var.astype(np.float64)
        for x in batches:
            xb = np.asarray(x, dtype=np.float64)
            rm = 0.9 * rm + 0.1 * xb.mean(axis=(0, 2, 3))
            rv = 0.9 * rv + 0.1 * xb.var(axis=(0, 2, 3))
        bn = a.model_.bn_layers()["enc.l0.n1"]
        assert np.abs(bn.running_mean - rm).max() <= 1e-5
        assert np.abs(bn.running_var - rv).max() <= 1e-5

    def test_validation_recorded_when_given(self, toy_data, pretrained):
        train, val = toy_data
        a = PtbnAdapter(pretrained, AdaptConfig(), 0).fit(train.drop_labels(), val)
        assert len(a.log_.records) == 1
        assert 0.0 <= a.best_val_dice_ <= 1.0


def tent(pretrained, toy_data, **cfg):
    train, val = toy_data
    return TentAdapter(pretrained, AdaptConfig(**cfg), 0).fit(train.drop_labels(), val)


class TestTent:
    def test_only_bn_affine_parameters_move(self, toy_data, pretrained):
        a = tent(pretrained, toy_data, lr=1e-3, epochs=3)
        ref = params_of(pretrained)
        affine_names = {n for n in ref if n.endswith(".gamma") or n.endswith(".beta")}
        moved = []
        for n, arr in params_of(a.model_).items():
            if n in affine_names:
                if not np.array_equal(arr, ref[n]):
                    moved.append(n)
            else:
                assert np.array_equal(arr, ref[n]), n
        assert moved  # entropy gradient actually reached gamma/beta

    def test_running_stats_stay_frozen(self, toy_data, pretrained):
        a = tent(pretrained, toy_data, lr=1e-3, epochs=2)
        ref = bn_state_of(pretrained)
        for n, (rm, rv, nb) in bn_state_of(a.model_).items():
            assert np.array_equal(rm, ref[n][0])
            assert np.array_equal(rv, ref[n][1])
            assert nb == ref[n][2]

    def test_lr_zero_changes_nothing(self, toy_data, pretrained):
        a = tent(pretrained, toy_data, lr=0.0, epochs=2)
        ref = params_of(pretrained)
        for n, arr in params_of(a.model_).items():
            assert np.array_equal(arr, ref[n]), n
        assert len(a.log_.records) == 2
        with pytest.raises(ValueError):
            tent(pretrained, toy_data, lr=-1e-4)

    def test_entropy_objective_goes_down(self, toy_data, pretrained):
        a = tent(pretrained, toy_data, lr=1e-3, epochs=4)
        ent = [r.loss_entropy for r in a.log_.records]
        assert ent[-1] <= ent[0] + 1e-6


class TestSelfTrain:
    def test_single_head_and_determinism(self, toy_data, pretrained):
        train, val = toy_data
        a = SelfTrainAdapter(pretrained, AdaptConfig(epochs=1), 31)
        b = SelfTrainAdapter(pretrained, AdaptConfig(epochs=1), 31)
        a.fit(train.drop_labels(), val)
        b.fit(train.drop_labels(), val)
        assert a.model_.num_heads == 1
        bp = params_of(b.model_)
        for n, arr in params_of(a.model_).items():
            assert np.array_equal(arr, bp[n])
        rec = a.log_.records[0]
        assert rec.loss is not None and rec.loss_entropy is not None


class TestFineTuner:
    def test_zero_epochs_is_the_identity(self, toy_data, pretrained):
        train, val = toy_data
        f = FineTuner(pretrained, AdaptConfig(epochs=0), 0).fit(train, val)
        ref = params_of(pretrained)
        for n, arr in params_of(f.model_).items():
            assert np.array_equal(arr, ref[n]), n
        ref_bn = bn_state_of(pretrained)
        for n, (rm, rv, nb) in bn_state_of(f.model_).items():
            assert np.array_equal(rm, ref_bn[n][0]) and nb == ref_bn[n][2]

    def test_training_moves_parameters_at_constant_lr(self, toy_data, pretrained):
        train, val = toy_data
        f = FineTuner(pretrained, AdaptConfig(epochs=2, lr=1e-3), 32).fit(train, val)
        ref = params_of(pretrained)
        assert any(not np.array_equal(arr, ref[n]) for n, arr in params_of(f.model_).items())
        assert [r.lr for r in f.log_.records] == [1e-3, 1e-3]


class TestInference:
    def test_identity_forced_ensemble_equals_single_head(self, toy_data, pretrained):
        _, val = toy_data
        grown = pretrained.grow(3)
        mean_prob = ensemble_mean([p.data for p in head_probs(grown, val.images,
                                                               [IDENTITY] * 3)])
        _, probs = infer_single(grown, val.images)
        assert np.array_equal(mean_prob, probs)

    def test_ensemble_deterministic_given_seed(self, toy_data, pretrained):
        _, val = toy_data
        grown = pretrained.grow(4)
        a = infer_ensemble(grown, val.images, np.random.default_rng(5))
        b = infer_ensemble(grown, val.images, np.random.default_rng(5))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_single_head_forward_matches_hand_computation(self):
        arch = ArchConfig(levels=1, base_channels=4, num_classes=2)
        model = SegModel(arch, np.random.default_rng(40))
        rng = np.random.default_rng(41)
        warmx = rng.standard_normal((2, 1, 8, 8)).astype(np.float32)
        model.forward_head(warmx, 0, train=True)
        x = rng.standard_normal((1, 1, 8, 8)).astype(np.float32)

        P = {n: t.data.astype(np.float64) for n, t in model.named_parameters().items()}
        B = {n: (bn.running_mean.astype(np.float64), bn.running_var.astype(np.float64))
             for n, bn in model.bn_layers().items()}

        def bn_eval(v, name):
            rm, rv = B[name]
            g, b = P[f"{name}.gamma"], P[f"{name}.beta"]
            shape = (1, -1, 1, 1)
            return ((v - rm.reshape(shape)) / np.sqrt(rv.reshape(shape) + 1e-5)
                    ) * g.reshape(shape) + b.reshape(shape)

        def block(v, prefix):
            v = leaky_f64(bn_eval(conv2d_f64(v, P[f"{prefix}.c1.w"], P[f"{prefix}.c1.b"]),
                                  f"{prefix}.n1"), 0.01)
            v = leaky_f64(bn_eval(conv2d_f64(v, P[f"{prefix}.c2.w"], P[f"{prefix}.c2.b"]),
                                  f"{prefix}.n2"), 0.01)
            return v

        skip = block(x.astype(np.float64), "enc.l0")
        v = maxpool_f64(skip)
        v = block(v, "enc.bottom")
        v = upsample_f64(v)
        v = leaky_f64(bn_eval(conv2d_f64(v, P["head0.s0.up.w"], P["head0.s0.up.b"]),
                              "head0.s0.un"), 0.01)
        v = np.concatenate([v, skip], axis=1)
        v = block(v, "head0.s0")
        logits = conv2d_f64(v, P["head0.out.w"], P["head0.out.b"])
        expect = softmax_f64(logits, axis=1)

        labels, probs = infer_single(model, x)
        assert np.abs(probs.astype(np.float64) - expect).max() <= 1e-4
        oracle_labels = np.stack([cleanup_loop(l, 2) for l in probs.argmax(axis=1)])
        assert np.array_equal(labels, oracle_labels.astype(labels.dtype))
