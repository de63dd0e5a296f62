"""Training and adaptation procedures with a fit/predict estimator surface.

Each procedure is a class holding its hyperparameters as attributes. All but
``PtbnAdapter`` run the same epoch loop and differ only in the update step:

- ``SourceTrainer``: supervised Dice training from scratch (also serves as
  the target-only ceiling when fed target data).
- ``MultiHeadAdapter``: source-free adaptation. Duplicates the pre-trained
  head K times behind independent dropout gates, then per step runs a
  tape-free pass under random invertible transforms to build pseudo labels
  and a reliability map from the head-mean prediction, and a second, taped
  pass whose heads are supervised by that frozen bundle (reliability-weighted
  Dice) plus a mean-prediction entropy term.
- ``PtbnAdapter``: refreshes BN running statistics on target batches.
- ``TentAdapter``: entropy minimization on BN affine parameters only.
- ``SelfTrainAdapter``: single head supervised by its own argmax labels.
- ``FineTuner``: supervised Dice training from a pre-trained model.

Fitted attributes use the trailing-underscore convention: ``model_``,
``log_``, ``best_epoch_``, ``best_val_dice_``.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

import numpy as np

from . import transforms as tf
from .autodiff import Tape
from .data import LabeledSet, UnlabeledSet
from .inference import head_probs, infer_ensemble, infer_single
from .losses import (combined_loss, dice_loss, mean_prediction_entropy,
                     multi_head_dice_loss, per_head_entropy)
from .metrics import dice_coefficient
from .model import ArchConfig, SegModel
from .optim import Adam
from .pseudolabel import make_pseudo_label, one_hot
from .rng import SeedBundle
from .validation import NotFittedError


class NumericFailure(RuntimeError):
    """Loss left the finite range; carries context for the diagnostic dump."""

    def __init__(self, message: str, diagnostics: dict):
        super().__init__(message)
        self.diagnostics = diagnostics


@dataclass
class EpochRecord:
    epoch: int
    loss: float | None
    loss_entropy: float | None
    val_dice: list
    val_dice_mean: float
    reliable_fraction: float | None
    lr: float
    wall_time_s: float

    def public_fields(self) -> dict:
        # wall time stays out of exported logs so reruns are byte-identical
        return {
            "epoch": self.epoch,
            "loss": self.loss,
            "loss_entropy": self.loss_entropy,
            "val_dice": self.val_dice,
            "val_dice_mean": self.val_dice_mean,
            "reliable_fraction": self.reliable_fraction,
            "lr": self.lr,
        }


class TrainLog:
    def __init__(self):
        self.records: list[EpochRecord] = []

    def append(self, rec: EpochRecord):
        self.records.append(rec)

    def to_jsonl(self) -> str:
        return "".join(
            json.dumps(r.public_fields(), sort_keys=True) + "\n" for r in self.records
        )

    def write(self, path):
        with open(path, "w", encoding="utf-8") as f:
            f.write(self.to_jsonl())


def _parse_batch(mode) -> int | None:
    """'volume' -> None (one case per batch); an int chunks shuffled slices."""
    if mode == "volume" or mode is None:
        return None
    n = int(mode)
    if n < 1:
        raise ValueError(f"batch size must be >= 1, got {mode}")
    return n


def iter_batches(ds: UnlabeledSet, mode, order_rng: np.random.Generator):
    """Yield index arrays; case order (or slice order) reshuffles per call."""
    size = _parse_batch(mode)
    if size is None:
        for c in order_rng.permutation(ds.n_cases):
            yield ds.case_slices(int(c))
    else:
        perm = order_rng.permutation(len(ds))
        for i in range(0, len(perm), size):
            yield perm[i : i + size]


def _check_finite(value: float, **ctx):
    if not np.isfinite(value):
        raise NumericFailure(f"non-finite loss {value!r}", dict(ctx, loss=float(value)))


def validation_dice(predict_fn, val: LabeledSet, num_classes: int) -> tuple[float, list]:
    """Mean-over-classes of per-class mean-over-cases foreground Dice."""
    per_class = {c: [] for c in range(1, num_classes)}
    for _, imgs, labs in val.cases():
        pred = predict_fn(imgs)
        for c in per_class:
            per_class[c].append(dice_coefficient(pred, labs, c))
    means = [float(np.mean(per_class[c])) for c in sorted(per_class)]
    return float(np.mean(means)), means


class SegmentationEstimator:
    """predict over the fitted model, plus the epoch loop shared by every
    procedure that takes optimizer steps."""

    @property
    def fitted_model(self) -> SegModel:
        model = getattr(self, "model_", None)
        if model is None:
            raise NotFittedError(f"{type(self).__name__} is not fitted; call fit() first")
        return model

    def predict(self, images: np.ndarray) -> np.ndarray:
        labels, _ = infer_single(self.fitted_model, images)
        return labels

    def _fit_epochs(self, work: SegModel, opt: Adam | None, train: UnlabeledSet,
                    val: LabeledSet, step_fn, *, lr_fn=None, predict_fn=None):
        """Run ``self.epochs`` epochs of ``step_fn(idx, epoch, step)`` over
        ``self.batch``-sized batches, validate after each and keep the best.

        ``step_fn`` tapes one update, leaving gradients on the parameters, and
        returns its log terms (keys among ``loss``, ``loss_entropy`` and
        ``reliable_fraction``). ``opt`` None means observe only. The learning
        rate is ``lr_fn(epoch)`` when given, else the constant ``self.lr``.
        """
        if predict_fn is None:
            predict_fn = lambda imgs: infer_single(work, imgs)[0]
        order_rng = SeedBundle(self.seed).stream("order")
        log = TrainLog()
        best_model, best_val, best_epoch = None, -1.0, -1
        step = 0
        for epoch in range(self.epochs):
            t0 = time.monotonic()
            lr = self.lr if lr_fn is None else lr_fn(epoch)
            if lr_fn is not None:
                opt.lr = lr
            terms = {"loss": [], "loss_entropy": [], "reliable_fraction": []}
            for idx in iter_batches(train, self.batch, order_rng):
                step += 1
                for key, value in step_fn(idx, epoch, step).items():
                    terms[key].append(value)
                if opt is not None:
                    opt.step()
                    opt.zero_grad()
            val_mean, per_class = validation_dice(predict_fn, val, work.num_classes)
            if val_mean > best_val:
                best_model, best_val, best_epoch = work.clone(), val_mean, epoch
            means = {k: float(np.mean(v)) if v else None for k, v in terms.items()}
            log.append(EpochRecord(epoch, means["loss"], means["loss_entropy"], per_class,
                                   val_mean, means["reliable_fraction"], lr,
                                   time.monotonic() - t0))
        # zero epochs hand back the input state
        self.model_ = best_model if best_model is not None else work.clone()
        self.best_epoch_, self.best_val_dice_ = best_epoch, best_val
        self.log_ = log
        return self

    def _supervised(self, work: SegModel, train: LabeledSet, val: LabeledSet, lr_fn,
                    stage: str):
        """Supervised Dice training of head 0 on every parameter."""
        opt = Adam(work.parameter_groups("all"), lr_fn(0) if self.epochs else 1e-4)

        def step_fn(idx, epoch, step):
            y = one_hot(train.labels[idx], work.num_classes)
            with Tape() as tape:
                loss = dice_loss(work.forward_head(train.images[idx], 0, train=True), y)
                _check_finite(loss.item(), stage=stage, epoch=epoch, step=step, lr=opt.lr)
                tape.backward(loss)
            return {"loss": loss.item()}

        return self._fit_epochs(work, opt, train, val, step_fn, lr_fn=lr_fn)


class SourceTrainer(SegmentationEstimator):
    """Supervised Dice training from random init, best-validation selection.

    lr decays multiplicatively: lr * lr_decay ** (epoch // decay_every).
    """

    def __init__(self, num_classes: int = 3, in_channels: int = 1, levels: int = 2,
                 base_channels: int = 8, dropout_rate: float = 0.5, epochs: int = 400,
                 lr: float = 0.01, lr_decay: float = 0.9, decay_every: int = 4,
                 batch="volume", seed: int = 0):
        self.num_classes = num_classes
        self.in_channels = in_channels
        self.levels = levels
        self.base_channels = base_channels
        self.dropout_rate = dropout_rate
        self.epochs = epochs
        self.lr = lr
        self.lr_decay = lr_decay
        self.decay_every = decay_every
        self.batch = batch
        self.seed = seed

    def fit(self, train: LabeledSet, val: LabeledSet):
        arch = ArchConfig(in_channels=self.in_channels, num_classes=self.num_classes,
                          levels=self.levels, base_channels=self.base_channels,
                          dropout_rate=self.dropout_rate)
        model = SegModel(arch, SeedBundle(self.seed).stream("init"))
        lr_fn = lambda e: self.lr * (self.lr_decay ** (e // self.decay_every))
        return self._supervised(model, train, val, lr_fn, "pretrain")


class FineTuner(SegmentationEstimator):
    """Supervised Dice training continued from a pre-trained model."""

    def __init__(self, model: SegModel = None, epochs: int = 20, lr: float = 1e-4,
                 batch="volume", seed: int = 0):
        self.model = model
        self.epochs = epochs
        self.lr = lr
        self.batch = batch
        self.seed = seed

    def fit(self, train: LabeledSet, val: LabeledSet):
        if self.model is None:
            raise ValueError("FineTuner needs a pre-trained model")
        return self._supervised(self.model.clone(), train, val, lambda e: self.lr,
                                "finetune")


class MultiHeadAdapter(SegmentationEstimator):
    """Source-free adaptation via grown heads, pseudo labels and entropy.

    Per update step, two consecutive train-mode passes over the same batch:
    the first (tape-free, its own transforms and dropout draws) yields the
    frozen pseudo-label/reliability bundle from the head-mean prediction; the
    second (taped, fresh draws) is supervised by that bundle and regularized
    by the entropy of its mean prediction. The ``use_*`` switches disable
    individual ingredients for ablation.
    """

    def __init__(self, model: SegModel = None, heads: int = 4, tau: float = 0.95,
                 entropy_weight: float = 1.0, lr: float = 1e-4, epochs: int = 20,
                 batch="volume", cleanup: bool = True, use_reliability: bool = True,
                 use_dropout: bool = True, use_transforms: bool = True,
                 use_pseudo_supervision: bool = True, use_mean_entropy: bool = True,
                 seed: int = 0):
        self.model = model
        self.heads = heads
        self.tau = tau
        self.entropy_weight = entropy_weight
        self.lr = lr
        self.epochs = epochs
        self.batch = batch
        self.cleanup = cleanup
        self.use_reliability = use_reliability
        self.use_dropout = use_dropout
        self.use_transforms = use_transforms
        self.use_pseudo_supervision = use_pseudo_supervision
        self.use_mean_entropy = use_mean_entropy
        self.seed = seed

    def fit(self, train: UnlabeledSet, val: LabeledSet):
        if self.model is None:
            raise ValueError("MultiHeadAdapter needs a pre-trained model")
        if self.model.num_heads != 1:
            raise ValueError("expected a single-head source model")
        if not (self.use_pseudo_supervision or self.use_mean_entropy):
            raise ValueError("all loss terms disabled; nothing to optimize")
        work = self.model.grow(self.heads)
        if not self.use_dropout:
            work.head_dropout = False
        seeds = SeedBundle(self.seed)
        t_rng = seeds.stream("transforms")
        d_rng = seeds.stream("dropout")
        eval_rng = seeds.stream("eval")

        def heads_pass(x):
            """Every head under its own random transform, mapped back."""
            ts = [tf.sample_transform(t_rng) if self.use_transforms else tf.IDENTITY
                  for _ in range(work.num_heads)]
            return head_probs(work, x, ts, train=True, rng=d_rng)

        def step_fn(idx, epoch, step):
            x = train.images[idx]
            terms = {}
            bundle = None
            if self.use_pseudo_supervision:
                mean = np.stack([p.data for p in heads_pass(x)]).mean(axis=0,
                                                                       dtype=np.float32)
                bundle = make_pseudo_label(mean, self.tau, cleanup=self.cleanup, step=step)
                if not self.use_reliability:
                    bundle.reliability = np.ones_like(bundle.reliability)
                terms["reliable_fraction"] = bundle.reliable_fraction
            with Tape() as tape:
                probs = heads_pass(x)
                sup = ment = None
                if bundle is not None:
                    if bundle.step != step:  # two-pass pairing contract
                        raise RuntimeError("pseudo-label bundle is stale")
                    sup = multi_head_dice_loss(probs, bundle)
                    terms["loss"] = sup.item()
                if self.use_mean_entropy:
                    ment = mean_prediction_entropy(probs)
                    terms["loss_entropy"] = ment.item()
                if ment is None:
                    loss = sup
                elif sup is None:
                    loss = ment * self.entropy_weight
                else:
                    loss = combined_loss(sup, ment, self.entropy_weight)
                _check_finite(loss.item(), stage="adapt", epoch=epoch, step=step,
                              loss_sup=terms.get("loss"),
                              loss_entropy=terms.get("loss_entropy"))
                tape.backward(loss)
            return terms

        predict_fn = lambda imgs: infer_ensemble(work, imgs, eval_rng, cleanup=self.cleanup)[0]
        opt = Adam(work.parameter_groups("all"), self.lr)
        return self._fit_epochs(work, opt, train, val, step_fn, predict_fn=predict_fn)

    def predict(self, images: np.ndarray) -> np.ndarray:
        rng = SeedBundle(self.seed).stream("predict")
        labels, _ = infer_ensemble(self.fitted_model, images, rng, cleanup=self.cleanup)
        return labels


class PtbnAdapter(SegmentationEstimator):
    """Forward passes in train mode so BN running statistics track the target
    distribution; parameters never change. One pass, file order."""

    def __init__(self, model: SegModel = None, seed: int = 0):
        self.model = model
        self.seed = seed

    def fit(self, train: UnlabeledSet, val: LabeledSet | None = None):
        if self.model is None:
            raise ValueError("PtbnAdapter needs a pre-trained model")
        work = self.model.clone()
        t0 = time.monotonic()
        for c in range(train.n_cases):
            x = train.images[train.case_slices(c)]
            work.forward_head(x, 0, train=True)  # no tape: statistics only
        log = TrainLog()
        val_mean, per_class = (float("nan"), [])
        if val is not None:
            val_mean, per_class = validation_dice(
                lambda imgs: infer_single(work, imgs)[0], val, work.num_classes)
        log.append(EpochRecord(0, None, None, per_class, val_mean, None, 0.0,
                               time.monotonic() - t0))
        self.model_ = work
        self.best_epoch_, self.best_val_dice_ = 0, val_mean
        self.log_ = log
        return self


class TentAdapter(SegmentationEstimator):
    """Entropy minimization updating only BN affine parameters.

    Forwards normalize with batch statistics. Each BN layer's running buffers
    are put back after every forward, so everything except gamma/beta stays
    bitwise frozen.
    """

    def __init__(self, model: SegModel = None, lr: float = 1e-4, epochs: int = 20,
                 batch="volume", seed: int = 0):
        self.model = model
        self.lr = lr
        self.epochs = epochs
        self.batch = batch
        self.seed = seed

    def fit(self, train: UnlabeledSet, val: LabeledSet):
        if self.model is None:
            raise ValueError("TentAdapter needs a pre-trained model")
        if self.lr < 0:
            raise ValueError(f"lr must be >= 0, got {self.lr}")
        work = self.model.clone()
        affine = set(id(t) for t in work.parameter_groups("bn_affine_only"))
        for t in work.parameter_groups("all"):
            t.requires_grad = id(t) in affine

        bns = list(work.bn_layers().values())
        # BN rebinds its buffers on a train-mode forward, so these stay intact
        frozen = [(bn.running_mean, bn.running_var, bn.num_batches) for bn in bns]

        def step_fn(idx, epoch, step):
            with Tape() as tape:
                p = work.forward_head(train.images[idx], 0, train=True)
                for bn, (mean, var, n) in zip(bns, frozen):
                    bn.running_mean, bn.running_var, bn.num_batches = mean, var, n
                loss = per_head_entropy([p])
                _check_finite(loss.item(), stage="tent", epoch=epoch, step=step)
                tape.backward(loss)
            return {"loss_entropy": loss.item()}

        # lr 0 means observe-only: loss is logged, parameters never move
        opt = Adam(work.parameter_groups("bn_affine_only"), self.lr) if self.lr > 0 else None
        return self._fit_epochs(work, opt, train, val, step_fn)


class SelfTrainAdapter(SegmentationEstimator):
    """Single head supervised by its own argmax pseudo labels plus entropy;
    no transforms, no reliability weighting, all parameters updated."""

    def __init__(self, model: SegModel = None, entropy_weight: float = 1.0,
                 lr: float = 1e-4, epochs: int = 20, batch="volume",
                 cleanup: bool = True, seed: int = 0):
        self.model = model
        self.entropy_weight = entropy_weight
        self.lr = lr
        self.epochs = epochs
        self.batch = batch
        self.cleanup = cleanup
        self.seed = seed

    def fit(self, train: UnlabeledSet, val: LabeledSet):
        if self.model is None:
            raise ValueError("SelfTrainAdapter needs a pre-trained model")
        work = self.model.clone()

        def step_fn(idx, epoch, step):
            with Tape() as tape:
                p = work.forward_head(train.images[idx], 0, train=True)
                bundle = make_pseudo_label(p.data, tau=None, cleanup=self.cleanup, step=step)
                sup = multi_head_dice_loss([p], bundle)
                ment = mean_prediction_entropy([p])
                loss = combined_loss(sup, ment, self.entropy_weight)
                _check_finite(loss.item(), stage="selftrain", epoch=epoch, step=step,
                              loss_sup=sup.item(), loss_entropy=ment.item())
                tape.backward(loss)
            return {"loss": sup.item(), "loss_entropy": ment.item()}

        opt = Adam(work.parameter_groups("all"), self.lr)
        return self._fit_epochs(work, opt, train, val, step_fn)
