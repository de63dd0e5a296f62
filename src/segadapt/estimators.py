"""Training and adaptation: fit procedures configured by their INI section.

Each procedure reads its hyperparameters from the config dataclass that owns
them (``PretrainConfig`` for ``SourceTrainer``, ``AdaptConfig`` for the
adapters), so ``config.py`` is the one place that declares them and their
defaults. All but ``PtbnAdapter`` run the same epoch loop and differ only in
the update step:

- ``SourceTrainer``: supervised Dice training from scratch (also serves as
  the target-only ceiling when fed target data).
- ``MultiHeadAdapter``: source-free adaptation. Duplicates the pre-trained
  head K times behind independent dropout gates, then per step runs a
  tape-free pass under random invertible transforms to build pseudo labels
  and a reliability map from the head-mean prediction, and a second, taped
  pass whose heads are supervised by that frozen bundle (reliability-weighted
  Dice) plus a mean-prediction entropy term. ``ablate`` switches off the
  paper's named ingredients (``ABLATIONS``).
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
from dataclasses import asdict, dataclass

import numpy as np

from . import transforms as tf
from .autodiff import Tape
from .config import AdaptConfig, PretrainConfig
from .data import LabeledSet, UnlabeledSet
from .inference import head_probs, infer_ensemble, infer_single
from .losses import dice_loss, mean_prediction_entropy
from .metrics import dice_coefficient
from .model import ArchConfig, SegModel
from .optim import Adam
from .pseudolabel import make_pseudo_label, one_hot
from .rng import named_stream

# UPL-SFDA's ingredients, by the paper's names: reliability mask M, Target
# Domain Growing TDG (per-head dropout), transforms T, Twice Forward pass
# Supervision TFS and the mean-prediction entropy LMENT
ABLATIONS = ("M", "TDG", "T", "TFS", "LMENT")


def check_ablate(ablate) -> frozenset:
    """``ablate`` as a set of ``ABLATIONS`` names that keeps a loss term."""
    ablate = frozenset(ablate)
    unknown = ablate - set(ABLATIONS)
    if unknown:
        raise ValueError(f"unknown ablation {sorted(unknown)}; known: {', '.join(ABLATIONS)}")
    if {"TFS", "LMENT"} <= ablate:
        raise ValueError("ablating both TFS and LMENT leaves nothing to optimize")
    return ablate


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
        return {k: v for k, v in asdict(self).items() if k != "wall_time_s"}


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


def _pseudo_label(prob: np.ndarray, tau: float | None, cleanup: bool, **ctx):
    """Pseudo labels from the model's own prediction. A non-finite value there
    fails the run like a non-finite loss, where ``make_pseudo_label`` would
    reject it as bad input."""
    if not np.isfinite(prob).all():
        raise NumericFailure("non-finite prediction", dict(ctx, loss=float("nan")))
    return make_pseudo_label(prob, tau, cleanup=cleanup)


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
    """A fit procedure on a pre-trained ``model``, configured by ``cfg`` (its
    INI section), plus the epoch loop shared by every procedure that takes
    optimizer steps."""

    on_epoch = None  # called with each epoch's EpochRecord and cfg.epochs, if set

    def __init__(self, model: SegModel, cfg: AdaptConfig, seed: int):
        self.model, self.cfg, self.seed = model, cfg, seed

    def _source_copy(self) -> SegModel:
        """A copy of the source model, head dropout off: only ``MultiHeadAdapter``
        drops out, but a one-head UPL checkpoint still carries the gate."""
        work = self.model.clone()
        work.head_dropout = False
        return work

    def _fit_epochs(self, work: SegModel, opt: Adam, train: UnlabeledSet,
                    val: LabeledSet, step_fn, *, lr_fn=None, predict_fn=None):
        """Run ``cfg.epochs`` epochs of ``step_fn(idx, epoch, step)`` over
        ``cfg.batch``-sized batches, validate after each and keep the best.

        ``step_fn`` tapes one update, leaving gradients on the parameters, and
        returns its log terms (keys among ``loss``, ``loss_entropy`` and
        ``reliable_fraction``). The learning rate is ``lr_fn(epoch)`` when
        given, else the constant ``cfg.lr``.
        """
        if predict_fn is None:
            predict_fn = lambda imgs: infer_single(work, imgs)[0]
        order_rng = named_stream(self.seed, "order")
        log = TrainLog()
        best_model, best_val, best_epoch = None, -1.0, -1
        step = 0
        for epoch in range(self.cfg.epochs):
            t0 = time.monotonic()
            if lr_fn is not None:
                opt.lr = lr_fn(epoch)
            terms = {"loss": [], "loss_entropy": [], "reliable_fraction": []}
            for idx in iter_batches(train, self.cfg.batch, order_rng):
                step += 1
                for key, value in step_fn(idx, epoch, step).items():
                    terms[key].append(value)
                opt.step()
                opt.zero_grad()
            val_mean, per_class = validation_dice(predict_fn, val, work.num_classes)
            if val_mean > best_val:
                best_model, best_val, best_epoch = work.clone(), val_mean, epoch
            means = {k: float(np.mean(v)) if v else None for k, v in terms.items()}
            log.append(EpochRecord(epoch, means["loss"], means["loss_entropy"], per_class,
                                   val_mean, means["reliable_fraction"], opt.lr,
                                   time.monotonic() - t0))
            if self.on_epoch is not None:
                self.on_epoch(log.records[-1], self.cfg.epochs)
        # zero epochs hand back the input state
        self.model_ = best_model if best_model is not None else work.clone()
        self.best_epoch_, self.best_val_dice_ = best_epoch, best_val
        self.log_ = log
        return self

    def _supervised(self, work: SegModel, train: LabeledSet, val: LabeledSet, lr_fn,
                    stage: str):
        """Supervised Dice training of head 0 on every parameter."""
        opt = Adam(work.parameter_groups("all"), lr_fn(0))

        def step_fn(idx, epoch, step):
            y = one_hot(train.labels[idx], work.num_classes)
            with Tape() as tape:
                loss = dice_loss([work.forward_head(train.images[idx], 0, train=True)], y)
                _check_finite(loss.item(), stage=stage, epoch=epoch, step=step, lr=opt.lr)
                tape.backward(loss)
            return {"loss": loss.item()}

        return self._fit_epochs(work, opt, train, val, step_fn, lr_fn=lr_fn)


class SourceTrainer(SegmentationEstimator):
    """Supervised Dice training of a fresh ``num_classes`` model,
    best-validation selection.

    lr decays multiplicatively: lr * lr_decay ** (epoch // decay_every).
    """

    def __init__(self, cfg: PretrainConfig, num_classes: int, seed: int):
        self.cfg, self.num_classes, self.seed = cfg, num_classes, seed

    def fit(self, train: LabeledSet, val: LabeledSet):
        model = SegModel(ArchConfig(num_classes=self.num_classes),
                         named_stream(self.seed, "init"))
        c = self.cfg
        lr_fn = lambda e: c.lr * (c.lr_decay ** (e // c.decay_every))
        return self._supervised(model, train, val, lr_fn, "pretrain")


class FineTuner(SegmentationEstimator):
    """Supervised Dice training continued from a pre-trained model."""

    def fit(self, train: LabeledSet, val: LabeledSet):
        return self._supervised(self._source_copy(), train, val, lambda e: self.cfg.lr,
                                "finetune")


class MultiHeadAdapter(SegmentationEstimator):
    """Source-free adaptation via grown heads, pseudo labels and entropy.

    Per update step, two consecutive train-mode passes over the same batch:
    the first (tape-free, its own transforms and dropout draws) yields the
    frozen pseudo-label/reliability bundle from the head-mean prediction; the
    second (taped, fresh draws) is supervised by that bundle and regularized
    by the entropy of its mean prediction. ``ablate`` names the ingredients
    (from ``ABLATIONS``) switched off.
    """

    def __init__(self, model: SegModel, cfg: AdaptConfig, seed: int,
                 ablate: frozenset = frozenset()):
        super().__init__(model, cfg, seed)
        self.ablate = check_ablate(ablate)

    def fit(self, train: UnlabeledSet, val: LabeledSet):
        cfg, ablate = self.cfg, self.ablate
        work = self.model.grow(cfg.heads)
        if "TDG" in ablate:
            work.head_dropout = False
        tau = None if "M" in ablate else cfg.tau
        t_rng = named_stream(self.seed, "transforms")
        d_rng = named_stream(self.seed, "dropout")
        eval_rng = named_stream(self.seed, "eval")

        def heads_pass(x):
            """Every head under its own random transform, mapped back."""
            ts = [tf.IDENTITY if "T" in ablate else tf.sample_transform(t_rng)
                  for _ in range(work.num_heads)]
            return head_probs(work, x, ts, train=True, rng=d_rng)

        def step_fn(idx, epoch, step):
            x = train.images[idx]
            terms = {}
            bundle = None
            if "TFS" not in ablate:
                mean = np.stack([p.data for p in heads_pass(x)]).mean(axis=0,
                                                                       dtype=np.float32)
                bundle = _pseudo_label(mean, tau, cfg.cleanup, stage="adapt", epoch=epoch,
                                       step=step)
                terms["reliable_fraction"] = bundle.reliable_fraction
            with Tape() as tape:
                probs = heads_pass(x)
                loss = None  # check_ablate keeps at least one term
                if bundle is not None:
                    loss = dice_loss(probs, bundle.pseudo_onehot, bundle.reliability)
                    terms["loss"] = loss.item()
                if "LMENT" not in ablate:
                    ment = mean_prediction_entropy(probs)
                    terms["loss_entropy"] = ment.item()
                    weighted = ment * cfg.entropy_weight
                    loss = weighted if loss is None else loss + weighted
                _check_finite(loss.item(), stage="adapt", epoch=epoch, step=step,
                              loss_sup=terms.get("loss"),
                              loss_entropy=terms.get("loss_entropy"))
                tape.backward(loss)
            return terms

        predict_fn = lambda imgs: infer_ensemble(work, imgs, eval_rng, cleanup=cfg.cleanup)[0]
        opt = Adam(work.parameter_groups("all"), cfg.lr)
        return self._fit_epochs(work, opt, train, val, step_fn, predict_fn=predict_fn)


class PtbnAdapter(SegmentationEstimator):
    """Forward passes in train mode so BN running statistics track the target
    distribution; parameters never change. One pass, file order. Reads no
    ``cfg`` value."""

    def fit(self, train: UnlabeledSet, val: LabeledSet):
        work = self._source_copy()
        t0 = time.monotonic()
        for c in range(train.n_cases):
            x = train.images[train.case_slices(c)]
            work.forward_head(x, 0, train=True)  # no tape: statistics only
        log = TrainLog()
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

    def fit(self, train: UnlabeledSet, val: LabeledSet):
        work = self._source_copy()
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
                loss = mean_prediction_entropy([p])
                _check_finite(loss.item(), stage="tent", epoch=epoch, step=step)
                tape.backward(loss)
            return {"loss_entropy": loss.item()}

        opt = Adam(work.parameter_groups("bn_affine_only"), self.cfg.lr)
        return self._fit_epochs(work, opt, train, val, step_fn)


class SelfTrainAdapter(SegmentationEstimator):
    """Single head supervised by its own argmax pseudo labels plus entropy;
    no transforms, no reliability weighting, all parameters updated."""

    def fit(self, train: UnlabeledSet, val: LabeledSet):
        cfg = self.cfg
        work = self._source_copy()

        def step_fn(idx, epoch, step):
            with Tape() as tape:
                p = work.forward_head(train.images[idx], 0, train=True)
                bundle = _pseudo_label(p.data, None, cfg.cleanup, stage="selftrain",
                                       epoch=epoch, step=step)
                sup = dice_loss([p], bundle.pseudo_onehot, bundle.reliability)
                ment = mean_prediction_entropy([p])
                loss = sup + ment * cfg.entropy_weight
                _check_finite(loss.item(), stage="selftrain", epoch=epoch, step=step,
                              loss_sup=sup.item(), loss_entropy=ment.item())
                tape.backward(loss)
            return {"loss": sup.item(), "loss_entropy": ment.item()}

        opt = Adam(work.parameter_groups("all"), cfg.lr)
        return self._fit_epochs(work, opt, train, val, step_fn)
