"""The K-head pass, and eval-mode inference built on it.

``head_probs`` runs head k on the batch under transform k and maps the
result back with the inverse transform. It is the one place that does so:
eval-mode inference (single head, or transform-ensembled over all heads) and
both passes of a UPL training step call it. On an active tape each head is
one ``Segment``, so that backward replays the heads concurrently.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Segment, Tensor
from .model import SegModel
from .pseudolabel import cleanup_label_map, ensemble_mean
from .transforms import (IDENTITY, SpatialTransform, apply_inverse, apply_transform,
                         sample_transform)


def head_probs(model: SegModel, images: np.ndarray, transforms: list[SpatialTransform],
               train: bool = False, rng: np.random.Generator | None = None) -> list[Tensor]:
    """Softmax map of head k on ``images`` under ``transforms[k]``, mapped back
    to the input frame, for k = 0 .. len(transforms) - 1. The maps stay in the
    autodiff graph; ``train`` and ``rng`` go to ``forward_head``."""
    probs = []
    for k, t in enumerate(transforms):
        with Segment():
            probs.append(apply_inverse(t, model.forward_head(apply_transform(t, images), k,
                                                             train, rng)))
    return probs


def _labels_from(mean_prob: np.ndarray, num_classes: int, cleanup: bool) -> np.ndarray:
    labels = mean_prob.argmax(axis=1).astype(np.uint8)
    if cleanup:
        labels = cleanup_label_map(labels, num_classes)
    return labels


def infer_single(model: SegModel, images: np.ndarray,
                 cleanup: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """Argmax labels and probabilities from head 0, identity transform."""
    probs = head_probs(model, images, [IDENTITY])[0].data
    return _labels_from(probs, model.num_classes, cleanup), probs


def infer_ensemble(model: SegModel, images: np.ndarray, rng: np.random.Generator,
                   cleanup: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """Each head predicts under one sampled transform (inverse-mapped); the
    mean map is argmaxed and cleaned. Returns (labels, mean_prob)."""
    transforms = [sample_transform(rng) for _ in range(model.num_heads)]
    mean_prob = ensemble_mean([p.data for p in head_probs(model, images, transforms)])
    return _labels_from(mean_prob, model.num_classes, cleanup), mean_prob
