"""Eval-mode inference: single head or transform-ensembled over all heads."""

from __future__ import annotations

import numpy as np

from .model import SegModel
from .pseudolabel import cleanup_label_map, ensemble_mean
from .transforms import SpatialTransform, apply_inverse, apply_transform, sample_transform


def _predict_probs(model: SegModel, images: np.ndarray, head: int,
                   transform: SpatialTransform | None = None) -> np.ndarray:
    x = np.asarray(images, dtype=np.float32)
    if transform is not None:
        x = apply_transform(transform, x)
    p = model.forward_head(x, head, train=False)
    probs = p.data
    if transform is not None:
        probs = apply_inverse(transform, probs)
    return probs


def _labels_from(mean_prob: np.ndarray, num_classes: int, cleanup: bool) -> np.ndarray:
    labels = mean_prob.argmax(axis=1).astype(np.uint8)
    if cleanup:
        labels = cleanup_label_map(labels, num_classes)
    return labels


def infer_single(model: SegModel, images: np.ndarray, head: int = 0,
                 cleanup: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """Argmax labels and probabilities from one head, identity transform."""
    probs = _predict_probs(model, images, head)
    return _labels_from(probs, model.num_classes, cleanup), probs


def infer_ensemble(model: SegModel, images: np.ndarray, rng: np.random.Generator,
                   cleanup: bool = True, transforms: list[SpatialTransform] | None = None,
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Each head predicts under one sampled transform (inverse-mapped); the
    mean map is argmaxed and cleaned. Returns (labels, mean_prob)."""
    if transforms is None:
        transforms = [sample_transform(rng) for _ in range(model.num_heads)]
    if len(transforms) != model.num_heads:
        raise ValueError(f"need one transform per head ({model.num_heads}), got {len(transforms)}")
    mean_prob = ensemble_mean([_predict_probs(model, images, k, t)
                               for k, t in enumerate(transforms)])
    return _labels_from(mean_prob, model.num_classes, cleanup), mean_prob
