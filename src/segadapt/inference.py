"""The K-head pass, the one finite check of its maps, and eval-mode inference.

``head_probs`` runs head k on the batch under transform k and maps the
result back with the inverse transform. It is the one place that does so:
eval-mode inference (single head, or transform-ensembled over all heads) and
both passes of a UPL training step call it. On an active tape each head is
one ``Segment``, so that backward replays the heads concurrently.

``check_prediction`` is the one finite check of the heads' maps, for eval,
validation and training's pseudo labels alike: a non-finite map is a
``NumericFailure``. Eval and validation then average the maps with
``ensemble_mean`` and label the mean with ``argmax_labels``.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Segment, Tensor
from .model import SegModel
from .pseudolabel import argmax_labels, ensemble_mean
from .transforms import (IDENTITY, SpatialTransform, apply_inverse, apply_transform,
                         sample_transform)


class NumericFailure(RuntimeError):
    """A loss or prediction left the finite range; carries the dump's context."""

    def __init__(self, message: str, diagnostics: dict):
        super().__init__(message)
        self.diagnostics = diagnostics


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


def check_prediction(probs: list[Tensor], **ctx) -> list[np.ndarray]:
    """The arrays of the heads' maps ``probs``; a non-finite value in them is
    a ``NumericFailure`` with diagnostics ``ctx``, not bad input."""
    if not all(np.isfinite(p.data).all() for p in probs):
        raise NumericFailure("non-finite prediction", dict(ctx, loss=float("nan")))
    return [p.data for p in probs]


def _predict(model, images, transforms, cleanup, ctx):
    mean_prob = ensemble_mean(check_prediction(head_probs(model, images, transforms), **ctx))
    return argmax_labels(mean_prob, cleanup), mean_prob


def infer_single(model: SegModel, images: np.ndarray, cleanup: bool = True,
                 **ctx) -> tuple[np.ndarray, np.ndarray]:
    """Labels and probabilities of head 0 under the identity transform.
    ``ctx`` names the call in a ``NumericFailure``."""
    return _predict(model, images, [IDENTITY], cleanup, ctx)


def infer_ensemble(model: SegModel, images: np.ndarray, rng: np.random.Generator,
                   cleanup: bool = True, **ctx) -> tuple[np.ndarray, np.ndarray]:
    """Labels and mean probabilities of every head, each under one sampled
    transform (inverse-mapped); ``ctx`` as for ``infer_single``."""
    return _predict(model, images, [sample_transform(rng) for _ in range(model.num_heads)],
                    cleanup, ctx)
