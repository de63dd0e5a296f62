"""Training losses over autodiff tensors.

All losses take [B,C,H,W] probability maps (post-softmax), and reject any
other rank, with [B,C,H,W] one-hot targets and [B,H,W] binary masks. They
compute per sample and average over the batch. Targets and masks are
constants; gradients flow only through predictions. The reliability-weighted
Dice zeroes both numerator and denominator contributions of masked-out
pixels, so their gradient is exactly zero, and an all-zero mask gives loss 1
with zero gradient everywhere.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .validation import check_binary_mask, check_one_hot

ETA = 1e-5  # denominator stabilizer of the weighted Dice
LOG_FLOOR = 1e-12  # entropy clamp so 0*ln(0) contributes 0


def _as4d(x) -> Tensor:
    t = ad.as_tensor(x)
    if t.data.ndim != 4:
        raise ValueError(f"expected [B,C,H,W], got shape {t.data.shape}")
    return t


def _wdice_core(p: Tensor, y: Tensor, m: Tensor, eta: float) -> Tensor:
    # p,y: [B,C,H,W]; m: [B,1,H,W]; all checks done by the callers
    py = ad.mul(ad.mul(p, y), m)
    num = ad.mul(ad.tsum(py, axis=(-2, -1)), 2.0)
    den = ad.tsum(ad.mul(ad.add(p, y), m), axis=(-2, -1))
    ratio = ad.div(num, ad.add(den, float(eta)))
    return ad.sub(1.0, ad.tmean(ratio))


def _prep_targets(p: Tensor, y, m) -> tuple[Tensor, Tensor]:
    y = np.asarray(y, dtype=np.float32)
    if y.shape != p.data.shape:
        raise ValueError(f"target shape {y.shape} does not match prediction {p.data.shape}")
    check_one_hot(y)
    if m is None:
        m = np.ones((y.shape[0],) + y.shape[2:], dtype=np.float32)
    else:
        m = np.asarray(m, dtype=np.float32)
        if m.shape != (y.shape[0],) + y.shape[2:]:
            raise ValueError(f"mask shape {m.shape} does not match targets")
        check_binary_mask(m)
    return Tensor(y), Tensor(m[:, None])


def weighted_dice_loss(p, y, m, eta: float = ETA) -> Tensor:
    """Reliability-weighted soft Dice.

    1 - (1/C) sum_c [2 sum_n m p y] / [sum_n m (p + y) + eta], averaged over
    the batch. ``p`` is [B,C,H,W], ``y`` one-hot of the same shape and ``m``
    a binary [B,H,W] mask.
    """
    p = _as4d(p)
    yt, mt = _prep_targets(p, y, m)
    return _wdice_core(p, yt, mt, eta)


def dice_loss(p, y, eta: float = ETA) -> Tensor:
    """Supervised soft Dice: the weighted form with an all-ones mask."""
    p = _as4d(p)
    yt, mt = _prep_targets(p, y, None)
    return _wdice_core(p, yt, mt, eta)


def multi_head_dice_loss(head_probs: list, bundle, eta: float = ETA) -> Tensor:
    """Mean over heads of the weighted Dice against one frozen bundle."""
    if not head_probs:
        raise ValueError("need at least one head prediction")
    p0 = _as4d(head_probs[0])
    yt, mt = _prep_targets(p0, bundle.pseudo_onehot, bundle.reliability)
    total = _wdice_core(p0, yt, mt, eta)
    for hp in head_probs[1:]:
        hp = _as4d(hp)
        if hp.data.shape != p0.data.shape:
            raise ValueError("head predictions disagree in shape")
        total = ad.add(total, _wdice_core(hp, yt, mt, eta))
    return ad.mul(total, 1.0 / len(head_probs))


def _entropy(p: Tensor) -> Tensor:
    # -(1/HW) sum_n sum_c p ln p per sample, batch-averaged; peaks at ln C
    plogp = ad.mul(p, ad.log(ad.clamp_min(p, LOG_FLOOR)))
    return ad.neg(ad.tmean(ad.tsum(plogp, axis=1)))


def mean_prediction_entropy(head_probs: list) -> Tensor:
    """Entropy of the across-head mean probability map."""
    if not head_probs:
        raise ValueError("need at least one head prediction")
    mean = _as4d(head_probs[0])
    for hp in head_probs[1:]:
        mean = ad.add(mean, _as4d(hp))
    mean = ad.mul(mean, 1.0 / len(head_probs))
    return _entropy(mean)


def per_head_entropy(head_probs: list) -> Tensor:
    """Mean over heads of each head's own prediction entropy."""
    if not head_probs:
        raise ValueError("need at least one head prediction")
    total = _entropy(_as4d(head_probs[0]))
    for hp in head_probs[1:]:
        total = ad.add(total, _entropy(_as4d(hp)))
    return ad.mul(total, 1.0 / len(head_probs))


def combined_loss(pseudo_term: Tensor, entropy_term: Tensor, entropy_weight: float) -> Tensor:
    """pseudo supervision + weight * entropy; the two parts stay addressable."""
    return ad.add(pseudo_term, ad.mul(entropy_term, float(entropy_weight)))
