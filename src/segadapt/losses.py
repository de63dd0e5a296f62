"""The paper's two training terms over autodiff tensors.

Both take a list of per-head [B,C,H,W] probability maps (post-softmax), and
reject any other rank; a one-head list is a single model's loss. Each is
computed per sample and averaged over the batch, then over the heads.
Targets and masks are constants; gradients flow only through predictions.
The Dice mask zeroes both numerator and denominator contributions of
masked-out pixels, so their gradient is exactly zero, and an all-zero mask
gives loss 1 with zero gradient everywhere.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .validation import check_binary_mask, check_one_hot

ETA = 1e-5  # denominator stabilizer of the weighted Dice
LOG_FLOOR = 1e-12  # entropy clamp so 0*ln(0) contributes 0


def _heads(head_probs: list) -> list[Tensor]:
    if not head_probs:
        raise ValueError("need at least one head prediction")
    heads = [ad.as_tensor(p) for p in head_probs]
    for t in heads:
        if t.data.ndim != 4:
            raise ValueError(f"expected [B,C,H,W], got shape {t.data.shape}")
        if t.data.shape != heads[0].data.shape:
            raise ValueError("head predictions disagree in shape")
    return heads


def _head_mean(terms: list[Tensor]) -> Tensor:
    total = terms[0]
    for t in terms[1:]:
        total = ad.add(total, t)
    # one head's mean is the head itself: scaling by 1.0 would change no bit
    return total if len(terms) == 1 else ad.mul(total, 1.0 / len(terms))


def dice_loss(head_probs: list, target, mask=None) -> Tensor:
    """Mean over heads of the mask-weighted soft Dice (UPL's Twice Forward
    pass Supervision, weighted by the reliability map). Per head it is
    1 - (1/C) sum_c [2 sum_n m p y] / [sum_n m (p + y) + eta]. ``target`` is
    one-hot [B,C,H,W] and ``mask`` a binary [B,H,W] map; with no mask every
    pixel has weight 1, the supervised Dice.
    """
    heads = _heads(head_probs)
    y = np.asarray(target, dtype=np.float32)
    if y.shape != heads[0].data.shape:
        raise ValueError(f"target shape {y.shape} does not match prediction "
                         f"{heads[0].data.shape}")
    check_one_hot(y)
    if mask is None:
        m = np.ones((y.shape[0],) + y.shape[2:], dtype=np.float32)
    else:
        m = np.asarray(mask, dtype=np.float32)
        if m.shape != (y.shape[0],) + y.shape[2:]:
            raise ValueError(f"mask shape {m.shape} does not match targets")
        check_binary_mask(m)
    y, m = Tensor(y), Tensor(m[:, None])

    def dice(p):
        num = ad.mul(ad.tsum(ad.mul(ad.mul(p, y), m), axis=(-2, -1)), 2.0)
        den = ad.tsum(ad.mul(ad.add(p, y), m), axis=(-2, -1))
        return ad.sub(1.0, ad.tmean(ad.div(num, ad.add(den, ETA))))

    return _head_mean([dice(p) for p in heads])


def mean_prediction_entropy(head_probs: list) -> Tensor:
    """Entropy of the across-head mean probability map, -(1/HW) sum_n sum_c
    p ln p (UPL's L_ment; of one head, Tent's loss). It peaks at ln C."""
    p = _head_mean(_heads(head_probs))
    plogp = ad.mul(p, ad.log(ad.clamp_min(p, LOG_FLOOR)))
    return ad.neg(ad.tmean(ad.tsum(plogp, axis=1)))
