"""Invertible spatial transforms: horizontal/vertical flips and quarter turns.

The family is the 16 combinations (flip_h, flip_v, quarters in {0,1,2,3}),
applied flips-first then rotation, acting on the last two axes of square
arrays. Every member's inverse is again a member, application is an exact
pixel permutation, and applying a transform commutes with channel argmax.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import autodiff as ad


@dataclass(frozen=True)
class SpatialTransform:
    flip_h: bool = False
    flip_v: bool = False
    quarters: int = 0  # counter-clockwise 90-degree turns

    def __post_init__(self):
        if self.quarters not in (0, 1, 2, 3):
            raise ValueError(f"quarters must be in 0..3, got {self.quarters}")


IDENTITY = SpatialTransform()

# all 16 parameterizations, fixed enumeration order for uniform sampling
FAMILY = tuple(
    SpatialTransform(fh, fv, q)
    for fh in (False, True)
    for fv in (False, True)
    for q in (0, 1, 2, 3)
)


def _apply(t: SpatialTransform, x: np.ndarray) -> np.ndarray:
    """t on the last two axes of an array, as a view of it."""
    if t.flip_h:
        x = np.flip(x, axis=-1)
    if t.flip_v:
        x = np.flip(x, axis=-2)
    if t.quarters:
        x = np.rot90(x, t.quarters, axes=(-2, -1))
    return x


def apply_transform(t: SpatialTransform, x):
    """Apply t to a Tensor or ndarray over the last two axes. A Tensor stays
    in the autodiff graph as one ``permute`` node whose backward applies the
    inverse, computed here: backward may run on a pool worker, which calls no
    public function."""
    shape = tuple(x.shape)
    if len(shape) < 2:
        raise ValueError(f"spatial transforms need at least 2 axes, got shape {shape}")
    # odd quarter turns swap the trailing axes, so those must agree
    if t.quarters % 2 == 1 and shape[-1] != shape[-2]:
        raise ValueError(f"odd rotation needs square trailing axes, got shape {shape}")
    if not isinstance(x, ad.Tensor):
        return np.ascontiguousarray(_apply(t, np.asarray(x)))
    if t == IDENTITY:
        return x
    return ad.permute(x, partial(_apply, t), partial(_apply, inverse(t)))


def inverse(t: SpatialTransform) -> SpatialTransform:
    """The family member that exactly undoes t.

    With t = R^q F, the inverse is F R^(-q); pushing the flips back across an
    odd number of quarter turns swaps the horizontal and vertical roles.
    """
    q_inv = (-t.quarters) % 4
    if q_inv % 2 == 0:
        return SpatialTransform(t.flip_h, t.flip_v, q_inv)
    return SpatialTransform(t.flip_v, t.flip_h, q_inv)


def apply_inverse(t: SpatialTransform, x):
    return apply_transform(inverse(t), x)


def sample_transform(rng: np.random.Generator) -> SpatialTransform:
    """Uniform draw over the 16-member family."""
    return FAMILY[int(rng.integers(len(FAMILY)))]

