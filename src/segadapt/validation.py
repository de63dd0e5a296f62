"""Input validation helpers shared by the public API surfaces; each takes a
whole batch, with any number of leading axes."""

from __future__ import annotations

import numpy as np

PROB_ATOL = 1e-3  # slack of a probability map's range and channel sums


def check_prob_map(p: np.ndarray) -> np.ndarray:
    """[..., C, H, W] in [0,1] with channel sums of 1, within PROB_ATOL; NaN fails."""
    p = np.asarray(p)
    if p.ndim < 3:
        raise ValueError(f"probability map must be [..., C, H, W], got shape {p.shape}")
    # negated so that NaN, which compares False, fails
    if not (p.min() >= -PROB_ATOL and p.max() <= 1 + PROB_ATOL):
        raise ValueError("probability map values outside [0,1]")
    if not np.abs(p.sum(axis=-3) - 1.0).max() <= PROB_ATOL:
        raise ValueError("probability map channels do not sum to 1")
    return p


def check_one_hot(y: np.ndarray) -> np.ndarray:
    """[..., C, H, W] with entries in {0,1} and exactly one hot channel per pixel."""
    y = np.asarray(y)
    if y.ndim < 3:
        raise ValueError(f"one-hot map must be [..., C, H, W], got shape {y.shape}")
    if not np.all(np.isin(np.unique(y), (0.0, 1.0))):
        raise ValueError("one-hot map has entries outside {0,1}")
    if not np.all(y.sum(axis=-3) == 1):
        raise ValueError("one-hot map channel sums are not all 1")
    return y


def check_binary_mask(m: np.ndarray) -> np.ndarray:
    """[..., H, W] with entries in {0,1}."""
    m = np.asarray(m)
    if m.ndim < 2:
        raise ValueError(f"mask must be [..., H, W], got shape {m.shape}")
    if not np.all(np.isin(np.unique(m), (0.0, 1.0))):
        raise ValueError("mask is not binary")
    return m
