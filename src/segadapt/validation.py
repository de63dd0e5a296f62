"""Input validation helpers shared by the public API surfaces."""

from __future__ import annotations

import numpy as np


class NotFittedError(RuntimeError):
    """Estimator used before fit()."""


def check_prob_map(p: np.ndarray, atol: float = 1e-3) -> np.ndarray:
    """[C,H,W] (or [B,C,H,W]) nonnegative, channel sums within atol of 1."""
    p = np.asarray(p)
    if p.ndim not in (3, 4):
        raise ValueError(f"probability map must be 3-D or 4-D, got shape {p.shape}")
    axis = 0 if p.ndim == 3 else 1
    if p.min() < -atol or p.max() > 1 + atol:
        raise ValueError("probability map values outside [0,1]")
    sums = p.sum(axis=axis)
    if np.abs(sums - 1.0).max() > atol:
        raise ValueError("probability map channels do not sum to 1")
    return p


def check_one_hot(y: np.ndarray) -> np.ndarray:
    """[C,H,W] with entries in {0,1} and exactly one hot channel per pixel."""
    y = np.asarray(y)
    if y.ndim != 3:
        raise ValueError(f"one-hot map must be [C,H,W], got shape {y.shape}")
    vals = np.unique(y)
    if not np.all(np.isin(vals, (0.0, 1.0))):
        raise ValueError("one-hot map has entries outside {0,1}")
    if not np.array_equal(y.sum(axis=0), np.ones(y.shape[1:], dtype=y.dtype)):
        raise ValueError("one-hot map channel sums are not all 1")
    return y


def check_binary_mask(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m)
    if m.ndim != 2:
        raise ValueError(f"mask must be [H,W], got shape {m.shape}")
    if not np.all(np.isin(np.unique(m), (0.0, 1.0))):
        raise ValueError("mask is not binary")
    return m
