"""Evaluation metrics: per-class Dice, ASSD, aggregation, paired t-test.

ASSD uses exact Euclidean distances between boundary point sets (a boundary
pixel is a mask pixel with a 4-neighbor outside the mask or on the image
border). A point's nearest distance is the square root of its least exact
integer squared distance: sqrt is correctly rounded and monotone, so that is
the float the float64 distances of all pairs give. Dice of two empty masks is
1.0 by convention; ASSD with either mask empty is undefined and reported as
the EMPTY sentinel, which aggregation excludes and counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

EMPTY = float("nan")  # ASSD sentinel for an undefined (empty-mask) distance


class DegenerateStatsError(ValueError):
    """Statistical test asked of inputs it is undefined for."""


def dice_coefficient(pred: np.ndarray, gt: np.ndarray, cls: int) -> float:
    """2|P n G| / (|P| + |G|); both empty -> 1.0, exactly one empty -> 0.0."""
    pred = np.asarray(pred)
    gt = np.asarray(gt)
    if pred.shape != gt.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {gt.shape}")
    p = pred == cls
    g = gt == cls
    np_, ng = int(p.sum()), int(g.sum())
    if np_ == 0 and ng == 0:
        return 1.0
    if np_ == 0 or ng == 0:
        return 0.0
    inter = int(np.logical_and(p, g).sum())
    return 2.0 * inter / (np_ + ng)


def boundary_points(mask: np.ndarray) -> np.ndarray:
    """(N,2) row/col coordinates of boundary pixels of a binary mask.

    A mask pixel is boundary if any 4-neighbor is outside the mask, counting
    pixels beyond the image border as outside.
    """
    mask = np.asarray(mask).astype(bool)
    if mask.ndim != 2:
        raise ValueError("boundary extraction needs a 2-D mask")
    padded = np.pad(mask, 1, constant_values=False)
    core = padded[1:-1, 1:-1]
    n4 = (
        padded[:-2, 1:-1] & padded[2:, 1:-1] & padded[1:-1, :-2] & padded[1:-1, 2:]
    )
    boundary = core & ~n4
    return np.argwhere(boundary)


def _directed_mean_distance(src: np.ndarray, dst: np.ndarray) -> float:
    # mean over src points of the exact Euclidean distance to nearest dst point
    dr = np.subtract.outer(src[:, 0], dst[:, 0])
    dc = np.subtract.outer(src[:, 1], dst[:, 1])
    dr *= dr
    dc *= dc
    dr += dc
    return float(np.sqrt(dr.min(axis=1)).mean())


def assd(pred: np.ndarray, gt: np.ndarray, cls: int) -> float:
    """Average symmetric surface distance for one class, in pixel units.

    2-D inputs are a single slice. 3-D inputs are a per-case slice stack:
    boundary points pool over slices but distances never cross slices (the
    slice gap dwarfs in-plane distances), so each slice contributes its
    directed distance sums and the total divides by the pooled boundary
    count. Slices where only one mask has boundary pixels are skipped; if no
    slice has both, the distance is undefined (EMPTY).
    """
    pred = np.asarray(pred)
    gt = np.asarray(gt)
    if pred.shape != gt.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {gt.shape}")
    if pred.ndim == 2:
        pred, gt = pred[None], gt[None]
    if pred.ndim != 3:
        raise ValueError(f"expected a 2-D mask or 3-D stack, got shape {pred.shape}")
    total, count = 0.0, 0
    for ps, gs in zip(pred, gt):
        bp = boundary_points(ps == cls)
        bg = boundary_points(gs == cls)
        if len(bp) == 0 or len(bg) == 0:
            continue
        total += (_directed_mean_distance(bp, bg) * len(bp)
                  + _directed_mean_distance(bg, bp) * len(bg))
        count += len(bp) + len(bg)
    return total / count if count else EMPTY


@dataclass
class CaseResult:
    method: str
    case_id: str
    cls: int
    dice: float
    assd: float

    @property
    def assd_defined(self) -> bool:
        return not math.isnan(self.assd)


@dataclass
class ClassSummary:
    cls: int
    n: int
    dice_mean: float
    dice_sd: float
    assd_mean: float  # over defined values only
    assd_sd: float
    assd_excluded: int


def _mean_sd(values: list[float]) -> tuple[float, float]:
    # population standard deviation; a single value has sd 0
    arr = np.asarray(values, dtype=np.float64)
    return float(arr.mean()), float(arr.std())


def aggregate(results: list[CaseResult]) -> dict[int, ClassSummary]:
    """Per-class mean and population sd over cases; EMPTY ASSDs excluded."""
    if not results:
        raise ValueError("nothing to aggregate")
    by_cls: dict[int, list[CaseResult]] = {}
    for r in results:
        by_cls.setdefault(r.cls, []).append(r)
    out = {}
    for cls, rows in sorted(by_cls.items()):
        dm, ds = _mean_sd([r.dice for r in rows])
        defined = [r.assd for r in rows if r.assd_defined]
        if defined:
            am, asd = _mean_sd(defined)
        else:
            am, asd = EMPTY, EMPTY
        out[cls] = ClassSummary(cls, len(rows), dm, ds, am, asd, len(rows) - len(defined))
    return out


# ---------------------------------------------------------------------------
# paired two-sided t-test


def _betacf(a: float, b: float, x: float) -> float:
    # continued fraction for the incomplete beta (modified Lentz)
    tiny = 1e-30
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 200):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 3e-16:
            return h
    raise RuntimeError("incomplete beta continued fraction did not converge")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) via the standard continued fraction."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must be in [0,1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log(1.0 - x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def student_t_sf2(t: float, dof: float) -> float:
    """Two-sided tail probability P(|T| >= |t|) for Student's t."""
    if dof <= 0:
        raise ValueError("degrees of freedom must be positive")
    x = dof / (dof + t * t)
    return regularized_incomplete_beta(dof / 2.0, 0.5, x)


def paired_t_test(a, b) -> tuple[float, float]:
    """Two-sided paired Student's t-test; returns (t, p).

    Raises on fewer than two pairs or zero-variance differences (a sample against
    itself or itself plus a constant): differences spanning under half the 1e-6
    quantum of a results CSV, as float64 noise would make t huge.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("paired t-test needs two equal-length 1-D samples")
    n = len(a)
    if n < 2:
        raise DegenerateStatsError(f"paired t-test needs at least 2 pairs, got {n}")
    d = a - b
    if np.ptp(d) < 0.5e-6:
        raise DegenerateStatsError("zero-variance differences; paired t-test undefined")
    t = d.mean() / (d.std(ddof=1) / math.sqrt(n))
    return float(t), float(student_t_sf2(t, n - 1))
