"""Pseudo labels and reliability maps from multi-head mean predictions.

Pipeline, over a whole batch in one pass: average the heads' probability
maps, threshold the winning-class probability to get a binary reliability
map, argmax to a label map (ties to the lowest class index), then optionally
keep only the largest 4-connected component of each foreground class in each
slice. Reliability always comes from the raw mean, before any cleanup. Maps
are ``[..., C, H, W]`` and labels ``[..., H, W]``, any leading axes.

Component labeling is run-based and takes a whole ``[..., H, W]`` stack in
one call: horizontal runs of equal labels are found with one cumsum, runs
touching vertically within a slice are joined by vectorised min-label
hooking, and components are sized by their run lengths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .validation import check_prob_map


def ensemble_mean(head_probs: list[np.ndarray]) -> np.ndarray:
    """Mean probability map over heads; inputs [..., C, H, W] each, one shape."""
    if not head_probs:
        raise ValueError("ensemble_mean needs at least one head")
    if len({np.shape(p) for p in head_probs}) != 1:
        raise ValueError("head probability maps disagree in shape")
    stack = check_prob_map(np.stack([np.asarray(p, dtype=np.float32) for p in head_probs]))
    # accumulate in float64 so K identical maps average back to themselves
    return stack.mean(axis=0, dtype=np.float64).astype(np.float32)


def reliability_map(mean_prob: np.ndarray, tau: float) -> np.ndarray:
    """[..., C, H, W] -> [..., H, W] binary map: 1 where the winning class
    probability strictly exceeds tau."""
    mean_prob = np.asarray(mean_prob)
    c = mean_prob.shape[-3]
    if not 1.0 / c < tau < 1.0:
        raise ValueError(f"tau must lie in (1/C, 1) = ({1.0 / c:.4f}, 1), got {tau}")
    return (mean_prob.max(axis=-3) > tau).astype(np.float32)


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """[..., H, W] int labels -> [..., C, H, W] float32 one-hot."""
    labels = np.asarray(labels)
    if labels.min() < 0 or labels.max() >= num_classes:
        raise ValueError(f"labels out of range for {num_classes} classes")
    classes = np.arange(num_classes).reshape(num_classes, 1, 1)
    return (np.expand_dims(labels, -3) == classes).astype(np.float32)


def _components(values: np.ndarray):
    """Run-based 4-connected labeling of a ``[..., H, W]`` map.

    Nonzero pixels are foreground; 4-neighbors join when their values are
    equal, and components never cross slices. Horizontal runs are numbered by
    one cumsum over run starts; runs touching vertically are joined by
    min-label hooking with pointer jumping until a fixpoint (after He, Chao
    & Suzuki 2008, "A run-based two-scan labeling algorithm"). Returns
    ``(fg, comp, first, size)``: the foreground mask; the component of each
    foreground pixel, in row-major order; and per component, the flat index
    of its first row-major pixel and its pixel count. Components are numbered
    0..count-1 by first pixel.
    """
    values = np.asarray(values)
    h, w = values.shape[-2:]
    n = int(np.prod(values.shape[:-2]))
    # a zero column in front of every row keeps runs from wrapping
    padded = np.zeros((n, h, w + 1), dtype=values.dtype)
    padded[..., 1:] = values.reshape(n, h, w)
    flat = padded.ravel()
    fg = flat != 0
    change = np.append(flat[1:] != flat[:-1], True)  # pixel i+1 differs from i
    start = fg.copy()
    start[1:] &= change[:-1]
    starts = np.flatnonzero(start)
    lengths = np.flatnonzero(fg & change) - starts + 1
    run = (np.cumsum(start) - 1).reshape(padded.shape)  # run of each fg pixel
    # vertical edges join equal foreground pixels in adjacent rows of a slice;
    # a run pair touches along one column interval, so keep its first column
    start = start.reshape(padded.shape)
    touch = (padded[:, :-1] != 0) & (padded[:, :-1] == padded[:, 1:])
    first_col = touch.copy()
    first_col[..., 1:] &= ~touch[..., :-1] | start[:, :-1, 1:] | start[:, 1:, 1:]
    a, b = run[:, :-1][first_col], run[:, 1:][first_col]
    root = np.arange(len(starts))
    while True:
        ra, rb = root[a], root[b]
        differ = ra != rb
        if not differ.any():
            break
        # hook the larger root of every unjoined edge onto the smaller one
        a, b, ra, rb = a[differ], b[differ], ra[differ], rb[differ]
        np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
        while True:  # pointer jumping until every run points at its root
            up = root[root]
            if np.array_equal(up, root):
                break
            root = up
    is_root = root == np.arange(len(starts))
    comp_of_run = (np.cumsum(is_root) - 1)[root]
    size = np.bincount(comp_of_run, weights=lengths, minlength=int(is_root.sum()))
    first = starts[is_root]
    first -= first // (w + 1) + 1  # padded flat index -> flat index into values
    return (fg.reshape(padded.shape)[..., 1:].reshape(values.shape),
            comp_of_run[run.ravel()[fg]], first, size.astype(np.int64))


def label_components(mask: np.ndarray) -> tuple[np.ndarray, int]:
    """4-connected component labeling of a ``[..., H, W]`` mask, run-based.

    Components never cross slices. Returns (labels, count) with compact
    labels 1..count ordered by each component's first row-major pixel, 0 for
    background.
    """
    mask = np.asarray(mask).astype(bool)
    if mask.ndim < 2:
        raise ValueError("component labeling needs a [..., H, W] mask")
    fg, comp, first, _ = _components(mask)
    labels = np.zeros(mask.shape, dtype=np.int32)
    labels[fg] = comp + 1
    return labels, len(first)


def cleanup_label_map(label_map: np.ndarray, num_classes: int) -> np.ndarray:
    """Keep the largest 4-connected component of each foreground class in
    every slice of a ``[..., H, W]`` label map; removed pixels -> 0.

    One run-based labeling pass covers the whole stack. Size ties keep the
    component holding the smallest row-major pixel. Values outside
    1..num_classes-1 pass through untouched.
    """
    label_map = np.asarray(label_map)
    if label_map.ndim < 2:
        raise ValueError("cleanup needs a [..., H, W] label map")
    classes = np.where((label_map >= 1) & (label_map < num_classes), label_map, 0)
    fg, comp, first, size = _components(classes)
    # group = (slice, class); the winner is the first in (-size, first) order
    h, w = label_map.shape[-2:]
    group = first // (h * w) * num_classes + classes.ravel()[first]
    order = np.lexsort((first, -size, group))
    _, winner = np.unique(group[order], return_index=True)
    keep = np.zeros(len(first), dtype=bool)
    keep[order[winner]] = True
    drop = np.zeros(label_map.shape, dtype=bool)
    drop[fg] = ~keep[comp]
    out = label_map.copy()
    out[drop] = 0
    return out


@dataclass
class PseudoLabelBundle:
    """Frozen supervision targets for one batch: one-hot labels, reliability maps."""

    pseudo_onehot: np.ndarray  # [B,C,H,W] float32
    reliability: np.ndarray  # [B,H,W] float32 in {0,1}

    @property
    def reliable_fraction(self) -> float:
        return float(self.reliability.mean())


def make_pseudo_label(mean_prob: np.ndarray, tau: float | None,
                      cleanup: bool = True) -> PseudoLabelBundle:
    """Build the supervision bundle from a batched mean prediction [B,C,H,W].

    ``tau=None`` skips thresholding: every pixel counts as reliable.
    """
    # contiguous copy: strided input buffers would otherwise leak their layout
    # into the bundle and shift downstream float reductions by an ulp
    mean_prob = np.ascontiguousarray(mean_prob, dtype=np.float32)
    if mean_prob.ndim != 4:
        raise ValueError(f"expected [B,C,H,W] mean prediction, got shape {mean_prob.shape}")
    check_prob_map(mean_prob)
    c = mean_prob.shape[1]
    labels = mean_prob.argmax(axis=1)
    if cleanup:
        labels = cleanup_label_map(labels, c)
    if tau is None:
        rel = np.ones(labels.shape, dtype=np.float32)
    else:
        rel = reliability_map(mean_prob, tau)
    return PseudoLabelBundle(one_hot(labels, c), rel)


# ---------------------------------------------------------------------------
# PGM export


def write_pgm(path, image: np.ndarray) -> None:
    """Binary PGM (P5) writer for 2-D data in 0..255, stored as uint8."""
    image = np.asarray(image)
    if image.ndim != 2:
        raise ValueError("PGM export needs a 2-D array")
    if image.min() < 0 or image.max() > 255:
        raise ValueError("pixel values out of PGM range")
    data = image.astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P5\n{image.shape[1]} {image.shape[0]}\n255\n".encode("ascii"))
        f.write(data.tobytes())


def export_label_pgm(path, label_map: np.ndarray, num_classes: int) -> None:
    """Label map spread over 0..255 for viewing."""
    scale = 255 // max(num_classes - 1, 1)
    write_pgm(path, np.asarray(label_map).astype(np.uint8) * scale)


def export_reliability_pgm(path, reliability: np.ndarray) -> None:
    write_pgm(path, (np.asarray(reliability) > 0).astype(np.uint8) * 255)
