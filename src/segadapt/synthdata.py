"""Synthetic two-domain segmentation benchmark.

Cases are short stacks of square slices containing a filled ellipse (class 1)
wrapped by an elliptical ring (class 2) on background (class 0), with
geometry drifting smoothly across slices. Both domains draw geometry from the
same sampler; appearance (intensity means, texture, gamma, additive bias
field, noise) comes from a DomainSpec. Images are percentile-clipped and
linearly mapped to [-1, 1] per slice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import LabeledSet
from .pseudolabel import label_components
from .rng import named_stream


@dataclass(frozen=True)
class DomainSpec:
    name: str
    class_means: tuple = (0.25, 0.85, 0.55)
    texture_amp: float = 0.03
    noise_sigma: float = 0.02
    gamma: float = 1.0
    bias_amp: float = 0.0


@dataclass(frozen=True)
class CaseSpec:
    """Geometry of one case; per-slice ellipse parameters drift sinusoidally."""

    case_id: str
    n_slices: int
    size: int
    cx: float
    cy: float
    ax: float  # inner ellipse semi-axes
    ay: float
    ring: float  # ring thickness added to both semi-axes
    angle: float
    drift_amp: float
    drift_phase: float

    def slice_geometry(self, s: int):
        t = s / max(self.n_slices - 1, 1)
        wob = self.drift_amp * math.sin(2 * math.pi * t + self.drift_phase)
        scale = 1.0 + 0.15 * math.sin(math.pi * t)  # mid-stack slices widest
        return (
            self.cx + wob,
            self.cy + self.drift_amp * math.cos(2 * math.pi * t + self.drift_phase),
            self.ax * scale,
            self.ay * scale,
            self.angle,
        )


def sample_case(rng: np.random.Generator, case_id: str, size: int = 64) -> CaseSpec:
    n_slices = int(rng.integers(8, 13))
    s = size / 64.0  # geometry is calibrated on the 64-pixel frame
    return CaseSpec(
        case_id=case_id,
        n_slices=n_slices,
        size=size,
        cx=size / 2 + rng.uniform(-4, 4) * s,
        cy=size / 2 + rng.uniform(-4, 4) * s,
        ax=rng.uniform(8, 12) * s,
        ay=rng.uniform(8, 12) * s,
        ring=rng.uniform(3.5, 5.0) * s,
        angle=rng.uniform(0, math.pi),
        drift_amp=rng.uniform(0.5, 2.0) * s,
        drift_phase=rng.uniform(0, 2 * math.pi),
    )


def _ellipse_mask(size: int, cx: float, cy: float, ax: float, ay: float, angle: float) -> np.ndarray:
    yy, xx = np.mgrid[0:size, 0:size]
    x = xx - cx
    y = yy - cy
    ca, sa = math.cos(angle), math.sin(angle)
    u = x * ca + y * sa
    v = -x * sa + y * ca
    return (u / ax) ** 2 + (v / ay) ** 2 <= 1.0


def case_masks(spec: CaseSpec) -> np.ndarray:
    """[n_slices, size, size] label maps; every foreground class is one
    4-connected component fully inside the frame (guarded by assertion)."""
    out = np.zeros((spec.n_slices, spec.size, spec.size), dtype=np.uint8)
    for s in range(spec.n_slices):
        cx, cy, ax, ay, angle = spec.slice_geometry(s)
        inner = _ellipse_mask(spec.size, cx, cy, ax, ay, angle)
        outer = _ellipse_mask(spec.size, cx, cy, ax + spec.ring, ay + spec.ring, angle)
        lab = np.zeros((spec.size, spec.size), dtype=np.uint8)
        lab[outer & ~inner] = 2
        lab[inner] = 1
        border = np.concatenate([lab[0], lab[-1], lab[:, 0], lab[:, -1]])
        if border.any():
            raise RuntimeError(f"case {spec.case_id}: structure touches the frame")
        for c in (1, 2):
            _, count = label_components(lab == c)
            if count != 1:
                raise RuntimeError(f"case {spec.case_id} slice {s}: class {c} has {count} components")
        out[s] = lab
    return out


def _smooth_field(rng: np.random.Generator, size: int, cells: int = 4) -> np.ndarray:
    """Low-frequency field in [-1,1]: coarse noise, bilinearly upsampled."""
    coarse = rng.uniform(-1, 1, size=(cells + 1, cells + 1))
    pos = np.linspace(0, cells, size)
    i0 = np.clip(pos.astype(int), 0, cells - 1)
    f = pos - i0
    rows = coarse[i0, :] * (1 - f)[:, None] + coarse[i0 + 1, :] * f[:, None]
    cols = rows[:, i0] * (1 - f)[None, :] + rows[:, i0 + 1] * f[None, :]
    return cols


def render_slice(label: np.ndarray, domain: DomainSpec, rng: np.random.Generator) -> np.ndarray:
    """One [H,W] float32 image from a label map under a domain's appearance."""
    means = np.asarray(domain.class_means, dtype=np.float64)
    img = means[label]
    if domain.texture_amp > 0:
        img = img + domain.texture_amp * _smooth_field(rng, label.shape[0], cells=8)
    img = np.clip(img, 0.0, 1.0) ** domain.gamma
    if domain.bias_amp > 0:
        img = img + domain.bias_amp * _smooth_field(rng, label.shape[0], cells=2)
    if domain.noise_sigma > 0:
        img = img + domain.noise_sigma * rng.standard_normal(label.shape)
    return normalize_slice(img)


def normalize_slice(img: np.ndarray) -> np.ndarray:
    """Clip to the 1st/99th percentile, map linearly to [-1,1] (float32).

    A constant image (degenerate percentile window) maps to all zeros.
    """
    lo, hi = np.percentile(img, (1.0, 99.0))
    if hi <= lo:
        return np.zeros_like(img, dtype=np.float32)
    clipped = np.clip(img, lo, hi)
    return (2.0 * (clipped - lo) / (hi - lo) - 1.0).astype(np.float32)


SPLIT_RATIOS = (0.7, 0.1, 0.2)


def split_counts(n_cases: int) -> tuple[int, int, int]:
    """Train/val/test case counts: floors for train and val, the rest test."""
    n_train = int(math.floor(SPLIT_RATIOS[0] * n_cases))
    n_val = int(math.floor(SPLIT_RATIOS[1] * n_cases))
    return n_train, n_val, n_cases - n_train - n_val


def generate_domain(domain: DomainSpec, n_cases: int, seed: int = 0,
                    size: int = 64) -> dict[str, LabeledSet]:
    """Deterministic train/val/test LabeledSets for one domain."""
    n_train, n_val, n_test = split_counts(n_cases)
    if min(n_train, n_val, n_test) < 1:
        raise ValueError(f"n_cases={n_cases} too small for split {SPLIT_RATIOS}")
    rng = named_stream(seed, f"data.{domain.name}")
    split_sets: dict[str, LabeledSet] = {}
    counts = {"train": n_train, "val": n_val, "test": n_test}
    case_no = 0
    for split, count in counts.items():
        images, labels, case_index, case_ids = [], [], [], []
        for _ in range(count):
            cid = f"{domain.name}_case{case_no:03d}"
            case_no += 1
            spec = sample_case(rng, cid, size)
            masks = case_masks(spec)
            for s in range(spec.n_slices):
                images.append(render_slice(masks[s], domain, rng)[None])
                labels.append(masks[s])
                case_index.append(len(case_ids))
            case_ids.append(cid)
        split_sets[split] = LabeledSet(
            np.stack(images), np.asarray(case_index), case_ids, np.stack(labels)
        )
    return split_sets


# the shipped two-domain benchmark: same geometry statistics, shifted appearance
BENCHMARKS = {
    "syn-a2b": (
        DomainSpec(name="syn_a"),
        DomainSpec(name="syn_b", noise_sigma=0.05, gamma=0.5, bias_amp=0.3),
    )
}


def generate_benchmark(name: str, n_cases: int, seed: int,
                       size: int = 64) -> dict[str, dict[str, LabeledSet]]:
    if name not in BENCHMARKS:
        raise ValueError(f"unknown benchmark {name!r}; known: {sorted(BENCHMARKS)}")
    src, tgt = BENCHMARKS[name]
    return {
        "source": generate_domain(src, n_cases, seed, size),
        "target": generate_domain(tgt, n_cases, seed, size),
    }
