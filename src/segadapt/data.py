"""Slice datasets grouped by case, plus their binary file format.

File layout, little-endian:

    offset  size   field
    0       4      magic ``UPLD``
    4       2      format version, u16 (currently 1)
    6       4      n_images u32
    10      4      n_channels u32
    14      4      height u32
    18      4      width u32
    22      4      n_cases u32
    per case:      u16 id length + UTF-8 id
    then           n_images u32 case indices (into the id table)
    then           n_images * n_channels * height * width float32 pixels
    then           n_images * height * width u8 labels

Labels are always stored; unlabeled use means dropping them in memory.
Images must be square (transform family acts on square frames only).
Loading rejects a file with any non-finite pixel, and every set rejects a
case that owns no slices.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MAGIC = b"UPLD"
VERSION = 1


class DatasetError(Exception):
    pass


@dataclass
class UnlabeledSet:
    """Image slices [N,C,H,W] float32 with per-slice case membership."""

    images: np.ndarray
    case_index: np.ndarray  # [N] int32 into case_ids
    case_ids: list[str]

    def __post_init__(self):
        self.images = np.asarray(self.images, dtype=np.float32)
        self.case_index = np.asarray(self.case_index, dtype=np.int32)
        if self.images.ndim != 4:
            raise DatasetError(f"images must be [N,C,H,W], got shape {self.images.shape}")
        if self.images.shape[2] != self.images.shape[3]:
            raise DatasetError("images must be square")
        if len(self.case_index) != len(self.images):
            raise DatasetError("case_index length does not match image count")
        if len(self.case_index) and (self.case_index.min() < 0 or self.case_index.max() >= len(self.case_ids)):
            raise DatasetError("case index out of range")
        empty = np.bincount(self.case_index, minlength=len(self.case_ids)) == 0
        if empty.any():
            raise DatasetError(f"case {self.case_ids[int(empty.argmax())]!r} owns no slices")

    def __len__(self) -> int:
        return len(self.images)

    @property
    def n_cases(self) -> int:
        return len(self.case_ids)

    def case_slices(self, case: int) -> np.ndarray:
        return np.flatnonzero(self.case_index == case)

    def cases(self):
        for c, cid in enumerate(self.case_ids):
            idx = self.case_slices(c)
            yield cid, self.images[idx]


@dataclass
class LabeledSet(UnlabeledSet):
    labels: np.ndarray = None  # [N,H,W] integer

    def __post_init__(self):
        super().__post_init__()
        if self.labels is None:
            raise DatasetError("LabeledSet needs labels; use UnlabeledSet otherwise")
        self.labels = np.asarray(self.labels)
        if not np.issubdtype(self.labels.dtype, np.integer):
            raise DatasetError("labels must be integer typed")
        self.labels = self.labels.astype(np.uint8)
        if self.labels.shape != (len(self.images),) + self.images.shape[2:]:
            raise DatasetError(f"labels shape {self.labels.shape} does not match images")

    def drop_labels(self) -> UnlabeledSet:
        return UnlabeledSet(self.images, self.case_index, list(self.case_ids))

    def cases(self):
        for c, cid in enumerate(self.case_ids):
            idx = self.case_slices(c)
            yield cid, self.images[idx], self.labels[idx]

    @property
    def num_classes(self) -> int:
        return int(self.labels.max()) + 1


def save_dataset(path, ds: LabeledSet) -> None:
    n, c, h, w = ds.images.shape
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<H", VERSION))
        f.write(struct.pack("<IIII", n, c, h, w))
        f.write(struct.pack("<I", len(ds.case_ids)))
        for cid in ds.case_ids:
            b = cid.encode("utf-8")
            f.write(struct.pack("<H", len(b)))
            f.write(b)
        f.write(ds.case_index.astype("<u4").tobytes())
        f.write(np.ascontiguousarray(ds.images, dtype="<f4").tobytes())
        f.write(np.ascontiguousarray(ds.labels, dtype=np.uint8).tobytes())


def load_dataset(path) -> LabeledSet:
    blob = Path(path).read_bytes()
    if len(blob) < 26 or blob[:4] != MAGIC:
        raise DatasetError(f"not a dataset file: {path}")
    version = struct.unpack("<H", blob[4:6])[0]
    if version != VERSION:
        raise DatasetError(f"unsupported dataset version {version}")
    n, c, h, w = struct.unpack("<IIII", blob[6:22])
    n_cases = struct.unpack("<I", blob[22:26])[0]
    pos = 26
    case_ids = []
    for _ in range(n_cases):
        if pos + 2 > len(blob):
            raise DatasetError("truncated dataset file")
        ln = struct.unpack("<H", blob[pos : pos + 2])[0]
        pos += 2
        try:
            case_ids.append(blob[pos : pos + ln].decode("utf-8"))
        except UnicodeDecodeError as e:
            raise DatasetError(f"case id is not UTF-8: {e}") from e
        pos += ln
    need = n * 4 + n * c * h * w * 4 + n * h * w
    if pos + need != len(blob):
        raise DatasetError("dataset size does not match its header")
    case_index = np.frombuffer(blob, dtype="<u4", count=n, offset=pos).astype(np.int32)
    pos += n * 4
    images = (
        np.frombuffer(blob, dtype="<f4", count=n * c * h * w, offset=pos)
        .reshape(n, c, h, w)
        .copy()
    )
    if not np.isfinite(images).all():
        raise DatasetError(f"{path}: non-finite image pixels")
    pos += n * c * h * w * 4
    labels = np.frombuffer(blob, dtype=np.uint8, count=n * h * w, offset=pos).reshape(n, h, w).copy()
    return LabeledSet(images, case_index, case_ids, labels)
