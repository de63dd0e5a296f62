"""Binary checkpoint format.

Byte layout, little-endian throughout:

    offset  size       field
    0       4          magic ``UPLC``
    4       2          format version, u16 (currently 1)
    6       4          header length u32
    10      hlen       header, UTF-8 JSON with sorted keys: architecture
                       fields, num_heads, head_dropout, epoch, seeds
    ..      4          entry count u32
    per entry:
            2          name length u16
            nlen       name, UTF-8
            1          rank u8
            4*rank     shape, u32 each
            4*prod     payload, float32

    trailer: 4         CRC32 (u32) over every preceding byte

Entries carry parameters and BN running statistics (``<layer>.running_mean``,
``.running_var``, ``.num_batches``). Loading verifies magic, version, CRC,
the header (UTF-8 JSON, a valid architecture, num_heads in 1..MAX_HEADS) and
entry shapes against the declared architecture; every failure is a
``CheckpointError``.
"""

from __future__ import annotations

import io
import json
import math
import struct
import zlib
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .autodiff import BatchNorm2d
from .model import MAX_HEADS, ArchConfig, SegModel

MAGIC = b"UPLC"
VERSION = 1


class CheckpointError(Exception):
    pass


def _collect_arrays(model: SegModel) -> dict[str, np.ndarray]:
    arrays = {name: t.data for name, t in model.named_parameters().items()}
    for name, bn in model.bn_layers().items():
        arrays[f"{name}.running_mean"] = bn.running_mean
        arrays[f"{name}.running_var"] = bn.running_var
        arrays[f"{name}.num_batches"] = np.array([bn.num_batches], dtype=np.float32)
    return arrays


def save_checkpoint(path, model: SegModel, epoch: int = 0, seeds: dict | None = None) -> None:
    header = {
        "arch": asdict(model.arch),
        "bn_eps": BatchNorm2d.eps,
        "bn_momentum": BatchNorm2d.momentum,
        "num_heads": model.num_heads,
        "head_dropout": model.head_dropout,
        "epoch": int(epoch),
        "seeds": seeds or {},
    }
    arrays = _collect_arrays(model)

    buf = io.BytesIO()
    buf.write(MAGIC)
    buf.write(struct.pack("<H", VERSION))
    hjson = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    buf.write(struct.pack("<I", len(hjson)))
    buf.write(hjson)
    buf.write(struct.pack("<I", len(arrays)))
    for name in arrays:  # insertion order, deterministic
        data = np.ascontiguousarray(arrays[name], dtype="<f4")
        nb = name.encode("utf-8")
        buf.write(struct.pack("<H", len(nb)))
        buf.write(nb)
        buf.write(struct.pack("<B", data.ndim))
        for s in data.shape:
            buf.write(struct.pack("<I", s))
        buf.write(data.tobytes())
    body = buf.getvalue()
    crc = zlib.crc32(body) & 0xFFFFFFFF
    Path(path).write_bytes(body + struct.pack("<I", crc))


class _Reader:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.blob):
            raise CheckpointError("truncated checkpoint stream")
        out = self.blob[self.pos : self.pos + n]
        self.pos += n
        return out

    def u8(self) -> int:
        return struct.unpack("<B", self.take(1))[0]

    def u16(self) -> int:
        return struct.unpack("<H", self.take(2))[0]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]


def read_entries(path) -> tuple[dict, dict[str, np.ndarray]]:
    """Parse and verify a checkpoint file; returns (header, arrays)."""
    blob = Path(path).read_bytes()
    if len(blob) < 14:
        raise CheckpointError("truncated checkpoint stream")
    body, crc_bytes = blob[:-4], blob[-4:]
    if zlib.crc32(body) & 0xFFFFFFFF != struct.unpack("<I", crc_bytes)[0]:
        raise CheckpointError("checkpoint CRC mismatch")
    r = _Reader(body)
    if r.take(4) != MAGIC:
        raise CheckpointError("bad checkpoint magic")
    version = r.u16()
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    try:
        header = json.loads(r.take(r.u32()).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointError(f"checkpoint header is not UTF-8 JSON: {e}") from e
    n = r.u32()
    arrays: dict[str, np.ndarray] = {}
    for _ in range(n):
        try:
            name = r.take(r.u16()).decode("utf-8")
        except UnicodeDecodeError as e:
            raise CheckpointError(f"checkpoint entry name is not UTF-8: {e}") from e
        ndim = r.u8()
        shape = tuple(r.u32() for _ in range(ndim))
        count = math.prod(shape)  # Python ints: a damaged shape cannot wrap around
        payload = r.take(4 * count)
        try:  # a zero dimension lets the others be too large for memory
            arrays[name] = np.frombuffer(payload, dtype="<f4").reshape(shape).copy()
        except ValueError as e:
            raise CheckpointError(f"entry {name!r} has an impossible shape {shape}") from e
    if r.pos != len(body):
        raise CheckpointError("trailing bytes after final entry")
    return header, arrays


def load_checkpoint(path) -> tuple[SegModel, dict]:
    """Rebuild a SegModel; returns (model, header)."""
    header, arrays = read_entries(path)
    try:
        arch = ArchConfig(**header["arch"])
        num_heads = int(header["num_heads"])
    except (KeyError, TypeError, ValueError) as e:
        raise CheckpointError(f"malformed checkpoint header: {e}") from e
    if not 1 <= num_heads <= MAX_HEADS:
        raise CheckpointError(f"checkpoint num_heads must be in 1..{MAX_HEADS}, got {num_heads}")

    rng = np.random.default_rng(0)  # placeholder init, overwritten below
    model = SegModel(arch, rng)
    if num_heads > 1:
        model = model.grow(num_heads)
    model.head_dropout = bool(header.get("head_dropout", num_heads > 1))

    for name, t in model.named_parameters().items():
        if name not in arrays:
            raise CheckpointError(f"checkpoint missing entry {name!r}")
        if arrays[name].shape != t.data.shape:
            raise CheckpointError(
                f"shape mismatch for {name!r}: checkpoint {arrays[name].shape}, arch {t.data.shape}"
            )
        t.data = arrays[name].astype(np.float32)
    for name, bn in model.bn_layers().items():
        for suffix in ("running_mean", "running_var", "num_batches"):
            if f"{name}.{suffix}" not in arrays:
                raise CheckpointError(f"checkpoint missing entry {name}.{suffix}")
        rm = arrays[f"{name}.running_mean"]
        rv = arrays[f"{name}.running_var"]
        nb = arrays[f"{name}.num_batches"]
        if rm.shape != bn.running_mean.shape or rv.shape != bn.running_var.shape:
            raise CheckpointError(f"shape mismatch for running stats of {name!r}")
        if nb.shape != (1,) or not np.isfinite(nb[0]):
            raise CheckpointError(f"{name}.num_batches must be one finite number")
        bn.running_mean = rm.astype(np.float32)
        bn.running_var = rv.astype(np.float32)
        bn.num_batches = int(nb[0])
    return model, header
