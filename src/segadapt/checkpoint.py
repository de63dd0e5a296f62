"""Binary checkpoint format.

Byte layout, little-endian throughout:

    offset  size       field
    0       4          magic ``UPLC``
    4       2          format version, u16 (currently 1)
    6       4          header length u32
    10      hlen       header, UTF-8 JSON with sorted keys: architecture
                       fields, bn_eps, bn_momentum, num_heads,
                       head_dropout, epoch, seeds
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
the header (UTF-8 JSON, a valid architecture, an integer num_heads in
1..MAX_HEADS, a boolean head_dropout, BatchNorm's built-in eps and momentum),
the header fields that size arrays against the entries before a model is
built from them, and the entries against the ones ``save_checkpoint`` writes
for the declared model: none missing, none extra, every shape; every failure
is a ``CheckpointError``.
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


def _check_sizes(arch: ArchConfig, arrays: dict[str, np.ndarray]) -> None:
    """The header fields that size arrays must agree with the entries in the
    file before any array is sized from them: every level owns entries, so
    ``levels`` stays below the entry count, and three entries pin the rest,
    the first conv (``base_channels``, ``in_channels``, ``kernel``), the
    bottleneck conv (``2**levels``) and head 0's output conv (``num_classes``)."""
    sizing = ("in_channels", "num_classes", "levels", "base_channels", "kernel")
    if any(type(getattr(arch, f)) is not int for f in sizing):
        raise CheckpointError(f"checkpoint header fields {', '.join(sizing)} must be integers")
    if arch.levels >= len(arrays):
        raise CheckpointError(f"checkpoint header levels {arch.levels} needs more than "
                              f"the file's {len(arrays)} entries")
    k, base, bottom = arch.kernel, arch.base_channels, arch.bottleneck_channels
    for name, shape in (("enc.l0.c1.w", (base, arch.in_channels, k, k)),
                        ("enc.bottom.c2.w", (bottom, bottom, k, k)),
                        ("head0.out.w", (arch.num_classes, base, 1, 1))):
        if name not in arrays:
            raise CheckpointError(f"checkpoint missing entry {name!r}")
        if arrays[name].shape != shape:
            raise CheckpointError(f"checkpoint header architecture needs {name!r} of shape "
                                  f"{shape}, the file holds {arrays[name].shape}")


def load_checkpoint(path) -> tuple[SegModel, dict]:
    """Rebuild a SegModel; returns (model, header)."""
    header, arrays = read_entries(path)
    try:
        arch = ArchConfig(**header["arch"])
        num_heads, head_dropout = header["num_heads"], header["head_dropout"]
        eps_momentum = header["bn_eps"], header["bn_momentum"]
    except (KeyError, TypeError, ValueError) as e:
        raise CheckpointError(f"malformed checkpoint header: {e}") from e
    if type(num_heads) is not int or not 1 <= num_heads <= MAX_HEADS:
        raise CheckpointError(
            f"checkpoint num_heads {num_heads!r} is not an integer in 1..{MAX_HEADS}")
    if type(head_dropout) is not bool:
        raise CheckpointError(f"checkpoint head_dropout {head_dropout!r} is not a boolean")
    if eps_momentum != (BatchNorm2d.eps, BatchNorm2d.momentum):
        raise CheckpointError(f"checkpoint bn_eps, bn_momentum {eps_momentum} are not the "
                              f"built-in {BatchNorm2d.eps}, {BatchNorm2d.momentum}")
    _check_sizes(arch, arrays)

    rng = np.random.default_rng(0)  # placeholder init, overwritten below
    model = SegModel(arch, rng)
    if num_heads > 1:
        model = model.grow(num_heads)
    model.head_dropout = head_dropout

    expected = _collect_arrays(model)  # the table save_checkpoint writes for this model
    for name in expected | arrays:  # its order, then the file's strays
        if name not in expected:
            raise CheckpointError(f"checkpoint entry {name!r} is not in a {num_heads}-head model")
        if name not in arrays:
            raise CheckpointError(f"checkpoint missing entry {name!r}")
        if arrays[name].shape != expected[name].shape:
            raise CheckpointError(f"shape mismatch for {name!r}: checkpoint "
                                  f"{arrays[name].shape}, arch {expected[name].shape}")
    for name, t in model.named_parameters().items():
        t.data = arrays[name]
    for name, bn in model.bn_layers().items():
        nb = arrays[f"{name}.num_batches"][0]
        if not np.isfinite(nb):
            raise CheckpointError(f"{name}.num_batches must be one finite number")
        bn.running_mean = arrays[f"{name}.running_mean"]
        bn.running_var = arrays[f"{name}.running_var"]
        bn.num_batches = int(nb)
    return model, header
