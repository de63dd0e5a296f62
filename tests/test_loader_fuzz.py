"""Fuzz of the .upld and .uplc loaders: truncated and bit-flipped files.

A damaged file either loads or raises the loader's own error type; nothing
else may escape. Checkpoint bit flips are also tried with the CRC re-sealed,
so the damage reaches the parser behind the checksum.
"""

import contextlib
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segadapt.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from segadapt.data import DatasetError, LabeledSet, load_dataset, save_dataset
from segadapt.model import ArchConfig, SegModel

FUZZ = settings(max_examples=150, deadline=None)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(0)
    ds = LabeledSet(rng.standard_normal((3, 1, 4, 4)).astype(np.float32),
                    np.array([0, 0, 1]), ["case_a", "case_b"],
                    rng.integers(0, 3, size=(3, 4, 4)))
    save_dataset(root / "ok.upld", ds)
    model = SegModel(ArchConfig(levels=1, base_channels=2), rng).grow(2)
    for bn in model.bn_layers().values():
        bn.num_batches = 1  # as after training; no single flip takes 0.0 to inf
    save_checkpoint(root / "ok.uplc", model)
    return root


def reseal(body: bytes) -> bytes:
    return body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


def flip(blob: bytes, bit: int) -> bytes:
    out = bytearray(blob)
    out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


def damage(blob: bytes, data, resealed: bool) -> bytes:
    """Truncate or flip one bit; with ``resealed``, damage the body under a
    fresh CRC instead."""
    body = blob[:-4] if resealed else blob
    if data.draw(st.booleans(), label="truncate"):
        out = body[:data.draw(st.integers(0, len(body) - 1), label="length")]
    else:
        # half the flips land in the first 512 bytes, where the structure is
        hi = data.draw(st.sampled_from([min(len(body), 512), len(body)]), label="span")
        out = flip(body, data.draw(st.integers(0, 8 * hi - 1), label="bit"))
    return reseal(out) if resealed else out


@FUZZ
@given(data=st.data())
def test_damaged_dataset_raises_only_dataset_error(files, data):
    bad = files / "bad.upld"
    bad.write_bytes(damage((files / "ok.upld").read_bytes(), data, resealed=False))
    with contextlib.suppress(DatasetError):
        load_dataset(bad)


@FUZZ
@given(data=st.data(), resealed=st.booleans())
def test_damaged_checkpoint_raises_only_checkpoint_error(files, data, resealed):
    bad = files / "bad.uplc"
    bad.write_bytes(damage((files / "ok.uplc").read_bytes(), data, resealed))
    with contextlib.suppress(CheckpointError):
        load_checkpoint(bad)


# each escape found while fuzzing, kept as a named case; the num_batches one
# was found by reading the loader


def test_case_count_reaching_into_pixels_is_a_dataset_error(files, tmp_path):
    blob = bytearray((files / "ok.upld").read_bytes())
    struct.pack_into("<I", blob, 22, 10)  # 2 case ids -> 10: ids read from pixel bytes
    bad = tmp_path / "bad.upld"
    bad.write_bytes(bytes(blob))
    with pytest.raises(DatasetError, match="not UTF-8"):
        load_dataset(bad)


def resealed_with(files, tmp_path, name: bytes, edit):
    """The checkpoint with ``edit(body, offset of the entry name)`` applied."""
    body = bytearray((files / "ok.uplc").read_bytes()[:-4])
    edit(body, body.index(name))
    bad = tmp_path / "bad.uplc"
    bad.write_bytes(reseal(bytes(body)))
    return bad


def test_entry_name_not_utf8_is_a_checkpoint_error(files, tmp_path):
    def edit(body, at):
        body[at] = 0x80
    with pytest.raises(CheckpointError, match="not UTF-8"):
        load_checkpoint(resealed_with(files, tmp_path, b"enc.l0.c1.w", edit))


def test_shape_with_a_zero_and_huge_dimensions_is_a_checkpoint_error(files, tmp_path):
    # rank 4 at name end; dims (0, 2**30, 2**30, 2**30) hold no payload
    def edit(body, at):
        struct.pack_into("<IIII", body, at + len(b"enc.l0.c1.w") + 1, 0, 2**30, 2**30, 2**30)
    with pytest.raises(CheckpointError):
        load_checkpoint(resealed_with(files, tmp_path, b"enc.l0.c1.w", edit))


def test_infinite_num_batches_is_a_checkpoint_error(files, tmp_path):
    name = b"enc.l0.n1.num_batches"

    def edit(body, at):  # name, rank 1, one dim, then the float payload
        struct.pack_into("<f", body, at + len(name) + 5, np.inf)
    with pytest.raises(CheckpointError, match="num_batches"):
        load_checkpoint(resealed_with(files, tmp_path, name, edit))
