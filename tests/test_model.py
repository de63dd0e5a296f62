"""Network construction, head duplication, parameter groups, Adam, and the
binary checkpoint format."""

import hashlib
import json
import struct
import zlib

import numpy as np
import pytest

from segadapt import autodiff as ad
from segadapt.checkpoint import (
    MAGIC,
    VERSION,
    CheckpointError,
    load_checkpoint,
    read_entries,
    save_checkpoint,
)
from segadapt.model import MAX_HEADS, ArchConfig, SegModel
from segadapt.optim import Adam


def make_model(seed=0, **kw):
    return SegModel(ArchConfig(**kw), np.random.default_rng(seed))


def warm(model, seed=1, batches=2):
    # a couple of train-mode passes so BN running stats exist for eval
    rng = np.random.default_rng(seed)
    for _ in range(batches):
        x = rng.standard_normal((2, model.arch.in_channels, 16, 16)).astype(np.float32)
        for h in range(model.num_heads):
            model.forward_head(x, h, train=True, rng=rng)
    return model


def params_of(model):
    return {n: t.data.copy() for n, t in model.named_parameters().items()}


def assert_params_equal(a, b):
    assert a.keys() == b.keys()
    for n in a:
        assert np.array_equal(a[n], b[n]), n


class TestArchConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ArchConfig(levels=0)
        with pytest.raises(ValueError):
            ArchConfig(num_classes=1)
        with pytest.raises(ValueError):
            ArchConfig(kernel=4)
        with pytest.raises(ValueError):
            ArchConfig(dropout_rate=1.0)
        # BatchNorm's backward reads the activation's branch off its output's sign
        for leak in (-0.01, 1.0, float("nan")):
            with pytest.raises(ValueError):
                ArchConfig(leak=leak)

    def test_channel_progression(self):
        a = ArchConfig()
        assert a.level_channels == [8, 16]
        assert a.bottleneck_channels == 32


class TestForward:
    def test_output_is_channel_softmax(self):
        m = make_model()
        x = np.random.default_rng(2).standard_normal((2, 1, 16, 16)).astype(np.float32)
        p = m.forward_head(x, 0, train=True)
        assert p.data.shape == (2, 3, 16, 16)
        assert np.all(p.data >= 0)
        assert np.abs(p.data.sum(axis=1) - 1.0).max() <= 1e-6

    def test_input_validation(self):
        m = make_model()
        with pytest.raises(ValueError):
            m.forward_head(np.zeros((1, 16, 16), np.float32), 0, train=True)
        with pytest.raises(ValueError):
            m.forward_head(np.zeros((1, 2, 16, 16), np.float32), 0, train=True)
        with pytest.raises(ValueError):
            m.forward_head(np.zeros((1, 1, 10, 10), np.float32), 0, train=True)
        with pytest.raises(IndexError):
            m.forward_head(np.zeros((1, 1, 16, 16), np.float32), 1, train=True)

    def test_eval_before_any_batch_refused(self):
        m = make_model()
        with pytest.raises(RuntimeError):
            m.forward_head(np.zeros((1, 1, 16, 16), np.float32), 0, train=False)

    def test_eval_is_deterministic(self):
        m = warm(make_model())
        x = np.random.default_rng(3).standard_normal((1, 1, 16, 16)).astype(np.float32)
        a = m.forward_head(x, 0, train=False).data
        b = m.forward_head(x, 0, train=False).data
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("grown,nodes", [(False, 30), (True, 31)])
    def test_taped_forward_records_one_node_per_primitive(self, grown, nodes):
        # 13 conv2d (two also take a skip), 12 BatchNorm with its leaky ReLU,
        # 2 maxpool, 2 upsample and the softmax; a grown head adds its
        # dropout gate
        m = make_model().grow(2) if grown else make_model()
        x = np.random.default_rng(11).standard_normal((1, 1, 16, 16)).astype(np.float32)
        with ad.Tape() as tape:
            m.forward_head(x, 1 if grown else 0, train=True, rng=np.random.default_rng(1))
        assert len(tape) == nodes


class TestParameterGroups:
    def test_exact_parameter_counts(self):
        m = make_model()

        def conv(cin, cout, k):
            return cout * cin * k * k + cout

        def block(cin, cout):
            return conv(cin, cout, 3) + 2 * cout + conv(cout, cout, 3) + 2 * cout

        def stage(cin, cout):
            return conv(cin, cout, 3) + 2 * cout + block(2 * cout, cout)

        enc = block(1, 8) + block(8, 16) + block(16, 32)
        head = stage(32, 16) + stage(16, 8) + conv(8, 3, 1)
        assert sum(t.data.size for t in m.parameter_groups("encoder")) == enc
        assert sum(t.data.size for t in m.parameter_groups("head:0")) == head
        total = sum(t.data.size for t in m.parameter_groups("all"))
        assert total == enc + head == 32907
        bn = sum(t.data.size for t in m.parameter_groups("bn_affine_only"))
        assert bn == 368

    def test_encoder_and_head_partition_everything(self):
        m = make_model()
        all_ids = {id(t) for t in m.parameter_groups("all")}
        enc_ids = {id(t) for t in m.parameter_groups("encoder")}
        head_ids = {id(t) for t in m.parameter_groups("head:0")}
        assert enc_ids | head_ids == all_ids
        assert not enc_ids & head_ids

    def test_bn_affine_is_a_subset(self):
        m = make_model()
        all_ids = {id(t) for t in m.parameter_groups("all")}
        bn_ids = {id(t) for t in m.parameter_groups("bn_affine_only")}
        assert bn_ids <= all_ids

    def test_selector_errors(self):
        m = make_model()
        with pytest.raises(ValueError):
            m.parameter_groups("decoder")
        with pytest.raises(IndexError):
            m.parameter_groups("head:1")


class TestGrowClone:
    def test_grown_heads_are_bitwise_copies(self):
        m = make_model(seed=5)
        g = m.grow(4)
        assert g.num_heads == 4 and g.head_dropout
        base = params_of(m)
        grown = g.named_parameters()
        for n, t in grown.items():
            src = n.replace("head1.", "head0.").replace("head2.", "head0.").replace("head3.", "head0.")
            assert np.array_equal(t.data, base[src]), n
        # pairwise identical heads
        for k in range(1, 4):
            for n0, t0 in grown.items():
                if n0.startswith("head0."):
                    assert np.array_equal(t0.data, grown[n0.replace("head0.", f"head{k}.")].data)

    def test_grow_leaves_the_original_alone(self):
        m = make_model(seed=6)
        snap = params_of(m)
        g = m.grow(3)
        assert m.num_heads == 1 and not m.head_dropout
        assert_params_equal(params_of(m), snap)
        # storage is independent: mutating the grown copy does not leak back
        g.named_parameters()["enc.l0.c1.w"].data += 1.0
        assert_params_equal(params_of(m), snap)

    def test_grow_bounds_and_single_head_precondition(self):
        m = make_model()
        with pytest.raises(ValueError):
            m.grow(0)
        with pytest.raises(ValueError):
            m.grow(MAX_HEADS + 1)
        g = m.grow(MAX_HEADS)
        assert g.num_heads == MAX_HEADS
        with pytest.raises(ValueError):
            g.grow(2)

    def test_grow_one_still_enables_dropout(self):
        g = make_model().grow(1)
        assert g.num_heads == 1 and g.head_dropout

    def test_eval_ensemble_of_clones_equals_single_head(self):
        m = warm(make_model(seed=7))
        g = m.grow(4)
        x = np.random.default_rng(8).standard_normal((1, 1, 16, 16)).astype(np.float32)
        ref = m.forward_head(x, 0, train=False).data
        outs = [g.forward_head(x, h, train=False).data for h in range(4)]
        for o in outs:
            assert np.array_equal(o, ref)
        assert np.array_equal(sum(outs) / 4, ref)

    def test_train_mode_heads_differ_through_dropout(self):
        g = warm(make_model(seed=9)).grow(2)
        x = np.random.default_rng(10).standard_normal((1, 1, 16, 16)).astype(np.float32)
        a = g.forward_head(x, 0, train=True, rng=np.random.default_rng(1)).data
        b = g.forward_head(x, 1, train=True, rng=np.random.default_rng(2)).data
        assert not np.array_equal(a, b)
        # same rng stream gives the same gate, hence the same output
        c = g.forward_head(x, 1, train=True, rng=np.random.default_rng(1)).data
        assert np.array_equal(a, c)

    def test_dropout_needs_rng_only_after_grow(self):
        x = np.zeros((1, 1, 16, 16), np.float32)
        make_model().forward_head(x, 0, train=True)  # fine pre-grow
        g = make_model().grow(2)
        with pytest.raises(ValueError):
            g.forward_head(x, 0, train=True)
        g.head_dropout = False  # gate disabled
        g.forward_head(x, 0, train=True)

    def test_clone_is_equal_but_independent(self):
        m = warm(make_model(seed=11))
        c = m.clone()
        assert_params_equal(params_of(m), params_of(c))
        c.named_parameters()["enc.l0.c1.w"].data += 1.0
        assert not np.array_equal(
            m.named_parameters()["enc.l0.c1.w"].data,
            c.named_parameters()["enc.l0.c1.w"].data,
        )


class TestAdam:
    @pytest.mark.parametrize("lr", [-1.0, float("nan")])
    def test_lr_must_be_non_negative(self, lr):
        p = ad.Tensor(np.zeros(3, np.float32), requires_grad=True)
        with pytest.raises(ValueError):
            Adam([p], lr=lr)

    def test_lr_zero_steps_leave_parameters_unchanged(self):
        p = ad.Tensor(np.array([1.0, -2.0, 0.0], np.float32), requires_grad=True)
        opt = Adam([p], lr=0.0)
        snap = p.data.tobytes()
        for _ in range(3):
            p.grad = np.array([0.5, -3.0, 1e-12], np.float32)
            opt.step()
        assert p.data.tobytes() == snap and opt.t == 3

    def test_none_and_zero_gradients_leave_parameters_unchanged(self):
        p = ad.Tensor(np.array([1.0, -2.0], np.float32), requires_grad=True)
        q = ad.Tensor(np.array([3.0], np.float32), requires_grad=True)
        opt = Adam([p, q], lr=0.1)
        p.grad = None
        q.grad = np.zeros(1, np.float32)
        snap_p, snap_q = p.data.copy(), q.data.copy()
        for _ in range(3):
            opt.step()
        assert np.array_equal(p.data, snap_p)
        assert np.array_equal(q.data, snap_q)

    def test_first_step_moves_by_about_lr(self):
        p = ad.Tensor(np.array([5.0], np.float32), requires_grad=True)
        opt = Adam([p], lr=0.1)
        p.grad = np.array([2.0], np.float32)
        opt.step()
        # bias-corrected first step is lr * g / (|g| + eps) = lr * sign(g)
        assert abs(float(p.data[0]) - 4.9) <= 1e-6

    def test_descends_a_quadratic(self):
        p = ad.Tensor(np.array([3.0], np.float32), requires_grad=True)
        opt = Adam([p], lr=0.05)
        for _ in range(200):
            p.grad = 2.0 * p.data
            opt.step()
        assert abs(float(p.data[0])) < 0.5

def reserialize(header, arrays):
    # independent writer mirroring the documented byte layout
    out = bytearray()
    out += MAGIC
    out += struct.pack("<H", VERSION)
    hjson = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    out += struct.pack("<I", len(hjson))
    out += hjson
    out += struct.pack("<I", len(arrays))
    for name, arr in arrays.items():
        data = np.ascontiguousarray(arr, dtype="<f4")
        nb = name.encode()
        out += struct.pack("<H", len(nb))
        out += nb
        out += struct.pack("<B", data.ndim)
        for s in data.shape:
            out += struct.pack("<I", s)
        out += data.tobytes()
    out += struct.pack("<I", zlib.crc32(bytes(out)) & 0xFFFFFFFF)
    return bytes(out)


class TestCheckpoint:
    def test_round_trip_preserves_eval_behavior(self, tmp_path):
        m = warm(make_model(seed=13))
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, m, epoch=7, seeds={"root": 42})
        loaded, header = load_checkpoint(path)
        assert header["epoch"] == 7 and header["seeds"] == {"root": 42}
        assert header["num_heads"] == 1
        x = np.random.default_rng(14).standard_normal((1, 1, 16, 16)).astype(np.float32)
        assert np.array_equal(
            m.forward_head(x, 0, train=False).data,
            loaded.forward_head(x, 0, train=False).data,
        )

    def test_bytes_match_independent_writer(self, tmp_path):
        m = warm(make_model(seed=15))
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, m, epoch=1, seeds={"root": 1})
        header, arrays = read_entries(path)
        assert path.read_bytes() == reserialize(header, arrays)

    def test_fixed_seed_checkpoint_bytes_are_pinned(self, tmp_path):
        # the header's fields and key order, and every entry, as of format version 1
        m = make_model(seed=18).grow(2)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, m, epoch=3, seeds={"root": 18})
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "217ba9600f8090a6dc08774fe77cea0797ff1bd43bfbc0c4ba3fb6d658089bfd")

    def test_save_is_deterministic(self, tmp_path):
        m = warm(make_model(seed=16))
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(a, m, epoch=2)
        save_checkpoint(b, m, epoch=2)
        assert a.read_bytes() == b.read_bytes()

    def test_grown_model_round_trips_heads(self, tmp_path):
        g = warm(make_model(seed=17)).grow(3)
        path = tmp_path / "g.ckpt"
        save_checkpoint(path, g)
        loaded, header = load_checkpoint(path)
        assert header["num_heads"] == 3 and loaded.num_heads == 3
        assert loaded.head_dropout
        assert_params_equal(params_of(g), params_of(loaded))

    def test_save_before_grow_equals_grow_after_load(self, tmp_path):
        m = warm(make_model(seed=18))
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, m)
        loaded, _ = load_checkpoint(path)
        assert_params_equal(params_of(m.grow(4)), params_of(loaded.grow(4)))

    def test_corruptions_are_detected(self, tmp_path):
        m = warm(make_model(seed=21))
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, m)
        blob = path.read_bytes()

        bad = tmp_path / "bad.ckpt"

        bad.write_bytes(b"XXXX" + blob[4:])
        with pytest.raises(CheckpointError):
            load_checkpoint(bad)  # magic (caught by CRC first, still an error)

        flipped = bytearray(blob)
        flipped[100] ^= 0xFF
        bad.write_bytes(bytes(flipped))
        with pytest.raises(CheckpointError, match="CRC"):
            load_checkpoint(bad)

        bad.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError):
            load_checkpoint(bad)

        bad.write_bytes(blob[:4])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(bad)

        # junk between the last entry and the CRC, with a fresh valid CRC
        body = blob[:-4] + b"JUNK"
        bad.write_bytes(body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))
        with pytest.raises(CheckpointError, match="trailing"):
            load_checkpoint(bad)

    def test_unsupported_version_rejected(self, tmp_path):
        m = warm(make_model(seed=22))
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, m)
        body = bytearray(path.read_bytes()[:-4])
        struct.pack_into("<H", body, 4, VERSION + 1)
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(bytes(body) + struct.pack("<I", zlib.crc32(bytes(body)) & 0xFFFFFFFF))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(bad)

    def test_missing_entry_rejected(self, tmp_path):
        m = warm(make_model(seed=23))
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, m)
        header, arrays = read_entries(path)
        del arrays["enc.l0.c1.w"]
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(reserialize(header, arrays))
        with pytest.raises(CheckpointError, match="missing"):
            load_checkpoint(bad)

    def test_shape_mismatch_rejected(self, tmp_path):
        m = warm(make_model(seed=24))
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, m)
        header, arrays = read_entries(path)
        arrays["enc.l0.c1.w"] = arrays["enc.l0.c1.w"][:, :, :2, :2].copy()
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(reserialize(header, arrays))
        with pytest.raises(CheckpointError, match="shape"):
            load_checkpoint(bad)
