"""Tensor engine checks: forwards against loop oracles, backwards against
central finite differences of float64 reference twins, tape semantics,
determinism."""

import hashlib
import math
import tracemalloc
import weakref
from contextlib import nullcontext

import numpy as np
import pytest

from segadapt import autodiff as ad
from _oracles import (
    batchnorm_train_loop,
    bn_streaming_stats,
    bn_train_f64,
    conv2d_f64,
    conv2d_loop,
    finite_difference_check,
    leaky_f64,
    maxpool2d_loop,
    maxpool_f64,
    softmax_f64,
    softmax_loop,
    upsample2x_loop,
    wdice_f64,
)


def rand(shape, seed, lo=-2.0, hi=2.0):
    rng = np.random.default_rng(seed)
    return rng.uniform(lo, hi, size=shape).astype(np.float32)


def leaf(shape, seed, lo=-2.0, hi=2.0):
    return ad.Tensor(rand(shape, seed, lo, hi), requires_grad=True)


# sha256 of release_graph's leaf gradients, as the replay that kept every
# step and gradient until the tape was dropped computed them
RELEASE_DIGEST = "d2326ace75b930d8709c08e0fed5fdd92741caa302869cbdeb7ceb9a0002dbf3"


def release_graph(segment: bool) -> str:
    """Backward over two heads that share the leaves x, w, gamma and beta,
    each using its intermediate ``h`` twice (each head a ``Segment`` when
    ``segment``). Checks what backward leaves behind: an empty tape, no
    ``.grad`` on any tensor the tape made, and no array kept alive by the
    tape once the caller drops it. Returns the sha256 of the leaf gradients."""
    rng = np.random.default_rng(17)
    x = ad.Tensor(rng.standard_normal((2, 2, 6, 6)).astype(np.float32), requires_grad=True)
    w = ad.Tensor(rng.standard_normal((2, 2, 3, 3)).astype(np.float32), requires_grad=True)
    bn = ad.BatchNorm2d(2, leak=0.01)
    made = []

    def keep(t):
        made.append(t)
        return t

    with ad.Tape() as tape:
        heads = []
        for k in range(2):
            with ad.Segment() if segment else nullcontext():
                h = keep(bn.forward(keep(ad.conv2d(keep(ad.mul(x, k + 1.0)), w)), train=True))
                heads.append(keep(ad.tsum(keep(ad.mul(h, keep(ad.conv2d(h, w)))))))
        tape.backward(keep(ad.add(heads[0], heads[1])))
    assert len(tape) == 0
    assert [t for t in made if t.grad is not None] == []
    alive = [weakref.ref(t.data) for t in made]
    made.clear()
    heads.clear()
    del h
    assert [r for r in alive if r() is not None] == []  # while ``tape`` still lives
    digest = hashlib.sha256()
    for t in (x, w, bn.gamma, bn.beta):
        digest.update(t.grad.tobytes())
    return digest.hexdigest()


def conv_grads_f64(x, w, b, g):
    """y and the gradients of sum(conv2d(x, w, b) * g), all from conv2d_f64.

    dx is the oracle applied to g with the kernel flipped and its channel axes
    swapped (the adjoint of a same-padded correlation). dw[:, :, i, j]
    contracts g with the input shifted by tap (i, j), which is the oracle
    applied to each input plane with a one-tap kernel.
    """
    B, Cin, H, W = x.shape
    k = w.shape[2]
    dw = np.empty(w.shape)
    for i in range(k):
        for j in range(k):
            tap = np.zeros((1, 1, k, k))
            tap[0, 0, i, j] = 1.0
            shifted = conv2d_f64(x.reshape(B * Cin, 1, H, W), tap).reshape(B, Cin, H, W)
            dw[:, :, i, j] = np.tensordot(g, shifted, axes=([0, 2, 3], [0, 2, 3]))
    return {"y": conv2d_f64(x, w, b),
            "dx": conv2d_f64(g, w.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1]),
            "dw": dw,
            "db": g.sum(axis=(0, 2, 3), dtype=np.float64)}


def mirrored_leaf(seed):
    """[2,2,4,4] leaf whose second slice is minus its first, every entry at
    least 0.05 from zero: train-mode BatchNorm at gamma 1, beta 0 keeps each
    entry's sign, and every output stays clear of the activation's kink."""
    half = rand((1, 2, 4, 4), seed)
    half += np.sign(half) * np.float32(0.05)
    a = np.concatenate([half, -half])
    assert np.abs(ad.BatchNorm2d(2).forward(ad.Tensor(a), train=True).data).min() > 0.04
    return ad.Tensor(a, requires_grad=True)


def fd_assert(ad_fn, ref_fn, tensors, p99=1e-3, worst=1e-2, floor=0.01):
    rep = finite_difference_check(ad_fn, ref_fn, tensors, floor=floor)
    assert rep.p99 <= p99, f"99th percentile rel err {rep.p99}"
    assert rep.worst <= worst, f"worst rel err {rep.worst}"


# ---------------------------------------------------------------------
# elementwise ops
# ---------------------------------------------------------------------

class TestElementwise:
    def test_add_mul_sub_div_forward_match_python_loops(self):
        a = rand((3, 4), 1)
        b = rand((3, 4), 2, lo=0.5, hi=2.0)
        got = {
            "add": (ad.Tensor(a) + ad.Tensor(b)).data,
            "sub": (ad.Tensor(a) - ad.Tensor(b)).data,
            "mul": (ad.Tensor(a) * ad.Tensor(b)).data,
            "div": (ad.Tensor(a) / ad.Tensor(b)).data,
        }
        for i in range(3):
            for j in range(4):
                x, y = float(a[i, j]), float(b[i, j])
                assert abs(got["add"][i, j] - (x + y)) <= 1e-5
                assert abs(got["sub"][i, j] - (x - y)) <= 1e-5
                assert abs(got["mul"][i, j] - x * y) <= 1e-5
                assert abs(got["div"][i, j] - x / y) <= 1e-5

    def test_log_clamp_relu_forward_pointwise(self):
        a = rand((5, 5), 3, lo=0.1, hi=2.0)
        la = ad.log(ad.Tensor(a)).data
        for i in range(5):
            for j in range(5):
                assert abs(la[i, j] - math.log(float(a[i, j]))) <= 1e-5
        b = rand((5, 5), 4)
        assert np.array_equal(ad.clamp_min(ad.Tensor(b), 0.25).data,
                              np.maximum(b, np.float32(0.25)))
        # BatchNorm's activation on the plain (slope 1) output
        b4 = b.reshape(1, 1, 5, 5)
        plain = ad.BatchNorm2d(1).forward(ad.Tensor(b4), train=True).data[0, 0]
        relu = ad.BatchNorm2d(1, leak=0.0).forward(ad.Tensor(b4), train=True).data[0, 0]
        assert np.array_equal(relu, np.maximum(plain, 0))
        lr = ad.BatchNorm2d(1, leak=0.01).forward(ad.Tensor(b4), train=True).data[0, 0]
        for i in range(5):
            for j in range(5):
                x = float(plain[i, j])
                want = x if x > 0 else 0.01 * x
                assert abs(lr[i, j] - want) <= 1e-6

    def test_elementwise_gradients(self):
        a = leaf((3, 4), 10)
        b = leaf((3, 4), 11, lo=0.5, hi=2.0)

        def ref():
            x = a.data.astype(np.float64)
            y = b.data.astype(np.float64)
            return float(((x * y + x) / y - y).sum())

        fd_assert(lambda: ad.tsum((a * b + a) / b - b), ref, [a, b])

    def test_log_gradients(self):
        a = leaf((4, 4), 12, lo=0.2, hi=2.0)
        fd_assert(lambda: ad.tsum(ad.log(a)),
                  lambda: float(np.log(a.data.astype(np.float64)).sum()), [a])

    def test_clamp_gradients_away_from_knee(self):
        c = leaf((4, 4), 13)
        c.data[np.abs(c.data - 0.25) < 0.1] += 0.3  # keep h clear of the kink

        def ref():
            x = c.data.astype(np.float64)
            return float((np.maximum(x, 0.25) * x).sum())

        fd_assert(lambda: ad.tsum(ad.clamp_min(c, 0.25) * c), ref, [c])

    def test_clamp_passes_no_gradient_below_threshold(self):
        t = ad.Tensor(np.array([[-1.0, 2.0]], dtype=np.float32), requires_grad=True)
        with ad.Tape() as tape:
            tape.backward(ad.tsum(ad.clamp_min(t, 0.0)))
        assert t.grad.tolist() == [[0.0, 1.0]]

    def test_leaky_relu_gradients(self):
        a = mirrored_leaf(14)
        bn = ad.BatchNorm2d(2, leak=0.01)

        def ref():
            h = leaky_f64(bn_train_f64(a.data, bn.gamma.data, bn.beta.data, bn.eps))
            return float((h * a.data.astype(np.float64)).sum())

        fd_assert(lambda: ad.tsum(bn.forward(a, train=True) * a), ref, [a, bn.gamma, bn.beta])

    def test_relu_gradients(self):
        a = mirrored_leaf(17)
        bn = ad.BatchNorm2d(2, leak=0.0)

        def ref():
            h = np.maximum(bn_train_f64(a.data, bn.gamma.data, bn.beta.data, bn.eps), 0)
            return float((h * a.data.astype(np.float64)).sum())

        fd_assert(lambda: ad.tsum(bn.forward(a, train=True) * a), ref, [a, bn.gamma, bn.beta])

    def test_broadcasting_gradient_reduces_correctly(self):
        a = leaf((3, 1, 4), 15)
        b = leaf((5, 1), 16)

        def ref():
            x = a.data.astype(np.float64)
            y = b.data.astype(np.float64)
            return float((x * y + y).sum())

        fd_assert(lambda: ad.tsum(a * b + b), ref, [a, b])


# ---------------------------------------------------------------------
# reductions, indexing, spatial permutations
# ---------------------------------------------------------------------

class TestShapeOps:
    def test_sum_and_mean_match_python_sums(self):
        a = rand((2, 3, 4), 20)
        s = ad.tsum(ad.Tensor(a)).data
        assert abs(float(s) - sum(float(v) for v in a.reshape(-1))) <= 1e-4
        m = ad.tmean(ad.Tensor(a), axis=2).data
        for i in range(2):
            for j in range(3):
                want = sum(float(a[i, j, k]) for k in range(4)) / 4
                assert abs(m[i, j] - want) <= 1e-5

    def test_keepdims_shapes(self):
        a = ad.Tensor(rand((2, 3, 4), 21))
        assert ad.tsum(a, axis=1, keepdims=True).data.shape == (2, 1, 4)
        assert ad.tmean(a, axis=(0, 2), keepdims=True).data.shape == (1, 3, 1)

    def test_reduction_gradients(self):
        a = leaf((3, 4), 22)

        def ref():
            m = a.data.astype(np.float64).mean(axis=0)
            return float((m * m).sum())

        fd_assert(lambda: ad.tsum(ad.tmean(a, axis=0) * ad.tmean(a, axis=0)), ref, [a])

    def test_permute_matches_index_arithmetic_and_finite_differences(self):
        # flip along H, then one counter-clockwise quarter turn; backward undoes both
        a = leaf((1, 2, 4, 4), 27)
        fwd = lambda x: np.rot90(np.flip(x, axis=-2), 1, axes=(-2, -1))
        bwd = lambda g: np.flip(np.rot90(g, -1, axes=(-2, -1)), axis=-2)
        r = ad.permute(a, fwd, bwd).data
        assert r.flags.c_contiguous
        n = 4
        for y in range(n):
            for x in range(n):
                assert np.array_equal(r[:, :, y, x], a.data[:, :, n - 1 - x, n - 1 - y])
        g = np.arange(32, dtype=np.float32).reshape(1, 2, 4, 4)

        def ref():
            return float((fwd(a.data).astype(np.float64) * g.astype(np.float64)).sum())

        # permutation of a linear probe: gradients should be near-exact
        fd_assert(lambda: ad.tsum(ad.permute(a, fwd, bwd) * ad.Tensor(g)), ref, [a],
                  floor=1e-3)


# ---------------------------------------------------------------------
# softmax
# ---------------------------------------------------------------------

class TestSoftmax:
    def test_zero_logits_give_uniform(self):
        p = ad.softmax_channel(ad.Tensor(np.zeros((1, 2, 3, 3), np.float32))).data
        assert np.allclose(p, 0.5, atol=1e-7)

    def test_known_two_class_value(self):
        logits = np.zeros((1, 2, 1, 1), np.float32)
        logits[0, 1] = math.log(3.0)
        p = ad.softmax_channel(ad.Tensor(logits)).data
        assert abs(p[0, 0, 0, 0] - 0.25) <= 1e-6
        assert abs(p[0, 1, 0, 0] - 0.75) <= 1e-6

    def test_matches_loop_oracle_and_sums_to_one(self):
        logits = rand((2, 3, 4, 4), 30, lo=-4, hi=4)
        p = ad.softmax_channel(ad.Tensor(logits)).data
        assert np.abs(p - softmax_loop(logits)).max() <= 1e-5
        assert np.abs(p.sum(axis=1) - 1.0).max() <= 1e-6

    def test_rejects_three_dim_input(self):
        with pytest.raises(ValueError):
            ad.softmax_channel(ad.Tensor(rand((3, 4, 4), 33)))

    def test_large_logits_stay_finite(self):
        logits = np.full((1, 3, 2, 2), 200.0, np.float32)
        p = ad.softmax_channel(ad.Tensor(logits)).data
        assert np.isfinite(p).all()

    def test_gradient(self):
        a = leaf((1, 3, 3, 3), 31)
        g = rand((1, 3, 3, 3), 32)

        def ref():
            return float((softmax_f64(a.data) * g.astype(np.float64)).sum())

        fd_assert(lambda: ad.tsum(ad.softmax_channel(a) * ad.Tensor(g)), ref, [a])


# ---------------------------------------------------------------------
# dropout
# ---------------------------------------------------------------------

class TestDropout:
    def test_rate_zero_and_eval_are_identity(self):
        a = ad.Tensor(rand((8, 8), 40))
        assert ad.dropout(a, 0.0, np.random.default_rng(0), train=True) is a
        assert ad.dropout(a, 0.7, np.random.default_rng(0), train=False) is a

    def test_statistics_at_half_rate(self):
        a = ad.Tensor(np.ones((100000,), np.float32))
        out = ad.dropout(a, 0.5, np.random.default_rng(123), train=True).data
        dropped = float((out == 0).mean())
        assert abs(dropped - 0.5) <= 0.01
        assert abs(out.mean() - 1.0) <= 0.02  # inverted scaling preserves the mean

    def test_survivors_scaled_by_inverse_keep_probability(self):
        a = ad.Tensor(np.ones((1000,), np.float32))
        out = ad.dropout(a, 0.25, np.random.default_rng(5), train=True).data
        kept = out[out != 0]
        assert np.allclose(kept, 1.0 / 0.75, atol=1e-6)

    def test_mask_comes_only_from_the_supplied_rng(self):
        a = ad.Tensor(rand((64,), 41))
        o1 = ad.dropout(a, 0.5, np.random.default_rng(9), train=True).data
        o2 = ad.dropout(a, 0.5, np.random.default_rng(9), train=True).data
        o3 = ad.dropout(a, 0.5, np.random.default_rng(10), train=True).data
        assert np.array_equal(o1, o2)
        assert not np.array_equal(o1, o3)

    def test_bad_rate_rejected(self):
        a = ad.Tensor(rand((4,), 42))
        for rate in (-0.1, 1.0, 1.5):
            with pytest.raises(ValueError):
                ad.dropout(a, rate, np.random.default_rng(0), train=True)

    def test_gradient_is_mask_times_scale(self):
        a = ad.Tensor(rand((100,), 43), requires_grad=True)
        with ad.Tape() as tape:
            out = ad.dropout(a, 0.5, np.random.default_rng(3), train=True)
            tape.backward(ad.tsum(out))
        zeros = out.data == 0
        assert np.all(a.grad[zeros] == 0)
        assert np.allclose(a.grad[~zeros], 2.0, atol=1e-6)


# ---------------------------------------------------------------------
# conv2d
# ---------------------------------------------------------------------

class TestConv2d:
    def test_all_ones_field(self):
        x = ad.Tensor(np.ones((1, 1, 3, 3), np.float32))
        w = ad.Tensor(np.ones((1, 1, 3, 3), np.float32))
        y = ad.conv2d(x, w).data[0, 0]
        assert y[1, 1] == 9.0
        assert y[0, 0] == y[0, 2] == y[2, 0] == y[2, 2] == 4.0

    def test_identity_kernel(self):
        x = ad.Tensor(rand((2, 1, 5, 5), 50))
        w = np.zeros((1, 1, 3, 3), np.float32)
        w[0, 0, 1, 1] = 1.0
        y = ad.conv2d(x, ad.Tensor(w)).data
        assert np.array_equal(y[:, 0], x.data[:, 0])

    def test_matches_six_loop_oracle(self):
        x = rand((1, 2, 5, 5), 51)
        w = rand((3, 2, 3, 3), 52)
        b = rand((3,), 53)
        y = ad.conv2d(ad.Tensor(x), ad.Tensor(w), ad.Tensor(b)).data
        assert np.abs(y - conv2d_loop(x, w, b)).max() <= 1e-5

    def test_one_by_one_kernel(self):
        x = rand((2, 3, 4, 4), 62)
        w = rand((2, 3, 1, 1), 63)
        y = ad.conv2d(ad.Tensor(x), ad.Tensor(w)).data
        assert np.abs(y - conv2d_loop(x, w)).max() <= 1e-5

    def test_skip_convolves_the_channel_concatenation(self):
        a = leaf((2, 2, 3, 3), 23)
        s = leaf((2, 4, 3, 3), 24)
        w = leaf((3, 6, 3, 3), 25)
        b = leaf((3,), 26)
        g = rand((2, 3, 3, 3), 27)
        cat = np.concatenate([a.data, s.data], axis=1)
        y = ad.conv2d(a, w, b, skip=s).data
        assert np.abs(y - conv2d_loop(cat, w.data, b.data)).max() <= 1e-5

        def ref():
            c = np.concatenate([a.data, s.data], axis=1)
            return float((conv2d_f64(c, w.data, b.data) * g.astype(np.float64)).sum())

        fd_assert(lambda: ad.tsum(ad.conv2d(a, w, b, skip=s) * ad.Tensor(g)), ref, [a, s, w, b])

    def test_gradients_match_finite_differences(self):
        x = leaf((1, 2, 5, 5), 54)
        w = leaf((3, 2, 3, 3), 55)
        b = leaf((3,), 56)
        g = rand((1, 3, 5, 5), 57)

        def ref():
            return float((conv2d_f64(x.data, w.data, b.data) * g.astype(np.float64)).sum())

        fd_assert(lambda: ad.tsum(ad.conv2d(x, w, b) * ad.Tensor(g)), ref, [x, w, b])

    @pytest.mark.parametrize("xshape,cout,k", [
        ((1, 2, 5, 5), 3, 3),
        ((2, 1, 4, 6), 2, 3),         # Cin=1, H != W
        ((1, 3, 6, 4), 2, 1),         # B=1, 1x1 kernel, H != W
        ((2, 3, 5, 7), 4, 5),
        ((10, 16, 64, 64), 8, 3),     # the benchmark's widest decoder conv
    ], ids=["5x5-k3", "Cin1-4x6", "B1-k1-6x4", "5x7-k5", "bench-64x64"])
    def test_sweep_matches_float64_oracle(self, xshape, cout, k):
        seed = 64 + sum(xshape) + cout + k
        x = leaf(xshape, seed)
        w = leaf((cout, xshape[1], k, k), seed + 1)
        b = leaf((cout,), seed + 2)
        g = rand((xshape[0], cout) + xshape[2:], seed + 3)
        with ad.Tape() as tape:
            y = ad.conv2d(x, w, b)
            tape.backward(ad.tsum(y * ad.Tensor(g)))
        want = conv_grads_f64(x.data, w.data, b.data, g)
        for name, got in zip(("y", "dx", "dw", "db"), (y.data, x.grad, w.grad, b.grad)):
            ref = want[name]
            assert got.shape == ref.shape and got.dtype == np.float32, name
            # the 1e-5 forward tolerance, relative to the magnitude of the result
            err = np.abs(got - ref).max() / max(1.0, np.abs(ref).max())
            assert err <= 1e-5, (name, err)
        # x.grad stays in the channels-last memory layout of the forward output.
        # The seed-42 LOCKED dice values depend on it: numpy reductions over
        # the gradient (BatchNorm, bias) sum in memory order, so another
        # layout rounds differently.
        assert x.grad.transpose(0, 2, 3, 1).flags.c_contiguous

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ad.conv2d(ad.Tensor(rand((1, 3, 4, 4), 58)), ad.Tensor(rand((2, 2, 3, 3), 59)))
        with pytest.raises(ValueError):
            ad.conv2d(ad.Tensor(rand((1, 2, 4, 4), 60)), ad.Tensor(rand((2, 2, 2, 2), 61)))
        x, w = ad.Tensor(rand((1, 2, 4, 4), 64)), ad.Tensor(rand((2, 3, 3, 3), 65))
        for skip in ((1, 2, 4, 4), (1, 1, 4, 2), (2, 1, 4, 4), (1, 4, 4)):
            with pytest.raises(ValueError):  # channels, size, batch, rank
                ad.conv2d(x, w, skip=ad.Tensor(rand(skip, 66)))


# ---------------------------------------------------------------------
# pooling and upsampling
# ---------------------------------------------------------------------

class TestPoolingUpsampling:
    def test_maxpool_matches_loop_oracle(self):
        x = rand((2, 3, 6, 6), 70)
        y = ad.maxpool2d(ad.Tensor(x)).data
        assert np.array_equal(y, maxpool2d_loop(x).astype(np.float32))

    def test_maxpool_keeps_the_first_of_tied_signed_zeros(self):
        # +0.0 == -0.0, so only the bytes show which window position won
        rng = np.random.default_rng(75)
        x = np.where(rng.random((2, 3, 8, 8)) < 0.5, np.float32(0.0), np.float32(-0.0))
        channels_last = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
        for arr in (x, channels_last):
            y = ad.maxpool2d(ad.Tensor(arr)).data
            assert y.flags.c_contiguous
            assert y.tobytes() == maxpool2d_loop(arr).tobytes()

    def test_maxpool_tie_routes_gradient_to_first_position(self):
        x = ad.Tensor(np.ones((1, 1, 2, 2), np.float32), requires_grad=True)
        with ad.Tape() as tape:
            tape.backward(ad.tsum(ad.maxpool2d(x)))
        assert x.grad[0, 0].tolist() == [[1.0, 0.0], [0.0, 0.0]]

    def test_maxpool_gradient(self):
        x = leaf((1, 2, 4, 4), 71)
        # keep every window's max unique by more than h
        x.data += np.linspace(0, 0.13, x.data.size).reshape(x.data.shape).astype(np.float32)

        def ref():
            m = maxpool_f64(x.data)
            return float((m * m).sum())

        fd_assert(lambda: ad.tsum(ad.maxpool2d(x) * ad.maxpool2d(x)), ref, [x])

    def test_odd_sizes_rejected(self):
        with pytest.raises(ValueError):
            ad.maxpool2d(ad.Tensor(rand((1, 1, 5, 4), 72)))

    def test_upsample_matches_loop_oracle(self):
        x = rand((2, 2, 3, 3), 73)
        assert np.array_equal(ad.upsample_nearest2x(ad.Tensor(x)).data, upsample2x_loop(x))

    def test_upsample_gradient_sums_blocks(self):
        x = ad.Tensor(rand((1, 1, 2, 2), 74), requires_grad=True)
        g = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        with ad.Tape() as tape:
            tape.backward(ad.tsum(ad.upsample_nearest2x(x) * ad.Tensor(g)))
        want = np.array([[[[g[0, 0, :2, :2].sum(), g[0, 0, :2, 2:].sum()],
                           [g[0, 0, 2:, :2].sum(), g[0, 0, 2:, 2:].sum()]]]], np.float32)
        assert np.array_equal(x.grad, want)


# ---------------------------------------------------------------------
# batch normalization
# ---------------------------------------------------------------------

class TestBatchNorm:
    def test_constant_channel_outputs_beta(self):
        bn = ad.BatchNorm2d(2)
        bn.beta.data[:] = np.array([1.5, -2.0], np.float32)
        x = ad.Tensor(np.full((3, 2, 4, 4), 7.0, np.float32))
        out = bn.forward(x, train=True).data
        assert np.allclose(out[:, 0], 1.5, atol=1e-4)
        assert np.allclose(out[:, 1], -2.0, atol=1e-4)

    def test_train_mode_normalizes_to_zero_mean_unit_variance(self):
        bn = ad.BatchNorm2d(3)
        x = ad.Tensor(rand((4, 3, 5, 5), 80, lo=-3, hi=5))
        out = bn.forward(x, train=True).data
        for c in range(3):
            vals = out[:, c]
            assert abs(vals.mean()) <= 1e-5
            assert abs(vals.var() - 1.0) <= 1e-3  # eps shrinks the variance slightly

    def test_train_output_matches_loop_oracle(self):
        bn = ad.BatchNorm2d(2)
        bn.gamma.data[:] = np.array([1.3, 0.7], np.float32)
        bn.beta.data[:] = np.array([-0.2, 0.4], np.float32)
        x = rand((2, 2, 3, 3), 81)
        out = bn.forward(ad.Tensor(x), train=True).data
        want, _, _ = batchnorm_train_loop(x, bn.gamma.data, bn.beta.data, bn.eps)
        assert np.abs(out - want).max() <= 1e-5

    def test_running_stats_match_streaming_oracle_after_two_batches(self):
        bn = ad.BatchNorm2d(2)
        batches = [rand((3, 2, 4, 4), s, lo=-1, hi=3) for s in (82, 83)]
        for b in batches:
            bn.forward(ad.Tensor(b), train=True)
        rm, rv = bn_streaming_stats(batches, bn.momentum)
        assert np.abs(bn.running_mean - rm).max() <= 1e-6
        assert np.abs(bn.running_var - rv).max() <= 1e-6
        assert bn.num_batches == 2

    def test_eval_uses_running_stats_not_batch_stats(self):
        bn = ad.BatchNorm2d(1)
        bn.forward(ad.Tensor(rand((2, 1, 4, 4), 84)), train=True)
        frozen_mean = bn.running_mean.copy()
        x = rand((2, 1, 4, 4), 85, lo=5, hi=9)  # very different batch
        out = bn.forward(ad.Tensor(x), train=False).data
        assert np.array_equal(bn.running_mean, frozen_mean)
        inv = 1.0 / np.sqrt(bn.running_var + np.float32(bn.eps))
        want = (x - bn.running_mean.reshape(1, 1, 1, 1)) * inv.reshape(1, 1, 1, 1)
        assert np.abs(out - want).max() <= 1e-6

    def test_eval_before_any_batch_raises(self):
        bn = ad.BatchNorm2d(1)
        with pytest.raises(RuntimeError):
            bn.forward(ad.Tensor(rand((1, 1, 2, 2), 86)), train=False)

    def test_gradients_match_finite_differences(self):
        bn = ad.BatchNorm2d(2)
        x = leaf((2, 2, 3, 3), 89)

        def ad_loss():
            out = bn.forward(x, train=True)
            return ad.tsum(out * out)

        def ref():
            out = bn_train_f64(x.data, bn.gamma.data, bn.beta.data, bn.eps)
            return float((out * out).sum())

        fd_assert(ad_loss, ref, [x, bn.gamma, bn.beta])

    def test_eval_gradients_match_finite_differences(self):
        bn = ad.BatchNorm2d(2)
        bn.forward(ad.Tensor(rand((2, 2, 3, 3), 93, lo=-1, hi=3)), train=True)
        bn.gamma.data[:] = np.array([1.3, -0.6], np.float32)
        bn.beta.data[:] = np.array([0.2, -0.4], np.float32)
        x = leaf((2, 2, 3, 3), 94)

        def ad_loss():
            out = bn.forward(x, train=False)
            return ad.tsum(out * out)

        def ref():
            c = (1, 2, 1, 1)
            rm = bn.running_mean.astype(np.float64).reshape(c)
            invstd = 1.0 / np.sqrt(bn.running_var.astype(np.float64).reshape(c) + bn.eps)
            gamma = bn.gamma.data.astype(np.float64).reshape(c)
            beta = bn.beta.data.astype(np.float64).reshape(c)
            out = (x.data.astype(np.float64) - rm) * invstd * gamma + beta
            return float((out * out).sum())

        fd_assert(ad_loss, ref, [x, bn.gamma, bn.beta])

    def test_taped_train_forward_keeps_no_normalized_copy(self):
        bn = ad.BatchNorm2d(8)
        x = leaf((10, 8, 32, 32), 97)
        tracemalloc.start()
        try:
            with ad.Tape():
                before = tracemalloc.get_traced_memory()[0]
                y = bn.forward(x, train=True)
                grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown < 1.5 * y.data.nbytes  # the output, not also x-hat

    def test_taped_conv_unit_keeps_no_pre_activation_copy(self):
        bn = ad.BatchNorm2d(8, leak=0.01)
        x = leaf((10, 8, 32, 32), 102)
        w = leaf((8, 8, 3, 3), 103)
        ad.conv2d(x, w)  # conv2d's reused scratch buffers, made before counting
        tracemalloc.start()
        try:
            with ad.Tape():
                before = tracemalloc.get_traced_memory()[0]
                y = bn.forward(ad.conv2d(x, w), train=True)
                grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # the conv output and the activated output, not also BatchNorm's
        # output before the activation
        assert grown < 2.5 * y.data.nbytes

    @pytest.mark.parametrize("train", [True, False], ids=["train", "eval"])
    def test_forward_peak_is_its_output_and_one_temporary(self, train):
        bn = ad.BatchNorm2d(8, leak=0.01)
        # channels-last, as conv2d makes it
        x = ad.Tensor(rand((10, 64, 64, 8), 104).transpose(0, 3, 1, 2))
        bn.forward(x, train=True)  # running statistics for eval
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            bn.forward(x, train=train)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        # the output and leak * y, not also the affine chain's temporaries
        assert peak <= 2.5 * x.data.nbytes

    def test_eval_step_keeps_the_running_mean_it_normalized_with(self):
        def grads(train_forward_between: bool):
            bn = ad.BatchNorm2d(2)
            bn.forward(ad.Tensor(rand((2, 2, 4, 4), 98, lo=-1, hi=3)), train=True)
            x = leaf((2, 2, 4, 4), 99)
            g = rand((2, 2, 4, 4), 100)
            with ad.Tape() as tape:
                y = bn.forward(x, train=False)
                if train_forward_between:  # rebinds running_mean, as the next head does
                    bn.forward(ad.Tensor(rand((2, 2, 4, 4), 101, lo=4, hi=8)), train=True)
                tape.backward(ad.tsum(ad.mul(y, g)))
            return x.grad, bn.gamma.grad, bn.beta.grad

        for ours, ref in zip(grads(True), grads(False)):
            assert np.array_equal(ours, ref)


# ---------------------------------------------------------------------
# tape and backward semantics
# ---------------------------------------------------------------------

class TestTape:
    def test_sum_of_squares_gradient(self):
        x = ad.Tensor(np.array([1.0, 2.0, 3.0], np.float32), requires_grad=True)
        with ad.Tape() as tape:
            tape.backward(ad.tsum(x * x))
        assert x.grad.tolist() == [2.0, 4.0, 6.0]

    def test_identity_gradient_is_one(self):
        x = ad.Tensor(np.array(5.0, np.float32), requires_grad=True)
        with ad.Tape() as tape:
            y = x + 0.0
            tape.backward(y)
        assert float(x.grad) == 1.0

    def test_tensor_used_twice_accumulates_once_per_use(self):
        x = ad.Tensor(np.array([3.0], np.float32), requires_grad=True)
        with ad.Tape() as tape:
            tape.backward(ad.tsum(x + x))
        assert float(x.grad[0]) == 2.0

    def test_backward_requires_scalar(self):
        x = ad.Tensor(rand((3,), 90), requires_grad=True)
        with ad.Tape() as tape:
            y = x * x
            with pytest.raises(ValueError):
                tape.backward(y)

    def test_tape_replay_is_single_use(self):
        x = ad.Tensor(np.array([1.0], np.float32), requires_grad=True)
        with ad.Tape() as tape:
            loss = ad.tsum(x * x)
        tape.backward(loss)
        with pytest.raises(RuntimeError):
            tape.backward(loss)

    def test_tapes_do_not_nest(self):
        with ad.Tape():
            with pytest.raises(RuntimeError):
                with ad.Tape():
                    pass

    def test_ops_outside_a_tape_record_nothing(self):
        x = ad.Tensor(np.array([2.0], np.float32), requires_grad=True)
        y = x * x  # no active tape: nothing recorded anywhere
        with ad.Tape() as tape:
            assert len(tape) == 0
            z = y * 1.0
            tape.backward(ad.tsum(z))
        assert x.grad is None  # the pre-tape multiply is invisible to backward

    def test_ops_on_constants_inside_a_tape_record_nothing(self):
        x = ad.Tensor(rand((1, 2, 4, 4), 95))
        w = ad.Tensor(rand((3, 4, 3, 3), 96))
        with ad.Tape() as tape:
            y = ad.maxpool2d(ad.conv2d(x, w, np.zeros(3, np.float32), skip=x))
            assert not y.requires_grad
            assert len(tape) == 0

    def test_backward_releases_what_it_replayed(self):
        assert release_graph(segment=False) == RELEASE_DIGEST

    def test_float32_preserved_through_the_graph(self):
        x = leaf((2, 2, 4, 4), 91)
        w = leaf((2, 2, 3, 3), 92)
        out = ad.softmax_channel(ad.conv2d(x, w))
        assert out.data.dtype == np.float32
        with ad.Tape() as tape:
            tape.backward(ad.tsum(ad.conv2d(x, w)))
        assert x.grad.dtype == np.float32 and w.grad.dtype == np.float32


# ---------------------------------------------------------------------
# composite graph
# ---------------------------------------------------------------------

def test_composite_conv_bn_relu_softmax_dice_gradients():
    """Whole small graph, every parameter checked against finite differences
    of an independent float64 chain."""
    from segadapt.losses import dice_loss

    x = leaf((1, 2, 8, 8), 100)
    w = leaf((2, 2, 3, 3), 101)
    b = leaf((2,), 102)
    bn = ad.BatchNorm2d(2, leak=0.01)
    y = np.eye(2, dtype=np.float32)[(rand((8, 8), 103) > 0).astype(int)].transpose(2, 0, 1)[None]
    m = np.ones((1, 8, 8), np.float32)

    def ad_loss():
        h = ad.conv2d(x, w, b)
        h = bn.forward(h, train=True)
        p = ad.softmax_channel(h)
        return dice_loss([p], y, m)

    def ref():
        h = conv2d_f64(x.data, w.data, b.data)
        h = bn_train_f64(h, bn.gamma.data, bn.beta.data, bn.eps)
        h = leaky_f64(h)
        p = softmax_f64(h)
        return wdice_f64(p, y, m)

    fd_assert(ad_loss, ref, [x, w, b, bn.gamma, bn.beta])


def test_identical_runs_give_bitwise_identical_gradients():
    def run():
        x = leaf((1, 2, 6, 6), 110)
        w = leaf((3, 2, 3, 3), 111)
        bn = ad.BatchNorm2d(3)
        with ad.Tape() as tape:
            h = bn.forward(ad.conv2d(x, w), train=True)
            p = ad.softmax_channel(h)
            tape.backward(ad.tsum(p * p))
        return x.grad.copy(), w.grad.copy()

    g1 = run()
    g2 = run()
    assert np.array_equal(g1[0], g2[0])
    assert np.array_equal(g1[1], g2[1])
