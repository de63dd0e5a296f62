"""The worker pool and the fast paths keep every bit: conv2d's slice blocks
against one GEMM over the batch, concurrent head segments against a serial
replay, the golden fit digests at pool width 1 and 2, and public calls on
the main thread only. Each test forces every split, so toy sizes take the
pool, but for conv2d's input gradient at pool width 1 and 2 under each
OpenBLAS core type, which runs in a child process at the default split.
conv2d also meets NaN, infinities and -0.0. The per-channel sums and
softmax folds are swept over layouts against numpy's reductions, and
BatchNorm against its 4-D expressions."""

import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import pytest

import segadapt
from segadapt import autodiff as ad
from segadapt.config import AdaptConfig
from segadapt.estimators import MultiHeadAdapter
from _oracles import batchnorm_4d
from test_autodiff import RELEASE_DIGEST, release_graph
from test_estimators import GOLDEN, fit_digest, pretrained, toy_data  # noqa: F401 (fixtures)

pytest_plugins = ["pytester"]


@pytest.fixture
def pool(monkeypatch):
    """``pool(width)`` makes every conv2d and segment replay split across a
    fresh pool of ``width`` workers; returns the list of submitted tasks.
    Only that pool is shut down: a test that never calls ``pool`` leaves the
    process-wide one to the tests after it."""
    submitted, forced = [], []

    class CountingPool(ThreadPoolExecutor):
        def submit(self, fn, *args, **kwargs):
            submitted.append(fn)
            return super().submit(fn, *args, **kwargs)

    def force(width):
        monkeypatch.setattr(ad, "_WORKERS", width)
        monkeypatch.setattr(ad, "_MIN_SHARE_FLOP", 0)
        monkeypatch.setattr(ad, "_BLOCK_BYTES", 1)  # one slice per block
        monkeypatch.setattr(ad, "_pool", None)
        monkeypatch.setattr(ad, "ThreadPoolExecutor", CountingPool)
        forced.append(width)
        return submitted

    yield force
    if forced and ad._pool is not None:
        ad._pool.shutdown()


def unsplit_conv(x, w, b, g):
    """y, dw and dx of conv2d as one GEMM each over the whole batch."""
    Cout, Cin, k, _ = w.shape
    p = (k - 1) // 2
    B, _, H, W = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(2, 3))
    cols = np.ascontiguousarray(win.transpose(1, 4, 5, 0, 2, 3)).reshape(Cin * k * k, B * H * W)
    w2d = w.reshape(Cout, Cin * k * k)
    y = (cols.T @ w2d.T + b).reshape(B, H, W, Cout).transpose(0, 3, 1, 2)
    g2d = g.transpose(1, 0, 2, 3).reshape(Cout, B * H * W)
    dw = (g2d @ cols.T).reshape(w.shape)
    dcols = (w2d.T @ g2d).reshape(Cin, k, k, B, H, W)
    dxp = np.zeros((Cin, B, H + 2 * p, W + 2 * p), np.float32)
    for i in range(k):
        for j in range(k):
            dxp[:, :, i : i + H, j : j + W] += dcols[:, i, j]
    return y, dw, dxp[:, :, p : p + H, p : p + W].transpose(1, 0, 2, 3)


def same_bytes(a, b):
    return a.shape == b.shape and np.ascontiguousarray(a).tobytes() == \
        np.ascontiguousarray(b).tobytes()


def same_bytes_but_nan_signs(a, b):
    """``same_bytes`` once every NaN reads +NaN. Where NaNs of both signs
    meet in a sum, the result takes either, by the operand order of the
    kernel (a GEMM's edge columns, einsum against numpy's sum)."""
    return same_bytes(*(np.where(np.isnan(v), np.float32(np.nan), v) for v in (a, b)))


# (B, Cin, Cout, H, k): the toy pipeline's 16x16 B=10 8->8 layer, the
# model's widest reduction (32 channels x 3x3 = 288), the 1-channel image,
# 1x1 heads, a 5x5 kernel, odd batches and a batch of one
CONV_SHAPES = [(10, 8, 8, 16, 3), (10, 32, 32, 16, 3), (10, 32, 16, 8, 3), (7, 16, 8, 16, 3),
               (10, 1, 8, 16, 3), (10, 8, 3, 16, 1), (3, 16, 32, 4, 3), (5, 2, 4, 12, 5),
               (1, 8, 8, 16, 3), (6, 24, 16, 32, 3)]


def assert_conv_matches_unsplit(B, Cin, Cout, H, k):
    rng = np.random.default_rng(B * 1000 + Cin * 10 + k)
    xd = rng.standard_normal((B, Cin, H, H)).astype(np.float32)
    wd = rng.standard_normal((Cout, Cin, k, k)).astype(np.float32)
    bd = rng.standard_normal(Cout).astype(np.float32)
    g = rng.standard_normal((B, Cout, H, H)).astype(np.float32)
    x, w, b = (ad.Tensor(a, requires_grad=True) for a in (xd, wd, bd))
    with ad.Tape() as tape:
        y = ad.conv2d(x, w, b)
        tape.backward(ad.tsum(ad.mul(y, g)))
    y_ref, dw_ref, dx_ref = unsplit_conv(xd, wd, bd, g)
    assert same_bytes(y.data, y_ref)
    assert same_bytes(w.grad, dw_ref)
    assert same_bytes(x.grad, dx_ref)


@pytest.mark.parametrize("B,Cin,Cout,H,k", CONV_SHAPES)
def test_slice_blocks_match_one_gemm_over_the_batch(pool, B, Cin, Cout, H, k):
    tasks = pool(2)
    assert_conv_matches_unsplit(B, Cin, Cout, H, k)
    assert tasks if B > 1 else not tasks  # the blocks did go to the pool


@pytest.mark.parametrize("width", [1, 2])
@pytest.mark.parametrize("B,Cin,Cout,H,k", [s for s in CONV_SHAPES if s[1] > 1])
def test_skip_matches_the_concatenated_input(pool, width, B, Cin, Cout, H, k):
    """conv2d(x, w, b, skip=s) against conv2d of the concatenation of x and
    s: the output and every gradient, bit for bit."""
    pool(width)
    rng = np.random.default_rng(B * 1000 + Cin * 10 + k)
    cat = rng.standard_normal((B, Cin, H, H)).astype(np.float32)
    wd = rng.standard_normal((Cout, Cin, k, k)).astype(np.float32)
    bd = rng.standard_normal(Cout).astype(np.float32)
    g = rng.standard_normal((B, Cout, H, H)).astype(np.float32)
    c = Cin // 2

    x, s, w, b = (ad.Tensor(a, requires_grad=True) for a in (cat[:, :c], cat[:, c:], wd, bd))
    xc, wc, bc = (ad.Tensor(a, requires_grad=True) for a in (cat, wd, bd))
    with ad.Tape() as tape:
        y = ad.conv2d(x, w, b, skip=s)
        tape.backward(ad.tsum(ad.mul(y, g)))
    with ad.Tape() as tape:
        y_ref = ad.conv2d(xc, wc, bc)
        tape.backward(ad.tsum(ad.mul(y_ref, g)))
    for ours, ref in ((y.data, y_ref.data), (x.grad, xc.grad[:, :c]), (s.grad, xc.grad[:, c:]),
                      (w.grad, wc.grad), (b.grad, bc.grad)):
        assert same_bytes(ours, ref)


def spiked(rng, shape):
    """Normals with one NaN, -NaN, inf and -inf each at random places, and
    the first half of the last slice's rows all -0.0."""
    a = rng.standard_normal(shape).astype(np.float32)
    spots = rng.choice(a.size, 4, replace=False)
    a.reshape(-1)[spots] = np.array([np.nan, -np.nan, np.inf, -np.inf], np.float32)
    a[-1, :, : (shape[2] + 1) // 2] = -0.0
    return a


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # raised on pool threads too
@pytest.mark.parametrize("split", [None, 1, 2], ids=["one-block", "width1", "width2"])
@pytest.mark.parametrize("B,Cin,Cout,H,k,skip",
                         [(*s, skip) for s in CONV_SHAPES + [(3, 4, 4, 8, 3)]
                          for skip in (False, True) if s[1] > 1 or not skip])
def test_nonfinite_and_signed_zero_values_match_one_gemm(pool, monkeypatch, split,
                                                         B, Cin, Cout, H, k, skip):
    """y, dw, dx and dskip against ``unsplit_conv`` (col2im by k*k slice-adds)
    with NaN of both signs, +-inf and -0.0 in w and g, as one block or one
    slice per block at pool width 1 and 2. The input gradient adds whole
    padded rows, so a slice's pad columns land on the interior's edge and in
    the next slice's first rows, and must add only +-0.0, also where w * 0 is
    NaN: the 3-slice 8x8 row holds just a NaN in w's last kernel row, whose
    pad columns reach the next slice."""
    pool(split or 1)
    if split is None:
        monkeypatch.setattr(ad, "_MIN_SHARE_FLOP", np.inf)  # the input gradient as one block
    rng = np.random.default_rng(B * 1000 + Cin * 10 + k)
    cat = rng.standard_normal((B, Cin, H, H)).astype(np.float32)
    bd = rng.standard_normal(Cout).astype(np.float32)
    if (B, Cin, Cout, H, k) == (3, 4, 4, 8, 3):
        wd = rng.standard_normal((Cout, Cin, k, k)).astype(np.float32)
        wd[1, 2, 2, 1] = np.nan
        g = rng.standard_normal((B, Cout, H, H)).astype(np.float32)
    else:
        wd, g = spiked(rng, (Cout, Cin, k, k)), spiked(rng, (B, Cout, H, H))
    c = Cin // 2 if skip else Cin
    x, s, w, b = (ad.Tensor(a, requires_grad=True) for a in (cat[:, :c], cat[:, c:], wd, bd))
    with ad.Tape() as tape:
        y = ad.conv2d(x, w, b, skip=s if skip else None)
        tape.backward(ad.tsum(ad.mul(y, g)))
    y_ref, dw_ref, dx_ref = unsplit_conv(cat, wd, bd, g)
    assert np.isnan(dx_ref).any() and not np.isnan(dx_ref).all()
    for ours, ref in ((y.data, y_ref), (w.grad, dw_ref), (x.grad, dx_ref[:, :c])):
        assert same_bytes_but_nan_signs(ours, ref)
    if skip:
        assert same_bytes_but_nan_signs(s.grad, dx_ref[:, c:])


# (B, Cin, Cout, H, k, skip channels) whose weight gradient goes one kernel
# offset at a time: the pipeline's 64x64 16->8 and 8->8 and 32x32 32->16
# layers, the 64x64 decoder conv with an 8-channel skip, and the smallest
# offset GEMM above the cutoff (8*8*4*64*64 = 1,048,576 multiply-adds); and
# one at 8*8*15*32*32 = 983,040, below it, whose offset GEMMs round otherwise
OFFSET_SHAPES = [(10, 16, 8, 64, 3, 0), (10, 8, 8, 64, 3, 0), (10, 32, 16, 32, 3, 0),
                 (10, 8, 8, 64, 3, 8), (4, 8, 8, 64, 3, 0), (15, 8, 8, 32, 3, 0)]


@pytest.mark.parametrize("width", [1, 2])
@pytest.mark.parametrize("B,Cin,Cout,H,k,Cs", OFFSET_SHAPES)
def test_offset_weight_gradient_matches_one_gemm(pool, width, B, Cin, Cout, H, k, Cs):
    """dw by kernel offset, or by one GEMM at or below the cutoff, against
    ``unsplit_conv``'s one GEMM over the batch, bit for bit, with dx."""
    pool(width)
    offsets = Cout * (Cin + Cs) * B * H * H > ad._MIN_OFFSET_GEMM
    assert offsets == ((B, H) != (15, 32))  # the shapes sit where the comment says
    rng = np.random.default_rng(B * 1000 + Cin * 10 + Cs)
    cat = rng.standard_normal((B, Cin + Cs, H, H)).astype(np.float32)
    wd = rng.standard_normal((Cout, Cin + Cs, k, k)).astype(np.float32)
    bd = rng.standard_normal(Cout).astype(np.float32)
    g = rng.standard_normal((B, Cout, H, H)).astype(np.float32)
    x, s, w, b = (ad.Tensor(a, requires_grad=True) for a in (cat[:, :Cin], cat[:, Cin:], wd, bd))
    with ad.Tape() as tape:
        y = ad.conv2d(x, w, b, skip=s if Cs else None)
        tape.backward(ad.tsum(ad.mul(y, g)))
    y_ref, dw_ref, dx_ref = unsplit_conv(cat, wd, bd, g)
    assert same_bytes(y.data, y_ref)
    assert same_bytes(w.grad, dw_ref)
    assert same_bytes(x.grad, dx_ref[:, :Cin])
    if Cs:
        assert same_bytes(s.grad, dx_ref[:, Cin:])


def test_weight_gradient_builds_no_column_matrix(monkeypatch):
    """Backward of a taped 16->8 3x3 conv on [10,16,64,64] whose input needs
    no gradient (an encoder's first conv) allocates under 4x its input: the
    column matrix of the whole batch alone would be 9x."""
    rng = np.random.default_rng(3)
    x = ad.Tensor(rng.standard_normal((10, 16, 64, 64)).astype(np.float32))
    w = ad.Tensor(rng.standard_normal((8, 16, 3, 3)).astype(np.float32), requires_grad=True)
    monkeypatch.delattr(ad._local, "cols", raising=False)  # count the plane buffer too
    with ad.Tape() as tape:
        loss = ad.tsum(ad.conv2d(x, w))
        tracemalloc.start()
        try:
            tape.backward(loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert w.grad.shape == (8, 16, 3, 3)
    assert peak < 4 * x.data.nbytes, peak / x.data.nbytes


# channel counts and (B, H, W) sizes swept for the per-channel layout rules:
# einsum and the channel folds on one side of each rule, numpy's reductions
# on the other, up to batch 10 at 128x128 (163,840 pixels)
SWEEP_C = [1, 2, 3, 7, 8, 9, 16, 32]
SWEEP_SIZES = [(2, 3, 5), (1, 1, 1), (10, 16, 16), (10, 64, 64), (10, 128, 128)]
LAYOUTS = ["channels-last", "C-contiguous", "batch slice", "channel slice", "column slice"]


def laid_out(a, layout):
    """The [B,C,H,W] values ``a`` in memory of the given layout: C-contiguous,
    channels-last, or a slice of a larger channels-last array (of its batch,
    still channels-last; of its channels or of its columns, not)."""
    if layout == "C-contiguous":
        return np.ascontiguousarray(a)
    B, C, H, W = a.shape
    shape, cut = {"channels-last": ((B, H, W, C), np.s_[:]),
                  "batch slice": ((B + 1, H, W, C), np.s_[1:]),
                  "channel slice": ((B, H, W, C + 2), np.s_[..., 1:-1]),
                  "column slice": ((B, H, 2 * W, C), np.s_[:, :, ::2])}[layout]
    view = np.empty(shape, np.float32)[cut]
    view[...] = a.transpose(0, 2, 3, 1)
    return view.transpose(0, 3, 1, 2)


def sweep_values(shape, seed):
    """Normals at several scales, then 5% of them replaced by +-0, NaN or
    +-inf; channel 0 is all -0.0 and channel 1 mixes +0.0 and -0.0."""
    rng = np.random.default_rng(seed)
    a = (rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, shape)).astype(np.float32)
    plain = a.copy()
    pick = rng.random(shape) < 0.05
    a[pick] = rng.choice(np.array([0.0, -0.0, np.nan, np.inf, -np.inf], np.float32), pick.sum())
    a[:, 0] = -0.0
    if shape[1] > 1:
        a[:, 1] = rng.choice(np.array([0.0, -0.0], np.float32), a[:, 1].shape)
    return plain, a


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("C", SWEEP_C)
def test_channel_sums_match_numpy_on_every_layout(C, layout):
    for B, H, W in SWEEP_SIZES:
        for a in sweep_values((B, C, H, W), C * 100 + H):
            x = laid_out(a, layout)
            if C > 1 and B * H * W > 1:  # einsum goes exactly where the rule says
                assert ad._channels_last(x) == (layout in ("channels-last", "batch slice"))
            with np.errstate(invalid="ignore"):
                ours, ref = ad._channel_sum(x), x.sum(axis=(0, 2, 3), dtype=np.float32)
            # from 8 channels on, a sum that meets NaNs of both signs may end on
            # either (einsum and numpy add the operands the other way round); a
            # sum that is not NaN has the same bits
            nan = np.isnan(ref)
            assert np.array_equal(np.isnan(ours), nan), (B, H, W)
            assert same_bytes(ours[~nan], ref[~nan]), (B, H, W)


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("C", SWEEP_C)
def test_channel_folds_match_numpy_on_every_layout(C, layout):
    for B, H, W in SWEEP_SIZES:
        for a in sweep_values((B, C, H, W), C * 100 + H + 1):
            x = laid_out(a, layout)
            with np.errstate(invalid="ignore"):
                assert same_bytes(ad._channel_fold(np.maximum, x), x.max(axis=1, keepdims=True))
                assert same_bytes(ad._channel_fold(np.add, x), x.sum(axis=1, keepdims=True))


@pytest.mark.parametrize("width", [1, 2])
@pytest.mark.parametrize("g_layout", ["channels-last", "C-contiguous"])
@pytest.mark.parametrize("leak", [0.0, 0.01, 1.0])
@pytest.mark.parametrize("train", [True, False])
def test_batchnorm_matches_its_4d_expressions(pool, width, train, leak, g_layout):
    """Two heads, each a BatchNorm in its own segment (replayed concurrently
    at width 2), one on a channels-last input as conv2d makes it and one on a
    C-contiguous input: output, running statistics, dx, dgamma and dbeta
    against ``batchnorm_4d``, bit for bit, with the output gradient in
    ``g_layout``."""
    tasks = pool(width)
    rng = np.random.default_rng(int(train) * 10 + int(leak * 100))
    heads = []
    for x_layout in ("channels-last", "C-contiguous"):
        x, g = (laid_out(rng.standard_normal((10, 8, 16, 16)).astype(np.float32) * 3 + 1, layout)
                for layout in (x_layout, g_layout))
        bn = ad.BatchNorm2d(8, leak=leak)
        bn.gamma.data[:] = rng.uniform(0.5, 1.5, 8)
        bn.beta.data[:] = rng.uniform(-0.5, 0.5, 8)
        bn.forward(ad.Tensor(laid_out(rng.standard_normal((10, 8, 16, 16)).astype(np.float32), x_layout)),
                   train=True)
        ref = batchnorm_4d(x, bn.gamma.data, bn.beta.data, bn.running_mean, bn.running_var,
                           leak, train, g)
        heads.append((ad.Tensor(x, requires_grad=True), g, bn, ref))
    ys, seeds = [], []
    with ad.Tape() as tape:
        for x, g, bn, _ in heads:
            with ad.Segment():  # y's gradient is g
                ys.append(bn.forward(x, train))
                seeds.append(ad._node(np.zeros((), np.float32), (ys[-1],), lambda _, g=g: (g,)))
        tape.backward(ad.add(*seeds))
    for (x, g, bn, ref), y in zip(heads, ys):
        for ours, theirs in zip((y.data, bn.running_mean, bn.running_var, bn.beta.grad,
                                 bn.gamma.grad, x.grad), ref):
            assert same_bytes(ours, theirs)
    assert bool(tasks) == (width == 2)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # 0 * inf at leak 0
@pytest.mark.parametrize("specials", [False, True])
@pytest.mark.parametrize("shape", [(10, 8, 64, 64), (10, 16, 32, 32)])
@pytest.mark.parametrize("leak", [0.0, 0.01, 1.0])
@pytest.mark.parametrize("train", [True, False])
def test_batchnorm_select_keeps_the_layout_of_np_where(train, leak, shape, specials):
    """BatchNorm on a channels-last input (conv2d's output) with a
    C-contiguous output gradient (an encoder BatchNorm that feeds maxpool
    and a skip), at the pipeline's sizes, against ``batchnorm_4d``. The leaky
    select must leave g in C order, as np.where does: the channel sums round
    by memory order, and a product that took the input's layout would give
    other bits here (not at 16x16). With ``specials``, 5% of the first half
    of g's channels are NaN of both signs, +-0 or +-inf."""
    rng = np.random.default_rng(int(train) * 10 + int(leak * 100) + shape[1])
    B, C, H, W = shape
    x = laid_out(rng.standard_normal(shape).astype(np.float32) * 3 + 1, "channels-last")
    g = rng.standard_normal(shape).astype(np.float32)
    if specials:
        half = g[:, : C // 2]
        pick = rng.random(half.shape) < 0.05
        half[pick] = rng.choice(np.array([np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf], np.float32),
                                pick.sum())
    bn = ad.BatchNorm2d(C, leak=leak)
    bn.gamma.data[:] = rng.uniform(0.5, 1.5, C)
    bn.beta.data[:] = rng.uniform(-0.5, 0.5, C)
    bn.forward(ad.Tensor(laid_out(rng.standard_normal(shape).astype(np.float32), "channels-last")),
               train=True)
    y_ref, mean_ref, var_ref, dbeta, dgamma, dx = batchnorm_4d(
        x, bn.gamma.data, bn.beta.data, bn.running_mean, bn.running_var, leak, train, g)
    xt = ad.Tensor(x, requires_grad=True)
    with ad.Tape() as tape:
        y = bn.forward(xt, train)
        tape.backward(ad._node(np.zeros((), np.float32), (y,), lambda _: (g,)))
    for ours, ref in ((y.data, y_ref), (bn.running_mean, mean_ref), (bn.running_var, var_ref)):
        assert same_bytes(ours, ref)
    # sums over NaNs of both signs end on either sign (``_channel_sum``)
    for ours, ref in ((bn.beta.grad, dbeta), (bn.gamma.grad, dgamma), (xt.grad, dx)):
        assert same_bytes_but_nan_signs(ours, ref)
    if not train:  # dx is g times a per-channel factor: every bit, NaN signs too
        assert same_bytes(xt.grad, dx)


def test_a_segment_may_not_read_a_tensor_made_outside_it():
    x = ad.Tensor(np.ones((2, 2), np.float32), requires_grad=True)
    with ad.Tape():
        shared = ad.mul(x, 2.0)
        with ad.Segment():
            own = ad.mul(x, 3.0)  # leaves are shared freely
            ad.add(own, own)
            with pytest.raises(RuntimeError, match="outside"):
                ad.add(own, shared)
        with ad.Segment():
            with pytest.raises(RuntimeError, match="outside"):
                ad.mul(own, 2.0)
            with pytest.raises(RuntimeError, match="nest"):
                ad.Segment().__enter__()
        ad.add(own, shared)  # outside segments anything goes


def _segmented_loss(x, w, bn, segment: bool):
    """Loss over three heads that share leaves ``x``, ``w`` and ``bn``'s
    affine, each head using ``w`` twice, with steps outside segments before
    and after them."""
    pre = ad.mul(w, 0.5)
    heads = []
    for k in range(3):
        with ad.Segment() if segment else nullcontext():
            h = ad.conv2d(ad.mul(x, float(k + 1)), w)
            heads.append(ad.tsum(ad.mul(ad.conv2d(bn.forward(h, train=True), w), h)))
    return ad.add(ad.tsum(ad.mul(pre, w)), ad.add(heads[0], ad.add(heads[1], heads[2])))


def segment_grads(segment: bool):
    rng = np.random.default_rng(5)
    x = ad.Tensor(rng.standard_normal((4, 3, 8, 8)).astype(np.float32), requires_grad=True)
    w = ad.Tensor(rng.standard_normal((3, 3, 3, 3)).astype(np.float32), requires_grad=True)
    bn = ad.BatchNorm2d(3, leak=0.01)
    with ad.Tape() as tape:
        tape.backward(_segmented_loss(x, w, bn, segment))
    return x.grad, w.grad, bn.gamma.grad, bn.beta.grad


@pytest.mark.parametrize("width", [1, 2])
def test_concurrent_segments_match_the_serial_replay(pool, width):
    serial = segment_grads(False)
    tasks = pool(width)
    for ours, ref in zip(segment_grads(True), serial):
        assert same_bytes(ours, ref)
    assert bool(tasks) == (width == 2)


@pytest.mark.parametrize("width", [1, 2])
def test_segment_replay_releases_what_it_replayed(pool, width):
    tasks = pool(width)
    assert release_graph(segment=True) == RELEASE_DIGEST
    assert bool(tasks) == (width == 2)


def test_more_workers_than_cores_with_a_short_switch_interval(pool):
    serial = segment_grads(False)
    tasks = pool(4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # threads trade the interpreter lock constantly
    try:
        for _ in range(3):
            assert_conv_matches_unsplit(10, 8, 8, 16, 3)
            for ours, ref in zip(segment_grads(True), serial):
                assert same_bytes(ours, ref)
    finally:
        sys.setswitchinterval(interval)
    assert tasks


def test_an_uncalled_pool_fixture_leaves_the_process_pool_running(pytester):
    """A session in which one test requests ``pool`` without calling it, between
    two that split conv2d over the process-wide pool at ``_WORKERS = 2``."""
    paths = [str(Path(__file__).parent), str(Path(segadapt.__file__).parents[1])]
    pytester.makepyfile(f"""
        import sys
        sys.path[:0] = {paths!r}
        import pytest
        from segadapt import autodiff as ad
        from test_pool import assert_conv_matches_unsplit, pool

        @pytest.fixture
        def split(monkeypatch):
            monkeypatch.setattr(ad, "_WORKERS", 2)
            monkeypatch.setattr(ad, "_MIN_SHARE_FLOP", 0)
            monkeypatch.setattr(ad, "_BLOCK_BYTES", 1)

        def test_split_makes_the_process_pool(split):
            assert_conv_matches_unsplit(10, 8, 8, 16, 3)
            assert ad._pool is not None

        def test_requests_pool_without_calling_it(pool):
            pass

        def test_split_again(split):
            assert_conv_matches_unsplit(10, 8, 8, 16, 3)
    """)
    pytester.runpytest_subprocess("-p", "no:cacheprovider").assert_outcomes(passed=3)


# prints, as its first line, the core type of each OpenBLAS bundled with numpy
_CORE_NAMES = """
import ctypes, glob, os
import numpy as np
libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
names = []
for path in glob.glob(os.path.join(libs, "*openblas*")):
    fn = getattr(ctypes.CDLL(path), "scipy_openblas_get_corename64_", None)
    if fn is not None:
        fn.restype = ctypes.c_char_p
        names.append(fn().decode())
print(names)
"""


def run_under_core(core: str, code: str) -> str:
    """The output of ``code`` run in a child python whose OpenBLAS takes the
    kernels of ``core`` (``OPENBLAS_CORETYPE``, set only in the child), with
    BLAS on one thread. Skips unless numpy's bundled OpenBLAS reports that
    core there: it falls back to its default for a name it does not know, and
    a non-x86 build has none of them."""
    env = dict(os.environ, OPENBLAS_CORETYPE=core, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", _CORE_NAMES + code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    names, _, out = proc.stdout.partition("\n")
    if names != repr([core]):
        pytest.skip(f"numpy's OpenBLAS reports {names} under OPENBLAS_CORETYPE={core}")
    return out


# a (10,8,32,32) -> 16 conv2d's input gradient at pool width 1 and 2, by sha256
_CONV_DX_AT_WIDTHS = """
import hashlib
from segadapt import autodiff as ad
rng = np.random.default_rng(0)
xd, g = (rng.standard_normal(s).astype(np.float32) for s in ((10, 8, 32, 32), (10, 16, 32, 32)))
w = ad.Tensor(rng.standard_normal((16, 8, 3, 3)).astype(np.float32))
for width in (1, 2):
    ad._WORKERS = width
    x = ad.Tensor(xd, requires_grad=True)
    with ad.Tape() as tape:
        tape.backward(ad.tsum(ad.mul(ad.conv2d(x, w), g)))
    print(hashlib.sha256(x.grad.tobytes()).hexdigest())
"""


@pytest.mark.parametrize("core", ["SkylakeX", "Haswell"])
def test_input_gradient_blocks_do_not_depend_on_pool_width(core):
    """The layer has 23.6e6 FLOPs, between the default split thresholds of
    width 1 and width 2, so width 1 splits its slice blocks and width 2 does
    not. A kernel that rounds a slice block's GEMM unlike one GEMM over the
    batch (Haswell's) shows whether the blocks themselves change with it."""
    widths = run_under_core(core, _CONV_DX_AT_WIDTHS).split()
    assert len(widths) == 2 and widths[0] == widths[1]


# every GOLDEN fit on test_estimators' toy data at pool width 1 and 2, one
# line of digests per width; splits forced as the ``pool`` fixture forces them
_GOLDEN_AT_WIDTHS = """
from segadapt import autodiff as ad
from segadapt.config import PretrainConfig
from segadapt.estimators import SourceTrainer
from test_estimators import GOLDEN, fit_digest, square_set
ad._MIN_SHARE_FLOP, ad._BLOCK_BYTES = 0, 1
train, val = square_set(0, n_cases=3, n_slices=2), square_set(1, n_cases=1, n_slices=2)
pretrained = SourceTrainer(PretrainConfig(epochs=4, lr=0.01), 3, 7).fit(train, val).model_
for width in (1, 2):
    ad._WORKERS = width
    print(*(fit_digest(make(pretrained).fit(train if labeled else train.drop_labels(), val))
            for _, (make, labeled, _) in sorted(GOLDEN.items())))
"""


@pytest.mark.parametrize("core", ["SkylakeX", "Haswell"])
def test_golden_fits_do_not_depend_on_pool_width(core):
    """The README's claim, under each kernel: equal digests at both widths.
    The pinned GOLDEN digests hold for one kernel only, so they are not
    compared here."""
    widths = run_under_core(core, _GOLDEN_AT_WIDTHS).splitlines()
    assert len(widths) == 2 and len(widths[0].split()) == len(GOLDEN)
    assert widths[0] == widths[1]


@pytest.mark.parametrize("width", [1, 2])
def test_golden_digests_at_pool_width(pool, toy_data, pretrained, width):
    tasks = pool(width)
    train, val = toy_data
    for name, (make, labeled, digest) in sorted(GOLDEN.items()):
        fitted = make(pretrained).fit(train if labeled else train.drop_labels(), val)
        assert fit_digest(fitted) == digest, name
    assert bool(tasks) == (width == 2)


def test_public_calls_stay_on_the_main_thread(pool, toy_data, pretrained, monkeypatch):
    """Wrap every public function and method of every segadapt module, as a
    span tracer does, and fit UPL with every split forced."""
    tasks = pool(2)
    calls, off_main = [], []

    def record(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            if threading.current_thread() is not threading.main_thread():
                off_main.append(name)
            return fn(*args, **kwargs)
        return wrapped

    wrapped = {}
    for info in pkgutil.iter_modules(segadapt.__path__):
        mod = importlib.import_module(f"segadapt.{info.name}")
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                wrapped[obj] = record(f"{info.name}.{attr}", obj)
                monkeypatch.setattr(mod, attr, wrapped[obj])
            elif inspect.isclass(obj):
                for meth, fn in list(vars(obj).items()):
                    if (not meth.startswith("_") and inspect.isfunction(fn)
                            and not inspect.isgeneratorfunction(fn)):
                        monkeypatch.setattr(obj, meth, record(f"{attr}.{meth}", fn))
    for name, mod in list(sys.modules.items()):  # names imported by other modules
        if mod is not None and name.startswith("segadapt"):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    monkeypatch.setattr(mod, attr, wrapped[obj])

    train, val = toy_data
    MultiHeadAdapter(pretrained, AdaptConfig(heads=2, epochs=1, lr=1e-3), 43).fit(
        train.drop_labels(), val)
    assert "autodiff.conv2d" in calls and "Tape.backward" in calls
    assert tasks  # the pool did run work
    assert off_main == []


@pytest.mark.parametrize("var", ["OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"])
def test_a_non_ascii_thread_count_is_skipped_like_an_unset_one(monkeypatch, var):
    for name in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(name, raising=False)
    unset = ad._pool_width()
    monkeypatch.setenv(var, "\u00b2")  # "²".isdigit() holds, but int("²") raises
    assert ad._pool_width() == unset
