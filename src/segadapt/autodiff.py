"""Reverse-mode automatic differentiation on float32 numpy arrays.

A ``Tensor`` wraps a float32 ndarray. Gradients are recorded on an explicit
``Tape``: ops append backward steps while a tape is active, and
``Tape.backward(scalar)`` replays them in reverse. With no active tape every
op is a plain forward computation (the no-tape mode used by pseudo-label
passes and inference). A tape records one forward pass, and its backward
empties it: each step, with the arrays it kept, is dropped once replayed.

Every primitive is written the same way: compute the forward value from the
inputs' ``.data``, then return ``_node(value, parents, grads)``. ``parents``
are the input Tensors, and ``grads`` maps the output's gradient to one
gradient per parent, in parent order (``None`` for one that needs no work).
``_node`` alone decides whether the output requires grad, records the
backward step on the active tape and accumulates the parents' gradients.

Public calls come from one thread at a time. Work splits over at most two
threads (``_pool_width``): the calling thread and a persistent pool worker,
which takes only private closures, conv2d's slice blocks and the replay of
a tape's head segments (``Segment``). A thread already running a share of
split work never waits on the pool; what it would split runs inline. Work
is split only where the split cannot change a bit:

- no GEMM's reduction dimension is split: a slice block of conv2d's output
  rows, or of its input-gradient columns, is computed by the same kernel
  over the same reduction as in one GEMM over the batch;
- conv2d's weight gradient goes by kernel offset only above ``_MIN_OFFSET_GEMM``,
  where BLAS rounds each offset's GEMM as it does one GEMM over all offsets;
- gradients of tensors that a head segment did not produce (the parameters
  it shares with other heads) are kept in that segment's sink, and the sinks
  are merged in the serial replay order, copying the first gradient and
  adding the rest as ``_node`` does.

So results are identical at any pool width, and to a serial replay, but for
the sign of a NaN: with NaNs of both signs in conv2d's w or g, a NaN in dx
can differ in sign between slice blocks and one block.
Per-channel work takes long inner loops only where numpy's bits stay: einsum
for channel sums of channels-last arrays with C > 1, [B*H, W*C] rows for
BatchNorm on them, slice folds for softmax below 8 channels, and whole
padded rows for conv2d's col2im.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

DTYPE = np.float32

_ACTIVE_TAPE = None
_TAPE_SERIAL = itertools.count()


def _pool_width() -> int:
    """Threads that split work: at most two, and at most the CPUs this
    process may run on (its affinity mask) divided by the threads of one BLAS
    call. BLAS runs a thread per CPU unless its environment says otherwise,
    and GEMMs from two threads would then only contend for the same cores."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    for var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
        threads = os.environ.get(var, "")
        if threads.isascii() and threads.isdigit() and int(threads) > 0:
            return max(1, min(2, (cpus or 1) // int(threads)))
    return 1


_WORKERS = _pool_width()
_pool = None  # _WORKERS - 1 threads, made on first use and kept for the process
_local = threading.local()  # per thread: ``busy`` flag and scratch buffers
# a thread's share of a conv2d below this many FLOPs runs inline: dispatch
# costs about as much as a share this size
_MIN_SHARE_FLOP = 15e6
# conv2d's column block aims at this size, so that it stays in a core's L2
_BLOCK_BYTES = 1 << 20
# conv2d's dw goes one kernel offset at a time when each offset's GEMM has more
# multiply-adds (Cout*Cin*B*H*W) than this. At or below it OpenBLAS (0.3.31,
# AVX-512) takes its small-matrix kernel, whose rounding depends on the output
# width: of 240 shapes swept, each mismatch with the one GEMM had <= 983,040.
_MIN_OFFSET_GEMM = 100**3


class Tensor:
    """float32 array with an optional gradient buffer."""

    __slots__ = ("data", "grad", "requires_grad", "_block")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=DTYPE)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._block = None  # (tape serial, block index) of the step that made it

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # operator sugar; the module-level functions are the primary API
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)


def as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(x)


def _executor() -> ThreadPoolExecutor:
    global _pool
    if _pool is None:
        _pool = ThreadPoolExecutor(_WORKERS - 1, "segadapt", initializer=setattr,
                                   initargs=(_local, "busy", True))
    return _pool


def _each(fn, items, split: bool = True, first=None):
    """Call ``first()``, if given, and ``fn(item)`` for every item, in any
    order. With ``split`` set, the caller runs ``first`` and then takes items
    while the pool's workers take the rest, unless there is no pool or the
    caller is already running a share of split work; otherwise everything
    runs inline and in order. Returns the result of ``first``."""
    it = iter(items)  # drained by every thread: next() on it holds the GIL

    def drain():
        for item in it:
            fn(item)

    if not split or _WORKERS < 2 or getattr(_local, "busy", False):
        out = first() if first is not None else None
        drain()
        return out
    futures = [_executor().submit(drain) for _ in range(_WORKERS - 1)]
    _local.busy = True
    try:
        out = first() if first is not None else None
        drain()
    finally:
        _local.busy = False
        wait(futures)  # no worker still writes once an error propagates
    for f in futures:
        f.result()
    return out


def _scratch(name: str, shape) -> np.ndarray:
    """This thread's reusable float32 buffer ``name``, viewed as ``shape``
    (contents undefined). Kept across calls, so a block loop faults no pages."""
    n = math.prod(shape)
    buf = getattr(_local, name, None)
    if buf is None or buf.size < n:
        buf = np.empty(n, DTYPE)
        setattr(_local, name, buf)
    return buf[:n].reshape(shape)


class Tape:
    """Ordered record of backward steps for one forward pass.

    Use as a context manager; nesting is not supported. ``backward`` may be
    called once. It empties the tape, and afterwards only leaves (tensors
    this tape did not make) hold ``.grad``.

    Steps are kept in blocks: each ``Segment`` is one block, and so is each
    run of steps recorded outside segments. A segment's steps read only
    leaves and the segment's own tensors, so after the steps outside
    segments have been replayed (on the calling thread), the segments replay
    concurrently.
    """

    def __init__(self):
        self._serial = next(_TAPE_SERIAL)
        self._blocks = []  # lists of steps, in recording order
        self._heads = []  # indices of the blocks that are segments
        self._segment = None  # index of the open segment
        self._used = False

    def __enter__(self):
        global _ACTIVE_TAPE
        if _ACTIVE_TAPE is not None:
            raise RuntimeError("a tape is already active; tapes do not nest")
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, exc_type, exc, tb):
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = None
        return False

    def __len__(self):
        return sum(len(steps) for steps in self._blocks)

    def _record(self, step, parents) -> tuple:
        """Append ``step`` to the current block; return the block's mark. A
        segment's step may not read a tensor made on this tape outside it."""
        if self._segment is not None:
            i = self._segment
            for p in parents:
                if p._block is not None and p._block[0] == self._serial and p._block[1] != i:
                    raise RuntimeError("a tape segment read a tensor made outside it")
        else:
            if not self._blocks or len(self._blocks) - 1 in self._heads:
                self._blocks.append([])
            i = len(self._blocks) - 1
        self._blocks[i].append(step)
        return self._serial, i

    def backward(self, loss: Tensor):
        """Seed d(loss)/d(loss)=1 and accumulate gradients into leaves.

        Each step leaves the tape as it is replayed, and each tensor the tape
        made gives up its ``.grad`` once the gradient is passed on, so what
        only the tape held is freed during the replay. Afterwards the tape is
        empty and only leaves hold ``.grad``."""
        if loss.data.size != 1:
            raise ValueError(f"backward needs a scalar, got shape {loss.data.shape}")
        if self._used:
            raise RuntimeError("tape already replayed; build a fresh tape per step")
        self._used = True
        loss.grad = np.ones_like(loss.data)
        # each block's leaf gradients wait in its sink, in replay order
        sinks = [[] for _ in self._blocks]

        def replay(i):
            steps = self._blocks[i]
            while steps:
                steps.pop()(sinks[i])

        for i in reversed(range(len(self._blocks))):
            if i not in self._heads:
                replay(i)
        _each(replay, reversed(self._heads), len(self._heads) > 1)
        for sink in reversed(sinks):
            for p, g in sink:
                p.grad = g.astype(DTYPE, copy=True) if p.grad is None else p.grad + g


class Segment:
    """Context in which the active tape records one head's subgraph as its
    own block; does nothing without an active tape. Segments do not nest."""

    def __enter__(self):
        self._tape = tape = _ACTIVE_TAPE
        if tape is not None:
            if tape._segment is not None:
                raise RuntimeError("tape segments do not nest")
            tape._segment = len(tape._blocks)
            tape._heads.append(tape._segment)
            tape._blocks.append([])
        return self

    def __exit__(self, exc_type, exc, tb):
        if self._tape is not None:
            self._tape._segment = None
        return False


def _node(data, parents, grads) -> Tensor:
    """The output Tensor of one primitive, and its step on the active tape.

    The output requires grad when any parent does; only then, and only while
    a tape is active, is a step recorded. Replayed, the step does nothing if
    the output received no gradient; otherwise ``grads(out.grad)`` yields one
    gradient per parent, in parent order, and each one that is not None goes
    to its parent if that parent requires grad: appended to the replay's
    sink for a parent this tape did not make (a leaf), else accumulated into
    the parent's ``.grad`` (the first one is copied). The step then clears
    ``out.grad``. This is the only place that appends to a tape.
    """
    out = Tensor(data, any(p.requires_grad for p in parents))
    tape = _ACTIVE_TAPE
    if tape is not None and out.requires_grad:
        serial = tape._serial

        def step(sink):
            g_out, out.grad = out.grad, None
            if g_out is None:
                return
            for p, g in zip(parents, grads(g_out)):
                if g is None or not p.requires_grad:
                    continue
                if p._block is None or p._block[0] != serial:
                    sink.append((p, g))
                else:
                    p.grad = g.astype(DTYPE, copy=True) if p.grad is None else p.grad + g

        out._block = tape._record(step, parents)
    return out


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    # reduce a broadcast gradient back to the operand's shape
    if g.shape == tuple(shape):
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _node(a.data + b.data, (a, b),
                 lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)))


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _node(a.data - b.data, (a, b),
                 lambda g: (_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)))


def neg(a) -> Tensor:
    a = as_tensor(a)
    return _node(-a.data, (a,), lambda g: (-g,))


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _node(a.data * b.data, (a, b),
                 lambda g: (_unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)))


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _node(a.data / b.data, (a, b),
                 lambda g: (_unbroadcast(g / b.data, a.shape),
                            _unbroadcast(-g * a.data / (b.data * b.data), b.shape)))


def log(a) -> Tensor:
    """Natural log; the caller guards the domain (see clamp_min)."""
    a = as_tensor(a)
    return _node(np.log(a.data), (a,), lambda g: (g / a.data,))


def clamp_min(a, lo: float) -> Tensor:
    """max(a, lo); gradient passes only where a > lo."""
    a = as_tensor(a)
    return _node(np.maximum(a.data, DTYPE(lo)), (a,),
                 lambda g: (g * (a.data > lo).astype(DTYPE),))


# ---------------------------------------------------------------------------
# reductions and shape ops


def _unreduce(g: np.ndarray, a: np.ndarray, axis, keepdims: bool) -> np.ndarray:
    # broadcast a reduction's output gradient back over the reduced axes of a
    if axis is not None and not keepdims:
        ax = axis if isinstance(axis, tuple) else (axis,)
        g = np.expand_dims(g, tuple(i % a.ndim for i in ax))
    return np.broadcast_to(g, a.shape).astype(DTYPE)


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    return _node(a.data.sum(axis=axis, keepdims=keepdims, dtype=DTYPE), (a,),
                 lambda g: (_unreduce(g, a.data, axis, keepdims),))


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    # g.size / a.size rounds to the same float as 1/n, n the count of reduced elements
    return _node(a.data.mean(axis=axis, keepdims=keepdims, dtype=DTYPE), (a,),
                 lambda g: (_unreduce(g, a.data, axis, keepdims) * DTYPE(g.size / a.data.size),))


def permute(a, forward, backward) -> Tensor:
    """An element permutation: ``forward`` permutes an array (a copy or a view,
    made contiguous here) and ``backward``, which may run on a pool worker,
    undoes it on the output's gradient."""
    a = as_tensor(a)
    return _node(np.ascontiguousarray(forward(a.data)), (a,),
                 lambda g: (np.ascontiguousarray(backward(g)),))


# ---------------------------------------------------------------------------
# nonlinearity over channels


def _channel_fold(ufunc, a: np.ndarray) -> np.ndarray:
    """``ufunc.reduce(a, axis=1, keepdims=True)`` for np.add or np.maximum.
    Below 8 channels numpy folds left to right (a sum from +0.0), so a ufunc
    call per channel slice gives its bits with loops over rows, not C floats."""
    if a.shape[1] >= 8:
        return ufunc.reduce(a, axis=1, keepdims=True)
    out = a[:, :1] + DTYPE(0) if ufunc is np.add else a[:, :1].copy()
    for c in range(1, a.shape[1]):
        ufunc(out, a[:, c : c + 1], out=out)
    return out


def softmax_channel(a) -> Tensor:
    """Stable softmax over the channel axis of a [B,C,H,W] input."""
    a = as_tensor(a)
    _check_4d(a.data, "softmax_channel input")
    shifted = a.data - _channel_fold(np.maximum, a.data)
    e = np.exp(shifted)
    p = e / _channel_fold(np.add, e)
    return _node(p, (a,), lambda g: (p * (g - _channel_fold(np.add, g * p)),))


def dropout(a, rate: float, rng: np.random.Generator, train: bool) -> Tensor:
    """Inverted dropout. Mask comes from ``rng`` only; eval mode is identity."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0,1), got {rate}")
    a = as_tensor(a)
    if not train or rate == 0.0:
        return a
    keep = (rng.random(a.data.shape) >= rate).astype(DTYPE) / DTYPE(1.0 - rate)
    return _node(a.data * keep, (a,), lambda g: (g * keep,))


# ---------------------------------------------------------------------------
# spatial ops


def _check_4d(x: np.ndarray, name: str):
    if x.ndim != 4:
        raise ValueError(f"{name} expects [B,C,H,W], got shape {x.shape}")


def _channels_last(a: np.ndarray) -> bool:
    return a.transpose(0, 2, 3, 1).flags.c_contiguous


def _channel_sum(a: np.ndarray) -> np.ndarray:
    """``a.sum(axis=(0, 2, 3), dtype=float32)`` of a [B,C,H,W] array. On
    channels-last memory with C > 1, einsum adds in numpy's order (pixel by
    pixel into the C sums) with long inner loops: the same bits, but for the
    sign of a NaN sum. On other layouts, or at C = 1, the two round otherwise."""
    if a.shape[1] > 1 and _channels_last(a):
        return np.einsum("bchw->c", a)
    return a.sum(axis=(0, 2, 3), dtype=DTYPE)


def conv2d(x, w, b=None, skip=None) -> Tensor:
    """2-D convolution, stride 1, odd kernel, zero 'same' padding (k-1)/2.

    x: [B,Cin,H,W], w: [Cout,Cin,k,k], b: [Cout] or None. Output [B,Cout,H,W].
    With ``skip`` [B,Cs,H,W], the input is the channel concatenation of x and
    skip, written straight into the zero-padded buffer that the columns are
    built from; the input gradient splits back into x's and skip's channels.

    One code path for every shape and kernel size, as GEMMs over a
    channel-major column matrix ``cols[Cin*k*k, B*H*W]``: row (c, i, j) is
    input plane c of the zero-padded input shifted by (i, j), so building it
    copies runs of W contiguous floats.

    Forward goes one block of slices at a time, sized so that the block's
    columns stay in cache: it copies the block's columns into a reused buffer
    and writes ``cols_blk.T @ w2d.T`` into the block's rows of the output.
    That [B*H*W, Cout] result is the output in channels-last memory (a
    transposed view). Backward recomputes the columns instead of keeping
    them on the tape (peak memory stays that of the input). The weight
    gradient goes one kernel offset (i, j) at a time: plane (i, j) of the
    columns, [Cin, B*H*W], is copied into a reused buffer, and
    ``dw[:, :, i, j]`` is ``(plane @ g2d.T).T`` with g2d = [Cout, B*H*W],
    so no 9x column matrix exists. At or below ``_MIN_OFFSET_GEMM``, or with
    a dimension of 1, BLAS would round differently: dw is then
    ``g2d @ cols.T`` in one GEMM.

    The input gradient goes by slice blocks on flat padded rows. g is copied
    once into zeroed [Cout, B, Hp, Wp] frames (Hp = H + 2p, Wp = W + 2p),
    each slice's pixels at the top left of its frame, and a block's
    ``dcols = w2d.T @ gp_blk`` has a column per frame position. Kernel offset
    (i, j) then adds its dcols row, for every channel, as one contiguous run
    at offset i*Wp + j into a zeroed flat buffer (col2im), in (i, j) order;
    dx is that buffer's interior, copied into channels-last memory, the
    layout the forward output has: the channel sums over it (BatchNorm,
    bias) add in memory order, so the layout fixes their rounding, and
    einsum keeps it (``_channel_sum``). The bits are those of k*k slice-adds
    into padded planes: every interior element gets the same terms in the
    same order, its sum starting from +0.0, and the GEMM reduces over Cout
    alike for every column. The columns of pad positions, whose runs reach
    into the next row or slice and into the interior's edge, add ``w * 0``
    summed over Cout: +-0.0, which changes no sum that starts from +0.0 (it
    never becomes -0.0, and x + -0.0 is x). Where a row's weights are not all
    finite that sum is NaN, so those rows' pad columns are zeroed after the
    GEMM. Backward computes dw and dx only for inputs that require grad.

    The calling thread and the pool split the blocks when each thread's
    share is worth the dispatch. A block never splits a GEMM's reduction, so it computes
    every output element as the one-GEMM form would, bit for bit, as long as
    no GEMM dimension is 1 (numpy then takes a matrix-vector product, whose
    rounding depends on the length). Such shapes run as one block.
    """
    x, w = as_tensor(x), as_tensor(w)
    inputs = (x,) if skip is None else (x, as_tensor(skip))
    for t in inputs:  # a skip of another batch or size fails to concatenate
        _check_4d(t.data, "conv2d input")
    chans = [t.data.shape[1] for t in inputs]
    if w.data.ndim != 4:
        raise ValueError(f"conv2d weight must be [Cout,Cin,k,k], got {w.data.shape}")
    Cout, Cin, kh, kw = w.data.shape
    if kh != kw or kh % 2 == 0:
        raise ValueError(f"kernel must be square and odd, got {kh}x{kw}")
    if sum(chans) != Cin:
        raise ValueError(f"channel mismatch: input {sum(chans)}, weight {Cin}")
    parents = (w, *inputs)
    if b is not None:
        b = as_tensor(b)
        parents = (w, b, *inputs)
    k, p = kh, (kh - 1) // 2
    B, _, H, W = x.data.shape
    Hp, Wp = H + 2 * p, W + 2 * p
    K, HW = Cin * k * k, H * W
    w2d = w.data.reshape(Cout, K)
    # slice blocks, and whether the pool shares them out
    nb = B if min(Cout, K, HW) == 1 else max(1, min(B, _BLOCK_BYTES // (4 * K * HW)))
    blocks = [(b0, min(B, b0 + nb)) for b0 in range(0, B, nb)]
    split = len(blocks) > 1 and 2 * B * HW * K * Cout >= _WORKERS * _MIN_SHARE_FLOP

    def padded():
        if not p and skip is None:
            return x.data
        xp = np.zeros((B, Cin, Hp, Wp), DTYPE)
        np.concatenate([t.data for t in inputs], axis=1, out=xp[:, :, p : p + H, p : p + W])
        return xp

    def windows(xp):
        # [Cin, k, k, B, H, W] view: (c, i, j, b) is plane c of slice b shifted by (i, j)
        win = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(2, 3))
        return win.transpose(1, 4, 5, 0, 2, 3)

    def im2col(win, b0, b1, out):
        np.copyto(out.reshape(Cin, k, k, b1 - b0, H, W), win[:, :, :, b0:b1])
        return out

    win = windows(padded())
    y = np.empty((B * HW, Cout), DTYPE)

    def forward(blk):
        b0, b1 = blk
        cols = im2col(win, b0, b1, _scratch("cols", (K, (b1 - b0) * HW)))
        rows = y[b0 * HW : b1 * HW]
        np.matmul(cols.T, w2d.T, out=rows)
        if b is not None:
            rows += b.data

    _each(forward, blocks, split)

    def grads(g):
        # in parent order: dw, db (with a bias), dx (and dskip)
        g2d = g.transpose(1, 0, 2, 3).reshape(Cout, B * HW)
        dx = np.empty((B, H, W, Cin), DTYPE) if any(t.requires_grad for t in inputs) else None

        def dw():
            if min(Cout, Cin, k) == 1 or Cout * Cin * B * HW <= _MIN_OFFSET_GEMM:
                cols = im2col(windows(padded()), 0, B, np.empty((K, B * HW), DTYPE))
                return (g2d @ cols.T).reshape(w.shape)
            xp, out = padded(), np.empty((k, k, Cin, Cout), DTYPE)
            plane = _scratch("cols", (Cin, B, H, W))  # forward's buffer: free in backward
            for i, j in np.ndindex(k, k):
                np.copyto(plane, xp[:, :, i : i + H, j : j + W].transpose(1, 0, 2, 3))
                np.matmul(plane.reshape(Cin, B * HW), g2d.T, out=out[i, j])
            return np.ascontiguousarray(out.transpose(3, 2, 0, 1))

        if dx is not None:
            S = Hp * Wp  # column q of a block's dcols is frame position divmod(q % S, Wp)
            # pad columns sum w * 0 over Cout: +-0.0, or NaN in a row with a non-finite weight
            nan_rows = np.flatnonzero(~np.isfinite(w2d).all(axis=0))
            gp = np.zeros((Cout, B, Hp, Wp), DTYPE)
            gp[:, :, :H, :W] = g.transpose(1, 0, 2, 3)
            gp = gp.reshape(Cout, B * S)

        def dx_block(blk):
            b0, b1 = blk
            n = b1 - b0
            dcols = _scratch("dcols", (K, n * S))
            np.matmul(w2d.T, gp[:, b0 * S : b1 * S], out=dcols)
            frames = dcols.reshape(K, n, Hp, Wp)
            frames[nan_rows, :, H:] = 0
            frames[nan_rows, :, :H, W:] = 0
            dcols = dcols.reshape(Cin, k, k, n * S)
            dxp = _scratch("dxp", (Cin, n * S + (k - 1) * (Wp + 1)))
            dxp.fill(0)
            for i, j in np.ndindex(k, k):
                dxp[:, i * Wp + j : i * Wp + j + n * S] += dcols[:, i, j]
            frames = dxp[:, : n * S].reshape(Cin, n, Hp, Wp)
            dx[b0:b1] = frames[:, :, p : p + H, p : p + W].transpose(1, 2, 3, 0)

        # unsplit, the input gradient is one block: a block loop only pays on the pool
        dx_blocks = () if dx is None else blocks if split else [(0, B)]
        out = [_each(dx_block, dx_blocks, split and dx is not None,
                     first=dw if w.requires_grad else None)]
        if b is not None:
            out.append(_channel_sum(g) if b.requires_grad else None)
        if dx is None:
            return out + [None] * len(inputs)
        return out + np.split(dx.transpose(0, 3, 1, 2), np.cumsum(chans)[:-1], axis=1)

    return _node(y.reshape(B, H, W, Cout).transpose(0, 3, 1, 2), parents, grads)


def maxpool2d(x) -> Tensor:
    """2x2 stride-2 max pool; ties resolve to the first window position."""
    x = as_tensor(x)
    _check_4d(x.data, "maxpool2d input")
    B, C, H, W = x.data.shape
    if H % 2 or W % 2:
        raise ValueError(f"maxpool2d needs even spatial dims, got {H}x{W}")
    # np.maximum returns its second operand on a tie (+0.0 vs -0.0), so each
    # pair passes the earlier window position second and the first one wins
    cols = np.maximum(x.data[..., 1::2], x.data[..., 0::2])
    out = np.maximum(cols[:, :, 1::2], cols[:, :, 0::2], order="C")

    def grads(g):
        win = x.data.reshape(B, C, H // 2, 2, W // 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(B, C, H // 2, W // 2, 4)
        dwin = np.zeros_like(win)
        np.put_along_axis(dwin, win.argmax(axis=-1)[..., None], g[..., None], axis=-1)
        return (dwin.reshape(B, C, H // 2, W // 2, 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(B, C, H, W),)

    return _node(out, (x,), grads)


def upsample_nearest2x(x) -> Tensor:
    """Nearest-neighbor 2x upsampling; backward sums each 2x2 block."""
    x = as_tensor(x)
    _check_4d(x.data, "upsample input")
    B, C, H, W = x.data.shape
    return _node(np.repeat(np.repeat(x.data, 2, axis=2), 2, axis=3), (x,),
                 lambda g: (g.reshape(B, C, H, 2, W, 2).sum(axis=(3, 5), dtype=DTYPE),))


class BatchNorm2d:
    """Per-channel batch normalization (eps 1e-5, momentum 0.1), then a leaky
    ReLU of slope ``leak`` in [0, 1]; the default slope 1 is plain BatchNorm.

    Train mode normalizes with population batch statistics alone, then blends
    them into the running buffers: ``running_mean`` and ``running_var`` are
    rebound to new arrays, never written in place, and ``num_batches`` counts
    the blends. Eval mode uses the running buffers and refuses to run before
    any batch has been seen.

    The activation ``max(y, leak * y)`` runs in place on the normalized y. Its
    output is > 0 exactly where y is (NaN and -0.0 included), so backward
    takes the branch from the sign of the node's own output, which its
    consumer keeps anyway: g times ``[leak, 1][y > 0]``, a table lookup, into
    a C-ordered array. That is np.where's value and layout; a product that
    took the mask's channels-last order would change the channel sums'
    rounding. The step keeps the input (a parent) and the
    per-channel mean and inverse std, and backward recomputes the normalized
    input from them, by the forward's own ops, instead of keeping it. On
    channels-last arrays, as conv2d makes them, the ops run on [B*H, W*C] rows
    (``_bn_frame``) and the sums through einsum, with the same bits.
    """

    eps, momentum = 1e-5, 0.1

    def __init__(self, channels: int, leak: float = 1.0):
        self.channels = channels
        self.leak = float(leak)
        self.gamma = Tensor(np.ones(channels, dtype=DTYPE), requires_grad=True)
        self.beta = Tensor(np.zeros(channels, dtype=DTYPE), requires_grad=True)
        self.running_mean = np.zeros(channels, dtype=DTYPE)
        self.running_var = np.ones(channels, dtype=DTYPE)
        self.num_batches = 0

    def forward(self, x, train: bool) -> Tensor:
        x = as_tensor(x)
        _check_4d(x.data, "batchnorm input")
        if x.data.shape[1] != self.channels:
            raise ValueError(f"batchnorm expects {self.channels} channels, got {x.data.shape[1]}")
        gamma, beta = self.gamma, self.beta
        N = x.data.size // self.channels
        view, chan, unview = _bn_frame(x.data)
        if not train and self.num_batches == 0:
            raise RuntimeError("batchnorm eval mode before any running statistics exist")

        def channel_mean(a):  # np.mean's own division of the sums
            s = _channel_sum(a)
            return np.true_divide(s, np.intp(N), out=s, casting="unsafe")
        # eval: the object itself; a later train-mode forward rebinds the attribute
        mean = channel_mean(x.data) if train else self.running_mean
        diff = view(x.data) - chan(mean)
        var = channel_mean(unview(diff * diff)) if train else self.running_var
        if train:
            m = DTYPE(self.momentum)
            self.running_mean = (1 - m) * self.running_mean + m * mean
            self.running_var = (1 - m) * self.running_var + m * var
            self.num_batches += 1
        invstd = 1.0 / np.sqrt(var + DTYPE(self.eps))
        y = chan(gamma.data) * (diff * chan(invstd)) + chan(beta.data)
        leak = DTYPE(self.leak)
        np.maximum(y, leak * y, out=y)
        y = unview(y)

        def grads(g):
            # yields in parent order: dbeta, dgamma, dx (only if x needs it)
            view, chan, unview = _bn_frame(x.data, y, g)
            g = np.multiply(view(g), np.array([leak, 1], DTYPE)[(view(y) > 0).view(np.uint8)],
                            out=np.empty(view(g).shape, DTYPE))
            xhat = (view(x.data) - chan(mean)) * chan(invstd)
            yield _channel_sum(unview(g))
            yield _channel_sum(unview(g * xhat))
            if not x.requires_grad:
                return
            if not train:  # the statistics are constants
                yield unview(g * (chan(gamma.data) * chan(invstd)))
                return
            dxhat = g * chan(gamma.data)
            s1 = chan(_channel_sum(unview(dxhat)))
            s2 = chan(_channel_sum(unview(dxhat * xhat)))
            yield unview(((chan(invstd) / N) * (N * dxhat - s1 - xhat * s2)).astype(DTYPE, copy=False))

        return _node(y, (beta, gamma, x), grads)


def _bn_frame(*arrays):
    """``(view, per_channel, unview)`` for BatchNorm's elementwise work on
    ``arrays``: [B*H, W*C] rows with vectors tiled W times if all of them are
    channels-last, else the 4-D arrays with [1,C,1,1] vectors."""
    B, C, H, W = arrays[0].shape
    if not all(map(_channels_last, arrays)):
        return (lambda a: a), (lambda v: v.reshape(1, C, 1, 1)), (lambda a: a)
    return (lambda a: a.transpose(0, 2, 3, 1).reshape(B * H, W * C), lambda v: np.tile(v, W),
            lambda a: a.reshape(B, H, W, C).transpose(0, 3, 1, 2))
