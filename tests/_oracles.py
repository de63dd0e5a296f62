"""Independent reference implementations used to check the real code.

Everything in here is deliberately written the slow, obvious way (nested
loops, BFS, high-precision arithmetic) and shares no code with the
package under test.
"""

import math
from collections import deque

import numpy as np


def conv2d_loop(x, w, b=None):
    """Same-padding cross-correlation with six explicit loops."""
    B, Cin, H, W = x.shape
    Cout, Cin2, k, _ = w.shape
    assert Cin == Cin2
    p = (k - 1) // 2
    out = np.zeros((B, Cout, H, W), dtype=np.float64)
    for n in range(B):
        for o in range(Cout):
            for y in range(H):
                for xx in range(W):
                    acc = 0.0
                    for c in range(Cin):
                        for i in range(k):
                            for j in range(k):
                                yy, xj = y + i - p, xx + j - p
                                if 0 <= yy < H and 0 <= xj < W:
                                    acc += float(x[n, c, yy, xj]) * float(w[o, c, i, j])
                    out[n, o, y, xx] = acc + (float(b[o]) if b is not None else 0.0)
    return out


def maxpool2d_loop(x):
    B, C, H, W = x.shape
    out = np.zeros((B, C, H // 2, W // 2), dtype=x.dtype)
    for n in range(B):
        for c in range(C):
            for y in range(H // 2):
                for xx in range(W // 2):
                    out[n, c, y, xx] = max(
                        x[n, c, 2 * y, 2 * xx], x[n, c, 2 * y, 2 * xx + 1],
                        x[n, c, 2 * y + 1, 2 * xx], x[n, c, 2 * y + 1, 2 * xx + 1])
    return out


def upsample2x_loop(x):
    B, C, H, W = x.shape
    out = np.zeros((B, C, 2 * H, 2 * W), dtype=x.dtype)
    for n in range(B):
        for c in range(C):
            for y in range(2 * H):
                for xx in range(2 * W):
                    out[n, c, y, xx] = x[n, c, y // 2, xx // 2]
    return out


def softmax_loop(logits):
    """Per-pixel channel softmax on a [B,C,H,W] array, float64 math."""
    B, C, H, W = logits.shape
    out = np.zeros_like(logits, dtype=np.float64)
    for n in range(B):
        for y in range(H):
            for xx in range(W):
                col = [float(logits[n, c, y, xx]) for c in range(C)]
                m = max(col)
                exps = [math.exp(v - m) for v in col]
                s = sum(exps)
                for c in range(C):
                    out[n, c, y, xx] = exps[c] / s
    return out


def batchnorm_train_loop(x, gamma, beta, eps):
    """One train-mode normalization, per-channel Python sums in float64."""
    B, C, H, W = x.shape
    out = np.zeros_like(x, dtype=np.float64)
    means, variances = [], []
    for c in range(C):
        vals = [float(x[n, c, y, xx]) for n in range(B) for y in range(H) for xx in range(W)]
        mean = sum(vals) / len(vals)
        var = sum((v - mean) ** 2 for v in vals) / len(vals)
        means.append(mean)
        variances.append(var)
        inv = 1.0 / math.sqrt(var + eps)
        for n in range(B):
            for y in range(H):
                for xx in range(W):
                    out[n, c, y, xx] = float(gamma[c]) * (float(x[n, c, y, xx]) - mean) * inv + float(beta[c])
    return out, np.array(means), np.array(variances)


def batchnorm_4d(x, gamma, beta, running_mean, running_var, leak, train, g,
                 eps=1e-5, momentum=0.1):
    """BatchNorm2d's float32 forward and backward written over the 4-D arrays:
    numpy's reductions and [1,C,1,1] vectors, in the engine's op order. With
    the output gradient ``g``, returns y, the running mean and variance after
    the step, dbeta, dgamma and dx."""
    c = (1, x.shape[1], 1, 1)
    if train:
        mean = x.mean(axis=(0, 2, 3), dtype=np.float32)
        diff = x - mean.reshape(c)
        var = np.mean(diff * diff, axis=(0, 2, 3), dtype=np.float32)
        m = np.float32(momentum)
        running_mean = (1 - m) * running_mean + m * mean
        running_var = (1 - m) * running_var + m * var
    else:
        mean = running_mean
        diff = x - mean.reshape(c)
        var = running_var
    invstd = 1.0 / np.sqrt(var + np.float32(eps))
    y = gamma.reshape(c) * (diff * invstd.reshape(c)) + beta.reshape(c)
    leak = np.float32(leak)
    np.maximum(y, leak * y, out=y)
    N = x.shape[0] * x.shape[2] * x.shape[3]
    g = np.where(y > 0, g, leak * g)
    xhat = (x - mean.reshape(c)) * invstd.reshape(c)
    dbeta = g.sum(axis=(0, 2, 3))
    dgamma = (g * xhat).sum(axis=(0, 2, 3))
    if train:
        dxhat = g * gamma.reshape(c)
        s1 = dxhat.sum(axis=(0, 2, 3)).reshape(c)
        s2 = (dxhat * xhat).sum(axis=(0, 2, 3)).reshape(c)
        dx = ((invstd.reshape(c) / N) * (N * dxhat - s1 - xhat * s2)).astype(np.float32, copy=False)
    else:
        dx = g * (gamma.reshape(c) * invstd.reshape(c))
    return y, running_mean, running_var, dbeta, dgamma, dx


def bn_streaming_stats(batches, momentum):
    """Running-stat trajectory: r <- (1-m) r + m batch_stat, float64.

    Batch variance is the population variance (no Bessel correction),
    matching what gets blended into the running estimate.
    """
    C = batches[0].shape[1]
    rm = np.zeros(C, dtype=np.float64)
    rv = np.ones(C, dtype=np.float64)
    for x in batches:
        xb = np.asarray(x, dtype=np.float64)
        mean = xb.mean(axis=(0, 2, 3))
        var = xb.var(axis=(0, 2, 3))
        rm = (1.0 - momentum) * rm + momentum * mean
        rv = (1.0 - momentum) * rv + momentum * var
    return rm, rv


def flood_fill_components(mask):
    """4-connected components of a boolean mask via BFS.

    Returns a list of pixel-index sets, ordered by each component's
    smallest row-major index.
    """
    mask = np.asarray(mask, dtype=bool)
    H, W = mask.shape
    seen = np.zeros_like(mask)
    comps = []
    for r in range(H):
        for c in range(W):
            if not mask[r, c] or seen[r, c]:
                continue
            comp = set()
            q = deque([(r, c)])
            seen[r, c] = True
            while q:
                y, x = q.popleft()
                comp.add((y, x))
                for dy, dx in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    ny, nx = y + dy, x + dx
                    if 0 <= ny < H and 0 <= nx < W and mask[ny, nx] and not seen[ny, nx]:
                        seen[ny, nx] = True
                        q.append((ny, nx))
            comps.append(comp)
    return comps


def cleanup_loop(label_map, num_classes):
    """Largest-component cleanup by BFS; ties keep the component whose
    smallest row-major pixel index is smallest. Removed pixels go to 0."""
    label_map = np.asarray(label_map)
    H, W = label_map.shape
    out = np.zeros_like(label_map)
    for cls in range(1, num_classes):
        comps = flood_fill_components(label_map == cls)
        if not comps:
            continue
        def size_then_seed(comp):
            return (-len(comp), min(r * W + c for r, c in comp))
        keep = sorted(comps, key=size_then_seed)[0]
        for r, c in keep:
            out[r, c] = cls
    return out


def boundary_loop(mask):
    """Boundary pixels: in the mask with some 4-neighbor outside it
    (image border counts as outside). Returns a sorted list of (r, c)."""
    mask = np.asarray(mask, dtype=bool)
    H, W = mask.shape
    pts = []
    for r in range(H):
        for c in range(W):
            if not mask[r, c]:
                continue
            on_edge = r == 0 or r == H - 1 or c == 0 or c == W - 1
            if not on_edge:
                for dy, dx in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    if not mask[r + dy, c + dx]:
                        on_edge = True
                        break
            if on_edge:
                pts.append((r, c))
    return pts


def assd_allpairs(pred, gt):
    """ASSD by brute-force all-pairs Euclidean distances, float arithmetic
    through Python floats only. Returns None when either mask is empty."""
    bp = boundary_loop(pred)
    bg = boundary_loop(gt)
    if not bp or not bg:
        return None
    total = 0.0
    for a in bp:
        total += min(math.hypot(a[0] - b[0], a[1] - b[1]) for b in bg)
    for b in bg:
        total += min(math.hypot(a[0] - b[0], a[1] - b[1]) for a in bp)
    return total / (len(bp) + len(bg))


def directed_mean_distance_f64(src, dst):
    """Mean over src points of the distance to the nearest dst point, from
    the float64 [N, M, 2] difference of all pairs."""
    diff = src[:, None, :].astype(np.float64) - dst[None, :, :].astype(np.float64)
    d = np.sqrt((diff * diff).sum(axis=2))
    return float(d.min(axis=1).mean())


def assd_f64(pred, gt):
    """ASSD of two [S, H, W] mask stacks pooled over slices, with
    ``directed_mean_distance_f64``; None when no slice has both boundaries."""
    total, count = 0.0, 0
    for ps, gs in zip(pred, gt):
        bp = np.array(boundary_loop(ps), dtype=np.int64).reshape(-1, 2)
        bg = np.array(boundary_loop(gs), dtype=np.int64).reshape(-1, 2)
        if len(bp) == 0 or len(bg) == 0:
            continue
        total += (directed_mean_distance_f64(bp, bg) * len(bp)
                  + directed_mean_distance_f64(bg, bp) * len(bg))
        count += len(bp) + len(bg)
    return total / count if count else None


def mean_longdouble(arrays):
    """Elementwise average accumulated in extended precision."""
    acc = np.zeros(arrays[0].shape, dtype=np.longdouble)
    for a in arrays:
        acc += np.asarray(a, dtype=np.longdouble)
    return acc / len(arrays)


def paired_t_reference(a, b, digits=50):
    """Paired two-sided t-test with mpmath at high precision."""
    import mpmath

    with mpmath.workdps(digits):
        d = [mpmath.mpf(str(x)) - mpmath.mpf(str(y)) for x, y in zip(a, b)]
        n = len(d)
        mean = mpmath.fsum(d) / n
        var = mpmath.fsum((x - mean) ** 2 for x in d) / (n - 1)
        t = mean / mpmath.sqrt(var / n)
        nu = n - 1
        # two-sided survival: I_{nu/(nu+t^2)}(nu/2, 1/2)
        xarg = nu / (nu + t * t)
        p = mpmath.betainc(nu / 2, mpmath.mpf(1) / 2, 0, xarg, regularized=True)
        return float(t), float(p)


# ---------------------------------------------------------------------
# float64 forward twins, used as the function under finite differences.
# Forward correctness of the real (float32) ops is established separately
# against the loop oracles above; differencing these noise-free twins then
# isolates the backward pass instead of measuring float32 cancellation.
# ---------------------------------------------------------------------

def conv2d_f64(x, w, b=None):
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    k = w.shape[2]
    p = (k - 1) // 2
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(2, 3))
    y = np.einsum("bchwij,ocij->bohw", win, w)
    if b is not None:
        y = y + np.asarray(b, dtype=np.float64).reshape(1, -1, 1, 1)
    return y


def bn_train_f64(x, gamma, beta, eps):
    x = np.asarray(x, dtype=np.float64)
    mean = x.mean(axis=(0, 2, 3), keepdims=True)
    var = x.var(axis=(0, 2, 3), keepdims=True)
    xhat = (x - mean) / np.sqrt(var + eps)
    g = np.asarray(gamma, dtype=np.float64).reshape(1, -1, 1, 1)
    b = np.asarray(beta, dtype=np.float64).reshape(1, -1, 1, 1)
    return g * xhat + b


def softmax_f64(z, axis=1):
    z = np.asarray(z, dtype=np.float64)
    z = z - z.max(axis=axis, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=axis, keepdims=True)


def leaky_f64(x, alpha=0.01):
    x = np.asarray(x, dtype=np.float64)
    return np.where(x > 0, x, alpha * x)


def maxpool_f64(x):
    x = np.asarray(x, dtype=np.float64)
    B, C, H, W = x.shape
    return x.reshape(B, C, H // 2, 2, W // 2, 2).max(axis=(3, 5))


def upsample_f64(x):
    return np.repeat(np.repeat(np.asarray(x, dtype=np.float64), 2, axis=2), 2, axis=3)


def wdice_f64(p, y, m, eta=1e-5):
    """Reliability-weighted Dice in float64: 1 - mean_c of masked overlap
    ratios, batch-averaged."""
    p = np.asarray(p, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    m = np.asarray(m, dtype=np.float64)
    if p.ndim == 3:
        p, y, m = p[None], y[None], m[None]
    if m.ndim == 3:
        m = m[:, None]
    num = 2.0 * (m * p * y).sum(axis=(2, 3))
    den = (m * (p + y)).sum(axis=(2, 3)) + eta
    return float(1.0 - (num / den).mean())


def mean_entropy_f64(head_probs, clamp=1e-12):
    mats = [np.asarray(h, dtype=np.float64) for h in head_probs]
    pm = sum(mats) / len(mats)
    if pm.ndim == 3:
        pm = pm[None]
    ent = -(pm * np.log(np.maximum(pm, clamp))).sum(axis=1)
    return float(ent.mean(axis=(1, 2)).mean())


class FiniteDifferenceReport:
    def __init__(self, rel_errors):
        self.rel_errors = np.asarray(rel_errors, dtype=np.float64)

    @property
    def worst(self):
        return float(self.rel_errors.max()) if self.rel_errors.size else 0.0

    @property
    def p99(self):
        if not self.rel_errors.size:
            return 0.0
        return float(np.percentile(self.rel_errors, 99.0))


def finite_difference_check(ad_fn, ref_fn, tensors, h=1e-3, floor=0.01):
    """Tape gradients of ad_fn() vs central differences of ref_fn().

    ad_fn builds the scalar through the engine; ref_fn recomputes the same
    scalar in float64 from the tensors' current .data, so the difference
    quotient carries no float32 cancellation noise. Relative error per
    coordinate is |ad - fd| / max(|ad|, |fd|, floor); the floor turns the
    comparison absolute where the true gradient is tiny.
    """
    from segadapt import autodiff as ad

    for t in tensors:
        t.grad = None
    with ad.Tape() as tape:
        loss = ad_fn()
        tape.backward(loss)
    grads = [np.array(t.grad, dtype=np.float64, copy=True) for t in tensors]

    rel = []
    for t, g in zip(tensors, grads):
        for midx in np.ndindex(*t.data.shape):
            orig = float(t.data[midx])
            t.data[midx] = orig + h
            fp = float(ref_fn())
            t.data[midx] = orig - h
            fm = float(ref_fn())
            t.data[midx] = orig
            fd = (fp - fm) / (2.0 * h)
            adg = float(g[midx])
            rel.append(abs(adg - fd) / max(abs(adg), abs(fd), floor))
    return FiniteDifferenceReport(rel)
