"""Small encoder-decoder segmentation network with duplicable decoder heads.

Default architecture: 2 levels, channels 8 -> 16 -> 32, two conv+BN+leaky-ReLU
blocks per level, 2x2 max-pool down, nearest-2x-plus-conv up, skip
concatenation, 1x1 output conv per head, channel softmax. A model starts with
one head; ``grow`` duplicates the head bitwise K times and attaches an
independent dropout gate to each copy's input feature map.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import BatchNorm2d, Tensor


@dataclass(frozen=True)
class ArchConfig:
    in_channels: int = 1
    num_classes: int = 3
    levels: int = 2
    base_channels: int = 8
    kernel: int = 3
    leak: float = 0.01
    dropout_rate: float = 0.5

    def __post_init__(self):
        if self.in_channels < 1 or self.base_channels < 1:
            raise ValueError("in_channels and base_channels must be >= 1")
        if self.levels < 1:
            raise ValueError("levels must be >= 1")
        if self.num_classes < 2:
            raise ValueError("need at least 2 classes")
        if self.kernel % 2 == 0:
            raise ValueError("kernel must be odd")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must be in [0,1)")

    @property
    def level_channels(self):
        return [self.base_channels * (2**i) for i in range(self.levels)]

    @property
    def bottleneck_channels(self):
        return self.base_channels * (2**self.levels)


MAX_HEADS = 8


def _he_init(rng: np.random.Generator, shape) -> np.ndarray:
    fan_in = int(np.prod(shape[1:]))
    std = np.sqrt(2.0 / fan_in)
    return (rng.standard_normal(shape) * std).astype(np.float32)


class Conv2d:
    def __init__(self, cin: int, cout: int, k: int, rng: np.random.Generator):
        self.w = Tensor(_he_init(rng, (cout, cin, k, k)), requires_grad=True)
        self.b = Tensor(np.zeros(cout, dtype=np.float32), requires_grad=True)

    def forward(self, x):
        return ad.conv2d(x, self.w, self.b)


class ConvBlock:
    """Two conv+BN+leaky-ReLU units."""

    def __init__(self, cin: int, cout: int, k: int, leak: float, rng):
        self.c1 = Conv2d(cin, cout, k, rng)
        self.n1 = BatchNorm2d(cout)
        self.c2 = Conv2d(cout, cout, k, rng)
        self.n2 = BatchNorm2d(cout)
        self.leak = leak

    def forward(self, x, train: bool, update_running: bool = True):
        x = ad.leaky_relu(self.n1.forward(self.c1.forward(x), train, update_running), self.leak)
        x = ad.leaky_relu(self.n2.forward(self.c2.forward(x), train, update_running), self.leak)
        return x


class Encoder:
    def __init__(self, arch: ArchConfig, rng):
        chans = arch.level_channels
        self.blocks = []
        cin = arch.in_channels
        for c in chans:
            self.blocks.append(ConvBlock(cin, c, arch.kernel, arch.leak, rng))
            cin = c
        self.bottom = ConvBlock(cin, arch.bottleneck_channels, arch.kernel, arch.leak, rng)

    def forward(self, x, train: bool, update_running: bool = True):
        skips = []
        for blk in self.blocks:
            x = blk.forward(x, train, update_running)
            skips.append(x)
            x = ad.maxpool2d(x)
        x = self.bottom.forward(x, train, update_running)
        return x, skips


class UpStage:
    """nearest-2x + conv halving channels, concat skip, then a conv block."""

    def __init__(self, cin: int, cout: int, k: int, leak: float, rng):
        self.up = Conv2d(cin, cout, k, rng)
        self.un = BatchNorm2d(cout)
        self.block = ConvBlock(2 * cout, cout, k, leak, rng)
        self.leak = leak

    def forward(self, x, skip, train: bool, update_running: bool = True):
        x = ad.upsample_nearest2x(x)
        x = ad.leaky_relu(self.un.forward(self.up.forward(x), train, update_running), self.leak)
        x = ad.concat([x, skip], axis=1)
        return self.block.forward(x, train, update_running)


class Decoder:
    """One prediction head: the full up path plus a 1x1 output conv."""

    def __init__(self, arch: ArchConfig, rng):
        chans = arch.level_channels
        self.stages = []
        cin = arch.bottleneck_channels
        for c in reversed(chans):
            self.stages.append(UpStage(cin, c, arch.kernel, arch.leak, rng))
            cin = c
        self.out = Conv2d(cin, arch.num_classes, 1, rng)

    def forward(self, x, skips, train: bool, update_running: bool = True):
        for stage, skip in zip(self.stages, reversed(skips)):
            x = stage.forward(x, skip, train, update_running)
        return self.out.forward(x)


class SegModel:
    """Encoder plus one or more decoder heads.

    ``forward_head`` returns softmax probabilities for one head. Dropout on
    the head's input feature map is active only after ``grow`` and only in
    train mode with ``dropout`` enabled.
    """

    def __init__(self, arch: ArchConfig, rng: np.random.Generator):
        self.arch = arch
        self.encoder = Encoder(arch, rng)
        self.heads = [Decoder(arch, rng)]
        self.head_dropout = False

    @property
    def num_heads(self) -> int:
        return len(self.heads)

    @property
    def num_classes(self) -> int:
        return self.arch.num_classes

    def _check_input(self, x: np.ndarray):
        if x.ndim != 4:
            raise ValueError(f"expected [B,C,H,W] input, got shape {x.shape}")
        if x.shape[1] != self.arch.in_channels:
            raise ValueError(f"expected {self.arch.in_channels} input channels, got {x.shape[1]}")
        div = 2**self.arch.levels
        if x.shape[2] % div or x.shape[3] % div:
            raise ValueError(f"spatial dims must be divisible by {div}, got {x.shape[2]}x{x.shape[3]}")

    def forward_head(self, x, head: int, train: bool, rng: np.random.Generator | None = None,
                     dropout: bool = True, update_running: bool = True):
        """Softmax probabilities [B,C,H,W] from one head (0-based index)."""
        if not 0 <= head < len(self.heads):
            raise IndexError(f"head {head} out of range (model has {len(self.heads)})")
        xt = x if isinstance(x, ad.Tensor) else ad.Tensor(x)
        self._check_input(xt.data)
        feat, skips = self.encoder.forward(xt, train, update_running)
        if self.head_dropout and dropout and train and self.arch.dropout_rate > 0.0:
            if rng is None:
                raise ValueError("train-mode forward with dropout needs an rng")
            feat = ad.dropout(feat, self.arch.dropout_rate, rng, train=True)
        logits = self.heads[head].forward(feat, skips, train, update_running)
        return ad.softmax_channel(logits)

    # -- parameter access -------------------------------------------------

    def named_parameters(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}

        def conv(prefix, c: Conv2d):
            out[f"{prefix}.w"] = c.w
            out[f"{prefix}.b"] = c.b

        def bn(prefix, n: BatchNorm2d):
            out[f"{prefix}.gamma"] = n.gamma
            out[f"{prefix}.beta"] = n.beta

        def block(prefix, blk: ConvBlock):
            conv(f"{prefix}.c1", blk.c1)
            bn(f"{prefix}.n1", blk.n1)
            conv(f"{prefix}.c2", blk.c2)
            bn(f"{prefix}.n2", blk.n2)

        for i, blk in enumerate(self.encoder.blocks):
            block(f"enc.l{i}", blk)
        block("enc.bottom", self.encoder.bottom)
        for h, head in enumerate(self.heads):
            for s, stage in enumerate(head.stages):
                conv(f"head{h}.s{s}.up", stage.up)
                bn(f"head{h}.s{s}.un", stage.un)
                block(f"head{h}.s{s}", stage.block)
            conv(f"head{h}.out", head.out)
        return out

    def bn_layers(self) -> dict[str, BatchNorm2d]:
        out: dict[str, BatchNorm2d] = {}

        def block(prefix, blk: ConvBlock):
            out[f"{prefix}.n1"] = blk.n1
            out[f"{prefix}.n2"] = blk.n2

        for i, blk in enumerate(self.encoder.blocks):
            block(f"enc.l{i}", blk)
        block("enc.bottom", self.encoder.bottom)
        for h, head in enumerate(self.heads):
            for s, stage in enumerate(head.stages):
                out[f"head{h}.s{s}.un"] = stage.un
                block(f"head{h}.s{s}", stage.block)
        return out

    def parameter_groups(self, selector: str = "all") -> list[Tensor]:
        """Addressable parameter groups: all | encoder | head:<k> | bn_affine_only."""
        named = self.named_parameters()
        if selector == "all":
            return list(named.values())
        if selector == "encoder":
            return [t for n, t in named.items() if n.startswith("enc.")]
        if selector.startswith("head:"):
            k = int(selector.split(":", 1)[1])
            if not 0 <= k < len(self.heads):
                raise IndexError(f"head {k} out of range")
            return [t for n, t in named.items() if n.startswith(f"head{k}.")]
        if selector == "bn_affine_only":
            return [t for n, t in named.items() if n.endswith(".gamma") or n.endswith(".beta")]
        raise ValueError(f"unknown parameter group selector: {selector!r}")

    # -- head duplication --------------------------------------------------

    def grow(self, k: int) -> "SegModel":
        """New model whose k heads are bitwise copies of the single head."""
        if len(self.heads) != 1:
            raise ValueError("grow expects a single-head model")
        if not 1 <= k <= MAX_HEADS:
            raise ValueError(f"head count must be in 1..{MAX_HEADS}, got {k}")
        grown = copy.deepcopy(self)
        grown.heads = [copy.deepcopy(self.heads[0]) for _ in range(k)]
        grown.head_dropout = True
        return grown

    def clone(self) -> "SegModel":
        return copy.deepcopy(self)
