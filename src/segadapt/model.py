"""Small encoder-decoder segmentation network with duplicable decoder heads.

Default architecture: 2 levels, channels 8 -> 16 -> 32, two conv+BN+leaky-ReLU
units per level (two tape nodes each: BatchNorm applies the activation),
2x2 max-pool down, nearest-2x-plus-conv up, a skip that the conv after it
takes as extra input channels, 1x1 output conv per head, channel softmax. A
model starts with one head; ``grow`` duplicates the head bitwise K times and
attaches an independent dropout gate to each copy's input feature map.
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
        if not 0.0 <= self.leak < 1.0:
            raise ValueError("leak must be in [0,1)")

    def check_input(self, shape):
        """ValueError unless ``shape`` is a [B,C,H,W] batch this network takes:
        ``in_channels`` channels, H and W divisible by the ``levels`` poolings."""
        if len(shape) != 4:
            raise ValueError(f"expected [B,C,H,W] input, got shape {tuple(shape)}")
        if shape[1] != self.in_channels:
            raise ValueError(f"expected {self.in_channels} input channels, got {shape[1]}")
        div = 2**self.levels
        if shape[2] % div or shape[3] % div:
            raise ValueError(f"spatial dims must be divisible by {div}, got {shape[2]}x{shape[3]}")

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

    def forward(self, x, skip=None):
        return ad.conv2d(x, self.w, self.b, skip)


class ConvBlock:
    """Two conv+BN+leaky-ReLU units; ``skip`` joins the first conv's input."""

    def __init__(self, cin: int, cout: int, k: int, leak: float, rng):
        self.c1 = Conv2d(cin, cout, k, rng)
        self.n1 = BatchNorm2d(cout, leak=leak)
        self.c2 = Conv2d(cout, cout, k, rng)
        self.n2 = BatchNorm2d(cout, leak=leak)

    def forward(self, x, train: bool, skip=None):
        x = self.n1.forward(self.c1.forward(x, skip), train)
        return self.n2.forward(self.c2.forward(x), train)


class Encoder:
    def __init__(self, arch: ArchConfig, rng):
        chans = arch.level_channels
        self.blocks = []
        cin = arch.in_channels
        for c in chans:
            self.blocks.append(ConvBlock(cin, c, arch.kernel, arch.leak, rng))
            cin = c
        self.bottom = ConvBlock(cin, arch.bottleneck_channels, arch.kernel, arch.leak, rng)

    def forward(self, x, train: bool):
        skips = []
        for blk in self.blocks:
            x = blk.forward(x, train)
            skips.append(x)
            x = ad.maxpool2d(x)
        x = self.bottom.forward(x, train)
        return x, skips


class UpStage:
    """nearest-2x + conv halving channels, then a conv block over that and
    the skip."""

    def __init__(self, cin: int, cout: int, k: int, leak: float, rng):
        self.up = Conv2d(cin, cout, k, rng)
        self.un = BatchNorm2d(cout, leak=leak)
        self.block = ConvBlock(2 * cout, cout, k, leak, rng)

    def forward(self, x, skip, train: bool):
        x = self.un.forward(self.up.forward(ad.upsample_nearest2x(x)), train)
        return self.block.forward(x, train, skip)


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

    def forward(self, x, skips, train: bool):
        for stage, skip in zip(self.stages, reversed(skips)):
            x = stage.forward(x, skip, train)
        return self.out.forward(x)


class SegModel:
    """Encoder plus one or more decoder heads.

    ``forward_head`` returns softmax probabilities for one head. Dropout on
    the head's input feature map is active only in train mode while
    ``head_dropout`` is set, which ``grow`` does. A train-mode forward
    normalizes with batch statistics and blends them into every BatchNorm's
    running buffers. Layers are named by position (``enc.l0.c1``,
    ``head2.s1.up``); ``named_parameters`` and ``bn_layers`` use these names.
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

    def forward_head(self, x, head: int, train: bool, rng: np.random.Generator | None = None):
        """Softmax probabilities [B,C,H,W] from one head (0-based index)."""
        if not 0 <= head < len(self.heads):
            raise IndexError(f"head {head} out of range (model has {len(self.heads)})")
        xt = x if isinstance(x, ad.Tensor) else ad.Tensor(x)
        self.arch.check_input(xt.data.shape)
        feat, skips = self.encoder.forward(xt, train)
        if self.head_dropout and train and self.arch.dropout_rate > 0.0:
            if rng is None:
                raise ValueError("train-mode forward with dropout needs an rng")
            feat = ad.dropout(feat, self.arch.dropout_rate, rng, train=True)
        logits = self.heads[head].forward(feat, skips, train)
        return ad.softmax_channel(logits)

    # -- parameter access -------------------------------------------------

    def _layers(self):
        """(name, Conv2d | BatchNorm2d) of every layer, in construction order."""

        def block(prefix, blk: ConvBlock):
            yield f"{prefix}.c1", blk.c1
            yield f"{prefix}.n1", blk.n1
            yield f"{prefix}.c2", blk.c2
            yield f"{prefix}.n2", blk.n2

        for i, blk in enumerate(self.encoder.blocks):
            yield from block(f"enc.l{i}", blk)
        yield from block("enc.bottom", self.encoder.bottom)
        for h, head in enumerate(self.heads):
            for s, stage in enumerate(head.stages):
                yield f"head{h}.s{s}.up", stage.up
                yield f"head{h}.s{s}.un", stage.un
                yield from block(f"head{h}.s{s}", stage.block)
            yield f"head{h}.out", head.out

    def named_parameters(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for name, layer in self._layers():
            if isinstance(layer, BatchNorm2d):
                out[f"{name}.gamma"], out[f"{name}.beta"] = layer.gamma, layer.beta
            else:
                out[f"{name}.w"], out[f"{name}.b"] = layer.w, layer.b
        return out

    def bn_layers(self) -> dict[str, BatchNorm2d]:
        return {name: layer for name, layer in self._layers() if isinstance(layer, BatchNorm2d)}

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
