"""Adam optimizer over explicit Tensor parameter lists."""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor


class Adam:
    """Adam with bias correction; betas (0.9, 0.999), eps 1e-8.

    A parameter whose grad is None (or all-zero) is left unchanged by step()
    apart from the shared step counter, and so is every parameter at lr 0.
    """

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params: list[Tensor], lr: float):
        if not lr >= 0:  # False for nan
            raise ValueError(f"lr must be >= 0, got {lr}")
        self.params = list(params)
        self.lr = float(lr)
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self):
        for p in self.params:
            p.grad = None

    def step(self):
        self.t += 1
        b1, b2 = np.float32(self.beta1), np.float32(self.beta2)
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for i, p in enumerate(self.params):
            g = p.grad
            if g is None:
                continue
            self.m[i] = b1 * self.m[i] + (1 - b1) * g
            self.v[i] = b2 * self.v[i] + (1 - b2) * (g * g)
            mhat = self.m[i] / np.float32(bc1)
            vhat = self.v[i] / np.float32(bc2)
            p.data = p.data - np.float32(self.lr) * mhat / (np.sqrt(vhat) + np.float32(self.eps))

