"""Inverted dropout regularization layer."""

from __future__ import annotations

import numpy as np

from .base import Layer

__all__ = ["Dropout"]


class Dropout(Layer):
    """Inverted dropout: active only in training mode, identity in eval mode.

    Scaling by ``1 / keep_prob`` during training keeps the expected activation
    magnitude constant, so inference needs no rescaling.
    """

    def __init__(self, rate: float = 0.5, name: str = "", seed: int = 0) -> None:
        super().__init__(name=name)
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self._rng = np.random.default_rng(seed)

    def forward(self, x: np.ndarray) -> np.ndarray:
        if not self.training:
            self._cache = None
            return x
        if self.rate == 0.0:
            self._cache = 1.0  # identity: backward scales by one
            return x
        keep = 1.0 - self.rate
        mask = self._keep((self._rng.random(x.shape) < keep) / keep)
        return x * mask

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return grad_out * self._cached()
