"""Shape-manipulation layers."""

from __future__ import annotations

import numpy as np

from .base import Layer

__all__ = ["Flatten"]


class Flatten(Layer):
    """Collapse all per-sample dimensions into a feature vector."""

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        return (int(np.prod(input_shape)),)

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._keep(x.shape)
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return grad_out.reshape(self._cached())
