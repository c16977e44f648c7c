"""Pointwise activation layers."""

from __future__ import annotations

import numpy as np

from ..functional import sigmoid
from .base import Layer

__all__ = ["ReLU", "Sigmoid", "Tanh"]


class ReLU(Layer):
    """Rectified linear unit, the activation used by every paper model."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        return np.where(self._keep(x > 0), x, 0.0)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return grad_out * self._cached()


class Sigmoid(Layer):
    """Logistic sigmoid activation."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self._keep(sigmoid(x))

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        out = self._cached()
        return grad_out * out * (1.0 - out)


class Tanh(Layer):
    """Hyperbolic tangent activation (classic LeNet non-linearity)."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self._keep(np.tanh(x))

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return grad_out * (1.0 - self._cached() ** 2)
