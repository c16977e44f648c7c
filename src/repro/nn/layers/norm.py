"""Normalization layers: local response normalization (AlexNet) and batch norm."""

from __future__ import annotations

import numpy as np

from .base import Layer

__all__ = ["LocalResponseNorm", "BatchNorm"]


class LocalResponseNorm(Layer):
    """AlexNet-style cross-channel local response normalization.

    ``y_c = x_c / (k + alpha/n * sum_{c' in window(c)} x_{c'}^2) ** beta``

    Only the forward pass participates in gradients approximately: we use the
    exact derivative of the normalization denominator, matching Caffe's
    implementation.
    """

    def __init__(
        self,
        size: int = 5,
        alpha: float = 1e-4,
        beta: float = 0.75,
        k: float = 2.0,
        name: str = "",
    ) -> None:
        super().__init__(name=name)
        if size < 1 or size % 2 == 0:
            raise ValueError(f"LRN window size must be odd and >= 1, got {size}")
        self.size = size
        self.alpha = alpha
        self.beta = beta
        self.k = k

    def _window_sum_sq(self, x: np.ndarray) -> np.ndarray:
        n, c, h, w = x.shape
        sq = x ** 2
        half = self.size // 2
        padded = np.zeros((n, c + 2 * half, h, w), dtype=np.float64)
        padded[:, half:half + c] = sq
        csum = np.cumsum(padded, axis=1)
        zeros = np.zeros((n, 1, h, w), dtype=np.float64)
        csum = np.concatenate([zeros, csum], axis=1)
        return csum[:, self.size:] - csum[:, :-self.size]

    def forward(self, x: np.ndarray) -> np.ndarray:
        ssq = self._window_sum_sq(x)
        denom = self.k + (self.alpha / self.size) * ssq
        out = x / denom ** self.beta
        self._keep((x, denom, out))
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        x, denom, out = self._cached()
        # d y_c / d x_c term (diagonal); cross-channel terms use the same
        # windowed-sum trick applied to grad_out * out / denom.
        ratio = grad_out * out / denom
        cross = self._window_sum_sq_of(ratio)
        grad_in = grad_out / denom ** self.beta
        grad_in -= 2.0 * self.beta * (self.alpha / self.size) * x * cross
        return grad_in

    def _window_sum_sq_of(self, v: np.ndarray) -> np.ndarray:
        """Windowed channel sum of an arbitrary tensor (no squaring)."""
        n, c, h, w = v.shape
        half = self.size // 2
        padded = np.zeros((n, c + 2 * half, h, w), dtype=np.float64)
        padded[:, half:half + c] = v
        csum = np.cumsum(padded, axis=1)
        zeros = np.zeros((n, 1, h, w), dtype=np.float64)
        csum = np.concatenate([zeros, csum], axis=1)
        return csum[:, self.size:] - csum[:, :-self.size]


class BatchNorm(Layer):
    """Batch normalization over the channel axis of NCHW or feature axis of NC.

    Keeps running statistics for inference; an optional extension beyond the
    paper's models, used by some ablation variants.
    """

    def __init__(
        self,
        num_features: int,
        momentum: float = 0.9,
        eps: float = 1e-5,
        name: str = "",
    ) -> None:
        super().__init__(name=name)
        self.num_features = num_features
        self.momentum = momentum
        self.eps = eps
        self.gamma = self.add_parameter("gamma", np.ones(num_features))
        self.beta = self.add_parameter("beta", np.zeros(num_features))
        self.running_mean = np.zeros(num_features)
        self.running_var = np.ones(num_features)

    def _axes_and_shape(self, x: np.ndarray) -> tuple[tuple[int, ...], tuple[int, ...]]:
        if x.ndim == 2:
            return (0,), (1, self.num_features)
        if x.ndim == 4:
            return (0, 2, 3), (1, self.num_features, 1, 1)
        raise ValueError(f"{self.name}: expected 2-D or 4-D input, got {x.shape}")

    def forward(self, x: np.ndarray) -> np.ndarray:
        axes, shape = self._axes_and_shape(x)
        if self.training:
            mean = x.mean(axis=axes)
            var = x.var(axis=axes)
            self.running_mean = (
                self.momentum * self.running_mean + (1 - self.momentum) * mean
            )
            self.running_var = (
                self.momentum * self.running_var + (1 - self.momentum) * var
            )
        else:
            mean, var = self.running_mean, self.running_var
        std = np.sqrt(var + self.eps)
        x_hat = (x - mean.reshape(shape)) / std.reshape(shape)
        self._keep((x_hat, std, axes, shape))
        return self.gamma.data.reshape(shape) * x_hat + self.beta.data.reshape(shape)

    def backward(
        self, grad_out: np.ndarray, need_input_grad: bool = True
    ) -> np.ndarray | None:
        x_hat, std, axes, shape = self._cached()
        m = grad_out.size // self.num_features

        self.gamma.grad += (grad_out * x_hat).sum(axis=axes)
        self.beta.grad += grad_out.sum(axis=axes)
        if not need_input_grad:
            return None

        g = grad_out * self.gamma.data.reshape(shape)
        sum_g = g.sum(axis=axes, keepdims=True)
        sum_gx = (g * x_hat).sum(axis=axes, keepdims=True)
        return (g - sum_g / m - x_hat * sum_gx / m) / std.reshape(shape)
