"""Fully-connected (inner-product) layer."""

from __future__ import annotations

import numpy as np

from ..initializers import get_initializer
from .base import Layer

__all__ = ["Dense"]


class Dense(Layer):
    """Affine layer ``y = x @ W + b`` over 2-D inputs ``(N, in_features)``.

    Weight layout is ``(in_features, out_features)`` so that a
    (producer-block, consumer-block) partition of the matrix maps directly to
    the (input-core, output-core) communication blocks used by the paper's
    group-Lasso sparsification.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        weight_init: str = "he_normal",
        name: str = "",
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__(name=name)
        self.in_features = in_features
        self.out_features = out_features

        rng = rng or np.random.default_rng(0)
        init = get_initializer(weight_init)
        self.weight = self.add_parameter("weight", init((in_features, out_features), rng))
        self.bias = self.add_parameter("bias", np.zeros(out_features)) if bias else None

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        (features,) = input_shape
        if features != self.in_features:
            raise ValueError(
                f"{self.name}: expected {self.in_features} input features, got {features}"
            )
        return (self.out_features,)

    def macs(self, input_shape: tuple[int, ...]) -> int:
        """Multiply-accumulate count for one input sample."""
        return self.in_features * self.out_features

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 2:
            raise ValueError(f"{self.name}: expected 2-D input, got shape {x.shape}")
        out = self._keep(x) @ self.weight.data
        if self.bias is not None:
            out += self.bias.data  # in place: the GEMM output is ours to reuse
        return out

    def backward(
        self, grad_out: np.ndarray, need_input_grad: bool = True
    ) -> np.ndarray | None:
        self.weight.grad += self._cached().T @ grad_out
        if self.bias is not None:
            self.bias.grad += grad_out.sum(axis=0)
        return grad_out @ self.weight.data.T if need_input_grad else None
