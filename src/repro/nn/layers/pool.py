"""Spatial pooling layers."""

from __future__ import annotations

import numpy as np

from ..functional import col2im, conv_output_size, im2col, pad_nchw
from .base import Layer

__all__ = ["MaxPool2D", "AvgPool2D"]


class _Pool2D(Layer):
    """Shared geometry handling for 2-D pooling layers."""

    def __init__(
        self,
        kernel_size: int,
        stride: int | None = None,
        padding: int = 0,
        name: str = "",
    ) -> None:
        super().__init__(name=name)
        self.kernel = kernel_size
        self.stride = stride if stride is not None else kernel_size
        self.padding = padding

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        c, h, w = input_shape
        out_h = conv_output_size(h, self.kernel, self.stride, self.padding)
        out_w = conv_output_size(w, self.kernel, self.stride, self.padding)
        return (c, out_h, out_w)

    def _unfold(self, x: np.ndarray) -> tuple[np.ndarray, int, int]:
        n, c, h, w = x.shape
        out_h = conv_output_size(h, self.kernel, self.stride, self.padding)
        out_w = conv_output_size(w, self.kernel, self.stride, self.padding)
        # Pool each channel independently: fold channels into the batch dim.
        cols = im2col(
            x.reshape(n * c, 1, h, w), self.kernel, self.kernel, self.stride,
            self.padding,
        )  # (N*C*out_h*out_w, k*k)
        return cols, out_h, out_w


class MaxPool2D(_Pool2D):
    """Max pooling over NCHW tensors.

    Works on the k*k strided window views of the zero-padded input and never
    unfolds it: forward is a running ``np.maximum`` over the views, backward
    finds each window's first maximum and scatters ``grad_out`` with one
    ``np.add.at``.  Both equal the im2col lowering (argmax over the unfolded
    columns, col2im of the routed gradient) bit for bit, ties included:

    * on equal operands ``np.maximum`` returns its second one, +0/-0 included,
      so the running maximum keeps the earliest element — argmax's choice;
    * backward scans the offsets last to first, each match overwriting, so a
      window routes to its first maximum, as argmax does;
    * col2im sums a pixel's contributions in ascending (ky, kx) order, which
      is descending window order, and ``np.add.at`` adds in index order, in
      the gradient's own dtype — so it is fed the windows reversed.
    """

    def _views(self, img: np.ndarray, out_h: int, out_w: int) -> list[np.ndarray]:
        """The window element at each offset (ky, kx), in raster order."""
        k, s = self.kernel, self.stride
        return [
            img[:, :, ky:ky + s * (out_h - 1) + 1:s, kx:kx + s * (out_w - 1) + 1:s]
            for ky in range(k)
            for kx in range(k)
        ]

    def forward(self, x: np.ndarray) -> np.ndarray:
        _, c, h, w = x.shape
        _, out_h, out_w = self.output_shape((c, h, w))
        img = pad_nchw(x, self.padding)
        views = self._views(img, out_h, out_w)
        out = views[0].copy()
        for view in views[1:]:
            np.maximum(view, out, out=out)
        # By reference: no layer writes its input or output in place.
        self._keep((img, out, x.shape))
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        img, out, x_shape = self._cached()
        self._cache = None
        n, c, h, w = x_shape
        _, _, hp, wp = img.shape
        _, _, out_h, out_w = out.shape
        s, pad = self.stride, self.padding
        # Flat offset of each window's first maximum within the padded image.
        views = self._views(img, out_h, out_w)
        offsets = [ky * wp + kx for ky in range(self.kernel) for kx in range(self.kernel)]
        first = np.full(out.shape, offsets[-1], dtype=np.intp)
        hit = np.empty(out.shape, dtype=bool)
        for offset, view in zip(offsets[-2::-1], views[-2::-1]):
            np.putmask(first, np.equal(view, out, out=hit), offset)
        first += (np.arange(out_h) * (s * wp))[:, None] + np.arange(out_w) * s
        first += np.arange(n * c).reshape(n, c, 1, 1) * (hp * wp)
        grad = np.zeros(img.shape, dtype=grad_out.dtype)
        np.add.at(grad.reshape(-1), first.ravel()[::-1], grad_out.ravel()[::-1])
        return grad[:, :, pad:pad + h, pad:pad + w]


class AvgPool2D(_Pool2D):
    """Average pooling over NCHW tensors."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        n, c, h, w = x.shape
        cols, out_h, out_w = self._unfold(x)
        out = cols.mean(axis=1)
        self._keep((x.shape, out_h, out_w))
        return out.reshape(n, c, out_h, out_w)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        x_shape, out_h, out_w = self._cached()
        n, c, h, w = x_shape
        window = self.kernel * self.kernel
        grad_cols = np.repeat(
            grad_out.reshape(-1, 1) / window, window, axis=1
        )
        grad_img = col2im(
            grad_cols, (n * c, 1, h, w), self.kernel, self.kernel, self.stride,
            self.padding,
        )
        return grad_img.reshape(x_shape)
