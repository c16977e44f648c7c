"""The im2col lowering of max pooling, kept as the oracle for MaxPool2D.

Forward unfolds every window into a column matrix and takes its argmax;
backward routes ``grad_out`` to the argmax column and folds the columns back
with col2im.  ``MaxPool2D`` must agree with it bit for bit in float64.
"""

from __future__ import annotations

import numpy as np

from repro.nn import MaxPool2D
from repro.nn.functional import col2im


class Im2colMaxPool2D(MaxPool2D):
    """Max pooling through im2col/col2im (the original implementation)."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        n, c, h, w = x.shape
        cols, out_h, out_w = self._unfold(x)
        argmax = cols.argmax(axis=1)
        out = cols[np.arange(cols.shape[0]), argmax]
        self._keep((x.shape, argmax, cols.shape))
        return out.reshape(n, c, out_h, out_w)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        x_shape, argmax, cols_shape = self._cached()
        n, c, h, w = x_shape
        grad_cols = np.zeros(cols_shape, dtype=grad_out.dtype)
        grad_cols[np.arange(cols_shape[0]), argmax] = grad_out.reshape(-1)
        grad_img = col2im(
            grad_cols, (n * c, 1, h, w), self.kernel, self.kernel, self.stride,
            self.padding,
        )
        return grad_img.reshape(x_shape)
