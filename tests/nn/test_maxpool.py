"""MaxPool2D (strided window views) against the im2col lowering it replaced.

Inputs are tie-heavy on purpose: post-ReLU zeros and values on a 0.1 grid
give many windows with several equal maxima, and ``grad_out`` carries
``-0.0``.  Forward output and input gradient must match the oracle byte for
byte in float64 and float32.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import MaxPool2D
from repro.nn.functional import conv_output_size

from .pool_oracle import Im2colMaxPool2D

#: (kernel, stride, padding): the models' k2/s2 and k3/s2, overlapping k3/s1,
#: and padded windows.
GEOMETRIES = [(2, 2, 0), (3, 2, 0), (3, 1, 0), (2, 2, 1), (3, 2, 1), (3, 1, 1)]


def _tie_heavy(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Post-ReLU activations rounded to 0.1, some zeros negative: mostly
    zeros and repeated values."""
    x = np.round(np.maximum(rng.normal(size=shape), 0.0), 1)
    x[rng.random(shape) < 0.1] = -0.0
    return x


def _grad(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    g = np.round(rng.normal(size=shape), 1)
    g[rng.random(shape) < 0.2] = -0.0
    return g


@st.composite
def pool_cases(draw):
    k, s, p = draw(st.sampled_from(GEOMETRIES))
    # Sizes from one window up; many leave the last row or column uncovered.
    h = draw(st.integers(k, 9))
    w = draw(st.integers(k, 9))
    n = draw(st.integers(1, 3))
    c = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = _tie_heavy(rng, (n, c, h, w))
    out_shape = (
        n, c, conv_output_size(h, k, s, p), conv_output_size(w, k, s, p)
    )
    return (k, s, p), x, _grad(rng, out_shape)


def _run(cls, geometry, x, g):
    pool = cls(*geometry)
    out = pool.forward(x)
    return out, pool.backward(g)


def _bytes(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a).tobytes()


class TestMaxPoolMatchesIm2col:
    @settings(max_examples=150, deadline=None)
    @given(pool_cases(), st.sampled_from([np.float64, np.float32]))
    def test_forward_and_backward_bit_identical(self, case, dtype):
        geometry, x, g = case
        x, g = x.astype(dtype), g.astype(dtype)
        out, grad = _run(MaxPool2D, geometry, x, g)
        want_out, want_grad = _run(Im2colMaxPool2D, geometry, x, g)
        assert out.dtype == grad.dtype == np.dtype(dtype)
        assert out.shape == want_out.shape and grad.shape == want_grad.shape == x.shape
        assert _bytes(out) == _bytes(want_out)
        assert _bytes(grad) == _bytes(want_grad)

    def test_signed_zero_ties_pick_first(self):
        # -0.0 and +0.0 compare equal: the output keeps the first one's sign
        # and the gradient goes to the first position, as argmax does.
        x = np.array([[[[-0.0, 0.0], [0.0, 0.0]]]])
        g = np.array([[[[3.0]]]])
        out, grad = _run(MaxPool2D, (2, 2, 0), x, g)
        assert np.signbit(out[0, 0, 0, 0])
        np.testing.assert_array_equal(grad[0, 0], [[3.0, 0.0], [0.0, 0.0]])

    @pytest.mark.parametrize("geometry,size", [((2, 2, 0), 7), ((3, 2, 0), 8)])
    def test_uncovered_border_gets_zero_gradient(self, geometry, size):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 2, size, size))
        pool = MaxPool2D(*geometry)
        out = pool.forward(x)
        grad = pool.backward(np.ones_like(out))
        assert not grad[:, :, -1, :].any() and not grad[:, :, :, -1].any()
        # Every window routes its whole gradient somewhere inside the image.
        assert grad.sum() == out.size
