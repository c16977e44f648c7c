"""``traffic_from_needs`` against the per-producer loop it replaced.

Random need tables and producer bounds — contiguous splits with empty
slices, the group-aligned splits of grouped layers, and arbitrary (possibly
overlapping or out-of-range) slices — on 4, 16 and 64 cores must give
``array_equal`` matrices.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models.spec import LayerSpec
from repro.partition.layout import ProducerLayout, default_out_bounds, traffic_from_needs
from repro.partition.traditional import grouped_needs

from .layout_oracle import loop_traffic_from_needs

CORES = (4, 16, 64)


def _contiguous_bounds(rng, num_inputs: int, p: int) -> list[tuple[int, int]]:
    """Sorted cut points (repeats allowed, so some slices are empty)."""
    cuts = np.sort(rng.integers(0, num_inputs + 1, size=p - 1))
    edges = [0, *cuts.tolist(), num_inputs]
    return list(zip(edges[:-1], edges[1:]))


def _arbitrary_bounds(rng, num_inputs: int, p: int) -> list[tuple[int, int]]:
    """Independent (start, stop) pairs: empty, reversed, overlapping, past the end."""
    pairs = rng.integers(0, num_inputs + 3, size=(p, 2))
    return [(int(a), int(b)) for a, b in pairs]


def _assert_same(layout, needs, bytes_per_value):
    got = traffic_from_needs(layout, needs, bytes_per_value, "t")
    want = loop_traffic_from_needs(layout, needs, bytes_per_value, "t")
    assert got.bytes_matrix.dtype == want.bytes_matrix.dtype
    assert np.array_equal(got.bytes_matrix, want.bytes_matrix)
    assert got.label == want.label


@given(
    p=st.sampled_from(CORES),
    num_inputs=st.integers(0, 300),
    density=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
    kind=st.sampled_from(["contiguous", "arbitrary"]),
    values_per_index=st.sampled_from([1, 49, 196]),
    bytes_per_value=st.sampled_from([1, 2]),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=80, deadline=None)
def test_matches_loop_oracle(p, num_inputs, density, kind, values_per_index,
                             bytes_per_value, seed):
    rng = np.random.default_rng(seed)
    needs = rng.random((num_inputs, p)) < density
    make = _contiguous_bounds if kind == "contiguous" else _arbitrary_bounds
    layout = ProducerLayout(tuple(make(rng, num_inputs, p)), values_per_index)
    _assert_same(layout, needs, bytes_per_value)


@given(
    p=st.sampled_from(CORES),
    groups=st.sampled_from([1, 2, 4, 8, 16, 64, 128]),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=40, deadline=None)
def test_grouped_layer_needs(p, groups, seed):
    """Real need tables of grouped and ungrouped conv layers."""
    if (groups <= p and p % groups) or (groups > p and groups % p):
        return
    channels = 128
    layer = LayerSpec(
        name="c", kind="conv", in_shape=(channels, 6, 6),
        out_shape=(channels, 6, 6), kernel=3, pad=1, groups=groups,
    )
    bounds = default_out_bounds(layer, p)
    needs = grouped_needs(layer, bounds)
    rng = np.random.default_rng(seed)
    # Sparsify the table so block structure is not the only pattern checked.
    needs = needs & (rng.random(needs.shape) < 0.7)
    _assert_same(ProducerLayout(tuple(bounds), values_per_index=36), needs, 2)


@pytest.mark.parametrize("p", CORES)
def test_all_empty_slices_and_needs(p):
    layout = ProducerLayout(((0, 0),) * p, values_per_index=4)
    _assert_same(layout, np.ones((0, p), dtype=bool), 2)
    _assert_same(layout, np.ones((5, p), dtype=bool), 2)


def test_none_layout():
    needs = np.ones((8, 16), dtype=bool)
    _assert_same(None, needs, 2)
