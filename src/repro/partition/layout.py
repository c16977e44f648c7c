"""Producer layouts: where each layer's input data physically lives.

Between two compute layers, the intervening pooling/activation/flatten layers
execute locally, so the *producer layout* of layer ``k``'s input space is
fully determined by layer ``k-1``'s output-channel assignment:

* conv -> conv: channel blocks carry over unchanged;
* conv -> dense: channel blocks scale by ``H*W`` into feature blocks
  (channel-major flatten keeps them contiguous);
* dense -> dense: feature blocks carry over;
* network input: resident in DRAM, broadcast through the memory controller to
  every core — no inter-core traffic (Table I likewise starts at conv2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..models.spec import LayerSpec
from ..noc.traffic import TrafficMatrix
from ..nn.sparsity import split_boundaries
from .plan import feature_bounds_from_channels

__all__ = ["ProducerLayout", "producer_layout_for", "traffic_from_needs"]


@dataclass(frozen=True)
class ProducerLayout:
    """Which core holds which slice of a layer's input index space.

    ``bounds[i]`` is the (start, stop) range of input indices (channels for
    conv layers, flat features for dense layers) resident on core ``i``, and
    ``values_per_index`` the number of 16-bit values behind each index (the
    feature-map spatial size for conv inputs, 1 for dense inputs).
    """

    bounds: tuple[tuple[int, int], ...]
    values_per_index: int

    @property
    def num_cores(self) -> int:
        return len(self.bounds)

    def owner_of(self, index: int) -> int:
        for core, (start, stop) in enumerate(self.bounds):
            if start <= index < stop:
                return core
        raise IndexError(f"input index {index} outside layout bounds")

    def slice_sizes(self) -> list[int]:
        return [stop - start for start, stop in self.bounds]


def producer_layout_for(
    layer: LayerSpec,
    prev_layer: LayerSpec | None,
    prev_out_bounds: list[tuple[int, int]] | None,
    num_cores: int,
) -> ProducerLayout | None:
    """Layout of ``layer``'s input, given the previous compute layer's split.

    Returns ``None`` for the first compute layer (input comes from DRAM).
    """
    if prev_layer is None or prev_out_bounds is None:
        return None
    if layer.kind == "conv":
        # Input channels = prev output channels; each carries H*W values.
        h, w = layer.in_shape[1], layer.in_shape[2]
        if prev_layer.out_channels != layer.in_channels:
            raise ValueError(
                f"{layer.name}: expects {layer.in_channels} input channels but "
                f"{prev_layer.name} produces {prev_layer.out_channels}"
            )
        return ProducerLayout(tuple(prev_out_bounds), values_per_index=h * w)
    if layer.kind == "dense":
        in_features = layer.in_shape[0]
        if prev_layer.kind == "conv":
            total_prev = prev_layer.out_channels
            if in_features % total_prev:
                raise ValueError(
                    f"{layer.name}: {in_features} features not a multiple of "
                    f"{prev_layer.name}'s {total_prev} channels"
                )
            per_channel = in_features // total_prev
            bounds = feature_bounds_from_channels(prev_out_bounds, per_channel)
            return ProducerLayout(tuple(bounds), values_per_index=1)
        # dense -> dense: features map one-to-one.
        if prev_layer.out_channels != in_features:
            raise ValueError(
                f"{layer.name}: expects {in_features} features but "
                f"{prev_layer.name} produces {prev_layer.out_channels}"
            )
        return ProducerLayout(tuple(prev_out_bounds), values_per_index=1)
    raise ValueError(f"{layer.name}: layer kind {layer.kind!r} is not a compute layer")


def traffic_from_needs(
    layout: ProducerLayout | None,
    needs: np.ndarray,
    bytes_per_value: int,
    label: str,
) -> TrafficMatrix:
    """Build the traffic matrix from a (num_inputs, num_cores) need table.

    ``needs[c, j]`` is True when consumer core ``j`` requires input index
    ``c``.  Inputs a core produces itself never cross the NoC.  A ``None``
    layout (first layer) yields zero traffic.
    """
    if layout is None:
        p = needs.shape[1]
        return TrafficMatrix(np.zeros((p, p), dtype=np.int64), label=label)
    p = layout.num_cores
    if needs.shape[1] != p:
        raise ValueError(
            f"need table has {needs.shape[1]} consumer columns, layout has {p} cores"
        )
    per_index_bytes = layout.values_per_index * bytes_per_value
    # counts[i, j] = inputs of producer i's slice that consumer j needs, as a
    # difference of prefix sums of the need table at the slice bounds.  The
    # prefix sums are only needed at the distinct bounds ("cuts"), so sum the
    # table between consecutive cuts (reduceat) and cumsum those few rows.
    rows = needs.shape[0]
    bounds = np.asarray(layout.bounds, dtype=np.int64).reshape(p, 2).clip(0, rows)
    starts, stops = bounds[:, 0], np.maximum(bounds[:, 1], bounds[:, 0])
    cuts = np.unique(np.concatenate(([0], starts, stops)))
    cuts = cuts[cuts < rows]
    prefix = np.zeros((len(cuts) + 1, p), dtype=np.int64)  # prefix[k] = needs[:cuts[k]] summed
    if len(cuts):
        segments = np.add.reduceat(needs, cuts, axis=0, dtype=np.int64)
        np.cumsum(segments, axis=0, out=prefix[1:])
    counts = prefix[np.searchsorted(cuts, stops)] - prefix[np.searchsorted(cuts, starts)]
    m = counts * per_index_bytes
    np.fill_diagonal(m, 0)  # inputs a core produces itself stay local
    return TrafficMatrix(m, label=label)


def default_out_bounds(layer: LayerSpec, num_cores: int) -> list[tuple[int, int]]:
    """Per-core output split, group-aligned for grouped conv layers.

    Ungrouped layers get the even contiguous split.  Grouped layers must not
    let a core's slice straddle a group boundary (the groups are independent
    computations), so:

    * ``groups <= num_cores`` (requires ``num_cores % groups == 0``): each
      group's channels are split among its cluster of ``num_cores/groups``
      cores;
    * ``groups > num_cores`` (requires ``groups % num_cores == 0``): each core
      receives ``groups/num_cores`` whole groups.
    """
    g = layer.groups
    if g <= 1:
        return split_boundaries(layer.out_channels, num_cores)
    if layer.out_channels % g:
        raise ValueError(
            f"{layer.name}: {layer.out_channels} channels not divisible by "
            f"groups={g}"
        )
    per_group = layer.out_channels // g
    if g <= num_cores:
        if num_cores % g:
            raise ValueError(
                f"{layer.name}: num_cores={num_cores} not divisible by groups={g}"
            )
        cluster = num_cores // g
        bounds: list[tuple[int, int]] = []
        for gi in range(g):
            base = gi * per_group
            for start, stop in split_boundaries(per_group, cluster):
                bounds.append((base + start, base + stop))
        return bounds
    if g % num_cores:
        raise ValueError(
            f"{layer.name}: groups={g} not divisible by num_cores={num_cores}"
        )
    groups_per_core = g // num_cores
    return [
        (c * groups_per_core * per_group, (c + 1) * groups_per_core * per_group)
        for c in range(num_cores)
    ]
