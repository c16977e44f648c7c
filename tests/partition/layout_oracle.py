"""The per-producer loop form of ``traffic_from_needs``, kept as its oracle.

For every producer core, sum the need table over the producer's slice of
input indices and charge each other consumer core that many indices' bytes.
:func:`repro.partition.layout.traffic_from_needs` (a prefix sum differenced
at the producer bounds) must give ``array_equal`` matrices.
"""

from __future__ import annotations

import numpy as np

from repro.noc.traffic import TrafficMatrix
from repro.partition.layout import ProducerLayout


def loop_traffic_from_needs(
    layout: ProducerLayout | None,
    needs: np.ndarray,
    bytes_per_value: int,
    label: str,
) -> TrafficMatrix:
    """Traffic matrix of a need table, one producer/consumer pair at a time."""
    if layout is None:
        p = needs.shape[1]
        return TrafficMatrix(np.zeros((p, p), dtype=np.int64), label=label)
    p = layout.num_cores
    if needs.shape[1] != p:
        raise ValueError(
            f"need table has {needs.shape[1]} consumer columns, layout has {p} cores"
        )
    per_index_bytes = layout.values_per_index * bytes_per_value
    m = np.zeros((p, p), dtype=np.int64)
    for producer, (start, stop) in enumerate(layout.bounds):
        if stop <= start:
            continue
        counts = needs[start:stop, :].sum(axis=0)  # indices sent to each consumer
        for consumer in range(p):
            if consumer == producer:
                continue
            m[producer, consumer] += int(counts[consumer]) * per_index_bytes
    return TrafficMatrix(m, label=label)
