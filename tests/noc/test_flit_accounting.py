"""Closed-form flit accounting against the packet-walking sums it replaced.

``TrafficMatrix.total_flit_hops`` / ``total_flits`` and
``NoCEnergyModel.analytical_energy`` use :func:`message_flits` and the cached
route tables' hop matrix.  The references below segment every message into
packets and walk the mesh per pair; the integer results must be exactly
equal, and so must the energies computed from them.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.noc import EnergyBreakdown, Mesh2D, NoCConfig, NoCEnergyModel, TrafficMatrix
from repro.noc.packet import segment_message

MESH_SHAPES = ((1, 1), (2, 2), (4, 2), (3, 3), (4, 4), (8, 8))

noc_configs = st.sampled_from(
    [NoCConfig(), NoCConfig(max_packet_flits=4), NoCConfig(flit_bits=256)]
)


def walked_flit_hops(traffic: TrafficMatrix, mesh: Mesh2D, config: NoCConfig) -> int:
    total = 0
    for src in range(traffic.num_nodes):
        for dst in range(traffic.num_nodes):
            b = int(traffic.bytes_matrix[src, dst])
            if b == 0:
                continue
            flits = sum(p.num_flits for p in segment_message(src, dst, b, config))
            total += flits * mesh.hop_distance(src, dst)
    return total


def walked_energy(model, traffic, mesh, config) -> EnergyBreakdown:
    flit_hops = walked_flit_hops(traffic, mesh, config)
    total_flits = sum(p.num_flits for p in traffic.to_packets(config))
    rw = flit_hops + total_flits
    return EnergyBreakdown(
        buffer_j=rw * (model.buffer_write_j + model.buffer_read_j),
        crossbar_j=rw * model.crossbar_j,
        allocator_j=rw * 2 * model.allocation_j,
        link_j=flit_hops * model.link_j,
    )


def _matrix(n: int, seed: int, density: float) -> TrafficMatrix:
    rng = np.random.default_rng(seed)
    m = rng.integers(1, 200_000, size=(n, n))
    m = np.where(rng.random((n, n)) < density, m, 0)
    np.fill_diagonal(m, 0)
    return TrafficMatrix(m)


@given(
    shape=st.sampled_from(MESH_SHAPES),
    density=st.sampled_from([0.0, 0.05, 0.5, 1.0]),
    config=noc_configs,
    seed=st.integers(0, 2**16),
)
@settings(max_examples=50, deadline=None)
def test_closed_forms_match_packet_walk(shape, density, config, seed):
    mesh = Mesh2D(*shape)
    tm = _matrix(mesh.num_nodes, seed, density)
    hops = tm.total_flit_hops(mesh, config)
    assert isinstance(hops, int)
    assert hops == walked_flit_hops(tm, mesh, config)
    flits = tm.total_flits(config)
    assert isinstance(flits, int)
    assert flits == sum(p.num_flits for p in tm.to_packets(config))
    model = NoCEnergyModel()
    assert model.analytical_energy(tm, mesh, config) == walked_energy(
        model, tm, mesh, config
    )


def test_mesh_size_mismatch_still_raises():
    with pytest.raises(ValueError):
        _matrix(4, 0, 1.0).total_flit_hops(Mesh2D(3, 3), NoCConfig())
