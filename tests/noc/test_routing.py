"""Tests for dimension-ordered routing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.noc import Mesh2D, xy_route_path, xy_route_port, xy_route_ports
from repro.noc.topology import EAST, LOCAL, NORTH, SOUTH, WEST


class TestRoutePort:
    def test_arrived(self):
        mesh = Mesh2D(4, 4)
        assert xy_route_port(mesh, 5, 5) == LOCAL

    def test_x_first(self):
        mesh = Mesh2D(4, 4)
        # From (0,0) to (2,2): go EAST first even though SOUTH also reduces.
        assert xy_route_port(mesh, 0, 10) == EAST

    def test_directions(self):
        mesh = Mesh2D(4, 4)
        assert xy_route_port(mesh, 5, 6) == EAST
        assert xy_route_port(mesh, 5, 4) == WEST
        assert xy_route_port(mesh, 5, 1) == NORTH
        assert xy_route_port(mesh, 5, 9) == SOUTH


class TestRoutePath:
    def test_path_endpoints(self):
        mesh = Mesh2D(4, 4)
        path = xy_route_path(mesh, 0, 15)
        assert path[0] == 0 and path[-1] == 15

    def test_path_length_is_manhattan(self):
        mesh = Mesh2D(4, 4)
        for src in range(16):
            for dst in range(16):
                path = xy_route_path(mesh, src, dst)
                assert len(path) - 1 == mesh.hop_distance(src, dst)

    def test_x_then_y_shape(self):
        mesh = Mesh2D(4, 4)
        path = xy_route_path(mesh, 0, 10)  # (0,0) -> (2,2)
        coords = [mesh.coords(n) for n in path]
        assert coords == [(0, 0), (1, 0), (2, 0), (2, 1), (2, 2)]

    def test_self_path(self):
        assert xy_route_path(Mesh2D(2, 2), 3, 3) == [3]

    @given(
        nodes=st.sampled_from([4, 8, 16, 32]),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=25, deadline=None)
    def test_consecutive_hops_adjacent(self, nodes, seed):
        import numpy as np

        mesh = Mesh2D.for_nodes(nodes)
        rng = np.random.default_rng(seed)
        src, dst = rng.integers(0, nodes, size=2)
        path = xy_route_path(mesh, int(src), int(dst))
        for a, b in zip(path, path[1:]):
            assert mesh.hop_distance(a, b) == 1

    def test_deterministic(self):
        mesh = Mesh2D(4, 4)
        assert xy_route_path(mesh, 3, 12) == xy_route_path(mesh, 3, 12)


class TestRouteTables:
    """Cached per-mesh-shape XY route tables (repro.noc.routing.route_tables)."""

    def test_hops_match_manhattan(self):
        import numpy as np

        from repro.noc import route_tables

        mesh = Mesh2D(4, 4)
        tables = route_tables(mesh)
        expected = np.array(
            [[mesh.hop_distance(s, d) for d in range(16)] for s in range(16)]
        )
        assert np.array_equal(tables.hops, expected)

    def test_usage_matches_route_paths(self):
        from repro.noc import route_tables

        mesh = Mesh2D(3, 3)
        tables = route_tables(mesh)
        for s in range(9):
            for d in range(9):
                path = xy_route_path(mesh, s, d)
                walked = {(a, b) for a, b in zip(path, path[1:])}
                row = tables.usage[s * 9 + d]
                used = {tables.links[i] for i in range(len(row)) if row[i]}
                assert used == walked

    def test_usage_row_sums_are_hop_counts(self):
        from repro.noc import route_tables

        mesh = Mesh2D(4, 2)
        tables = route_tables(mesh)
        for s in range(8):
            for d in range(8):
                assert tables.usage[s * 8 + d].sum() == tables.hops[s, d]

    def test_links_order_matches_mesh(self):
        from repro.noc import route_tables

        mesh = Mesh2D(4, 4)
        assert list(route_tables(mesh).links) == mesh.links()

    def test_cached_per_shape(self):
        from repro.noc import route_tables

        assert route_tables(Mesh2D(4, 4)) is route_tables(Mesh2D(4, 4))
        assert route_tables(Mesh2D(4, 4)) is not route_tables(Mesh2D(2, 2))

    def test_arrays_are_readonly(self):
        import numpy as np
        import pytest

        from repro.noc import route_tables

        tables = route_tables(Mesh2D(2, 2))
        with pytest.raises((ValueError, RuntimeError)):
            tables.hops[0, 0] = 99
        with pytest.raises((ValueError, RuntimeError)):
            tables.usage[0, 0] = 99
        assert isinstance(tables.link_index((0, 1)), (int, np.integer))

    @pytest.mark.parametrize("shape", [(1, 1), (4, 2), (4, 4), (8, 8)])
    def test_ports_match_xy_route_ports(self, shape):
        from repro.noc import route_tables

        mesh = Mesh2D(*shape)
        tables = route_tables(mesh)
        n = mesh.num_nodes
        assert len(tables.ports) == n * n
        for s in range(n):
            for d in range(n):
                assert tables.ports[s * n + d] == xy_route_ports(mesh, s, d)

    def test_usage_is_float64_for_blas(self):
        import numpy as np

        from repro.noc import route_tables

        assert route_tables(Mesh2D(4, 2)).usage.dtype == np.float64


class TestLinkFlits:
    """RouteTables.link_flits: exact float64 loads, guarded at 2**53."""

    def test_matches_integer_product(self):
        import numpy as np

        from repro.noc import route_tables

        tables = route_tables(Mesh2D(8, 8))
        rng = np.random.default_rng(0)
        flits = rng.integers(0, 2**40, size=(3, 64 * 64))
        want = flits @ tables.usage.astype(np.int64)
        got = tables.link_flits(flits)
        assert got.dtype == np.int64
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("active", [0, 1, 16, 4096])
    def test_single_burst_matches_integer_product(self, active):
        import numpy as np

        from repro.noc import route_tables

        tables = route_tables(Mesh2D(8, 8))
        rng = np.random.default_rng(active)
        flits = np.zeros(64 * 64, dtype=np.int64)
        pairs = rng.choice(64 * 64, size=active, replace=False)
        flits[pairs] = rng.integers(1, 2**40, size=active)
        got = tables.link_flits(flits)
        assert got.shape == (len(tables.links),)
        assert got.dtype == np.int64
        assert np.array_equal(got, flits @ tables.usage.astype(np.int64))

    def test_total_just_below_limit_is_exact(self):
        import numpy as np

        from repro.noc import route_tables

        tables = route_tables(Mesh2D(2, 2))
        flits = np.zeros(16, dtype=np.int64)
        flits[0 * 4 + 3] = 2**53 - 1  # 0 -> 3 crosses two links
        loads = tables.link_flits(flits)
        assert sorted(loads[loads > 0].tolist()) == [2**53 - 1, 2**53 - 1]

    @pytest.mark.parametrize("stack", [(), (2,)])
    def test_total_at_limit_raises(self, stack):
        import numpy as np

        from repro.noc import route_tables

        tables = route_tables(Mesh2D(2, 2))
        flits = np.zeros((*stack, 16), dtype=np.int64)
        last = flits.reshape(-1, 16)[-1]  # a view: only the last entry
        last[1] = last[2] = 2**52  # reaches a total of exactly 2**53
        with pytest.raises(OverflowError):
            tables.link_flits(flits)
