"""Dimension-ordered (XY) routing.

Packets first travel along X to the destination column, then along Y.  XY
routing is deterministic and deadlock-free on a mesh, which is why it is both
the paper's choice (Table II) and the standard BookSim2 default.

Because the routes depend only on the mesh shape, every derived table —
each (src, dst) pair's output-port sequence, pairwise hop distances, the
link list, and which links each route crosses — is precomputed once per
shape and cached (:func:`route_tables`).  The event-driven simulator reads
its packet routes from the port table; the per-burst
:func:`repro.noc.analytical.link_loads` and the batched plan-cost oracle
(:mod:`repro.plancost`) both reduce to one float64 (BLAS) matmul against the
cached route-usage matrix (:meth:`RouteTables.link_flits`) instead of
walking ``xy_route_path`` per pair.

The float64 product is exact.  Usage entries are 0 or 1, so every partial
sum of a link's load is a sum of non-negative integer flit counts bounded by
the matrix's total flit count; while that total stays below ``2**53`` every
partial sum is an integer float64 represents exactly, in any summation
order.  :meth:`RouteTables.link_flits` raises ``OverflowError`` when a
total reaches ``2**53`` (about 9e15 flits, far beyond any burst) rather
than return a rounded load.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .topology import EAST, LOCAL, NORTH, SOUTH, WEST, Mesh2D

__all__ = [
    "xy_route_port",
    "xy_route_path",
    "xy_route_ports",
    "RouteTables",
    "route_tables",
]

#: Flit totals at or above this may round in the float64 link-load matmul.
EXACT_FLOAT_LIMIT = 2**53


def xy_route_port(mesh: Mesh2D, current: int, dest: int) -> int:
    """Output port a packet at ``current`` headed to ``dest`` must take.

    Returns ``LOCAL`` when the packet has arrived.
    """
    cx, cy = mesh.coords(current)
    dx, dy = mesh.coords(dest)
    if cx < dx:
        return EAST
    if cx > dx:
        return WEST
    if cy > dy:
        return NORTH
    if cy < dy:
        return SOUTH
    return LOCAL


def xy_route_ports(mesh: Mesh2D, src: int, dest: int) -> tuple[int, ...]:
    """Output port taken at each router along the XY route, ending with LOCAL.

    ``ports[h]`` is the output port a packet takes at its ``h``-th router
    (hop 0 is the source router); the final entry is ``LOCAL`` at the
    destination.  XY routing is deterministic, so the whole route can be
    computed once at injection time instead of re-deriving the port for
    every waiting head flit every cycle.
    """
    ports = []
    current = src
    for _ in range(mesh.diameter + 1):
        port = xy_route_port(mesh, current, dest)
        ports.append(port)
        if port == LOCAL:
            return tuple(ports)
        current = mesh.neighbor(current, port)
    raise RuntimeError(f"routing loop from {src} to {dest}")  # pragma: no cover


def xy_route_path(mesh: Mesh2D, src: int, dest: int) -> list[int]:
    """Full node sequence from ``src`` to ``dest`` inclusive."""
    path = [src]
    current = src
    # A finite mesh guarantees termination within diameter hops.
    for _ in range(mesh.diameter + 1):
        port = xy_route_port(mesh, current, dest)
        if port == LOCAL:
            return path
        current = mesh.neighbor(current, port)
        path.append(current)
    raise RuntimeError(f"routing loop from {src} to {dest}")  # pragma: no cover


@dataclass(frozen=True)
class RouteTables:
    """Precomputed XY routing tables of one mesh shape.

    ``ports[s * N + d]`` is :func:`xy_route_ports` of the pair (the output
    port at each router along the route, ending with ``LOCAL``);
    ``hops[s, d]`` is the Manhattan hop count from node ``s`` to ``d``;
    ``links`` is the fixed unidirectional link order (``mesh.links()``), and
    ``usage[s * N + d, l]`` is 1.0 exactly when the XY route from ``s`` to
    ``d`` crosses ``links[l]``.  Per-link flit loads of a whole traffic
    matrix are then one matmul (:meth:`link_flits`).  ``usage`` is float64
    so that matmul runs in BLAS (numpy has no BLAS path for integer
    products); the module docstring gives the exactness argument.  All
    arrays are read-only — the tables are shared through an LRU cache.
    """

    width: int
    height: int
    ports: tuple[tuple[int, ...], ...]
    hops: np.ndarray  # (N, N) int64
    links: tuple[tuple[int, int], ...]
    usage: np.ndarray  # (N * N, L) float64 in {0, 1}

    @property
    def num_nodes(self) -> int:
        return self.width * self.height

    @property
    def num_links(self) -> int:
        return len(self.links)

    def link_index(self, link: tuple[int, int]) -> int:
        """Position of ``link`` in the fixed link order."""
        return self.links.index(link)

    def link_flits(self, flits: np.ndarray) -> np.ndarray:
        """Per-link flit loads (int64) of a ``(..., N * N)`` stack of flit rows.

        ``flits[..., s * N + d]`` is the flit count of pair ``(s, d)``; the
        result's last axis follows ``links``.  Raises ``OverflowError`` if
        any stack entry's total reaches ``2**53``, where the float64 product
        could round.

        For a single burst (1-D ``flits``) only the active rows enter the
        product, which shrinks from ``(N², L)`` to ``(nnz, L)``.  A burst
        often touches few pairs: at 8x8 the dense gemv streams the whole
        7 MB table (~0.44 ms at any density), the gathered one takes ~23 us
        at 4 active pairs and ~1.4 ms at all 4096.
        """
        f = np.asarray(flits)
        if f.size and int(f.sum(axis=-1).max()) >= EXACT_FLOAT_LIMIT:
            raise OverflowError(
                "flit total reaches 2**53; float64 link loads would not be exact"
            )
        usage = self.usage
        if f.ndim == 1:
            active = np.flatnonzero(f)
            f, usage = f[active], usage[active]
        return (f.astype(np.float64) @ usage).astype(np.int64)


@functools.lru_cache(maxsize=None)
def _route_tables(width: int, height: int) -> RouteTables:
    mesh = Mesh2D(width, height)
    n = mesh.num_nodes
    links = tuple(mesh.links())
    index = {link: l for l, link in enumerate(links)}
    ports = []
    hops = np.zeros((n, n), dtype=np.int64)
    usage = np.zeros((n * n, len(links)), dtype=np.float64)
    for src in range(n):
        for dst in range(n):
            route = xy_route_ports(mesh, src, dst)
            ports.append(route)
            hops[src, dst] = len(route) - 1
            row = usage[src * n + dst]
            node = src
            for port in route[:-1]:
                nxt = mesh.neighbor(node, port)
                row[index[(node, nxt)]] = 1.0
                node = nxt
    hops.setflags(write=False)
    usage.setflags(write=False)
    return RouteTables(
        width=width, height=height, ports=tuple(ports), hops=hops, links=links,
        usage=usage,
    )


def route_tables(mesh: Mesh2D) -> RouteTables:
    """The (cached) precomputed routing tables for ``mesh``'s shape.

    Tables are built once per distinct ``(width, height)`` and shared by
    every caller — the event-driven simulator's packet routes, per-burst
    link loads, the analytical drain estimate, and the batched plan-cost
    oracle all index the same arrays.
    """
    return _route_tables(mesh.width, mesh.height)
