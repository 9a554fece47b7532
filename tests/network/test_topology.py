"""Unit tests for the 2-D mesh topology."""

import pytest

from repro.errors import ConfigError
from repro.network.topology import Mesh2D


def test_coords_row_major():
    mesh = Mesh2D(16, width=4)
    assert mesh.coords(0) == (0, 0)
    assert mesh.coords(3) == (3, 0)
    assert mesh.coords(4) == (0, 1)
    assert mesh.coords(15) == (3, 3)


def test_distance_is_manhattan():
    mesh = Mesh2D(16, width=4)
    assert mesh.distance(0, 0) == 0
    assert mesh.distance(0, 3) == 3
    assert mesh.distance(0, 15) == 6
    assert mesh.distance(5, 10) == 2


def test_distance_symmetric():
    mesh = Mesh2D(64, width=8)
    for a, b in [(0, 63), (7, 56), (12, 34)]:
        assert mesh.distance(a, b) == mesh.distance(b, a)


def test_route_endpoints_and_length():
    mesh = Mesh2D(16, width=4)
    route = mesh.route(0, 15)
    assert route[0] == 0
    assert route[-1] == 15
    assert len(route) == mesh.distance(0, 15) + 1


def test_route_steps_are_neighbors():
    mesh = Mesh2D(64, width=8)
    route = mesh.route(3, 60)
    for a, b in zip(route, route[1:]):
        assert mesh.distance(a, b) == 1


def test_triangle_inequality():
    mesh = Mesh2D(64, width=8)
    for a, b, c in [(0, 9, 63), (5, 40, 22)]:
        assert mesh.distance(a, c) <= mesh.distance(a, b) + mesh.distance(b, c)


def test_default_width_is_near_square():
    mesh = Mesh2D(64)
    assert mesh.width == 8
    assert mesh.height == 8


def test_non_square_machine():
    mesh = Mesh2D(6, width=3)
    assert mesh.height == 2
    assert mesh.coords(5) == (2, 1)


def test_single_node():
    mesh = Mesh2D(1)
    assert mesh.distance(0, 0) == 0
    assert mesh.average_distance() == 0.0


def test_average_distance_64():
    mesh = Mesh2D(64, width=8)
    # Mean Manhattan distance on an 8x8 grid is 2*(64-1)/... known ~5.33.
    assert 5.0 < mesh.average_distance() < 5.7


def test_out_of_range_node_rejected():
    mesh = Mesh2D(4, width=2)
    with pytest.raises(ConfigError):
        mesh.coords(4)
    with pytest.raises(ConfigError):
        mesh.distance(0, -1)


def test_zero_nodes_rejected():
    with pytest.raises(ConfigError):
        Mesh2D(0)


# ---------------------------------------------------------------------------
# Scale: balanced default widths, distance rows, torus wraparound.
# ---------------------------------------------------------------------------

def test_default_width_is_factor_balanced():
    from repro.config import balanced_width

    assert Mesh2D(1000).width == 25      # 25x40, no dead positions
    assert Mesh2D(1000).height == 40
    assert Mesh2D(12).width == 3
    assert Mesh2D(7).width == 1          # primes degrade to a chain
    assert balanced_width(1024) == 32
    assert balanced_width(256) == 16


def test_distance_rows_match_distance():
    from repro.network.topology import Torus2D

    for topo in (Mesh2D(1), Mesh2D(7), Mesh2D(64), Torus2D(64),
                 Torus2D(12, width=3)):
        n = topo.n_nodes
        for a in range(n):
            row = topo.row(a)
            assert len(row) == n
            for b in range(n):
                assert row[b] == topo.distance(a, b)
    # Large machines, a partial mesh among them: sampled pairs,
    # corners and the last (ragged) row included.
    pairs = [(0, 1023), (31, 992), (500, 501), (77, 77),
             (1023, 0), (992, 31), (0, 999), (999, 968), (512, 17)]
    for topo in (Mesh2D(1000, width=31), Mesh2D(1024), Torus2D(1024)):
        n = topo.n_nodes
        for a, b in pairs:
            if a < n and b < n:
                assert len(topo.row(a)) == n
                assert topo.row(a)[b] == topo.distance(a, b)


def test_large_machine_construction_is_cheap():
    import time

    t0 = time.perf_counter()
    Mesh2D(4096)
    assert time.perf_counter() - t0 < 0.5  # the old table took seconds


def test_partial_mesh_routing_at_scale():
    # 31x33 partial grid: 23 dead positions in the last row.
    mesh = Mesh2D(1000, width=31)
    for a, b in [(0, 999), (999, 0), (980, 30), (992, 968)]:
        route = mesh.route(a, b)
        assert route[0] == a and route[-1] == b
        assert all(n < 1000 for n in route)
        assert len(route) == mesh.distance(a, b) + 1


def test_torus_distance_wraps():
    from repro.network.topology import Torus2D

    torus = Torus2D(64)
    assert torus.width == torus.height == 8
    assert torus.distance(0, 7) == 1      # x wrap
    assert torus.distance(0, 56) == 1     # y wrap
    assert torus.distance(0, 63) == 2     # both axes wrap
    assert torus.distance(0, 36) == 8     # (4,4): no shortcut
    mesh = Mesh2D(64)
    for a, b in [(0, 63), (5, 58), (16, 47)]:
        assert torus.distance(a, b) <= mesh.distance(a, b)


def test_torus_route_uses_wraparound():
    from repro.network.topology import Torus2D

    torus = Torus2D(64)
    assert torus.route(0, 7) == [0, 7]
    assert torus.route(0, 56) == [0, 56]
    route = torus.route(0, 63)
    assert len(route) == 3
    for a, b in zip(route, route[1:]):
        assert torus.distance(a, b) == 1


def test_torus_route_tie_breaks_forward():
    from repro.network.topology import Torus2D

    torus = Torus2D(16)  # 4x4: opposite nodes are 2 hops either way
    route = torus.route(0, 2)
    assert route == [0, 1, 2]  # forward, not backward through the wrap


def test_torus_rejects_partial_grid():
    from repro.network.topology import Torus2D

    with pytest.raises(ConfigError):
        Torus2D(10, width=3)


def test_torus_metric_axioms():
    from repro.network.topology import Torus2D

    torus = Torus2D(36)
    for a in (0, 7, 35):
        assert torus.distance(a, a) == 0
        for b in (1, 17, 30):
            assert torus.distance(a, b) == torus.distance(b, a)
            for c in (3, 22):
                assert (torus.distance(a, c)
                        <= torus.distance(a, b) + torus.distance(b, c))


def test_make_topology_factory():
    from repro.config import MachineConfig
    from repro.network.topology import Torus2D, make_topology

    mesh = make_topology(MachineConfig(n_nodes=64))
    assert type(mesh) is Mesh2D and mesh.width == 8
    torus = make_topology(MachineConfig(n_nodes=256, topology="torus"))
    assert isinstance(torus, Torus2D) and torus.width == 16
