"""Lattice/graph construction, derived structure, and the dump format."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rsolab.graphs import (
    Pinned,
    WeightedGraph,
    attach_delta,
    build_box,
    build_grid,
    dump_graph,
    integrate_out,
    load_graph,
)


def triangle(w01=1.0, w02=2.0, w12=3.0, eta=(0.5, 0.0, 1.5)) -> WeightedGraph:
    return WeightedGraph(
        n_vertices=3,
        edges=np.array([[0, 1], [0, 2], [1, 2]]),
        weights=np.array([w01, w02, w12]),
        eta=np.array(eta),
    )


class TestConstruction:
    def test_grid_shape_and_edges_1d(self):
        g = build_grid((4,), w=0.5)
        assert g.n_vertices == 4
        assert g.n_edges == 3
        assert np.array_equal(g.edges, [[0, 1], [1, 2], [2, 3]])
        assert np.all(g.weights == 0.5)

    def test_grid_edges_2d(self):
        g = build_grid((2, 3), w=1.0)
        # row-major: vertex (r, c) -> 3r + c
        expected = {(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)}
        got = {tuple(e) for e in g.edges}
        assert got == expected

    def test_wired_eta_counts_outside_neighbors(self):
        g = build_grid((3, 3), w=2.0)
        # corners have 2 outside neighbors, edge-midpoints 1, the center 0
        eta = g.eta.reshape(3, 3)
        assert eta[1, 1] == 0.0
        assert eta[0, 0] == eta[2, 2] == 4.0
        assert eta[0, 1] == eta[1, 0] == 2.0

    def test_box_is_centered(self):
        g = build_box(2, 2, w=1.0)
        assert g.shape == (5, 5)
        assert g.half_side == 2
        center = g.center_index
        assert np.array_equal(g.coords[center], [0, 0])
        assert g.vertex_at([0, 0]) == center
        assert g.vertex_at([-2, -2]) == 0

    def test_boundary_kinds(self):
        assert np.all(build_grid((3,), 1.0, boundary="zero").eta == 0)
        g = build_grid((3,), 1.0, boundary=Pinned(1, 2.5))
        assert np.array_equal(g.eta, [0.0, 2.5, 0.0])
        g = build_grid((3,), 1.0, boundary=[0.1, 0.2, 0.3])
        assert np.allclose(g.eta, [0.1, 0.2, 0.3])

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            build_grid((0,), 1.0)
        with pytest.raises(ValueError):
            build_grid((3,), -1.0)
        with pytest.raises(ValueError):
            build_grid((100, 100), 1.0, max_vertices=99)
        with pytest.raises(ValueError):
            WeightedGraph(2, np.array([[0, 0]]), np.array([1.0]), np.zeros(2))
        with pytest.raises(ValueError):
            WeightedGraph(2, np.array([[1, 0]]), np.array([1.0]), np.zeros(2))
        with pytest.raises(ValueError):
            WeightedGraph(2, np.array([[0, 1], [0, 1]]), np.array([1.0, 2.0]), np.zeros(2))
        with pytest.raises(ValueError):
            WeightedGraph(2, np.array([[0, 1]]), np.array([1.0]), np.array([-0.1, 0.0]))

    def test_immutability(self):
        g = build_grid((3,), 1.0)
        with pytest.raises(ValueError):
            g.weights[0] = 7.0
        with pytest.raises(ValueError):
            g.eta[0] = 7.0


class TestDerivedStructure:
    def test_degrees(self):
        g = triangle()
        assert np.allclose(g.degree_w, [3.0, 4.0, 5.0])
        assert np.array_equal(g.degree, [2, 2, 2])

    def test_uniform_weight(self):
        assert build_grid((3,), 0.7).uniform_weight == 0.7
        assert triangle().uniform_weight is None

    def test_is_path(self):
        assert build_grid((5,), 1.0).is_path
        assert build_grid((1,), 1.0).is_path
        assert not build_grid((2, 2), 1.0).is_path
        assert not triangle().is_path

    def test_weight_matrix(self):
        wm = triangle().weight_matrix()
        assert np.allclose(wm, wm.T)
        assert np.all(np.diag(wm) == 0)
        assert wm[0, 1] == 1.0 and wm[0, 2] == 2.0 and wm[1, 2] == 3.0

    def test_neighbor_lists_round_trip(self):
        g = build_grid((3, 3), 1.5)
        indptr, nbrs, wts = g.neighbor_lists
        wm = g.weight_matrix()
        for i in range(g.n_vertices):
            sl = slice(indptr[i], indptr[i + 1])
            assert np.allclose(wm[i, nbrs[sl]], wts[sl])
            assert len(nbrs[sl]) == g.degree[i]


class TestDerivedGraphs:
    def test_integrate_out_shifts_indices(self):
        g = build_grid((4,), 1.0)
        h = integrate_out(g, 1)
        assert h.n_vertices == 3
        assert np.array_equal(h.edges, [[1, 2]])
        # the neighbours 0 and 2 of the vertex 1 take its coupling w = 1
        assert np.allclose(h.eta, [g.eta[0] + 1.0, g.eta[2] + 1.0, g.eta[3]])

    def test_attach_delta_moves_eta_to_sink(self):
        g = build_grid((3,), 2.0, boundary="wired")
        h = attach_delta(g)
        assert h.n_vertices == 4
        assert h.delta == 3
        assert np.all(h.eta == 0)
        wm = h.weight_matrix()
        assert np.allclose(wm[3, :3], g.eta)
        # integrating out the sink recovers the interior couplings and eta
        back = integrate_out(h, 3)
        assert np.array_equal(back.edges, g.edges)
        assert np.allclose(back.weights, g.weights)
        assert np.allclose(back.eta, g.eta)

    def test_attach_delta_requires_boundary_mass(self):
        with pytest.raises(ValueError):
            attach_delta(build_grid((3,), 1.0, boundary="zero"))


class TestDumpFormat:
    def test_round_trip(self):
        g = triangle()
        text = dump_graph(g)
        assert text.startswith("# rso-graph v1\n")
        h = load_graph(text)
        assert h.n_vertices == g.n_vertices
        assert np.array_equal(h.edges, g.edges)
        assert np.allclose(h.weights, g.weights)
        assert np.allclose(h.eta, g.eta)

    def test_canonical_idempotence(self):
        text = dump_graph(build_grid((3, 2), 0.25))
        assert dump_graph(load_graph(text)) == text

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            load_graph("not a dump")
        with pytest.raises(ValueError):
            load_graph("# rso-graph v1\n0 1 1.0\n")  # no eta lines


@given(
    shape=st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=3),
    w=st.floats(min_value=0.01, max_value=10.0),
)
def test_grid_edge_count_formula(shape, w):
    g = build_grid(shape, w)
    n = math.prod(shape)
    expected = sum((s - 1) * n // s for s in shape)
    assert g.n_edges == expected
    # handshake: weighted degrees sum to twice the total edge weight
    assert np.isclose(g.degree_w.sum(), 2.0 * w * g.n_edges)


@given(
    shape=st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=3),
    w=st.floats(min_value=0.01, max_value=10.0),
)
def test_wired_eta_totals_surface_weight(shape, w):
    g = build_grid(shape, w, boundary="wired")
    d = len(shape)
    n = math.prod(shape)
    # each vertex has 2d lattice neighbors; eta counts those outside the grid
    inside = 2 * g.n_edges
    assert np.isclose(g.eta.sum(), w * (2 * d * n - inside))


@given(st.data())
def test_dump_load_round_trip_random(data):
    n = data.draw(st.integers(min_value=1, max_value=8))
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = data.draw(st.lists(st.sampled_from(possible), unique=True, max_size=len(possible))) if possible else []
    weights = [data.draw(st.floats(min_value=0.1, max_value=9.0)) for _ in chosen]
    eta = [data.draw(st.floats(min_value=0.0, max_value=5.0)) for _ in range(n)]
    g = WeightedGraph(
        n_vertices=n,
        edges=np.array(chosen, dtype=np.int64).reshape(-1, 2),
        weights=np.array(weights),
        eta=np.array(eta),
    )
    h = load_graph(dump_graph(g))
    assert np.array_equal(h.edges, g.edges)
    assert np.array_equal(h.weights, g.weights)  # 17 digits: exact round trip
    assert np.array_equal(h.eta, g.eta)
