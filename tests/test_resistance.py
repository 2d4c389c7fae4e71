"""Conductance networks and the pinned-Green resistance identity.

Hand-built two- and three-node networks give closed-form effective
resistances (series/parallel laws) that certify the solver; the identity
check then ties the network machinery to the tilted Dirichlet Green value
on sampled fields, and Rayleigh's shorting law gives a structural invariant
for nested sub-boxes.
"""

import numpy as np
import pytest

from rsolab.field import BetaField, exact_field
from rsolab.graphs import WeightedGraph, build_box, build_grid, subbox_indices
from rsolab.operators import operator_from_two_beta
from rsolab.resistance import (
    HARMONIC_TOL,
    IDENTITY_RTOL,
    NetworkError,
    build_network,
    build_surrogate,
    effective_resistance,
    harmonic_residual,
    identity_check,
    nash_williams_bound,
    tilted_field,
)
from rsolab.rng import philox_stream

NO_EDGES = np.empty((0, 2), dtype=np.int64)
NO_COND = np.empty(0)


def single_edge_net(c: float) -> WeightedGraph:
    return WeightedGraph(1, NO_EDGES, NO_COND, np.array([c]))


class TestHandNetworks:
    def test_single_edge(self):
        net = single_edge_net(4.0)
        assert abs(effective_resistance(net, 0) - 0.25) < 1e-14
        assert abs(nash_williams_bound(net, 0) - 0.25) < 1e-14

    def test_series(self):
        c1, c2 = 2.0, 5.0
        net = WeightedGraph(2, np.array([[0, 1]]), np.array([c1]), np.array([0.0, c2]))
        want = 1.0 / c1 + 1.0 / c2
        assert abs(effective_resistance(net, 0) - want) < 1e-14
        # a chain is a tree: the cutset bound is tight
        assert abs(nash_williams_bound(net, 0) - want) < 1e-14

    def test_parallel(self):
        # source sinks directly (c0) and through a middle vertex (c1, c2)
        c0, c1, c2 = 1.0, 2.0, 3.0
        net = WeightedGraph(2, np.array([[0, 1]]), np.array([c1]), np.array([c0, c2]))
        want = 1.0 / (c0 + 1.0 / (1.0 / c1 + 1.0 / c2))
        got = effective_resistance(net, 0)
        assert abs(got - want) < 1e-14
        nw = nash_williams_bound(net, 0)
        assert abs(nw - 1.0 / (c0 + c1)) < 1e-14
        assert nw <= got + 1e-14

    def test_triangle_with_sink(self):
        # full triangle on inner vertices, two of them grounded: compare with
        # the explicit 3x3 grounded-Laplacian solve done by hand via numpy
        edges = np.array([[0, 1], [0, 2], [1, 2]])
        cond = np.array([1.0, 2.0, 4.0])
        sink = np.array([0.0, 3.0, 5.0])
        net = WeightedGraph(3, edges, cond, sink)
        lap = np.array(
            [
                [3.0, -1.0, -2.0],
                [-1.0, 1.0 + 4.0 + 3.0, -4.0],
                [-2.0, -4.0, 2.0 + 4.0 + 5.0],
            ]
        )
        v = np.linalg.solve(lap, np.array([1.0, 0.0, 0.0]))
        v = v / v[0]
        current = 1.0 * (1 - v[1]) + 2.0 * (1 - v[2])
        assert abs(effective_resistance(net, 0) - 1.0 / current) < 1e-13
        assert nash_williams_bound(net, 0) <= effective_resistance(net, 0) + 1e-14

    def test_disconnected_raises(self):
        net = WeightedGraph(1, NO_EDGES, NO_COND, np.array([0.0]))
        with pytest.raises(NetworkError):
            effective_resistance(net, 0)
        with pytest.raises(NetworkError):
            nash_williams_bound(net, 0)


class TestSubboxIndices:
    def test_matches_subbox_vertex_order(self):
        g = build_box(2, 3, w=1.0)
        sub = build_box(2, 1, w=1.0)
        inner = subbox_indices(g, 1)
        assert inner.shape == (9,)
        assert np.array_equal(g.coords[inner], sub.coords)

    def test_full_box_and_center(self):
        g = build_box(1, 2, w=1.0)
        assert np.array_equal(subbox_indices(g, 2), np.arange(5))
        assert np.array_equal(subbox_indices(g, 0), [g.center_index])

    def test_validation(self):
        g = build_box(2, 2, w=1.0)
        with pytest.raises(ValueError):
            subbox_indices(g, 3)
        with pytest.raises(ValueError):
            subbox_indices(build_grid((5,), 1.0), 1)


class TestSurrogate:
    def test_normalization_and_positivity(self):
        g = build_box(2, 3, w=1.0, boundary="wired")
        f = exact_field(g, philox_stream(2))
        s = build_surrogate(f)
        assert s.center == g.center_index
        assert s.h[s.center] == 1.0
        assert np.all(s.h > 0)
        assert s.g00 > 0
        with pytest.raises(ValueError):
            s.h[0] = 2.0

    def test_tilt_makes_h_harmonic(self):
        g = build_box(2, 2, w=0.8, boundary="wired")
        f = exact_field(g, philox_stream(3))
        s = build_surrogate(f)
        assert harmonic_residual(f, s) < HARMONIC_TOL

    def test_tilt_only_at_center(self):
        g = build_box(1, 3, w=1.0, boundary="wired")
        f = exact_field(g, philox_stream(4))
        s = build_surrogate(f)
        bt = tilted_field(f, s)
        mask = np.arange(g.n_vertices) != s.center
        assert np.array_equal(bt[mask], f.beta[mask])
        assert bt[s.center] < f.beta[s.center]

    def test_single_vertex_tilt_is_zero(self):
        # one wired vertex: g00 = 1/(2 beta), so the tilt removes beta exactly
        g = build_box(1, 0, w=1.0, boundary="wired")
        f = BetaField(graph=g, beta=np.array([0.7]))
        s = build_surrogate(f)
        assert abs(tilted_field(f, s)[0]) < 1e-15


class TestBuildNetwork:
    def test_source_and_sizes(self):
        g = build_box(2, 3, w=1.0, boundary="wired")
        s = build_surrogate(exact_field(g, philox_stream(5)))
        net = build_network(s, 1)
        assert net.n_vertices == 9
        assert net.center_index == 4  # center of the 3x3 sub-box in row-major order
        assert net.edges.shape == (12, 2)
        assert np.all(net.weights > 0)
        assert np.all(net.eta >= 0)
        assert np.all(net.eta[[0, 2, 6, 8]] > 0)  # sub-box corners
        assert net.eta[4] == 0.0  # interior vertex keeps no sink edge
        sub = build_box(2, 1, w=1.0)
        assert (net.d, net.half_side, net.shape) == (sub.d, sub.half_side, sub.shape)
        assert np.array_equal(net.coords, sub.coords)
        assert np.array_equal(net.edges, sub.edges)

    def test_requires_room_around_subbox(self):
        g = build_box(2, 2, w=1.0, boundary="wired")
        s = build_surrogate(exact_field(g, philox_stream(6)))
        with pytest.raises(ValueError):
            build_network(s, 2)

    @pytest.mark.parametrize(
        "d,big,small,w,seed", [(1, 12, 4, 1.0, 30), (2, 5, 2, 0.7, 31), (3, 3, 1, 1.3, 32)]
    )
    def test_grounded_laplacian_is_h_transform(self, d, big, small, w, seed):
        # diag(degree_w + eta) - W equals diag(h) M_D diag(h) entrywise, with
        # M_D the tilted Dirichlet operator on the sub-box
        g = build_box(d, big, w=w, boundary="wired")
        f = exact_field(g, philox_stream(seed))
        s = build_surrogate(f)
        net = build_network(s, small)
        lap = operator_from_two_beta(net, net.degree_w + net.eta).to_dense()
        inner = subbox_indices(g, small)
        sub = build_box(d, small, w=w, boundary="zero")
        two_beta = 2.0 * tilted_field(f, s)[inner]
        m_d = operator_from_two_beta(sub, two_beta, bc="dirichlet", w=w).to_dense()
        h = s.h[inner]
        want = h[:, None] * m_d * h[None, :]
        assert np.max(np.abs(lap - want)) <= 1e-12 * np.max(np.abs(want))

    def test_rayleigh_shorting_monotonicity(self):
        # growing the sub-box un-shorts boundary vertices, raising resistance
        g = build_box(2, 4, w=1.0, boundary="wired")
        s = build_surrogate(exact_field(g, philox_stream(7)))
        nets = [build_network(s, k) for k in (1, 2, 3)]
        r = [effective_resistance(net, net.center_index) for net in nets]
        assert r[0] <= r[1] <= r[2]


class TestIdentity:
    @pytest.mark.parametrize("d,big,small,seed", [(1, 6, 3, 11), (2, 3, 1, 12), (2, 4, 2, 13)])
    def test_identity_on_sampled_fields(self, d, big, small, seed):
        g = build_box(d, big, w=1.0, boundary="wired")
        f = exact_field(g, philox_stream(seed))
        rep = identity_check(f, small)
        assert rep.lhs > 0 and rep.rhs > 0
        assert rep.rel_err <= IDENTITY_RTOL
        assert rep.harmonic_residual <= HARMONIC_TOL

    def test_needs_box_metadata(self):
        # a hand path without lattice metadata cannot run the check
        g = WeightedGraph(2, np.array([[0, 1]]), np.array([1.0]), np.array([1.0, 1.0]))
        f = BetaField(graph=g, beta=np.ones(2))
        with pytest.raises(ValueError):
            identity_check(f, 1)

    def test_nash_williams_bounds_identity_rhs(self):
        g = build_box(2, 3, w=1.0, boundary="wired")
        for seed in range(4):
            s = build_surrogate(exact_field(g, philox_stream(20 + seed)))
            net = build_network(s, 1)
            src = net.center_index
            assert nash_williams_bound(net, src) <= effective_resistance(net, src) * (1 + 1e-12)
