"""Parity suite for the compiled CSR road graph.

Every routine of :mod:`repro.roadnet.csr` must reproduce its dict/dataclass
reference implementation (the oracles in ``tests/roadnet_reference.py`` and
``tests/reference.py``) exactly — same routes, same distances, same
candidate sets, same tie-breaking — on regular grids, arterial cities with
dropped edges, the Fig. 1(b) example, and hand-built dead-end / disconnected
networks.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.roadnet import (
    CityConfig,
    Point,
    RoadNetwork,
    batched_dijkstra_distances,
    build_figure1_example,
    csr_dijkstra_batched,
    dijkstra_distances,
    dijkstra_route,
    generate_arterial_city,
    generate_grid_city,
    route_between_segments,
)
from repro.trajectory import MapMatcher, TrajectorySimulator, SimulatorConfig, simulate_gps
from repro.utils import RandomState
from tests.reference import build_successor_table
from tests.roadnet_reference import (
    LegacyMapMatcher,
    legacy_dijkstra_distances,
    legacy_dijkstra_route,
)


@pytest.fixture(scope="module")
def cities():
    """Networks spanning the structural cases the CSR layer must handle."""
    return {
        "grid": generate_grid_city(5, 5, block_size=120.0),
        "arterial": generate_arterial_city(
            CityConfig(name="csr-city", rows=8, cols=8, num_pois=3), rng=RandomState(3)
        ).network,
        "figure1": build_figure1_example().network,
        "dead_end": _dead_end_network(),
        "disconnected": _disconnected_network(),
    }


def _dead_end_network() -> RoadNetwork:
    """A path with a one-way spur into a node with no outgoing segments."""
    net = RoadNetwork(name="dead-end")
    for node, (x, y) in enumerate([(0, 0), (100, 0), (200, 0), (200, 100)]):
        net.add_intersection(node, x, y)
    net.add_bidirectional_road(0, 1)
    net.add_bidirectional_road(1, 2)
    net.add_segment(2, 3)  # one-way spur: node 3 is a dead end
    return net


def _disconnected_network() -> RoadNetwork:
    """Two components with no segments between them."""
    net = RoadNetwork(name="disconnected")
    for node, (x, y) in enumerate([(0, 0), (100, 0), (5000, 5000), (5100, 5000)]):
        net.add_intersection(node, x, y)
    net.add_bidirectional_road(0, 1)
    net.add_bidirectional_road(2, 3)
    return net


class TestCompiledStructure:
    def test_successor_sets_match_dict_adjacency(self, cities):
        for net in cities.values():
            graph = net.compiled()
            for sid in range(net.num_segments):
                assert graph.successors(sid).tolist() == sorted(net.successor_segments(sid))

    def test_successor_tables_match_dense_build(self, cities):
        for net in cities.values():
            graph = net.compiled()
            idx, valid = graph.successor_tables()
            ref_idx, ref_valid = build_successor_table(graph.transition_mask())
            np.testing.assert_array_equal(idx, ref_idx)
            np.testing.assert_array_equal(valid, ref_valid)

    def test_transition_mask_matches_manual_construction(self, cities):
        for net in cities.values():
            mask = net.transition_mask()
            for sid in range(net.num_segments):
                np.testing.assert_array_equal(
                    np.flatnonzero(mask[sid]), np.asarray(sorted(net.successor_segments(sid)))
                )

    def test_dead_end_row_has_no_successors(self, cities):
        net = cities["dead_end"]
        graph = net.compiled()
        spur = net.segment_between(2, 3).segment_id
        assert graph.successors(spur).size == 0
        idx, valid = graph.successor_tables()
        assert not valid[spur].any()
        assert (idx[spur] == 0).all()

    def test_geometry_arrays_match_dataclasses(self, cities):
        net = cities["arterial"]
        graph = net.compiled()
        for seg in net.segments():
            start = net.intersection(seg.start_node).location
            end = net.intersection(seg.end_node).location
            assert graph.seg_start_xy[seg.segment_id].tolist() == [start.x, start.y]
            assert graph.seg_end_xy[seg.segment_id].tolist() == [end.x, end.y]
            assert graph.seg_length[seg.segment_id] == seg.length
            assert graph.seg_travel_time[seg.segment_id] == seg.travel_time
            mid = net.segment_midpoint(seg.segment_id)
            assert mid.x == (start.x + end.x) / 2.0
            assert mid.y == (start.y + end.y) / 2.0

    def test_compilation_cache_invalidated_on_mutation(self):
        net = generate_grid_city(3, 3)
        first = net.compiled()
        assert net.compiled() is first
        net.add_intersection(99, -100.0, -100.0)
        net.add_segment(0, 99)
        second = net.compiled()
        assert second is not first
        assert second.num_segments == net.num_segments

    def test_unknown_nodes_behave_as_isolated(self, cities):
        net = cities["grid"]
        assert dijkstra_route(net, 99_999, 0) is None
        assert dijkstra_route(net, 0, 99_999) is None
        assert dijkstra_distances(net, 99_999) == {99_999: 0.0}
        matrix = batched_dijkstra_distances(net, [0, 99_999, 1])
        assert matrix.shape == (3, net.num_intersections)
        assert np.isinf(matrix[1]).all()
        np.testing.assert_array_equal(matrix[[0, 2]], batched_dijkstra_distances(net, [0, 1]))

    def test_route_length_rejects_invalid_ids(self, cities):
        net = cities["grid"]
        with pytest.raises(KeyError):
            net.route_length([-1])
        with pytest.raises(KeyError):
            net.route_length([net.num_segments])


class TestRouteValidation:
    def test_is_valid_route_parity(self, cities):
        net = cities["arterial"]
        rng = np.random.default_rng(0)
        for _ in range(50):
            sids = rng.integers(0, net.num_segments, size=rng.integers(1, 8)).tolist()
            reference = all(
                net.are_connected(a, b) for a, b in zip(sids[:-1], sids[1:])
            )
            assert net.is_valid_route(sids) == reference
        assert not net.is_valid_route([])
        assert not net.is_valid_route([net.num_segments])  # out of range
        assert not net.is_valid_route([-1])

    def test_route_length_parity(self, cities):
        net = cities["arterial"]
        rng = np.random.default_rng(1)
        for _ in range(20):
            sids = rng.integers(0, net.num_segments, size=6).tolist()
            assert net.route_length(sids) == float(
                sum(net.segment(s).length for s in sids)
            )
        assert net.route_length([]) == 0.0


class TestDijkstraParity:
    def test_routes_match_legacy_bitwise(self, cities):
        rng = np.random.default_rng(2)
        for net in cities.values():
            nodes = [n.node_id for n in net.intersections()]
            for _ in range(60):
                s, t = rng.choice(nodes, size=2, replace=False)
                assert dijkstra_route(net, int(s), int(t)) == legacy_dijkstra_route(
                    net, int(s), int(t)
                )

    def test_weighted_routes_match_legacy(self, cities):
        net = cities["arterial"]
        rng = np.random.default_rng(3)
        weights = rng.uniform(0.2, 8.0, net.num_segments)
        nodes = [n.node_id for n in net.intersections()]

        def weight_fn(seg):
            return float(weights[seg.segment_id])

        for _ in range(60):
            s, t = rng.choice(nodes, size=2, replace=False)
            assert dijkstra_route(net, int(s), int(t), weight=weights) == legacy_dijkstra_route(
                net, int(s), int(t), weight=weight_fn
            )

    def test_banned_segments_match_legacy(self, cities):
        net = cities["grid"]
        rng = np.random.default_rng(4)
        nodes = [n.node_id for n in net.intersections()]
        banned = set(rng.choice(net.num_segments, size=10, replace=False).tolist())
        for _ in range(40):
            s, t = rng.choice(nodes, size=2, replace=False)
            assert dijkstra_route(
                net, int(s), int(t), banned_segments=banned
            ) == legacy_dijkstra_route(net, int(s), int(t), banned_segments=banned)

    def test_disconnected_components_unreachable(self, cities):
        net = cities["disconnected"]
        assert dijkstra_route(net, 0, 2) is None
        assert legacy_dijkstra_route(net, 0, 2) is None
        distances = dijkstra_distances(net, 0)
        assert set(distances) == {0, 1}
        assert distances == legacy_dijkstra_distances(net, 0)

    def test_distances_match_legacy_bitwise(self, cities):
        for net in cities.values():
            for node in [n.node_id for n in net.intersections()][:10]:
                assert dijkstra_distances(net, node) == legacy_dijkstra_distances(net, node)

    def test_batched_distances_match_per_source(self, cities):
        for name in ("arterial", "dead_end", "disconnected"):
            net = cities[name]
            nodes = [n.node_id for n in net.intersections()]
            matrix = batched_dijkstra_distances(net, nodes)
            for row, source in enumerate(nodes):
                reference = legacy_dijkstra_distances(net, source)
                for col, target in enumerate(nodes):
                    assert matrix[row, col] == reference.get(target, float("inf"))

    def test_batched_fallback_sweeps_match_heap(self, cities):
        """The min-plus sweep fallback (no scipy / zero weights) matches the heap."""
        net = cities["arterial"]
        graph = net.compiled()
        weights = np.asarray(graph.length_weights()).copy()
        weights[0] = 0.0  # a zero weight forces the reduceat fallback path
        sources = list(range(0, graph.num_nodes, 3))
        matrix = csr_dijkstra_batched(graph, sources, weights=weights)

        def weight_fn(seg):
            return float(weights[seg.segment_id])

        for row, source_index in enumerate(sources):
            reference = legacy_dijkstra_distances(
                net, int(graph.node_ids[source_index]), weight=weight_fn
            )
            for col in range(graph.num_nodes):
                assert matrix[row, col] == reference.get(
                    int(graph.node_ids[col]), float("inf")
                )

    def test_negative_weight_array_rejected(self, cities):
        net = cities["grid"]
        weights = np.full(net.num_segments, -1.0)
        with pytest.raises(ValueError, match="non-negative"):
            dijkstra_route(net, 0, 5, weight=weights)

    def test_route_between_segments_valid_on_dead_end(self, cities):
        net = cities["dead_end"]
        spur = net.segment_between(2, 3).segment_id
        back = net.segment_between(1, 0).segment_id
        route = route_between_segments(net, back, spur)
        assert route is not None
        assert route[0] == back and route[-1] == spur
        assert net.is_valid_route(route)


class TestNearestSegments:
    @pytest.fixture(scope="class")
    def arterial(self, cities):
        return cities["arterial"]

    def test_candidates_match_exhaustive_scan(self, arterial):
        graph = arterial.compiled()
        matcher = LegacyMapMatcher(arterial)
        rng = np.random.default_rng(5)
        low = graph.node_xy.min(axis=0) - 150.0
        high = graph.node_xy.max(axis=0) + 150.0
        points = rng.uniform(low, high, size=(400, 2))
        headings = rng.normal(0.0, 60.0, size=(400, 2))
        sids, costs = graph.nearest_segments(
            points, 4, headings=headings, heading_weight=matcher.heading_weight
        )
        for i in range(points.shape[0]):
            reference = matcher.candidates(
                Point(float(points[i, 0]), float(points[i, 1])),
                (float(headings[i, 0]), float(headings[i, 1])),
            )
            assert [s for s, _ in reference] == sids[i].tolist()
            np.testing.assert_allclose(
                [c for _, c in reference], costs[i], rtol=1e-12, atol=1e-12
            )

    def test_candidates_without_heading(self, arterial):
        graph = arterial.compiled()
        matcher = LegacyMapMatcher(arterial)
        rng = np.random.default_rng(6)
        points = rng.uniform(0.0, 1800.0, size=(150, 2))
        sids, _ = graph.nearest_segments(points, 4)
        for i in range(points.shape[0]):
            reference = matcher.candidates(Point(float(points[i, 0]), float(points[i, 1])))
            assert [s for s, _ in reference] == sids[i].tolist()

    def test_k_larger_than_network_pads(self, cities):
        net = cities["dead_end"]
        graph = net.compiled()
        sids, costs = graph.nearest_segments(np.array([[50.0, 10.0]]), 10)
        assert sids.shape == (1, net.num_segments)
        assert (sids[0] >= 0).all()
        assert np.isfinite(costs[0]).all()
        assert len(set(sids[0].tolist())) == net.num_segments


class TestMatchedRouteParity:
    def test_matched_routes_identical(self, cities):
        city = generate_arterial_city(
            CityConfig(name="match-city", rows=8, cols=8, num_pois=3), rng=RandomState(3)
        )
        simulator = TrajectorySimulator(
            city, config=SimulatorConfig(min_length=5, max_length=40), rng=RandomState(17)
        )
        compiled = MapMatcher(city.network)
        legacy = LegacyMapMatcher(city.network)
        for i, trajectory in enumerate(simulator.generate_many(12)):
            for noise in (5.0, 25.0, 60.0):
                raw = simulate_gps(
                    city.network, trajectory, noise_std=noise, rng=RandomState(900 + i)
                )
                fast = compiled.match(raw)
                slow = legacy.match(raw)
                assert fast.trajectory.segments == slow.trajectory.segments
                assert fast.num_points_used == slow.num_points_used
                assert fast.mean_match_distance == pytest.approx(
                    slow.mean_match_distance, rel=1e-12, abs=1e-12
                )

    def test_matched_route_on_disconnected_network(self, cities):
        net = cities["disconnected"]
        from repro.trajectory.types import GPSPoint, Trajectory

        points = tuple(
            GPSPoint(x=float(x), y=float(y), timestamp=float(i))
            for i, (x, y) in enumerate([(10, 5), (90, -4), (5010, 4996), (5090, 5004)])
        )
        raw = Trajectory(trajectory_id="cross-component", points=points)
        fast = MapMatcher(net).match(raw)
        slow = LegacyMapMatcher(net).match(raw)
        assert fast.trajectory.segments == slow.trajectory.segments
