"""Tests for the RoadNetwork graph, its adjacency structures and serialization."""

from __future__ import annotations

import numpy as np
import pytest

from repro.roadnet import RoadClass, RoadNetwork, generate_grid_city


@pytest.fixture
def small_network() -> RoadNetwork:
    """A 2x2 block with two-way streets."""
    net = RoadNetwork(name="small")
    for node_id, (x, y) in enumerate([(0, 0), (100, 0), (0, 100), (100, 100)]):
        net.add_intersection(node_id, x, y)
    net.add_bidirectional_road(0, 1, RoadClass.ARTERIAL)
    net.add_bidirectional_road(0, 2, RoadClass.LOCAL)
    net.add_bidirectional_road(1, 3, RoadClass.LOCAL)
    net.add_bidirectional_road(2, 3, RoadClass.COLLECTOR)
    return net


class TestConstruction:
    def test_counts(self, small_network):
        assert small_network.num_intersections == 4
        assert small_network.num_segments == 8

    def test_duplicate_intersection_rejected(self, small_network):
        with pytest.raises(ValueError):
            small_network.add_intersection(0, 5, 5)

    def test_segment_requires_existing_nodes(self, small_network):
        with pytest.raises(KeyError):
            small_network.add_segment(0, 99)

    def test_self_loop_rejected(self, small_network):
        with pytest.raises(ValueError):
            small_network.add_segment(0, 0)

    def test_duplicate_segment_rejected(self, small_network):
        with pytest.raises(ValueError):
            small_network.add_segment(0, 1)

    def test_unknown_road_class_rejected(self, small_network):
        small_network.add_intersection(10, 500, 500)
        small_network.add_intersection(11, 600, 500)
        with pytest.raises(ValueError):
            small_network.add_segment(10, 11, road_class="motorway")

    def test_length_defaults_to_geometry(self, small_network):
        segment = small_network.segment_between(0, 1)
        assert segment.length == pytest.approx(100.0)

    def test_speed_defaults_per_class(self, small_network):
        arterial = small_network.segment_between(0, 1)
        local = small_network.segment_between(0, 2)
        assert arterial.speed_limit > local.speed_limit
        assert arterial.travel_time < local.travel_time * (local.length / arterial.length) + 1e9


class TestAccessors:
    def test_segment_lookup(self, small_network):
        seg = small_network.segment_between(0, 1)
        assert small_network.segment(seg.segment_id) is seg
        assert small_network.has_segment(seg.segment_id)
        assert not small_network.has_segment(999)

    def test_out_and_in_segments(self, small_network):
        outgoing = {s.end_node for s in small_network.out_segments(0)}
        incoming = {s.start_node for s in small_network.in_segments(0)}
        assert outgoing == {1, 2}
        assert incoming == {1, 2}

    def test_segment_midpoint(self, small_network):
        seg = small_network.segment_between(0, 1)
        mid = small_network.segment_midpoint(seg.segment_id)
        assert mid.as_tuple() == (50.0, 0.0)

    def test_intersections_sorted(self, small_network):
        ids = [n.node_id for n in small_network.intersections()]
        assert ids == sorted(ids)


class TestAdjacency:
    def test_successors_match_are_connected(self, small_network):
        for segment in small_network.segments():
            successors = set(small_network.successor_segments(segment.segment_id))
            for other in small_network.segments():
                connected = small_network.are_connected(segment.segment_id, other.segment_id)
                assert (other.segment_id in successors) == connected

    def test_transition_mask_matches_successors(self, small_network):
        mask = small_network.transition_mask()
        assert mask.shape == (8, 8)
        for segment in small_network.segments():
            expected = np.zeros(8, dtype=bool)
            expected[small_network.successor_segments(segment.segment_id)] = True
            np.testing.assert_array_equal(mask[segment.segment_id], expected)

    def test_every_segment_has_a_successor(self, small_network):
        mask = small_network.transition_mask()
        assert mask.any(axis=1).all()

    def test_is_valid_route(self, small_network):
        a = small_network.segment_between(0, 1).segment_id
        b = small_network.segment_between(1, 3).segment_id
        c = small_network.segment_between(3, 2).segment_id
        assert small_network.is_valid_route([a, b, c])
        assert not small_network.is_valid_route([a, c])
        assert not small_network.is_valid_route([])
        assert not small_network.is_valid_route([a, 999])

    def test_route_length(self, small_network):
        a = small_network.segment_between(0, 1).segment_id
        b = small_network.segment_between(1, 3).segment_id
        assert small_network.route_length([a, b]) == pytest.approx(200.0)

    def test_mask_invalidated_on_mutation(self, small_network):
        before = small_network.transition_mask().shape
        small_network.add_intersection(50, 500, 0)
        small_network.add_segment(1, 50)
        after = small_network.transition_mask().shape
        assert after[0] == before[0] + 1


class TestSerialization:
    def test_dict_roundtrip(self, small_network):
        rebuilt = RoadNetwork.from_dict(small_network.to_dict())
        assert rebuilt.num_intersections == small_network.num_intersections
        assert rebuilt.num_segments == small_network.num_segments
        for seg in small_network.segments():
            other = rebuilt.segment(seg.segment_id)
            assert other.start_node == seg.start_node
            assert other.road_class == seg.road_class

    def test_repeated_segment_id_rejected(self, small_network):
        payload = small_network.to_dict()
        payload["segments"][1]["id"] = 0
        with pytest.raises(ValueError, match="id 0 appears more than once"):
            RoadNetwork.from_dict(payload)

    def test_file_roundtrip(self, small_network, tmp_path):
        path = small_network.save(tmp_path / "net.json")
        rebuilt = RoadNetwork.load(path)
        assert rebuilt.num_segments == small_network.num_segments

    def test_to_networkx(self, small_network):
        graph = small_network.to_networkx()
        assert graph.number_of_nodes() == 4
        assert graph.number_of_edges() == 8
        assert graph[0][1]["road_class"] == RoadClass.ARTERIAL


class TestGridCity:
    def test_grid_city_counts(self):
        net = generate_grid_city(3, 4)
        assert net.num_intersections == 12
        # Horizontal edges: 3 rows * 3, vertical: 2 * 4; two directions each.
        assert net.num_segments == 2 * (3 * 3 + 2 * 4)

    def test_grid_city_rejects_degenerate(self):
        with pytest.raises(ValueError):
            generate_grid_city(1, 5)
