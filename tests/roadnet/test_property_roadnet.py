"""Property-based tests for the road-network substrate."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.roadnet import (
    CityConfig,
    RoadNetwork,
    batched_dijkstra_distances,
    dijkstra_distances,
    dijkstra_route,
    generate_arterial_city,
    generate_grid_city,
)
from repro.utils import RandomState
from tests.roadnet_reference import (
    legacy_dijkstra_distances,
    legacy_dijkstra_route,
    legacy_distance_matrix,
)

SETTINGS = dict(max_examples=25, deadline=None)


@st.composite
def arterial_networks(draw):
    """Arterial cities of 3×3 to 6×6 blocks, some with dropped edges."""
    config = CityConfig(
        name="property-city",
        rows=draw(st.integers(3, 6)),
        cols=draw(st.integers(3, 6)),
        num_pois=draw(st.integers(0, 3)),
        drop_edge_fraction=draw(st.sampled_from([0.0, 0.04, 0.2])),
    )
    return generate_arterial_city(config, rng=RandomState(draw(st.integers(0, 10_000)))).network


@st.composite
def weight_arrays(draw, size):
    """Non-negative per-segment weights: small integers or arbitrary floats.

    Small integers make equal-cost routes common, which exercises
    tie-breaking; a zero weight sends the batched kernel down its min-plus
    sweep path instead of scipy's Dijkstra.
    """
    if draw(st.booleans()):
        values = st.integers(0, 3).map(float)
    else:
        values = st.floats(min_value=0.0, max_value=1e3, allow_nan=False, allow_subnormal=False)
    return np.array(draw(st.lists(values, min_size=size, max_size=size)))


@settings(**SETTINGS)
@given(rows=st.integers(2, 5), cols=st.integers(2, 5))
def test_grid_city_segment_count_formula(rows, cols):
    net = generate_grid_city(rows, cols)
    horizontal = rows * (cols - 1)
    vertical = cols * (rows - 1)
    assert net.num_segments == 2 * (horizontal + vertical)
    assert net.num_intersections == rows * cols


@settings(**SETTINGS)
@given(rows=st.integers(3, 5), cols=st.integers(3, 5), seed=st.integers(0, 1000))
def test_dijkstra_routes_are_valid_and_optimal(rows, cols, seed):
    net = generate_grid_city(rows, cols, block_size=100.0)
    rng = RandomState(seed)
    source = int(rng.integers(0, net.num_intersections))
    target = int(rng.integers(0, net.num_intersections))
    route = dijkstra_route(net, source, target)
    if source == target:
        assert route == []
        return
    assert route is not None
    assert net.is_valid_route(route)
    assert net.segment(route[0]).start_node == source
    assert net.segment(route[-1]).end_node == target
    # Manhattan distance on a uniform grid is the optimum.
    sr, sc = divmod(source, cols)
    tr, tc = divmod(target, cols)
    manhattan = (abs(sr - tr) + abs(sc - tc)) * 100.0
    assert net.route_length(route) == pytest.approx(manhattan)


@settings(**SETTINGS)
@given(rows=st.integers(3, 4), cols=st.integers(3, 4))
def test_transition_mask_row_sums_match_out_degree(rows, cols):
    net = generate_grid_city(rows, cols)
    mask = net.transition_mask()
    for segment in net.segments():
        out_degree = len(net.out_segments(segment.end_node))
        assert mask[segment.segment_id].sum() == out_degree


@settings(**SETTINGS)
@given(seed=st.integers(0, 10_000))
def test_successive_segments_in_dijkstra_route_share_nodes(seed):
    net = generate_grid_city(4, 4)
    rng = RandomState(seed)
    source = int(rng.integers(0, 16))
    target = int(rng.integers(0, 16))
    route = dijkstra_route(net, source, target)
    if not route:
        return
    for a, b in zip(route[:-1], route[1:]):
        assert net.segment(a).end_node == net.segment(b).start_node


@settings(**SETTINGS)
@given(net=arterial_networks(), data=st.data())
def test_routing_matches_reference_bitwise(net, data):
    """Routes, distances and batched distances equal the dict-based oracles."""
    num_segments = net.num_segments
    weights = data.draw(weight_arrays(num_segments))

    def weight_fn(segment):
        return float(weights[segment.segment_id])

    banned = data.draw(st.sets(st.integers(0, num_segments - 1), max_size=num_segments // 4))
    nodes = st.sampled_from([n.node_id for n in net.intersections()])
    pairs = data.draw(st.lists(st.tuples(nodes, nodes), min_size=1, max_size=16))
    for weight, reference_weight in ((None, None), (weights, weight_fn)):
        for ban in (None, banned):
            for source, target in pairs:
                assert dijkstra_route(
                    net, source, target, weight=weight, banned_segments=ban
                ) == legacy_dijkstra_route(
                    net, source, target, weight=reference_weight, banned_segments=ban
                )
    sources = [source for source, _ in pairs]
    for source in sources:
        assert dijkstra_distances(net, source, weight=weights) == legacy_dijkstra_distances(
            net, source, weight=weight_fn
        )
    np.testing.assert_array_equal(
        batched_dijkstra_distances(net, sources, weight=weights),
        legacy_distance_matrix(net, sources, weight=weight_fn),
    )
    np.testing.assert_array_equal(
        batched_dijkstra_distances(net, sources), legacy_distance_matrix(net, sources)
    )


@settings(**SETTINGS)
@given(net=arterial_networks(), data=st.data())
def test_from_dict_rebuilds_shuffled_payload(net, data):
    payload = net.to_dict()
    payload["segments"] = data.draw(st.permutations(payload["segments"]))
    rebuilt = RoadNetwork.from_dict(payload)
    assert rebuilt.to_dict() == net.to_dict()
    for node in net.intersections():
        assert rebuilt.out_segment_ids(node.node_id) == net.out_segment_ids(node.node_id)
        assert rebuilt.in_segments(node.node_id) == net.in_segments(node.node_id)


@settings(**SETTINGS)
@given(net=arterial_networks(), data=st.data())
def test_from_dict_rejects_a_gap_in_segment_ids(net, data):
    payload = net.to_dict()
    # Any id below the maximum leaves a gap (dropping the maximum would not).
    missing = data.draw(st.integers(0, net.num_segments - 2))
    payload["segments"] = [seg for seg in payload["segments"] if seg["id"] != missing]
    with pytest.raises(ValueError, match=f"id {missing} is missing"):
        RoadNetwork.from_dict(payload)
