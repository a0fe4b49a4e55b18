"""Dict/dataclass reference implementations of the road layer, as parity oracles.

The library runs every road-graph routine on the compiled CSR graph
(:mod:`repro.roadnet.csr`).  The implementations that graph replaced live
here, unchanged, as the other side of the parity checks: Dijkstra over
``RoadNetwork.out_segments`` with a per-edge weight callable, route sampling
with the per-edge route cost, and the map matcher's exhaustive
nearest-segment scan with its dict Viterbi.  Routes, distances, timestamps
and matched routes of the library must equal theirs bit for bit.

Used by ``tests/roadnet/test_csr_graph.py``,
``tests/roadnet/test_property_roadnet.py``,
``tests/trajectory/test_csr_determinism.py`` and
``benchmarks/test_bench_roadnet_pipeline.py`` (the gate's reference side).
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.roadnet.generators import SyntheticCity
from repro.roadnet.network import RoadNetwork, RoadSegment
from repro.roadnet.spatial import Point, project_point_to_segment
from repro.trajectory.generator import RouteChoiceModel, SimulatorConfig, TrajectorySimulator
from repro.trajectory.map_matching import MapMatcher, MatchResult
from repro.trajectory.types import MapMatchedTrajectory, Trajectory
from repro.utils.rng import RandomState, get_rng

WeightFn = Callable[[RoadSegment], float]


# --------------------------------------------------------------------------- #
# Dijkstra
# --------------------------------------------------------------------------- #
def _default_weight(segment: RoadSegment) -> float:
    return segment.length


def legacy_dijkstra_route(
    network: RoadNetwork,
    source_node: int,
    target_node: int,
    weight: Optional[WeightFn] = None,
    banned_segments: Optional[Set[int]] = None,
) -> Optional[List[int]]:
    """Reference for :func:`repro.roadnet.dijkstra_route`: the dict/dataclass Dijkstra."""
    if source_node == target_node:
        return []
    weight = weight or _default_weight
    banned = banned_segments or set()

    distances: Dict[int, float] = {source_node: 0.0}
    previous: Dict[int, Tuple[int, int]] = {}  # node -> (prev_node, via_segment)
    visited: Set[int] = set()
    heap: List[Tuple[float, int]] = [(0.0, source_node)]

    while heap:
        dist, node = heapq.heappop(heap)
        if node in visited:
            continue
        visited.add(node)
        if node == target_node:
            break
        for segment in network.out_segments(node):
            if segment.segment_id in banned:
                continue
            cost = weight(segment)
            if cost < 0:
                raise ValueError("Dijkstra requires non-negative segment weights")
            candidate = dist + cost
            neighbour = segment.end_node
            if candidate < distances.get(neighbour, float("inf")):
                distances[neighbour] = candidate
                previous[neighbour] = (node, segment.segment_id)
                heapq.heappush(heap, (candidate, neighbour))

    if target_node not in previous and target_node != source_node:
        return None

    route: List[int] = []
    node = target_node
    while node != source_node:
        prev_node, via_segment = previous[node]
        route.append(via_segment)
        node = prev_node
    route.reverse()
    return route


def legacy_dijkstra_distances(
    network: RoadNetwork,
    source_node: int,
    weight: Optional[WeightFn] = None,
) -> Dict[int, float]:
    """Reference for :func:`repro.roadnet.dijkstra_distances`: single-source distances."""
    weight = weight or _default_weight
    distances: Dict[int, float] = {source_node: 0.0}
    visited: Set[int] = set()
    heap: List[Tuple[float, int]] = [(0.0, source_node)]
    while heap:
        dist, node = heapq.heappop(heap)
        if node in visited:
            continue
        visited.add(node)
        for segment in network.out_segments(node):
            candidate = dist + weight(segment)
            neighbour = segment.end_node
            if candidate < distances.get(neighbour, float("inf")):
                distances[neighbour] = candidate
                heapq.heappush(heap, (candidate, neighbour))
    return distances


def legacy_distance_matrix(
    network: RoadNetwork, source_nodes, weight: Optional[WeightFn] = None
) -> np.ndarray:
    """Reference for :func:`repro.roadnet.batched_dijkstra_distances`.

    One :func:`legacy_dijkstra_distances` per source, laid out like the
    batched kernel: columns in ascending intersection id, ``inf`` where
    unreachable.
    """
    node_ids = [n.node_id for n in network.intersections()]
    out = np.full((len(source_nodes), len(node_ids)), np.inf, dtype=np.float64)
    for row, source in enumerate(source_nodes):
        reachable = legacy_dijkstra_distances(network, int(source), weight=weight)
        out[row] = [reachable.get(node, np.inf) for node in node_ids]
    return out


# --------------------------------------------------------------------------- #
# route sampling
# --------------------------------------------------------------------------- #
class LegacyRouteChoiceModel(RouteChoiceModel):
    """Route sampling with the per-edge route cost over :func:`legacy_dijkstra_route`.

    Draws the same per-trip noise as :class:`RouteChoiceModel` and costs each
    relaxed edge through :meth:`RoadPreferenceField.segment_cost`, one
    callable dispatch per edge visit.
    """

    def sample_route(
        self,
        source_segment: int,
        destination_segment: int,
        rng: Optional[RandomState] = None,
    ) -> Optional[List[int]]:
        rng = get_rng(rng)
        cfg = self.config
        noise = rng.normal(0.0, cfg.utility_noise, size=self.network.num_segments)
        noise_factor = np.exp(noise)

        if source_segment == destination_segment:
            return None
        src = self.network.segment(source_segment)
        dst = self.network.segment(destination_segment)

        def trip_cost(segment: RoadSegment) -> float:
            base = self.preference.segment_cost(segment.segment_id, cfg.preference_strength)
            return base * float(noise_factor[segment.segment_id])

        middle = legacy_dijkstra_route(self.network, src.end_node, dst.start_node, weight=trip_cost)
        if middle is None:
            return None
        return self._join(source_segment, middle, destination_segment)


def legacy_simulator(
    city: SyntheticCity,
    config: Optional[SimulatorConfig] = None,
    rng: Optional[RandomState] = None,
) -> TrajectorySimulator:
    """A :class:`TrajectorySimulator` whose routes come from :class:`LegacyRouteChoiceModel`."""
    simulator = TrajectorySimulator(city, config=config, rng=rng)
    simulator.route_model = LegacyRouteChoiceModel(
        simulator.network, simulator.preference, simulator.config
    )
    return simulator


# --------------------------------------------------------------------------- #
# map matching
# --------------------------------------------------------------------------- #
class LegacyMapMatcher(MapMatcher):
    """Reference for :class:`MapMatcher`: exhaustive scan and dict Viterbi."""

    def __init__(self, network: RoadNetwork, **kwargs) -> None:
        super().__init__(network, **kwargs)
        self._segment_geometry: List[Tuple[int, Point, Point]] = []
        for seg in network.segments():
            start = network.intersection(seg.start_node).location
            end = network.intersection(seg.end_node).location
            self._segment_geometry.append((seg.segment_id, start, end))

    def candidates(
        self, point: Point, heading: Optional[Tuple[float, float]] = None
    ) -> List[Tuple[int, float]]:
        """The closest segments to a GPS point, scored by distance + heading.

        Reference for :meth:`CompiledRoadGraph.nearest_segments
        <repro.roadnet.csr.CompiledRoadGraph.nearest_segments>`: projects the
        point onto every segment of the network.
        """
        scored = []
        for sid, start, end in self._segment_geometry:
            _, distance, _ = project_point_to_segment(point, start, end)
            cost = distance
            if heading is not None:
                seg_dx, seg_dy = end.x - start.x, end.y - start.y
                seg_norm = math.hypot(seg_dx, seg_dy)
                head_norm = math.hypot(*heading)
                if seg_norm > 0 and head_norm > 0:
                    cosine = (seg_dx * heading[0] + seg_dy * heading[1]) / (seg_norm * head_norm)
                    cost += self.heading_weight * (1.0 - cosine)
            scored.append((sid, cost))
        scored.sort(key=lambda item: item[1])
        return scored[: self.num_candidates]

    def match(self, trajectory: Trajectory) -> MatchResult:
        """The original exhaustive-scan matcher."""
        points = trajectory.points
        headings: List[Optional[Tuple[float, float]]] = []
        for i in range(len(points)):
            nxt = points[min(i + 1, len(points) - 1)]
            prev = points[max(i - 1, 0)]
            headings.append((nxt.x - prev.x, nxt.y - prev.y))
        candidate_lists = [
            self.candidates(p.location, heading) for p, heading in zip(points, headings)
        ]

        # Viterbi over candidate segments.
        num_points = len(candidate_lists)
        costs: List[Dict[int, float]] = [dict() for _ in range(num_points)]
        back: List[Dict[int, Optional[int]]] = [dict() for _ in range(num_points)]
        for sid, dist in candidate_lists[0]:
            costs[0][sid] = dist
            back[0][sid] = None
        for i in range(1, num_points):
            for sid, dist in candidate_lists[i]:
                best_prev, best_cost = None, math.inf
                for prev_sid, prev_cost in costs[i - 1].items():
                    transition = 0.0
                    if prev_sid != sid and not self.network.are_connected(prev_sid, sid):
                        transition = self.disconnect_penalty
                    total = prev_cost + dist + transition
                    if total < best_cost:
                        best_prev, best_cost = prev_sid, total
                costs[i][sid] = best_cost
                back[i][sid] = best_prev

        # Backtrack the best chain.
        last = min(costs[-1], key=costs[-1].get)
        chain = [last]
        for i in range(num_points - 1, 0, -1):
            last = back[i][chain[-1]]
            chain.append(last)
        chain.reverse()

        route = self._connect(self._collapse(chain))
        mean_distance = float(
            np.mean([dict(candidate_lists[i]).get(chain[i], 0.0) for i in range(num_points)])
        )
        matched = MapMatchedTrajectory(
            trajectory_id=trajectory.trajectory_id,
            segments=tuple(route),
            timestamps=None,
        )
        return MatchResult(trajectory=matched, mean_match_distance=mean_distance, num_points_used=num_points)
