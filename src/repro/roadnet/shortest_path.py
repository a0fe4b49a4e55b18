"""Shortest-path routines over road networks.

Two uses in the library:

* The **Detour and Switch anomaly generators** (paper §VI-A2) reconnect two
  segments with :func:`route_between_segments`; Detour bans the segment it
  removes "temporarily" so the reroute avoids it.
* The **trajectory simulator** samples realistic routes as preference-weighted
  stochastic shortest paths (:func:`dijkstra_route` on per-trip weights).

:func:`dijkstra_distances`, :func:`batched_dijkstra_distances` and
:func:`k_shortest_routes` complete the public routing API; no library path
calls them.

All functions operate on the *node* graph but return routes as *segment-id*
sequences, because that is the representation the models consume.  They run
on the network's compiled flat-array view (:meth:`RoadNetwork.compiled`):
``weight`` (an array or a per-segment callable) is resolved to a per-segment
list once per call, and the heap loop touches only plain ints and floats.
Routes, distances and tie-breaking are bit-identical to the original
dict-based Dijkstra, which the test suite keeps as its parity oracle
(``tests/roadnet_reference.py``).
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.roadnet.csr import csr_dijkstra, csr_dijkstra_batched, csr_route
from repro.roadnet.network import RoadNetwork, RoadSegment

__all__ = [
    "dijkstra_route",
    "dijkstra_distances",
    "batched_dijkstra_distances",
    "route_between_segments",
    "k_shortest_routes",
]

WeightFn = Callable[[RoadSegment], float]
#: ``weight`` accepts a per-segment callable or a weight array.
WeightSpec = Union[WeightFn, np.ndarray, None]


def dijkstra_route(
    network: RoadNetwork,
    source_node: int,
    target_node: int,
    weight: WeightSpec = None,
    banned_segments: Optional[Set[int]] = None,
) -> Optional[List[int]]:
    """Shortest route between two intersections as a list of segment ids.

    Parameters
    ----------
    network:
        The road network.
    source_node, target_node:
        Intersection ids.
    weight:
        Per-segment cost: a ``(num_segments,)`` array, a callable evaluated
        once per segment, or ``None`` for segment length.
    banned_segments:
        Segment ids that may not be used (how the Detour generator removes a
        segment "temporarily" without mutating the network).

    Returns
    -------
    The segment-id route, or ``None`` when the target is unreachable.
    """
    if source_node == target_node:
        return []
    graph = network.compiled()
    if source_node not in graph.node_index or target_node not in graph.node_index:
        # Unknown intersections behave like isolated nodes: unreachable.
        return None
    return csr_route(
        graph,
        graph.node_index[source_node],
        graph.node_index[target_node],
        weights=graph.resolve_weights(weight),
        banned_segments=banned_segments,
    )


def dijkstra_distances(
    network: RoadNetwork,
    source_node: int,
    weight: WeightSpec = None,
) -> Dict[int, float]:
    """Shortest distance from ``source_node`` to every reachable intersection."""
    graph = network.compiled()
    if source_node not in graph.node_index:
        # Unknown intersections behave like isolated nodes.
        return {source_node: 0.0}
    dist, _, _ = csr_dijkstra(
        graph, graph.node_index[source_node], weights=graph.resolve_weights(weight)
    )
    inf = float("inf")
    node_ids = graph.node_ids
    return {int(node_ids[i]): d for i, d in enumerate(dist) if d < inf}


def batched_dijkstra_distances(
    network: RoadNetwork,
    source_nodes: Sequence[int],
    weight: WeightSpec = None,
) -> np.ndarray:
    """Shortest distances from many sources at once.

    Returns a ``(num_sources, num_intersections)`` array whose columns follow
    ascending intersection id (the compiled graph's node order); unreachable
    entries hold ``inf``.  An unknown source is an isolated node outside the
    graph, so its row is all ``inf``.  Weight resolution happens once for the
    whole batch.
    """
    graph = network.compiled()
    rows = [row for row, s in enumerate(source_nodes) if int(s) in graph.node_index]
    distances = csr_dijkstra_batched(
        graph,
        [graph.node_index[int(source_nodes[row])] for row in rows],
        weights=graph.resolve_weights(weight),
    )
    if len(rows) == len(source_nodes):
        return distances
    out = np.full((len(source_nodes), graph.num_nodes), np.inf, dtype=np.float64)
    out[rows] = distances
    return out


def route_between_segments(
    network: RoadNetwork,
    from_segment: int,
    to_segment: int,
    weight: WeightSpec = None,
    banned_segments: Optional[Set[int]] = None,
) -> Optional[List[int]]:
    """Shortest route connecting two segments, inclusive of both endpoints.

    Used by the Detour generator (replace the sub-trajectory between segments
    ``t_i`` and ``t_j`` with the shortest path that avoids a deleted segment),
    the Switch generator and the map matcher's gap bridging.  The returned
    route starts with ``from_segment`` and ends with ``to_segment``.
    """
    start = network.segment(from_segment)
    end = network.segment(to_segment)
    banned = set(banned_segments or set())
    middle = dijkstra_route(
        network,
        start.end_node,
        end.start_node,
        weight=weight,
        banned_segments=banned,
    )
    if middle is None:
        return None
    route = [from_segment, *middle, to_segment]
    # The joined route may revisit the endpoints when from/to are adjacent;
    # deduplicate immediate repetitions only.
    deduped = [route[0]]
    for sid in route[1:]:
        if sid != deduped[-1]:
            deduped.append(sid)
    return deduped if network.is_valid_route(deduped) else None


def k_shortest_routes(
    network: RoadNetwork,
    source_node: int,
    target_node: int,
    k: int,
    weight: WeightSpec = None,
) -> List[List[int]]:
    """Up to ``k`` loop-free shortest routes (Yen's algorithm).

    Routes are returned best-first as segment-id lists.
    """
    if k <= 0:
        return []
    weight_array = np.asarray(network.compiled().resolve_weights(weight), dtype=np.float64)

    def route_cost(route: List[int]) -> float:
        return sum(weight_array[route].tolist())

    best = dijkstra_route(network, source_node, target_node, weight=weight_array)
    if best is None:
        return []
    routes: List[List[int]] = [best]
    candidates: List[Tuple[float, List[int]]] = []
    seen = {tuple(best)}

    for _ in range(1, k):
        previous_route = routes[-1]
        for spur_index in range(len(previous_route)):
            spur_segment = network.segment(previous_route[spur_index])
            spur_node = spur_segment.start_node
            root = previous_route[:spur_index]

            banned: Set[int] = set()
            for route in routes:
                if route[:spur_index] == root and spur_index < len(route):
                    banned.add(route[spur_index])

            spur = dijkstra_route(
                network, spur_node, target_node, weight=weight_array, banned_segments=banned
            )
            if spur is None:
                continue
            candidate = root + spur
            key = tuple(candidate)
            if key in seen or not network.is_valid_route(candidate):
                continue
            seen.add(key)
            heapq.heappush(candidates, (route_cost(candidate), candidate))

        if not candidates:
            break
        _, next_route = heapq.heappop(candidates)
        routes.append(next_route)

    return routes
