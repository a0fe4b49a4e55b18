"""``repro.roadnet`` — road-network substrate.

Provides the directed road-segment graph (:class:`RoadNetwork`), shortest-path
routines used by the anomaly generators and the route simulator, the
ground-truth road-preference field (the confounder E of the paper's causal
graph), and synthetic city generators standing in for the Xi'an / Chengdu road
networks.
"""

from repro.roadnet.spatial import (
    Point,
    euclidean_distance,
    haversine_distance,
    project_point_to_segment,
    project_points_to_segments,
    polyline_length,
    interpolate_along,
)
from repro.roadnet.network import RoadClass, Intersection, RoadSegment, RoadNetwork
from repro.roadnet.csr import (
    CompiledRoadGraph,
    UniformGridIndex,
    compile_road_graph,
    csr_dijkstra,
    csr_dijkstra_batched,
)
from repro.roadnet.shortest_path import (
    dijkstra_route,
    dijkstra_distances,
    batched_dijkstra_distances,
    route_between_segments,
    k_shortest_routes,
)
from repro.roadnet.preference import PointOfInterest, RoadPreferenceField
from repro.roadnet.generators import (
    CityConfig,
    SyntheticCity,
    generate_grid_city,
    generate_arterial_city,
    build_figure1_example,
    XIAN_LIKE,
    CHENGDU_LIKE,
)

__all__ = [
    "Point",
    "euclidean_distance",
    "haversine_distance",
    "project_point_to_segment",
    "project_points_to_segments",
    "polyline_length",
    "interpolate_along",
    "RoadClass",
    "Intersection",
    "RoadSegment",
    "RoadNetwork",
    "CompiledRoadGraph",
    "UniformGridIndex",
    "compile_road_graph",
    "csr_dijkstra",
    "csr_dijkstra_batched",
    "dijkstra_route",
    "dijkstra_distances",
    "batched_dijkstra_distances",
    "route_between_segments",
    "k_shortest_routes",
    "PointOfInterest",
    "RoadPreferenceField",
    "CityConfig",
    "SyntheticCity",
    "generate_grid_city",
    "generate_arterial_city",
    "build_figure1_example",
    "XIAN_LIKE",
    "CHENGDU_LIKE",
]
