"""The road-network graph.

The paper assumes "all trajectories can be mapped into a completed road
sequence" on a city road network (Definition 2).  A :class:`RoadNetwork` is a
directed graph whose *edges are road segments*; a map-matched trajectory is a
sequence of segment ids where consecutive segments share an intersection.

Two views of the graph matter for the models:

* **Node view** — intersections connected by segments; used by the trajectory
  simulator and by the Dijkstra detour generator.
* **Segment view** — a segment ``j`` *follows* segment ``i`` when the head
  node of ``i`` is the tail node of ``j``.  The TG-VAE trajectory decoder uses
  this adjacency as the *road-constrained prediction mask* (§V-B): when the
  ongoing trajectory sits on segment ``i``, only followers of ``i`` may
  receive probability mass for the next step.

The class also exposes a networkx export for interoperability and a compact
serialization format.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.roadnet.spatial import Point, euclidean_distance

__all__ = ["RoadClass", "Intersection", "RoadSegment", "RoadNetwork"]


class RoadClass:
    """Road categories used by the synthetic cities.

    The class of a road is part of the latent *road preference* confounder E:
    arterial roads are wider, faster and preferred by drivers, which in the
    paper's causal story biases both route choice (E → T) and where popular
    destinations sit (E → C).
    """

    ARTERIAL = "arterial"
    COLLECTOR = "collector"
    LOCAL = "local"

    ALL = (ARTERIAL, COLLECTOR, LOCAL)

    #: Default free-flow speeds (m/s) per class; used for travel-time weights.
    DEFAULT_SPEEDS = {ARTERIAL: 16.7, COLLECTOR: 11.1, LOCAL: 8.3}

    #: Default base attractiveness per class; the preference field builds on these.
    DEFAULT_PREFERENCE = {ARTERIAL: 1.0, COLLECTOR: 0.45, LOCAL: 0.2}


@dataclass(frozen=True)
class Intersection:
    """A node of the road network."""

    node_id: int
    location: Point


@dataclass(frozen=True)
class RoadSegment:
    """A directed road segment (an edge of the road network)."""

    segment_id: int
    start_node: int
    end_node: int
    length: float
    road_class: str = RoadClass.LOCAL
    speed_limit: float = RoadClass.DEFAULT_SPEEDS[RoadClass.LOCAL]

    @property
    def travel_time(self) -> float:
        """Free-flow traversal time in seconds."""
        return self.length / max(self.speed_limit, 0.1)


class RoadNetwork:
    """Directed road-segment graph with geometry.

    Construction is incremental (``add_intersection`` / ``add_segment``).
    Segment ids are contiguous by construction: ``add_segment`` hands out
    ``0, 1, 2, …`` in insertion order, which is what the model vocabularies
    and the compiled graph index by.  The compiled CSR view (successor
    structure, geometry arrays, spatial index) is built lazily, cached, and
    invalidated whenever the network is mutated.
    """

    def __init__(self, name: str = "road-network") -> None:
        self.name = name
        self._intersections: Dict[int, Intersection] = {}
        self._segments: Dict[int, RoadSegment] = {}
        self._out_segments: Dict[int, List[int]] = {}
        self._in_segments: Dict[int, List[int]] = {}
        self._segment_by_nodes: Dict[Tuple[int, int], int] = {}
        self._compiled = None

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def add_intersection(self, node_id: int, x: float, y: float) -> Intersection:
        """Register an intersection; returns the created record."""
        if node_id in self._intersections:
            raise ValueError(f"intersection {node_id} already exists")
        node = Intersection(node_id, Point(float(x), float(y)))
        self._intersections[node_id] = node
        self._out_segments.setdefault(node_id, [])
        self._in_segments.setdefault(node_id, [])
        self._invalidate()
        return node

    def add_segment(
        self,
        start_node: int,
        end_node: int,
        road_class: str = RoadClass.LOCAL,
        length: Optional[float] = None,
        speed_limit: Optional[float] = None,
    ) -> RoadSegment:
        """Add a directed segment between two existing intersections.

        The segment gets the next free id, ``num_segments`` before the call.
        """
        if start_node not in self._intersections or end_node not in self._intersections:
            raise KeyError("both endpoints must be added before the segment")
        if start_node == end_node:
            raise ValueError("self-loop segments are not allowed")
        if (start_node, end_node) in self._segment_by_nodes:
            raise ValueError(f"segment {start_node}->{end_node} already exists")
        if road_class not in RoadClass.ALL:
            raise ValueError(f"unknown road class '{road_class}'")
        segment_id = len(self._segments)
        if length is None:
            length = euclidean_distance(
                self._intersections[start_node].location,
                self._intersections[end_node].location,
            )
        if speed_limit is None:
            speed_limit = RoadClass.DEFAULT_SPEEDS[road_class]
        segment = RoadSegment(segment_id, start_node, end_node, float(length), road_class, float(speed_limit))
        self._segments[segment_id] = segment
        self._out_segments[start_node].append(segment_id)
        self._in_segments[end_node].append(segment_id)
        self._segment_by_nodes[(start_node, end_node)] = segment_id
        self._invalidate()
        return segment

    def add_bidirectional_road(
        self,
        node_a: int,
        node_b: int,
        road_class: str = RoadClass.LOCAL,
        speed_limit: Optional[float] = None,
    ) -> Tuple[RoadSegment, RoadSegment]:
        """Add both directions of a two-way road."""
        forward = self.add_segment(node_a, node_b, road_class, speed_limit=speed_limit)
        backward = self.add_segment(node_b, node_a, road_class, speed_limit=speed_limit)
        return forward, backward

    def _invalidate(self) -> None:
        self._compiled = None

    # ------------------------------------------------------------------ #
    # compiled CSR view
    # ------------------------------------------------------------------ #
    def compiled(self):
        """The cached :class:`~repro.roadnet.csr.CompiledRoadGraph` of this network.

        Compiling freezes the dict-of-lists graph into flat CSR numpy arrays
        plus a uniform-grid spatial index; every hot path (Dijkstra routing,
        map matching, midpoint/route geometry, successor tables for the
        road-constrained models) runs on that view.  The cache is invalidated
        whenever the network is mutated.
        """
        if self._compiled is None:
            from repro.roadnet.csr import CompiledRoadGraph

            self._compiled = CompiledRoadGraph(self)
        return self._compiled

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #
    @property
    def num_intersections(self) -> int:
        return len(self._intersections)

    @property
    def num_segments(self) -> int:
        return len(self._segments)

    def intersections(self) -> List[Intersection]:
        """All intersections (sorted by id)."""
        return [self._intersections[k] for k in sorted(self._intersections)]

    def segments(self) -> List[RoadSegment]:
        """All segments (sorted by id)."""
        return [self._segments[k] for k in sorted(self._segments)]

    def intersection(self, node_id: int) -> Intersection:
        """Look up an intersection by id."""
        return self._intersections[node_id]

    def segment(self, segment_id: int) -> RoadSegment:
        """Look up a segment by id."""
        return self._segments[segment_id]

    def has_segment(self, segment_id: int) -> bool:
        return segment_id in self._segments

    def segment_between(self, start_node: int, end_node: int) -> Optional[RoadSegment]:
        """The segment from ``start_node`` to ``end_node`` if it exists."""
        sid = self._segment_by_nodes.get((start_node, end_node))
        return self._segments[sid] if sid is not None else None

    def out_segments(self, node_id: int) -> List[RoadSegment]:
        """Segments leaving ``node_id``."""
        return [self._segments[s] for s in self._out_segments.get(node_id, [])]

    def in_segments(self, node_id: int) -> List[RoadSegment]:
        """Segments arriving at ``node_id``."""
        return [self._segments[s] for s in self._in_segments.get(node_id, [])]

    def out_segment_ids(self, node_id: int) -> List[int]:
        """Ids of segments leaving ``node_id``, in insertion order."""
        return list(self._out_segments.get(node_id, []))

    def segment_midpoint(self, segment_id: int) -> Point:
        """Geometric midpoint of a segment (used for visualisation and matching).

        Served from the compiled graph's precomputed midpoint array instead of
        re-deriving the geometry from the endpoint dataclasses on every call.
        """
        if segment_id not in self._segments:
            raise KeyError(segment_id)
        mid = self.compiled().seg_midpoint_xy[segment_id]
        return Point(float(mid[0]), float(mid[1]))

    # ------------------------------------------------------------------ #
    # segment-level adjacency (road-constrained decoding)
    # ------------------------------------------------------------------ #
    def successor_segments(self, segment_id: int) -> List[int]:
        """Ids of segments that can directly follow ``segment_id``.

        A follower is any segment leaving the end node of ``segment_id``
        (including the U-turn back along the same road, so that the mask is
        consistent with :meth:`are_connected` / :meth:`is_valid_route` — every
        valid route must receive non-zero probability under the
        road-constrained softmax).  Unknown ids have no successors.
        """
        segment = self._segments.get(segment_id)
        if segment is None:
            return []
        return list(self._out_segments[segment.end_node])

    def transition_mask(self) -> np.ndarray:
        """Boolean matrix ``M`` with ``M[i, j] = True`` iff ``j`` may follow ``i``.

        Shape is ``(num_segments, num_segments)``.  This dense O(N²) view is
        for inspection and for the tests' parity oracles: the road-constrained
        models and the serving engine consume the compiled graph's CSR
        successor tables (:meth:`~repro.roadnet.csr.CompiledRoadGraph.
        successor_tables`) and never densify.
        """
        return self.compiled().transition_mask()

    def are_connected(self, first_segment: int, second_segment: int) -> bool:
        """Whether ``second_segment`` may directly follow ``first_segment``."""
        first = self._segments[first_segment]
        second = self._segments[second_segment]
        return first.end_node == second.start_node

    def is_valid_route(self, segment_ids: Sequence[int]) -> bool:
        """Whether a sequence of segment ids forms a connected route.

        Runs as two vectorised checks on the compiled arrays (id range, then
        endpoint chaining) instead of per-edge dict lookups.
        """
        if len(segment_ids) == 0:
            return False
        graph = self.compiled()
        ids = np.asarray(segment_ids, dtype=np.int64)
        if ids.ndim != 1 or ids.size == 0:
            return False
        if ids.min() < 0 or ids.max() >= graph.num_segments:
            return False
        return bool((graph.seg_end[ids[:-1]] == graph.seg_start[ids[1:]]).all())

    def route_length(self, segment_ids: Sequence[int]) -> float:
        """Total length (metres) of a route given as segment ids."""
        if len(segment_ids) == 0:
            return 0.0
        graph = self.compiled()
        ids = np.asarray(segment_ids, dtype=np.int64)
        if ids.min() < 0 or ids.max() >= graph.num_segments:
            bad = ids[(ids < 0) | (ids >= graph.num_segments)]
            raise KeyError(int(bad[0]))
        # Sequential Python summation over the gathered lengths keeps the
        # result bit-identical to the historical per-segment accumulation.
        return float(sum(graph.seg_length[ids].tolist()))

    # ------------------------------------------------------------------ #
    # interoperability / serialization
    # ------------------------------------------------------------------ #
    def to_networkx(self):
        """Export to a ``networkx.DiGraph`` (nodes = intersections)."""
        import networkx as nx

        graph = nx.DiGraph(name=self.name)
        for node in self.intersections():
            graph.add_node(node.node_id, x=node.location.x, y=node.location.y)
        for seg in self.segments():
            graph.add_edge(
                seg.start_node,
                seg.end_node,
                segment_id=seg.segment_id,
                length=seg.length,
                road_class=seg.road_class,
                speed_limit=seg.speed_limit,
            )
        return graph

    def to_dict(self) -> Dict:
        """JSON-serialisable representation."""
        return {
            "name": self.name,
            "intersections": [
                {"id": n.node_id, "x": n.location.x, "y": n.location.y}
                for n in self.intersections()
            ],
            "segments": [
                {
                    "id": s.segment_id,
                    "start": s.start_node,
                    "end": s.end_node,
                    "length": s.length,
                    "road_class": s.road_class,
                    "speed_limit": s.speed_limit,
                }
                for s in self.segments()
            ],
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "RoadNetwork":
        """Rebuild a network from :meth:`to_dict` output.

        Segments may come in any order; they are added by ascending id, so
        the ids must run ``0..num_segments-1`` without gaps or repeats
        (``ValueError`` otherwise, naming the offending id).
        """
        network = cls(name=payload.get("name", "road-network"))
        for node in payload["intersections"]:
            network.add_intersection(node["id"], node["x"], node["y"])
        for expected, seg in enumerate(sorted(payload["segments"], key=lambda s: s["id"])):
            if seg["id"] < expected:
                raise ValueError(f"segment id {seg['id']} appears more than once")
            if seg["id"] > expected:
                raise ValueError(
                    f"segment ids must run 0..{len(payload['segments']) - 1}: "
                    f"id {expected} is missing"
                )
            network.add_segment(
                seg["start"],
                seg["end"],
                road_class=seg["road_class"],
                length=seg["length"],
                speed_limit=seg["speed_limit"],
            )
        return network

    def save(self, path: Union[str, Path]) -> Path:
        """Write the network to a JSON file."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict()))
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "RoadNetwork":
        """Read a network previously written by :meth:`save`."""
        return cls.from_dict(json.loads(Path(path).read_text()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RoadNetwork(name={self.name!r}, intersections={self.num_intersections}, "
            f"segments={self.num_segments})"
        )
