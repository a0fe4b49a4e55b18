"""GPS simulation and map matching.

The paper assumes trajectories are already matched to road segments ("all
trajectories can be mapped into a completed road sequence").  To exercise that
pipeline end-to-end, this module provides

* :func:`simulate_gps` — turn a map-matched route back into noisy GPS points
  (the inverse problem, useful for generating raw-trajectory test data), and
* :class:`MapMatcher` — a lightweight matcher turning raw GPS trajectories
  into road-segment sequences using nearest-segment candidates chained by a
  connectivity-aware Viterbi-style pass.

The matcher is intentionally simple (this library's experiments run on
segment sequences produced directly by the simulator); it exists so that users
with their own raw GPS data can still feed the models.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.roadnet.network import RoadNetwork
from repro.roadnet.spatial import interpolate_along
from repro.trajectory.types import GPSPoint, MapMatchedTrajectory, Trajectory
from repro.utils.rng import RandomState, get_rng

__all__ = ["simulate_gps", "MapMatcher", "MatchResult"]


def simulate_gps(
    network: RoadNetwork,
    matched: MapMatchedTrajectory,
    sample_spacing: float = 80.0,
    noise_std: float = 12.0,
    rng: Optional[RandomState] = None,
) -> Trajectory:
    """Emit noisy GPS points along a map-matched route.

    Points are placed roughly every ``sample_spacing`` metres along the route
    geometry with isotropic Gaussian noise of ``noise_std`` metres, and
    timestamps interpolated from the matched trajectory's per-segment times
    (or synthesised from free-flow speeds when absent).
    """
    rng = get_rng(rng)
    points: List[GPSPoint] = []
    time_cursor = matched.timestamps[0] if matched.timestamps else 0.0
    for position, sid in enumerate(matched.segments):
        segment = network.segment(sid)
        start = network.intersection(segment.start_node).location
        end = network.intersection(segment.end_node).location
        if matched.timestamps and position + 1 < len(matched.timestamps):
            duration = matched.timestamps[position + 1] - matched.timestamps[position]
        else:
            duration = segment.travel_time
        num_samples = max(1, int(segment.length / sample_spacing))
        for i in range(num_samples):
            fraction = i / num_samples
            base = interpolate_along(start, end, fraction)
            points.append(
                GPSPoint(
                    x=base.x + float(rng.normal(0.0, noise_std)),
                    y=base.y + float(rng.normal(0.0, noise_std)),
                    timestamp=time_cursor + fraction * duration,
                )
            )
        time_cursor += duration
    # Always include the final endpoint.
    last_segment = network.segment(matched.segments[-1])
    final = network.intersection(last_segment.end_node).location
    points.append(
        GPSPoint(
            x=final.x + float(rng.normal(0.0, noise_std)),
            y=final.y + float(rng.normal(0.0, noise_std)),
            timestamp=time_cursor,
        )
    )
    return Trajectory(trajectory_id=matched.trajectory_id, points=tuple(points))


@dataclass
class MatchResult:
    """Output of :meth:`MapMatcher.match`: the matched route plus diagnostics."""

    trajectory: MapMatchedTrajectory
    mean_match_distance: float
    num_points_used: int


class MapMatcher:
    """Nearest-segment map matcher with a connectivity-aware Viterbi pass.

    For each GPS point the matcher finds the ``num_candidates`` closest
    segments; a dynamic program then picks the segment sequence minimising
    ``match_distance + transition_penalty``, where transitions between
    non-adjacent segments are penalised.  Consecutive duplicates are collapsed
    and gaps between non-adjacent chosen segments are bridged with shortest
    paths so that the result is always a *connected* route.

    Candidates come from the compiled graph's grid-accelerated
    :meth:`~repro.roadnet.csr.CompiledRoadGraph.nearest_segments` — only
    grid-local segments are projected, instead of every segment for every
    point — and the Viterbi runs on padded ``(points, candidates)`` arrays.
    Two-way roads produce geometrically identical forward and reverse
    segments; the heading term (misalignment between the vehicle's motion
    vector and the segment direction) is what disambiguates them.  The
    original exhaustive-scan + dict matcher is kept as a parity oracle in
    ``tests/roadnet_reference.py``; both produce identical routes (same
    costs, same first-minimum tie-breaking), which the parity tests and the
    roadnet pipeline benchmark assert.
    """

    def __init__(
        self,
        network: RoadNetwork,
        num_candidates: int = 4,
        disconnect_penalty: float = 250.0,
        heading_weight: float = 60.0,
    ) -> None:
        self.network = network
        self.num_candidates = num_candidates
        self.disconnect_penalty = disconnect_penalty
        self.heading_weight = heading_weight
        self._graph = network.compiled()

    # ------------------------------------------------------------------ #
    def match(self, trajectory: Trajectory) -> MatchResult:
        """Match a raw GPS trajectory to a connected road-segment route."""
        graph = self._graph
        points = trajectory.points
        num_points = len(points)
        xy = np.array([(p.x, p.y) for p in points], dtype=np.float64).reshape(num_points, 2)
        headings = np.empty_like(xy)
        headings[:-1] = xy[1:]
        headings[-1] = xy[-1]
        headings[1:] -= xy[:-1]
        headings[0] -= xy[0]

        k = min(self.num_candidates, graph.num_segments)
        sids, costs = graph.nearest_segments(
            xy, k, headings=headings, heading_weight=self.heading_weight
        )
        valid = sids >= 0
        safe = np.where(valid, sids, 0)
        end_nodes = graph.seg_end[safe]
        start_nodes = graph.seg_start[safe]

        # Viterbi over the padded candidate grid.  ``argmin`` picks the first
        # minimum, matching the reference implementation's strict-improvement
        # scan over candidates in (cost, segment-id) order.
        columns = np.arange(k)
        cumulative = costs[0].copy()
        back = np.zeros((num_points, k), dtype=np.int64)
        for i in range(1, num_points):
            connected = end_nodes[i - 1][:, None] == start_nodes[i][None, :]
            same = sids[i - 1][:, None] == sids[i][None, :]
            transition = np.where(same | connected, 0.0, self.disconnect_penalty)
            total = (cumulative[:, None] + costs[i][None, :]) + transition
            back[i] = np.argmin(total, axis=0)
            cumulative = total[back[i], columns]

        choice = int(np.argmin(cumulative))
        chosen = np.empty(num_points, dtype=np.int64)
        chosen[num_points - 1] = choice
        for i in range(num_points - 1, 0, -1):
            choice = int(back[i, choice])
            chosen[i - 1] = choice
        rows = np.arange(num_points)
        chain = [int(s) for s in sids[rows, chosen]]
        mean_distance = float(np.mean(costs[rows, chosen]))

        route = self._connect(self._collapse(chain))
        matched = MapMatchedTrajectory(
            trajectory_id=trajectory.trajectory_id,
            segments=tuple(route),
            timestamps=None,
        )
        return MatchResult(
            trajectory=matched, mean_match_distance=mean_distance, num_points_used=num_points
        )

    @staticmethod
    def _collapse(chain: Sequence[int]) -> List[int]:
        collapsed = [chain[0]]
        for sid in chain[1:]:
            if sid != collapsed[-1]:
                collapsed.append(sid)
        return collapsed

    def _connect(self, chain: Sequence[int]) -> List[int]:
        """Bridge non-adjacent consecutive segments with shortest paths."""
        from repro.roadnet.shortest_path import route_between_segments

        route = [chain[0]]
        for sid in chain[1:]:
            if self.network.are_connected(route[-1], sid):
                route.append(sid)
                continue
            bridge = route_between_segments(self.network, route[-1], sid)
            if bridge is None:
                # Unbridgeable gap (disconnected network): keep going from sid.
                route.append(sid)
                continue
            route.extend(bridge[1:])
        # A bridge may already terminate with sid; drop immediate duplicates.
        return self._collapse(route)
