"""Anomaly generation — the Detour and Switch strategies of the paper (§VI-A2).

There is no labelled ground truth for trajectory anomalies, so the paper
(following GM-VSAE and DeepTEA) *injects* anomalies into normal trajectories:

* **Detour** — pick indexes ``1 ≤ i < k < j ≤ n``, temporarily delete segment
  ``t_k`` from the road network, and replace the sub-trajectory ``t_i … t_j``
  with the shortest path between ``t_i`` and ``t_j`` that avoids ``t_k``.
  Among all admissible ``(i, k, j)`` the generator picks one whose extra
  distance falls inside a target detour-ratio band, so anomalies are neither
  trivially short nor absurdly long.
* **Switch** — find another trajectory ``t'`` with the same SD pair but low
  Jaccard similarity to ``t`` and switch from ``t`` onto ``t'`` partway
  through, bridging the two routes so the result stays connected.

Both generators return :class:`~repro.trajectory.types.LabeledTrajectory`
objects with label 1; the corresponding normal trajectories keep label 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.roadnet.network import RoadNetwork
from repro.roadnet.shortest_path import route_between_segments
from repro.trajectory.types import LabeledTrajectory, MapMatchedTrajectory, SDPair
from repro.utils.rng import RandomState, get_rng

__all__ = ["DetourGenerator", "SwitchGenerator", "AnomalyInjector"]

DETOUR_KIND = "detour"
SWITCH_KIND = "switch"


@dataclass(frozen=True)
class DetourConfig:
    """Target band for the detour extra-distance ratio."""

    min_extra_ratio: float = 0.15
    max_extra_ratio: float = 1.5
    max_attempts: int = 40


class DetourGenerator:
    """Create detour anomalies by deleting a segment and rerouting around it."""

    def __init__(self, network: RoadNetwork, config: Optional[DetourConfig] = None) -> None:
        self.network = network
        self.config = config or DetourConfig()

    def generate(
        self, trajectory: MapMatchedTrajectory, rng: Optional[RandomState] = None
    ) -> Optional[LabeledTrajectory]:
        """One detour anomaly derived from ``trajectory`` (None if impossible)."""
        rng = get_rng(rng)
        segments = list(trajectory.segments)
        n = len(segments)
        if n < 5:
            return None
        cfg = self.config
        original_length = self.network.route_length(segments)

        for _ in range(cfg.max_attempts):
            i = int(rng.integers(0, n - 3))
            j = int(rng.integers(i + 2, n - 1))
            k = int(rng.integers(i + 1, j))
            banned = {segments[k]}
            replacement = route_between_segments(
                self.network, segments[i], segments[j], banned_segments=banned
            )
            if replacement is None:
                continue
            candidate = segments[:i] + replacement + segments[j + 1 :]
            deduped = [candidate[0]]
            for sid in candidate[1:]:
                if sid != deduped[-1]:
                    deduped.append(sid)
            if not self.network.is_valid_route(deduped):
                continue
            if deduped == segments:
                continue
            extra = self.network.route_length(deduped) / max(original_length, 1e-9) - 1.0
            if not (cfg.min_extra_ratio <= extra <= cfg.max_extra_ratio):
                continue
            anomalous = MapMatchedTrajectory(
                trajectory_id=f"{trajectory.trajectory_id}-detour",
                segments=tuple(deduped),
                timestamps=None,
            )
            return LabeledTrajectory(trajectory=anomalous, label=1, anomaly_kind=DETOUR_KIND)
        return None


@dataclass(frozen=True)
class SwitchConfig:
    """Similarity threshold and retry budget for switch anomalies."""

    max_similarity: float = 0.6
    max_attempts: int = 25


class SwitchGenerator:
    """Create switch anomalies by jumping from one route to a dissimilar one.

    Requires a pool of trajectories grouped by SD pair (the "whole dataset" of
    the paper) from which to draw the alternative route ``t'``.
    """

    def __init__(
        self,
        network: RoadNetwork,
        pool: Sequence[MapMatchedTrajectory],
        config: Optional[SwitchConfig] = None,
    ) -> None:
        self.network = network
        self.config = config or SwitchConfig()
        self._by_sd: Dict[Tuple[int, int], List[MapMatchedTrajectory]] = {}
        for trajectory in pool:
            self._by_sd.setdefault(trajectory.sd_pair.as_tuple(), []).append(trajectory)

    def alternatives(self, trajectory: MapMatchedTrajectory) -> List[MapMatchedTrajectory]:
        """Candidate alternative routes with the same SD pair (excluding self)."""
        candidates = self._by_sd.get(trajectory.sd_pair.as_tuple(), [])
        return [c for c in candidates if c.trajectory_id != trajectory.trajectory_id]

    def generate(
        self, trajectory: MapMatchedTrajectory, rng: Optional[RandomState] = None
    ) -> Optional[LabeledTrajectory]:
        """One switch anomaly derived from ``trajectory`` (None if impossible)."""
        rng = get_rng(rng)
        cfg = self.config
        alternatives = self.alternatives(trajectory)
        candidates = [
            c for c in alternatives if trajectory.jaccard_similarity(c) <= cfg.max_similarity
        ]
        if not candidates:
            # Fall back to the most dissimilar alternatives available (the paper
            # samples "from those with a low similarity score"); identical routes
            # are still excluded because switching onto them is a no-op.
            ranked = sorted(alternatives, key=trajectory.jaccard_similarity)
            candidates = [c for c in ranked[:3] if trajectory.jaccard_similarity(c) < 0.999]
        if not candidates:
            return None
        for _ in range(cfg.max_attempts):
            other = candidates[int(rng.integers(0, len(candidates)))]
            switched = self._switch(trajectory, other, rng)
            if switched is not None and switched.segments != trajectory.segments:
                return LabeledTrajectory(trajectory=switched, label=1, anomaly_kind=SWITCH_KIND)
        return None

    def _switch(
        self,
        trajectory: MapMatchedTrajectory,
        other: MapMatchedTrajectory,
        rng: RandomState,
    ) -> Optional[MapMatchedTrajectory]:
        """Follow ``trajectory`` for a prefix, then bridge onto ``other``'s suffix."""
        n = len(trajectory.segments)
        switch_at = int(rng.integers(max(1, n // 4), max(2, 3 * n // 4)))
        prefix = list(trajectory.segments[:switch_at])

        # Join onto `other` at the closest point after its own progress mark.
        other_segments = list(other.segments)
        join_index = max(1, len(other_segments) // 2)
        suffix = other_segments[join_index:]
        if not suffix:
            return None
        bridge = route_between_segments(self.network, prefix[-1], suffix[0])
        if bridge is None:
            return None
        merged = prefix + bridge[1:] + suffix[1:]
        deduped = [merged[0]]
        for sid in merged[1:]:
            if sid != deduped[-1]:
                deduped.append(sid)
        if len(deduped) < 3 or not self.network.is_valid_route(deduped):
            return None
        if deduped[0] != trajectory.source or deduped[-1] != trajectory.destination:
            return None
        return MapMatchedTrajectory(
            trajectory_id=f"{trajectory.trajectory_id}-switch",
            segments=tuple(deduped),
            timestamps=None,
        )


class AnomalyInjector:
    """Convenience facade producing labelled anomaly sets from normal data.

    Given a list of normal trajectories it produces, for each requested kind,
    roughly one anomaly per normal trajectory (the paper balances anomalous
    and normal counts in every test combination).
    """

    def __init__(
        self,
        network: RoadNetwork,
        pool: Sequence[MapMatchedTrajectory],
        detour_config: Optional[DetourConfig] = None,
        switch_config: Optional[SwitchConfig] = None,
    ) -> None:
        self.network = network
        self.detour = DetourGenerator(network, detour_config)
        self.switch = SwitchGenerator(network, pool, switch_config)

    def inject(
        self,
        normals: Sequence[MapMatchedTrajectory],
        kind: str,
        rng: Optional[RandomState] = None,
        target_count: Optional[int] = None,
    ) -> List[LabeledTrajectory]:
        """Generate anomalies of ``kind`` ('detour' or 'switch') from ``normals``."""
        rng = get_rng(rng)
        if kind == DETOUR_KIND:
            generator = self.detour.generate
        elif kind == SWITCH_KIND:
            generator = self.switch.generate
        else:
            raise ValueError(f"unknown anomaly kind '{kind}'; expected 'detour' or 'switch'")
        target = target_count if target_count is not None else len(normals)
        anomalies: List[LabeledTrajectory] = []
        order = list(range(len(normals)))
        rng.shuffle(order)
        # Cycle over the normal pool until the target count is reached or the
        # pool is exhausted twice (some trajectories admit no anomaly).
        for index in order * 2:
            if len(anomalies) >= target:
                break
            anomaly = generator(normals[index], rng=rng)
            if anomaly is not None:
                anomalies.append(anomaly)
        return anomalies
