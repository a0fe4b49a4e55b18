"""The road-preference field — the hidden confounder E of the causal graph.

The paper's central claim (Fig. 1/2) is that a latent *road preference* E is a
common cause of both the SD-pair distribution C and the observed trajectories
T.  In the real DiDi data E is unobservable; in this reproduction we *build*
it, which has two benefits:

* the trajectory simulator can implement the causal graph E → C, E → T, C → T
  exactly, so that in-distribution vs out-of-distribution behaviour emerges
  for the same structural reason as in the paper, and
* experiments can inspect the ground-truth confounder (e.g. verifying that
  CausalTAD's learned per-segment scaling factor anti-correlates with
  popularity).

A :class:`RoadPreferenceField` assigns every segment

* an **attractiveness** score used when sampling routes (E → T): drivers prefer
  arterial roads and roads near points of interest, and
* a **destination weight** used when sampling SD pairs (E → C): popular
  destinations (malls, office parks) sit on preferred roads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.roadnet.network import RoadClass, RoadNetwork
from repro.roadnet.spatial import Point, euclidean_distance
from repro.utils.rng import RandomState, get_rng

__all__ = ["PointOfInterest", "RoadPreferenceField"]


@dataclass(frozen=True)
class PointOfInterest:
    """A popular location (mall, office park, transport hub).

    POIs raise both the attractiveness of nearby roads (drivers route past
    them on purpose) and the probability that trips start or end nearby.
    """

    name: str
    location: Point
    weight: float = 1.0
    radius: float = 600.0


class RoadPreferenceField:
    """Ground-truth road preference over a network.

    Parameters
    ----------
    network:
        The road network the field is defined on.
    pois:
        Points of interest; omitted POIs mean preference comes only from road
        class.
    class_preference:
        Base attractiveness per road class (defaults to
        :attr:`RoadClass.DEFAULT_PREFERENCE`).
    noise_std:
        Standard deviation of per-segment log-normal noise, modelling the
        "mixture effects of many factors" (weather exposure, buildings, speed
        bumps) the paper lists as constituents of E.
    """

    def __init__(
        self,
        network: RoadNetwork,
        pois: Optional[Sequence[PointOfInterest]] = None,
        class_preference: Optional[Dict[str, float]] = None,
        noise_std: float = 0.15,
        rng: Optional[RandomState] = None,
    ) -> None:
        self.network = network
        self.pois: List[PointOfInterest] = list(pois or [])
        self.class_preference = dict(class_preference or RoadClass.DEFAULT_PREFERENCE)
        self.noise_std = noise_std
        rng = get_rng(rng)

        n = network.num_segments
        base = np.array(
            [self.class_preference.get(seg.road_class, 0.2) for seg in network.segments()],
            dtype=np.float64,
        )
        # POI influence over the compiled midpoint array.  The per-POI maths
        # stays scalar (``math.hypot`` distance, Python ``**``) so the field
        # is bit-identical to the historical per-segment loop — seeded
        # datasets must not shift under the CSR refactor — but the midpoints
        # come precomputed from the compiled graph instead of being re-derived
        # from the endpoint dataclasses on every call.
        poi_boost = np.zeros(n, dtype=np.float64)
        if self.pois and n:
            midpoints = network.compiled().seg_midpoint_xy
            for sid in range(n):
                mid = Point(float(midpoints[sid, 0]), float(midpoints[sid, 1]))
                poi_boost[sid] = sum(self._poi_influence(poi, mid) for poi in self.pois)
        if noise_std > 0 and n:
            # One vectorised draw consumes the generator stream exactly like
            # the historical per-segment scalar draws.
            noise = np.exp(rng.normal(0.0, noise_std, size=n))
        else:
            noise = np.ones(n, dtype=np.float64)
        attractiveness = (base + 0.5 * poi_boost) * noise
        # Destination popularity is dominated by POI proximity but every
        # segment keeps a small floor so any segment *can* be a destination.
        destination_weight = 0.05 * base + poi_boost

        self._attractiveness = attractiveness
        self._destination_weight = destination_weight + 1e-3

    @staticmethod
    def _poi_influence(poi: PointOfInterest, location: Point) -> float:
        distance = euclidean_distance(poi.location, location)
        return poi.weight * float(np.exp(-((distance / poi.radius) ** 2)))

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #
    @property
    def attractiveness(self) -> np.ndarray:
        """Per-segment attractiveness array (E → T channel)."""
        return self._attractiveness

    @property
    def destination_weights(self) -> np.ndarray:
        """Per-segment destination popularity (E → C channel)."""
        return self._destination_weight

    def segment_attractiveness(self, segment_id: int) -> float:
        """Attractiveness of one segment."""
        return float(self._attractiveness[segment_id])

    def segment_cost(self, segment_id: int, preference_strength: float = 1.0) -> float:
        """Routing cost of a segment: length divided by attractiveness^strength.

        A ``preference_strength`` of 0 recovers pure shortest-distance routing;
        larger values make drivers increasingly willing to take longer but
        "nicer" roads.  This is the knob the experiments use to control how
        strong the confounding is.
        """
        segment = self.network.segment(segment_id)
        attraction = max(self._attractiveness[segment_id], 1e-6)
        return segment.length / (attraction**preference_strength)

    def cost_array(self, preference_strength: float = 1.0) -> np.ndarray:
        """All segment routing costs at once: ``length / attractiveness^strength``.

        Bit-identical to calling :meth:`segment_cost` per segment (the power
        is evaluated with the same scalar kernel — numpy's vectorised ``**``
        may differ from the scalar one by 1 ulp, which would break route
        parity with the per-edge route-cost oracle of
        ``tests/roadnet_reference.py``).  The route-choice model
        multiplies this base array by per-trip noise and hands the product
        straight to the CSR Dijkstra as its weight vector, removing every
        per-edge Python call from route sampling.
        """
        lengths = self.network.compiled().seg_length
        attraction = np.maximum(self._attractiveness, 1e-6)
        powered = np.array(
            [a**preference_strength for a in attraction], dtype=np.float64
        )
        return lengths / powered

    def popularity_ranking(self) -> np.ndarray:
        """Segment ids sorted from most to least attractive."""
        return np.argsort(-self._attractiveness)

    def sample_destination_segment(self, rng: Optional[RandomState] = None) -> int:
        """Sample a destination segment according to the E → C distribution."""
        rng = get_rng(rng)
        probs = self._destination_weight / self._destination_weight.sum()
        return int(rng.choice(len(probs), p=probs))

    def sample_uniform_segment(self, rng: Optional[RandomState] = None) -> int:
        """Sample a segment uniformly — the *deconfounded* destination draw.

        The out-of-distribution test set uses this (paper §VI-A1: "randomly
        sample trajectories from the whole dataset"), so that OOD SD pairs are
        not biased toward preferred roads.
        """
        rng = get_rng(rng)
        return int(rng.integers(0, self.network.num_segments))

    def to_dict(self) -> Dict:
        """JSON-serialisable summary (for dataset provenance records)."""
        return {
            "class_preference": self.class_preference,
            "noise_std": self.noise_std,
            "pois": [
                {
                    "name": p.name,
                    "x": p.location.x,
                    "y": p.location.y,
                    "weight": p.weight,
                    "radius": p.radius,
                }
                for p in self.pois
            ],
        }
