"""Confounded trajectory simulator.

The DiDi Xi'an / Chengdu GPS datasets are not redistributable, so this module
generates trajectories whose *generation process* implements exactly the
structural causal model of the paper (Fig. 2(a)):

* ``E → C`` — SD pairs are sampled from the preference field's destination
  weights, so sources and destinations concentrate on popular (arterial /
  POI-adjacent) segments.
* ``E → T`` — routes between S and D are sampled from a random-utility route
  choice model whose per-segment cost is ``length / attractiveness^strength``:
  drivers prefer attractive roads even when slightly longer.
* ``C → T`` — the route must actually connect S to D.

Because E is *built*, the in-distribution / out-of-distribution split of the
paper arises naturally: the training SD pairs over-represent popular roads,
while OOD SD pairs (drawn uniformly) do not — the exact situation where the
conditional ``P(T | C)`` picks up spurious correlation from ``C ← E → T``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.roadnet.generators import SyntheticCity
from repro.roadnet.network import RoadNetwork
from repro.roadnet.preference import RoadPreferenceField
from repro.roadnet.shortest_path import dijkstra_route
from repro.trajectory.types import MapMatchedTrajectory, SDPair
from repro.utils.rng import RandomState, get_rng

__all__ = ["RouteChoiceModel", "TrajectorySimulator", "SimulatorConfig"]


@dataclass(frozen=True)
class SimulatorConfig:
    """Knobs of the trajectory simulator.

    Attributes
    ----------
    preference_strength:
        Exponent applied to segment attractiveness in the routing cost; 0
        disables the E → T channel (no confounding), larger values strengthen
        it.  The paper's story needs a clearly positive value.
    utility_noise:
        Scale of per-trip Gumbel-like noise on segment costs; produces route
        diversity for the same SD pair (several "normal routes", as GM-VSAE's
        Gaussian-mixture prior expects).
    min_length / max_length:
        Trajectories outside this range (in number of segments) are rejected
        and re-sampled — the paper filters trajectories shorter than 30 GPS
        points; our segment-level equivalent is configurable.
    speed_noise:
        Multiplicative jitter on per-segment travel time when synthesising
        timestamps.
    """

    preference_strength: float = 1.0
    utility_noise: float = 0.35
    min_length: int = 6
    max_length: int = 60
    speed_noise: float = 0.2
    max_resample_attempts: int = 25


class RouteChoiceModel:
    """Samples driver routes between two segments under road preference.

    Each trip perturbs the per-segment cost with independent log-normal noise
    (a tractable stand-in for the Gumbel noise of a multinomial-logit route
    choice model) and runs Dijkstra on the perturbed costs.  Repeated sampling
    for the same SD pair therefore yields a mixture of plausible routes whose
    probabilities reflect both distance and road preference.

    The preference-weighted base costs are precomputed once as an array, so
    each trip is a single vectorised noise multiply followed by a CSR
    Dijkstra on the compiled graph, with no per-edge Python dispatch.  The
    routes are bit-identical to the original per-edge callable cost over the
    dict-based Dijkstra, which the test suite keeps as its parity oracle
    (``tests/roadnet_reference.py``).
    """

    def __init__(
        self,
        network: RoadNetwork,
        preference: RoadPreferenceField,
        config: Optional[SimulatorConfig] = None,
    ) -> None:
        self.network = network
        self.preference = preference
        self.config = config or SimulatorConfig()
        self._base_costs = preference.cost_array(self.config.preference_strength)

    def sample_route(
        self,
        source_segment: int,
        destination_segment: int,
        rng: Optional[RandomState] = None,
    ) -> Optional[List[int]]:
        """One route (list of segment ids) from source to destination segment.

        The route includes both endpoint segments.  Returns ``None`` when the
        destination is unreachable.
        """
        rng = get_rng(rng)
        cfg = self.config
        noise = rng.normal(0.0, cfg.utility_noise, size=self.network.num_segments)
        noise_factor = np.exp(noise)

        if source_segment == destination_segment:
            return None
        src = self.network.segment(source_segment)
        dst = self.network.segment(destination_segment)
        middle = dijkstra_route(
            self.network,
            src.end_node,
            dst.start_node,
            weight=self._base_costs * noise_factor,
        )
        if middle is None:
            return None
        return self._join(source_segment, middle, destination_segment)

    def shortest_route(self, source_segment: int, destination_segment: int) -> Optional[List[int]]:
        """The preference-free shortest route (used as a reference by tests)."""
        src = self.network.segment(source_segment)
        dst = self.network.segment(destination_segment)
        middle = dijkstra_route(self.network, src.end_node, dst.start_node)
        if middle is None:
            return None
        return self._join(source_segment, middle, destination_segment)

    def _join(
        self, source_segment: int, middle: List[int], destination_segment: int
    ) -> Optional[List[int]]:
        """Source + middle + destination with immediate duplicates collapsed."""
        route = [source_segment, *middle, destination_segment]
        deduped = [route[0]]
        for sid in route[1:]:
            if sid != deduped[-1]:
                deduped.append(sid)
        return deduped if self.network.is_valid_route(deduped) else None


class TrajectorySimulator:
    """Generates map-matched trajectories following the paper's causal graph."""

    def __init__(
        self,
        city: SyntheticCity,
        config: Optional[SimulatorConfig] = None,
        rng: Optional[RandomState] = None,
    ) -> None:
        self.city = city
        self.network = city.network
        self.preference = city.preference
        self.config = config or SimulatorConfig()
        self.route_model = RouteChoiceModel(self.network, self.preference, self.config)
        self._rng = get_rng(rng)
        self._counter = 0

    # ------------------------------------------------------------------ #
    # SD pair sampling (the E → C channel)
    # ------------------------------------------------------------------ #
    def sample_sd_pair(self, confounded: bool = True, rng: Optional[RandomState] = None) -> SDPair:
        """Sample an SD pair.

        ``confounded=True`` draws both endpoints from the preference field's
        destination weights (popular roads attract trips) — this is the
        training / in-distribution regime.  ``confounded=False`` draws
        endpoints uniformly over segments — the out-of-distribution regime
        where ``C ← E`` no longer holds.
        """
        rng = get_rng(rng if rng is not None else self._rng)
        for _ in range(self.config.max_resample_attempts):
            if confounded:
                source = self.preference.sample_destination_segment(rng)
                destination = self.preference.sample_destination_segment(rng)
            else:
                source = self.preference.sample_uniform_segment(rng)
                destination = self.preference.sample_uniform_segment(rng)
            if source != destination:
                return SDPair(source, destination)
        raise RuntimeError("failed to sample a non-degenerate SD pair")

    # ------------------------------------------------------------------ #
    # trajectory generation (the E → T and C → T channels)
    # ------------------------------------------------------------------ #
    def generate_trajectory(
        self,
        sd_pair: Optional[SDPair] = None,
        confounded: bool = True,
        rng: Optional[RandomState] = None,
    ) -> Optional[MapMatchedTrajectory]:
        """Generate one trajectory (optionally for a fixed SD pair).

        Returns ``None`` if no admissible route (within the configured length
        bounds) could be found after the retry budget — callers simply sample
        again with a fresh SD pair.
        """
        rng = get_rng(rng if rng is not None else self._rng)
        for _ in range(self.config.max_resample_attempts):
            pair = sd_pair or self.sample_sd_pair(confounded=confounded, rng=rng)
            route = self.route_model.sample_route(pair.source, pair.destination, rng=rng)
            if route is None:
                if sd_pair is not None:
                    return None
                continue
            if not self.config.min_length <= len(route) <= self.config.max_length:
                if sd_pair is not None:
                    return None
                continue
            timestamps = self._synthesise_timestamps(route, rng)
            self._counter += 1
            return MapMatchedTrajectory(
                trajectory_id=f"{self.city.name}-traj-{self._counter:06d}",
                segments=tuple(route),
                timestamps=tuple(timestamps),
            )
        return None

    def generate_many(
        self,
        count: int,
        sd_pair: Optional[SDPair] = None,
        confounded: bool = True,
        rng: Optional[RandomState] = None,
    ) -> List[MapMatchedTrajectory]:
        """Generate up to ``count`` trajectories (silently fewer if the SD pair
        admits no valid route — callers check the returned length)."""
        rng = get_rng(rng if rng is not None else self._rng)
        out: List[MapMatchedTrajectory] = []
        attempts = 0
        max_attempts = count * self.config.max_resample_attempts
        while len(out) < count and attempts < max_attempts:
            attempts += 1
            trajectory = self.generate_trajectory(sd_pair=sd_pair, confounded=confounded, rng=rng)
            if trajectory is not None:
                out.append(trajectory)
        return out

    def _synthesise_timestamps(self, route: Sequence[int], rng: RandomState) -> List[float]:
        """Per-segment entry times from free-flow travel times plus jitter.

        One vectorised jitter draw plus a gather from the compiled
        travel-time array; the running ``cumsum`` reproduces the historical
        left-to-right accumulation exactly.
        """
        start = float(rng.uniform(0.0, 24.0 * 3600.0))
        if len(route) <= 1:
            return [start]
        draws = rng.normal(0.0, self.config.speed_noise, size=len(route) - 1)
        factors = np.maximum(0.3, 1.0 + draws)
        travel_times = self.network.compiled().seg_travel_time[
            np.asarray(route[:-1], dtype=np.int64)
        ]
        return np.cumsum(np.concatenate(([start], travel_times * factors))).tolist()

    # ------------------------------------------------------------------ #
    # dataset-level helpers
    # ------------------------------------------------------------------ #
    def popular_sd_pairs(
        self,
        num_pairs: int,
        min_route_length: Optional[int] = None,
        rng: Optional[RandomState] = None,
    ) -> List[SDPair]:
        """Sample distinct *popular* (confounded) SD pairs that admit valid routes.

        This mirrors the paper's dataset construction: "sample 100 SD pairs
        with more than 100 trajectories as candidate pairs" — in the simulator
        we instead verify that the pair admits a route of acceptable length and
        rely on the confounded sampler for popularity.
        """
        rng = get_rng(rng if rng is not None else self._rng)
        min_len = min_route_length or self.config.min_length
        pairs: List[SDPair] = []
        seen: Set[Tuple[int, int]] = set()
        attempts = 0
        while len(pairs) < num_pairs and attempts < num_pairs * 60:
            attempts += 1
            pair = self.sample_sd_pair(confounded=True, rng=rng)
            if pair.as_tuple() in seen:
                continue
            probe = self.route_model.sample_route(pair.source, pair.destination, rng=rng)
            if probe is None or not (min_len <= len(probe) <= self.config.max_length):
                continue
            seen.add(pair.as_tuple())
            pairs.append(pair)
        if len(pairs) < num_pairs:
            raise RuntimeError(
                f"could only find {len(pairs)} / {num_pairs} SD pairs with valid routes; "
                "relax min_length or enlarge the city"
            )
        return pairs
