"""Session store of the fleet serving engine.

Every active ride owns one *slot*: a row index into arrays that hold its
scoring state — the decoder hidden state, the three running sums of the
Eq. (10) score, the segment it is on, how many segments it has observed, the
ticks it started and was last active, an LRU stamp and whether it alerted.
A tick reads and writes the rides it serves with a few fancy-indexed array
operations (gather → kernel → scatter) instead of a Python loop over per-ride
objects, and a ride's memory is O(1) however long it runs.  A
``ride_id → slot`` dict and a free-slot list hand out slots; the arrays are
sized from the first batch of rides and grow by doubling.

Each slot also holds the ride's next queued observation, in a plain Python
list so that :meth:`SessionStore.push` — called once per ingested event —
stays a pure-Python O(1) write.  Rides with more than one queued observation
keep the rest in a per-slot deque.

Two production guard-rails decide which sessions must leave the store:

* **capacity** — a hard cap on concurrent sessions; when new rides push the
  store over it, the least-recently-active sessions (lowest LRU stamps) go;
* **TTL** — sessions that have not advanced for more than ``ttl_ticks``
  engine ticks (rides whose ends were lost, crashed clients, …).

The store only *selects* those victims (:meth:`SessionStore.over_capacity`,
:meth:`SessionStore.expired`): the engine reads their final scores from the
arrays and then frees the slots with :meth:`SessionStore.release`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.trajectory.types import SDPair

__all__ = ["RideState", "SessionStore"]

#: Marks a slot whose ride has no queued observation (segment ids are ≥ 0).
_NO_OBSERVATION = -1


@dataclass(frozen=True)
class RideState:
    """Read-only snapshot of one active ride, as :meth:`SessionStore.get` returns it."""

    ride_id: str
    sd_pair: SDPair
    last_segment: int
    observed_length: int
    hidden: np.ndarray            # (hidden_dim,) decoder hidden state (a copy)
    fixed_score: float
    likelihood_sum: float
    scaling_sum: float
    started_tick: int
    last_active_tick: int
    pending: Tuple[int, ...] = ()
    alerted: bool = False

    def score(self, lambda_weight: float) -> float:
        """Debiased anomaly score of the observed prefix (Eq. 10)."""
        return self.fixed_score + self.likelihood_sum - lambda_weight * self.scaling_sum

    def per_segment_score(self, lambda_weight: float) -> float:
        """Length-normalised score; comparable across rides of any length."""
        return self.score(lambda_weight) / self.observed_length


class SessionStore:
    """Active ride sessions in slot-indexed arrays, with LRU capacity and TTL eviction.

    The per-slot arrays (``hidden``, ``fixed_score``, ``likelihood_sum``,
    ``scaling_sum``, ``last_segment``, ``observed_length``, ``started_tick``,
    ``last_active_tick``, ``stamp``, ``alerted``) are public so the engine can
    gather and scatter them; only rows of live slots hold meaningful values,
    and the arrays are replaced when the store grows, so index them afresh
    rather than keeping references.
    """

    def __init__(self, capacity: Optional[int] = None, ttl_ticks: Optional[int] = None) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError("capacity must be positive")
        if ttl_ticks is not None and ttl_ticks <= 0:
            raise ValueError("ttl_ticks must be positive")
        self.capacity = capacity
        self.ttl_ticks = ttl_ticks
        self._slot_of: Dict[str, int] = {}
        self._free: List[int] = []
        self._ride_ids: List[Optional[str]] = []
        self._sd_pairs: List[Optional[SDPair]] = []
        self._next: List[int] = []
        self._backlog: Dict[int, Deque[int]] = {}
        self._clock = 0
        self._live = np.zeros(0, dtype=bool)
        self.hidden = np.zeros((0, 0))
        self.fixed_score = np.zeros(0)
        self.likelihood_sum = np.zeros(0)
        self.scaling_sum = np.zeros(0)
        self.last_segment = np.zeros(0, dtype=np.int64)
        self.observed_length = np.zeros(0, dtype=np.int64)
        self.started_tick = np.zeros(0, dtype=np.int64)
        self.last_active_tick = np.zeros(0, dtype=np.int64)
        self.stamp = np.zeros(0, dtype=np.int64)
        self.alerted = np.zeros(0, dtype=bool)

    # ------------------------------------------------------------------ #
    # container protocol and snapshots
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._slot_of)

    def __contains__(self, ride_id: str) -> bool:
        return ride_id in self._slot_of

    @property
    def evicts(self) -> bool:
        """Whether a capacity or a TTL is set, so LRU order and activity matter."""
        return self.capacity is not None or self.ttl_ticks is not None

    def slot_of(self, ride_id: str) -> Optional[int]:
        """The slot of an active ride, or ``None``."""
        return self._slot_of.get(ride_id)

    def ride_ids(self, slots: np.ndarray) -> List[str]:
        """Ride ids of ``slots``, in the same order."""
        ride_ids = self._ride_ids
        return [ride_ids[slot] for slot in slots.tolist()]

    def lru_slots(self) -> np.ndarray:
        """Every live slot, least-recently-active first."""
        slots = np.flatnonzero(self._live)
        return slots[np.argsort(self.stamp[slots])]

    def get(self, ride_id: str) -> Optional[RideState]:
        """Snapshot of an active ride (``None`` if absent)."""
        slot = self._slot_of.get(ride_id)
        if slot is None:
            return None
        pending: Tuple[int, ...] = ()
        if self._next[slot] != _NO_OBSERVATION:
            pending = (self._next[slot], *self._backlog.get(slot, ()))
        return RideState(
            ride_id=ride_id,
            sd_pair=self._sd_pairs[slot],
            last_segment=int(self.last_segment[slot]),
            observed_length=int(self.observed_length[slot]),
            hidden=self.hidden[slot].copy(),
            fixed_score=float(self.fixed_score[slot]),
            likelihood_sum=float(self.likelihood_sum[slot]),
            scaling_sum=float(self.scaling_sum[slot]),
            started_tick=int(self.started_tick[slot]),
            last_active_tick=int(self.last_active_tick[slot]),
            pending=pending,
            alerted=bool(self.alerted[slot]),
        )

    def states(self) -> List[RideState]:
        """Snapshots of all active sessions, least-recently-active first."""
        return [self.get(ride_id) for ride_id in self.active_ids()]

    def active_ids(self) -> List[str]:
        """Ride ids of all active sessions, least-recently-active first."""
        return self.ride_ids(self.lru_slots())

    def scores(self, slots: np.ndarray, lambda_weight: float) -> np.ndarray:
        """Debiased Eq. (10) scores of ``slots`` (same arithmetic as :meth:`RideState.score`)."""
        return (
            self.fixed_score[slots] + self.likelihood_sum[slots]
            - lambda_weight * self.scaling_sum[slots]
        )

    # ------------------------------------------------------------------ #
    # observation queues
    # ------------------------------------------------------------------ #
    def push(self, ride_id: str, segment: int) -> bool:
        """Queue an observation for an active ride; ``False`` if the ride is unknown."""
        slot = self._slot_of.get(ride_id)
        if slot is None:
            return False
        if self._next[slot] == _NO_OBSERVATION:
            self._next[slot] = segment
        else:
            backlog = self._backlog.get(slot)
            if backlog is None:
                self._backlog[slot] = deque((segment,))
            else:
                backlog.append(segment)
        return True

    def has_queued(self, slot: int) -> bool:
        """Whether the ride in ``slot`` still has an observation to score."""
        return self._next[slot] != _NO_OBSERVATION

    def any_queued(self) -> bool:
        """Whether any active ride still has an observation to score."""
        return max(self._next, default=_NO_OBSERVATION) != _NO_OBSERVATION

    def take_next(self) -> Tuple[np.ndarray, np.ndarray]:
        """Dequeue one observation from every ride that has one.

        Returns ``(slots, segments)``, least-recently-active first; the rides'
        later observations move up for the next call.
        """
        queued = np.array(self._next, dtype=np.int64)
        slots = np.flatnonzero(queued != _NO_OBSERVATION)
        slots = slots[np.argsort(self.stamp[slots])]
        segments = queued[slots]
        if slots.size:
            self._next = [_NO_OBSERVATION] * len(self._next)
            for slot, backlog in list(self._backlog.items()):
                self._next[slot] = backlog.popleft()
                if not backlog:
                    del self._backlog[slot]
        return slots, segments

    # ------------------------------------------------------------------ #
    # slot lifecycle
    # ------------------------------------------------------------------ #
    def open(
        self,
        ride_ids: Sequence[str],
        sd_pairs: Sequence[SDPair],
        first_segments: np.ndarray,
        hidden: np.ndarray,
        fixed_scores: np.ndarray,
        scaling_scores: np.ndarray,
        tick: int,
        queues: Optional[Sequence[Iterable[int]]] = None,
    ) -> np.ndarray:
        """Give each new ride a slot and its initial scoring state.

        Rows of the arrays align with ``ride_ids``; ``scaling_scores`` is the
        first segment's scaling term and ``queues`` holds observations that
        arrived before the ride was opened.  The new rides become the most
        recently active, in the given order.  Returns their slots.  Raises
        ``ValueError``, before changing anything, when a ride id is already
        active or repeats within the batch.  The store may then hold more
        rides than its capacity; :meth:`over_capacity` names the ones to evict.
        """
        count = len(ride_ids)
        for ride_id in ride_ids:
            if ride_id in self._slot_of:
                raise ValueError(f"ride {ride_id!r} already has an active session")
        if len(set(ride_ids)) != count:
            raise ValueError("ride ids repeat within one batch of new sessions")
        if count > len(self._free):
            self._grow(max(2 * len(self._next), len(self) + count), hidden.shape[1])
        slots = np.array([self._free.pop() for _ in range(count)], dtype=np.int64)
        for index, (slot, ride_id) in enumerate(zip(slots.tolist(), ride_ids)):
            self._slot_of[ride_id] = slot
            self._ride_ids[slot] = ride_id
            self._sd_pairs[slot] = sd_pairs[index]
            if queues is not None and queues[index]:
                backlog = deque(queues[index])
                self._next[slot] = backlog.popleft()
                if backlog:
                    self._backlog[slot] = backlog
        self._live[slots] = True
        self.hidden[slots] = hidden
        self.fixed_score[slots] = fixed_scores
        self.likelihood_sum[slots] = 0.0
        self.scaling_sum[slots] = scaling_scores
        self.last_segment[slots] = first_segments
        self.observed_length[slots] = 1
        self.started_tick[slots] = tick
        self.alerted[slots] = False
        self.touch(slots, tick)
        return slots

    def touch(self, slots: np.ndarray, tick: int) -> None:
        """Mark ``slots`` active at ``tick``, most recent last (LRU order)."""
        self.last_active_tick[slots] = tick
        self.stamp[slots] = np.arange(self._clock, self._clock + len(slots))
        self._clock += len(slots)

    def over_capacity(self) -> np.ndarray:
        """The least-recently-active slots beyond capacity (oldest first)."""
        excess = 0 if self.capacity is None else len(self) - self.capacity
        if excess <= 0:
            return np.zeros(0, dtype=np.int64)
        return self.lru_slots()[:excess]

    def expired(self, current_tick: int) -> np.ndarray:
        """Slots idle for more than ``ttl_ticks`` ticks, least-recently-active first."""
        if self.ttl_ticks is None:
            return np.zeros(0, dtype=np.int64)
        idle = current_tick - self.last_active_tick > self.ttl_ticks
        slots = np.flatnonzero(self._live & idle)
        return slots[np.argsort(self.stamp[slots])]

    def release(self, slots: np.ndarray) -> None:
        """Remove the rides in ``slots``, dropping any observations still queued."""
        for slot in slots.tolist():
            del self._slot_of[self._ride_ids[slot]]
            self._ride_ids[slot] = None
            self._sd_pairs[slot] = None
            self._next[slot] = _NO_OBSERVATION
            self._backlog.pop(slot, None)
            self._free.append(slot)
        self._live[slots] = False

    def _grow(self, size: int, hidden_dim: int) -> None:
        old = len(self._next)

        def grown(array: np.ndarray, shape) -> np.ndarray:
            out = np.zeros(shape, dtype=array.dtype)
            if old:
                out[:old] = array
            return out

        self.hidden = grown(self.hidden, (size, hidden_dim))
        for name in ("fixed_score", "likelihood_sum", "scaling_sum", "last_segment",
                     "observed_length", "started_tick", "last_active_tick", "stamp", "alerted"):
            setattr(self, name, grown(getattr(self, name), size))
        self._live = grown(self._live, size)
        self._ride_ids.extend([None] * (size - old))
        self._sd_pairs.extend([None] * (size - old))
        self._next.extend([_NO_OBSERVATION] * (size - old))
        # Popped from the end, so the lowest new slot is handed out first.
        self._free.extend(range(size - 1, old - 1, -1))
