"""Trajectory datasets and batch encoding.

A :class:`TrajectoryDataset` is an ordered collection of
:class:`~repro.trajectory.types.LabeledTrajectory` sharing one road network
vocabulary (segment ids ``0 … num_segments-1``).  It provides the grouping,
splitting and padding/batching machinery that the models and the experiment
runners need:

* ``group_by_sd()`` — the metric baseline (iBOAT) and the Switch anomaly
  generator both operate on groups of trajectories with the same SD pair;
* ``encode_batch`` / ``iter_batches`` — convert variable-length segment
  sequences into padded integer arrays with masks, ready for the numpy models
  (one extra vocabulary index is reserved as padding).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.trajectory.types import LabeledTrajectory, MapMatchedTrajectory, SDPair
from repro.utils.rng import RandomState, get_rng

__all__ = ["EncodedBatch", "TrajectoryDataset", "encode_batch"]


@dataclass(frozen=True)
class EncodedBatch:
    """A padded batch of trajectories ready for model consumption.

    Attributes
    ----------
    inputs:
        ``(batch, max_len-1)`` int array — segments ``t_1 … t_{n-1}`` fed to
        the autoregressive decoder.
    targets:
        ``(batch, max_len-1)`` int array — segments ``t_2 … t_n`` to predict.
    mask:
        ``(batch, max_len-1)`` boolean array marking valid (non-padding)
        prediction positions.
    full_segments:
        ``(batch, max_len)`` int array of the complete padded sequences (used
        by the RP-VAE, which scores every segment including the first).
    full_mask:
        ``(batch, max_len)`` boolean validity mask for ``full_segments``.
    sources / destinations:
        ``(batch,)`` int arrays with the SD pair of every trajectory.
    lengths:
        ``(batch,)`` int array with true (unpadded) lengths.
    labels:
        ``(batch,)`` int array of anomaly labels (0 normal, 1 anomaly).
    pad_id:
        The integer used for padding (``num_segments``).
    """

    inputs: np.ndarray
    targets: np.ndarray
    mask: np.ndarray
    full_segments: np.ndarray
    full_mask: np.ndarray
    sources: np.ndarray
    destinations: np.ndarray
    lengths: np.ndarray
    labels: np.ndarray
    pad_id: int

    @property
    def batch_size(self) -> int:
        return int(self.inputs.shape[0])

    @property
    def max_length(self) -> int:
        return int(self.full_segments.shape[1])


def encode_batch(
    trajectories: Sequence[MapMatchedTrajectory],
    num_segments: int,
    labels: Optional[Sequence[int]] = None,
) -> EncodedBatch:
    """Pad and encode a list of trajectories into an :class:`EncodedBatch`.

    The padding id is ``num_segments`` (one past the last real segment id), so
    models must size their embedding tables as ``num_segments + 1``.
    """
    if not trajectories:
        raise ValueError("encode_batch requires at least one trajectory")
    pad_id = num_segments
    lengths = np.array([len(t) for t in trajectories], dtype=np.int64)
    max_len = int(lengths.max())
    batch = len(trajectories)

    full = np.full((batch, max_len), pad_id, dtype=np.int64)
    # One flat scatter instead of a per-trajectory copy loop: concatenate all
    # segment sequences, bounds-check once, and write them through a
    # (row, column) index pair derived from the lengths.
    flat = np.concatenate([np.asarray(t.segments, dtype=np.int64) for t in trajectories])
    if flat.size and (flat.min() < 0 or flat.max() >= num_segments):
        starts = np.cumsum(lengths) - lengths
        bad = np.flatnonzero((flat < 0) | (flat >= num_segments))[0]
        row = int(np.searchsorted(starts, bad, side="right")) - 1
        raise ValueError(
            f"trajectory {trajectories[row].trajectory_id} contains segment ids outside "
            f"[0, {num_segments})"
        )
    rows = np.repeat(np.arange(batch, dtype=np.int64), lengths)
    cols = np.arange(flat.size, dtype=np.int64) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    full[rows, cols] = flat

    full_mask = full != pad_id
    inputs = full[:, :-1].copy()
    targets = full[:, 1:].copy()
    mask = (inputs != pad_id) & (targets != pad_id)
    # Padding positions in inputs would index the embedding table out of range
    # for models without a pad row only if they forget to add it; targets at
    # padded positions are excluded by the mask but must still be valid indices
    # for gather operations, so clamp them to 0.
    targets_clamped = np.where(targets == pad_id, 0, targets)

    label_array = (
        np.asarray(labels, dtype=np.int64)
        if labels is not None
        else np.zeros(batch, dtype=np.int64)
    )
    if label_array.shape[0] != batch:
        raise ValueError("labels must align with trajectories")

    return EncodedBatch(
        inputs=inputs,
        targets=targets_clamped,
        mask=mask,
        full_segments=full,
        full_mask=full_mask,
        sources=np.array([t.source for t in trajectories], dtype=np.int64),
        destinations=np.array([t.destination for t in trajectories], dtype=np.int64),
        lengths=lengths,
        labels=label_array,
        pad_id=pad_id,
    )


class TrajectoryDataset:
    """An ordered, labelled collection of map-matched trajectories."""

    def __init__(
        self,
        items: Sequence[LabeledTrajectory],
        num_segments: int,
        name: str = "dataset",
    ) -> None:
        if num_segments <= 0:
            raise ValueError("num_segments must be positive")
        self._items: List[LabeledTrajectory] = list(items)
        self.num_segments = int(num_segments)
        self.name = name

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_trajectories(
        cls,
        trajectories: Sequence[MapMatchedTrajectory],
        num_segments: int,
        label: int = 0,
        anomaly_kind: Optional[str] = None,
        name: str = "dataset",
    ) -> "TrajectoryDataset":
        """Wrap plain trajectories with a uniform label."""
        items = [
            LabeledTrajectory(trajectory=t, label=label, anomaly_kind=anomaly_kind)
            for t in trajectories
        ]
        return cls(items, num_segments, name=name)

    # ------------------------------------------------------------------ #
    # container protocol
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[LabeledTrajectory]:
        return iter(self._items)

    def __getitem__(self, index: int) -> LabeledTrajectory:
        return self._items[index]

    # ------------------------------------------------------------------ #
    # views
    # ------------------------------------------------------------------ #
    @property
    def items(self) -> List[LabeledTrajectory]:
        return list(self._items)

    @property
    def trajectories(self) -> List[MapMatchedTrajectory]:
        """The underlying trajectories (labels dropped)."""
        return [item.trajectory for item in self._items]

    @property
    def labels(self) -> np.ndarray:
        """Integer anomaly labels aligned with :attr:`trajectories`."""
        return np.array([item.label for item in self._items], dtype=np.int64)

    @property
    def num_anomalies(self) -> int:
        return int(self.labels.sum())

    def sd_pairs(self) -> Set[Tuple[int, int]]:
        """The distinct SD pairs present in the dataset."""
        return {item.trajectory.sd_pair.as_tuple() for item in self._items}

    def group_by_sd(self) -> Dict[Tuple[int, int], List[MapMatchedTrajectory]]:
        """Trajectories grouped by their SD pair."""
        groups: Dict[Tuple[int, int], List[MapMatchedTrajectory]] = {}
        for item in self._items:
            groups.setdefault(item.trajectory.sd_pair.as_tuple(), []).append(item.trajectory)
        return groups

    def mean_length(self) -> float:
        """Mean number of segments per trajectory."""
        if not self._items:
            return 0.0
        return float(np.mean([len(item.trajectory) for item in self._items]))

    # ------------------------------------------------------------------ #
    # transformations
    # ------------------------------------------------------------------ #
    def subset(self, indices: Sequence[int], name: Optional[str] = None) -> "TrajectoryDataset":
        """A new dataset containing only the given indices (in order)."""
        return TrajectoryDataset(
            [self._items[i] for i in indices],
            self.num_segments,
            name=name or f"{self.name}-subset",
        )

    def filter_by_sd(self, sd_pairs: Iterable[Tuple[int, int]], keep: bool = True) -> "TrajectoryDataset":
        """Keep (or drop) trajectories whose SD pair is in ``sd_pairs``."""
        allowed = set(sd_pairs)
        items = [
            item
            for item in self._items
            if (item.trajectory.sd_pair.as_tuple() in allowed) == keep
        ]
        return TrajectoryDataset(items, self.num_segments, name=f"{self.name}-filtered")

    def merge(self, other: "TrajectoryDataset", name: Optional[str] = None) -> "TrajectoryDataset":
        """Concatenate two datasets over the same road network."""
        if other.num_segments != self.num_segments:
            raise ValueError("cannot merge datasets over different road networks")
        return TrajectoryDataset(
            self._items + other._items,
            self.num_segments,
            name=name or f"{self.name}+{other.name}",
        )

    def shuffled(self, rng: Optional[RandomState] = None) -> "TrajectoryDataset":
        """A shuffled copy."""
        rng = get_rng(rng)
        order = rng.permutation(len(self._items))
        return self.subset([int(i) for i in order], name=f"{self.name}-shuffled")

    def truncate_observed(self, ratio: float) -> "TrajectoryDataset":
        """Prefix every trajectory to ``ratio`` of its length (online evaluation)."""
        items = [
            LabeledTrajectory(
                trajectory=item.trajectory.observed_fraction(ratio),
                label=item.label,
                anomaly_kind=item.anomaly_kind,
            )
            for item in self._items
        ]
        return TrajectoryDataset(items, self.num_segments, name=f"{self.name}-obs{ratio:.1f}")

    # ------------------------------------------------------------------ #
    # batching
    # ------------------------------------------------------------------ #
    def encode(self, indices: Optional[Sequence[int]] = None) -> EncodedBatch:
        """Encode the whole dataset (or a subset of indices) as one batch."""
        if indices is None:
            indices = range(len(self._items))
        selected = [self._items[i] for i in indices]
        return encode_batch(
            [item.trajectory for item in selected],
            self.num_segments,
            labels=[item.label for item in selected],
        )

    def iter_batches(
        self,
        batch_size: int,
        shuffle: bool = True,
        rng: Optional[RandomState] = None,
        drop_last: bool = False,
    ) -> Iterator[EncodedBatch]:
        """Iterate over padded mini-batches.

        Shuffled batches are length-bucketed: the shuffled order is sorted by
        length (the shuffle randomises ties), so each batch is
        near-homogeneous and the fused sequence kernels see almost no padded
        timesteps, and then the *order of batches* is shuffled to keep
        optimisation stochastic.  Without ``shuffle`` the batches follow
        dataset order.
        """
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        rng = get_rng(rng)
        order = list(range(len(self._items)))
        batch_starts = list(range(0, len(order), batch_size))
        if shuffle:
            rng.shuffle(order)
            order.sort(key=lambda x: len(self._items[x].trajectory))
            rng.shuffle(batch_starts)
        for start in batch_starts:
            indices = order[start : start + batch_size]
            if drop_last and len(indices) < batch_size:
                continue
            yield self.encode(indices)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TrajectoryDataset(name={self.name!r}, size={len(self)}, "
            f"anomalies={self.num_anomalies}, segments={self.num_segments})"
        )
