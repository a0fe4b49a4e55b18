"""Training loop for CausalTAD (and any module exposing a batch-loss forward).

The trainer owns the optimiser, the epoch/batch loop, gradient clipping,
optional validation split and loss history, mirroring the paper's setup of
Adam with initial learning rate 0.01.  It intentionally knows nothing about
the model internals beyond "forward(batch) returns an object with a ``total``
(or plain Tensor) loss", so the same trainer drives the baselines.

Checkpoint / resume
-------------------
``fit(..., checkpoint_path=...)`` writes a training checkpoint at epoch
boundaries (parameters, Adam moments + step count, loss history and the
state of *every* random stream feeding the run — the trainer's shuffle rng
and any ``_rng`` owned by a submodule, e.g. the VAE reparameterisation
streams).  The checkpoint alternates between two slot files overwritten in
place (:mod:`repro.nn.serialization`), so a run killed mid-write still
resumes from the epoch before.  When the path already holds a checkpoint,
``fit`` restores the newest usable slot and continues from the recorded
epoch; because the RNG streams resume mid-stream, the continuation is
bit-identical to an uninterrupted run (``tests/core/test_checkpoint_resume.py``
pins this).

A checkpoint belongs to one run.  It stores the run's fingerprint: the
training config without ``epochs`` and ``log_every`` (neither changes the
epochs already trained, so ``fit(epochs=3)`` followed by ``fit()``
resumes), the model class and its config, and a digest of the training
set's trajectory ids, segments and labels; the serialization layer adds the
parameter layout.  A checkpoint whose fingerprint or layout differs raises
naming the part before anything is restored, and ``fit`` logs it and trains
from scratch.  Only ``fit`` writes checkpoints, so every checkpoint carries
all four parts; :meth:`Trainer.load_checkpoint` restores one without
training and compares every part but the training set's, which only ``fit``
sees.  Each write runs in a ``train/checkpoint`` span and counts
``train/checkpoints`` and ``train/checkpoint_bytes``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

import numpy as np

from repro import obs
from repro.core.config import TrainingConfig
from repro.nn import Adam, Module, Tensor, clip_grad_norm
from repro.nn.serialization import CheckpointSlots
from repro.trajectory.dataset import EncodedBatch, TrajectoryDataset
from repro.utils.logging import get_logger
from repro.utils.rng import RandomState

__all__ = ["TrainingHistory", "Trainer"]

logger = get_logger("core.trainer")

#: ``TrainingConfig`` fields left out of a checkpoint's fingerprint: they say
#: how long to train and how often to log, not how the epochs trained so far
#: went.
_SCHEDULE_FIELDS = ("epochs", "log_every")


@dataclass
class TrainingHistory:
    """Per-epoch statistics collected during training."""

    train_losses: List[float] = field(default_factory=list)
    validation_losses: List[float] = field(default_factory=list)
    epoch_seconds: List[float] = field(default_factory=list)

    @property
    def num_epochs(self) -> int:
        return len(self.train_losses)

    @property
    def best_epoch(self) -> int:
        """Epoch index with the lowest validation (or training) loss."""
        reference = self.validation_losses if self.validation_losses else self.train_losses
        return int(np.argmin(reference)) if reference else -1

    @property
    def total_seconds(self) -> float:
        return float(sum(self.epoch_seconds))

    def as_dict(self) -> Dict[str, List[float]]:
        return {
            "train_losses": list(self.train_losses),
            "validation_losses": list(self.validation_losses),
            "epoch_seconds": list(self.epoch_seconds),
        }


def _run_config(value: Any) -> Any:
    """A config as JSON values, each ``TrainingConfig`` without its schedule fields.

    Numpy scalars become Python numbers, so a config built from array
    arithmetic still serialises.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = {f.name: _run_config(getattr(value, f.name)) for f in dataclasses.fields(value)}
        if isinstance(value, TrainingConfig):
            for name in _SCHEDULE_FIELDS:
                del fields[name]
        return fields
    if isinstance(value, np.generic):
        return value.item()
    return value


def _data_digest(dataset: TrajectoryDataset) -> str:
    """SHA-256 over the trajectory ids, segments and labels, in dataset order."""
    digest = hashlib.sha256()
    for item in dataset:
        trajectory = item.trajectory
        digest.update(f"{trajectory.trajectory_id}\0{item.label}\0{len(trajectory)}\0".encode())
        digest.update(np.asarray(trajectory.segments, dtype=np.int64).tobytes())
    return digest.hexdigest()


def _finite_loss(loss: Tensor, epoch: int, step: int) -> float:
    """The batch loss as a float; ``FloatingPointError`` if it is not finite.

    Checked before the optimiser step, so a diverged batch cannot turn every
    parameter (and every later score) into NaN.  The message counts from 1.
    """
    value = loss.item()
    if not math.isfinite(value):
        raise FloatingPointError(
            f"training loss is {value} at epoch {epoch + 1}, step {step + 1} of that "
            "epoch; stopped before the optimiser step"
        )
    return value


class Trainer:
    """Drives epochs of mini-batch optimisation for a model over a dataset.

    A non-finite batch loss raises ``FloatingPointError`` naming the epoch
    and the step within it.
    """

    def __init__(
        self,
        model: Module,
        config: Optional[TrainingConfig] = None,
        rng: Optional[RandomState] = None,
    ) -> None:
        self.model = model
        self.config = config or TrainingConfig()
        self.rng = rng if rng is not None else RandomState(self.config.seed)
        self.optimizer = Adam(
            model.parameters(),
            lr=self.config.learning_rate,
            weight_decay=self.config.weight_decay,
        )
        self.history = TrainingHistory()

    # ------------------------------------------------------------------ #
    def fit(
        self,
        dataset: TrajectoryDataset,
        validation: Optional[TrajectoryDataset] = None,
        epochs: Optional[int] = None,
        checkpoint_path: Optional[Union[str, Path]] = None,
        checkpoint_every: int = 1,
        resume: bool = True,
    ) -> TrainingHistory:
        """Train the model and return the loss history.

        If the trainer config specifies ``validation_fraction`` and no explicit
        validation set is given, the fraction is split off the training set.

        Parameters
        ----------
        checkpoint_path:
            When given, a full training checkpoint (parameters, optimiser
            moments, RNG streams, history, run fingerprint) is written there
            every ``checkpoint_every`` epochs and after the final epoch, into
            the older of its two slot files.
        resume:
            When True (default) and ``checkpoint_path`` already holds a
            checkpoint of this run (same fingerprint, see the module
            docstring), it is restored and training continues from the
            recorded epoch — bit-identical to a run that was never
            interrupted, provided the trainer was constructed the same way
            (same model init, seed and config) as the interrupted one.  A
            checkpoint of another run, or one that cannot be read, is logged
            and training starts from scratch.
        """
        config = self.config
        epochs = epochs if epochs is not None else config.epochs
        train_set, validation_set = self._split_validation(dataset, validation)

        start_epoch = 0
        checkpoint = fingerprint = None
        if checkpoint_path is not None:
            checkpoint = CheckpointSlots(checkpoint_path)
            fingerprint = self._fingerprint(dataset)
            if resume:
                start_epoch = self._try_resume(checkpoint, fingerprint)
                if start_epoch:
                    logger.info("resumed from %s at epoch %d", checkpoint_path, start_epoch)

        with obs.span("train/fit", epochs=epochs, start_epoch=start_epoch):
            for epoch in range(start_epoch, epochs):
                self.model.train()
                epoch_losses: List[float] = []
                ins = self._instruments()
                begin = time.perf_counter()
                with obs.span("train/epoch", epoch=epoch):
                    batches = train_set.iter_batches(config.batch_size, shuffle=True, rng=self.rng)
                    for step, batch in enumerate(batches):
                        epoch_losses.append(self._step(batch, epoch, step, ins))
                self.history.epoch_seconds.append(time.perf_counter() - begin)
                mean_loss = float(np.mean(epoch_losses)) if epoch_losses else float("nan")
                self.history.train_losses.append(mean_loss)
                if ins is not None:
                    ins["epochs"].inc()
                    ins["epoch_seconds"].observe(self.history.epoch_seconds[-1])
                    ins["epoch_loss"].set(mean_loss)

                if validation_set is not None and len(validation_set) > 0:
                    with obs.span("train/validate", epoch=epoch):
                        self.history.validation_losses.append(self.evaluate_loss(validation_set))

                if config.log_every and (epoch + 1) % config.log_every == 0:
                    val = (
                        f", val {self.history.validation_losses[-1]:.4f}"
                        if self.history.validation_losses
                        else ""
                    )
                    logger.info("epoch %d/%d: train %.4f%s", epoch + 1, epochs, mean_loss, val)

                if checkpoint is not None and (
                    (epoch + 1) % max(checkpoint_every, 1) == 0 or epoch + 1 == epochs
                ):
                    self._write_checkpoint(checkpoint, epoch + 1, fingerprint)
        return self.history

    def evaluate_loss(self, dataset: TrajectoryDataset) -> float:
        """Mean loss over a dataset without updating parameters."""
        self.model.eval()
        losses: List[float] = []
        for batch in dataset.iter_batches(self.config.batch_size, shuffle=False):
            loss = self._compute_loss(batch)
            losses.append(loss.item())
        self.model.train()
        return float(np.mean(losses)) if losses else float("nan")

    # ------------------------------------------------------------------ #
    # checkpoint / resume
    # ------------------------------------------------------------------ #
    def _fingerprint(self, dataset: Optional[TrajectoryDataset] = None) -> Dict[str, Any]:
        """The parts that make a checkpoint belong to this run.

        ``training``: the training config without ``epochs`` and
        ``log_every``; ``model``: the model class and, when it has one, its
        dataclass ``config`` (any nested ``TrainingConfig`` likewise without
        the two); ``data`` (only when ``dataset`` is given): a SHA-256 digest
        of the training set's trajectory ids, segments and labels.
        """
        model: Dict[str, Any] = {"class": type(self.model).__name__}
        config = getattr(self.model, "config", None)
        if dataclasses.is_dataclass(config) and not isinstance(config, type):
            model["config"] = _run_config(config)
        parts: Dict[str, Any] = {"training": _run_config(self.config), "model": model}
        if dataset is not None:
            parts["data"] = _data_digest(dataset)
        return parts

    def _write_checkpoint(
        self, checkpoint: CheckpointSlots, epoch: int, fingerprint: Dict[str, Any]
    ) -> Path:
        """Write a full training checkpoint into the older of the two slots.

        Captures the model parameters, the optimiser's state, the loss
        history, a positional list of every RNG stream the run draws from
        (see :meth:`_rng_sources`) and the run's whole fingerprint.  Returns
        the slot written.
        """
        with obs.span("train/checkpoint", epoch=epoch) as span:
            written = checkpoint.save(
                self.model,
                optimizer=self.optimizer,
                rng_states=[source.get_state() for source in self._rng_sources()],
                metadata={"epoch": epoch, "history": self.history.as_dict()},
                fingerprint=fingerprint,
            )
            size = written.stat().st_size
            if isinstance(span, obs.Span):
                span.attrs["bytes"] = size
        registry = obs.metrics()
        if registry.enabled:
            scope = registry.scope("train")
            scope.counter("checkpoints").inc()
            scope.counter("checkpoint_bytes").inc(size)
        return written

    def load_checkpoint(self, path: Union[str, Path]) -> int:
        """Restore a checkpoint ``fit`` wrote, in place; returns the epoch to resume from.

        Validation (the run fingerprint, optimiser type, RNG stream count,
        parameter layout) happens before any state is touched, so a
        mismatching checkpoint raises naming what differs — a ``ValueError``
        for a fingerprint part — and leaves the trainer exactly as
        constructed.  The fingerprint's ``data`` part is the one part not
        compared: a trainer meets its training set only in ``fit``, which
        compares all of them before it resumes.
        """
        return self._restore(CheckpointSlots(path), self._fingerprint())

    def _restore(self, checkpoint: CheckpointSlots, fingerprint: Dict[str, Any]) -> int:
        sources = self._rng_sources()
        metadata, rng_states = checkpoint.load(
            self.model,
            self.optimizer,
            expected_rng_streams=len(sources),
            fingerprint=fingerprint,
        )
        if rng_states is not None:
            for source, state in zip(sources, rng_states):
                source.set_state(state)
        history = metadata.get("history")
        if history:
            self.history = TrainingHistory(**history)
        return int(metadata.get("epoch", 0))

    def _rng_sources(self) -> List[RandomState]:
        """Every distinct random stream the training run draws from.

        Position 0 is the trainer's own shuffle rng; the rest are the
        ``_rng`` attributes of the model's submodules (VAE reparameterisation
        streams), deduplicated by identity in deterministic module order.
        Detector adapters share one stream between trainer and model, so the
        common case is a single entry.
        """
        sources: List[RandomState] = [self.rng]
        seen = {id(self.rng)}
        for module in self.model.modules():
            candidate = getattr(module, "_rng", None)
            if isinstance(candidate, RandomState) and id(candidate) not in seen:
                seen.add(id(candidate))
                sources.append(candidate)
        return sources

    def _try_resume(self, checkpoint: CheckpointSlots, fingerprint: Dict[str, Any]) -> int:
        """Restore ``checkpoint`` if it holds one of this run; returns the epoch."""
        try:
            return self._restore(checkpoint, fingerprint)
        except FileNotFoundError:
            return 0
        except (OSError, ValueError, KeyError) as exc:
            # ValueError: no slot reads whole (torn, corrupt, an older
            # layout), another run's fingerprint, stale shapes or the wrong
            # optimiser/RNG layout; KeyError: missing optimizer state or
            # renamed parameters; OSError: the file cannot be opened.  All
            # mean "cannot resume from this" — validation precedes every
            # mutation, so the trainer is untouched and training restarts
            # from scratch.
            logger.warning("ignoring unusable checkpoint %s (%s)", checkpoint.paths[0], exc)
            return 0

    # ------------------------------------------------------------------ #
    def _step(
        self,
        batch: EncodedBatch,
        epoch: int,
        step: int,
        ins: Optional[Dict[str, object]] = None,
    ) -> float:
        """One optimiser update; records the per-step metrics when given ``ins``.

        The optimisation math is the same either way (clipping included), so
        enabling metrics never changes the trained parameters; the only extra
        work is the pre-clip gradient norm when ``grad_clip`` is off.
        """
        begin = time.perf_counter()
        loss = self._compute_loss(batch)
        loss_value = _finite_loss(loss, epoch, step)
        self.optimizer.zero_grad()
        loss.backward()
        if self.config.grad_clip > 0:
            grad_norm = clip_grad_norm(self.optimizer.parameters, self.config.grad_clip)
        elif ins is not None:
            grad_norm = clip_grad_norm(self.optimizer.parameters, float("inf"))
        self.optimizer.step()
        if ins is None:
            return loss_value

        ins["steps"].inc()
        ins["trajectories"].inc(batch.batch_size)
        ins["step_seconds"].observe(time.perf_counter() - begin)
        ins["loss"].observe(loss_value)
        ins["grad_norm"].observe(grad_norm)
        mask = batch.mask
        if mask.size:
            # bucket occupancy: fraction of the padded (batch, time) grid
            # holding real positions — how well length-bucketing packed us.
            ins["batch_fill"].observe(float(mask.sum()) / float(mask.size))
        return loss_value

    # ------------------------------------------------------------------ #
    # observability (see docs/OBSERVABILITY.md for the metric catalog)
    # ------------------------------------------------------------------ #
    def _instruments(self) -> Optional[Dict[str, object]]:
        """Handles for the ``train/`` metrics, or None when obs is disabled.

        Resolved once per epoch so the per-step path never touches the
        registry's lock; when the global registry is disabled the training
        loop is byte-for-byte the pre-observability code path.
        """
        registry = obs.metrics()
        if not registry.enabled:
            return None
        scope = registry.scope("train")
        return {
            "steps": scope.counter("steps"),
            "epochs": scope.counter("epochs"),
            "trajectories": scope.counter("trajectories"),
            "step_seconds": scope.histogram("step_seconds"),
            "loss": scope.histogram("loss"),
            "grad_norm": scope.histogram("grad_norm"),
            "batch_fill": scope.histogram("batch_fill"),
            "epoch_seconds": scope.histogram("epoch_seconds"),
            "epoch_loss": scope.gauge("epoch_loss"),
        }

    def _compute_loss(self, batch: EncodedBatch) -> Tensor:
        output = self.model(batch)
        if isinstance(output, Tensor):
            return output
        if hasattr(output, "total"):
            return output.total
        if hasattr(output, "loss"):
            return output.loss
        raise TypeError(
            "model forward must return a Tensor or an object with a 'total' or 'loss' attribute"
        )

    def _split_validation(
        self, dataset: TrajectoryDataset, validation: Optional[TrajectoryDataset]
    ):
        if validation is not None or self.config.validation_fraction <= 0:
            return dataset, validation
        order = self.rng.permutation(len(dataset))
        num_validation = int(len(dataset) * self.config.validation_fraction)
        if num_validation == 0:
            return dataset, None
        validation_idx = [int(i) for i in order[:num_validation]]
        train_idx = [int(i) for i in order[num_validation:]]
        return dataset.subset(train_idx, name="train"), dataset.subset(validation_idx, name="validation")
