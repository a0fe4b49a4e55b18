"""Training loop for CausalTAD (and any module exposing a batch-loss forward).

The trainer owns the optimiser, the epoch/batch loop, gradient clipping,
optional validation split and loss history, mirroring the paper's setup of
Adam with initial learning rate 0.01.  It intentionally knows nothing about
the model internals beyond "forward(batch) returns an object with a ``total``
(or plain Tensor) loss", so the same trainer drives the baselines.

Checkpoint / resume
-------------------
``fit(..., checkpoint_path=...)`` writes an atomic training checkpoint at
epoch boundaries (parameters, Adam moments + step count, loss history and the
state of *every* random stream feeding the run — the trainer's shuffle rng
and any ``_rng`` owned by a submodule, e.g. the VAE reparameterisation
streams).  When the path already holds a checkpoint, ``fit`` restores it and
continues from the recorded epoch; because the RNG streams resume mid-stream,
the continuation is bit-identical to an uninterrupted run
(``tests/core/test_checkpoint_resume.py`` pins this).
"""

from __future__ import annotations

import math
import time
import zipfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

import numpy as np

from repro import obs
from repro.core.config import TrainingConfig
from repro.nn import (
    Adam,
    Module,
    Tensor,
    clip_grad_norm,
    load_training_checkpoint,
    save_training_checkpoint,
)
from repro.trajectory.dataset import EncodedBatch, TrajectoryDataset
from repro.utils.logging import get_logger
from repro.utils.rng import RandomState

__all__ = ["TrainingHistory", "Trainer"]

logger = get_logger("core.trainer")


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
            moments, RNG streams, history) is written there atomically every
            ``checkpoint_every`` epochs and after the final epoch.
        resume:
            When True (default) and ``checkpoint_path`` already exists, the
            checkpoint is restored and training continues from the recorded
            epoch — bit-identical to a run that was never interrupted,
            provided the trainer was constructed the same way (same model
            init, seed and config) as the interrupted one.
        """
        config = self.config
        epochs = epochs if epochs is not None else config.epochs
        train_set, validation_set = self._split_validation(dataset, validation)

        start_epoch = 0
        if checkpoint_path is not None and resume:
            start_epoch = self._try_resume(checkpoint_path)
            if start_epoch:
                logger.info("resumed from %s at epoch %d", checkpoint_path, start_epoch)

        with obs.span("train/fit", epochs=epochs, start_epoch=start_epoch):
            for epoch in range(start_epoch, epochs):
                self.model.train()
                epoch_losses: List[float] = []
                ins = self._instruments()
                begin = time.perf_counter()
                with obs.span("train/epoch", epoch=epoch):
                    batches = train_set.iter_batches(
                        config.batch_size, shuffle=True, rng=self.rng, bucketing=config.bucketing
                    )
                    for step, batch in enumerate(batches):
                        if ins is None:
                            loss_value = self._step(batch, epoch, step)
                        else:
                            loss_value = self._instrumented_step(batch, ins, epoch, step)
                        epoch_losses.append(loss_value)
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

                if checkpoint_path is not None and (
                    (epoch + 1) % max(checkpoint_every, 1) == 0 or epoch + 1 == epochs
                ):
                    self.save_checkpoint(checkpoint_path, epoch=epoch + 1)
        return self.history

    def train_one_epoch(self, dataset: TrajectoryDataset) -> float:
        """One epoch only (used by the training-scalability experiment)."""
        self.model.train()
        ins = self._instruments()
        epoch = self.history.num_epochs
        batches = dataset.iter_batches(
            self.config.batch_size, shuffle=True, rng=self.rng, bucketing=self.config.bucketing
        )
        with obs.span("train/epoch"):
            losses = [
                self._step(batch, epoch, step)
                if ins is None
                else self._instrumented_step(batch, ins, epoch, step)
                for step, batch in enumerate(batches)
            ]
        mean_loss = float(np.mean(losses)) if losses else float("nan")
        self.history.train_losses.append(mean_loss)
        if ins is not None:
            ins["epochs"].inc()
            ins["epoch_loss"].set(mean_loss)
        return mean_loss

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
    def save_checkpoint(self, path: Union[str, Path], epoch: Optional[int] = None) -> Path:
        """Write a full training checkpoint (atomic).

        Captures the model parameters, the optimiser's state, the loss
        history and a positional list of every RNG stream the run draws from
        (see :meth:`_rng_sources`).  ``epoch`` defaults to the number of
        epochs recorded in the history.
        """
        metadata = {
            "epoch": int(epoch if epoch is not None else self.history.num_epochs),
            "history": self.history.as_dict(),
        }
        return save_training_checkpoint(
            path,
            self.model,
            optimizer=self.optimizer,
            rng_states=[source.get_state() for source in self._rng_sources()],
            metadata=metadata,
        )

    def load_checkpoint(self, path: Union[str, Path]) -> int:
        """Restore a checkpoint in place; returns the epoch to resume from.

        Validation (optimiser type, RNG stream count, parameter names/shapes)
        happens before any state is touched, so a mismatching checkpoint
        raises and leaves the trainer exactly as constructed.
        """
        sources = self._rng_sources()
        metadata, rng_states = load_training_checkpoint(
            path, self.model, self.optimizer, expected_rng_streams=len(sources)
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

    def _try_resume(self, path: Union[str, Path]) -> int:
        """Restore ``path`` if it exists and is readable; returns the epoch."""
        path = Path(path)
        if path.suffix != ".npz":
            candidate = path.with_suffix(path.suffix + ".npz")
            path = candidate if candidate.exists() else path
        if not path.exists():
            return 0
        try:
            return self.load_checkpoint(path)
        except (zipfile.BadZipFile, EOFError, OSError, ValueError, KeyError) as exc:
            # BadZipFile/EOFError/OSError: truncated or unreadable file;
            # ValueError: not an .npz archive, stale shapes or wrong
            # optimiser/RNG layout; KeyError: missing optimizer state or
            # renamed parameters.  All mean "cannot resume from this" —
            # load_checkpoint validates before mutating, so the trainer is
            # untouched and training restarts from scratch.
            logger.warning("ignoring unusable checkpoint %s (%s)", path, exc)
            return 0

    # ------------------------------------------------------------------ #
    def _step(self, batch: EncodedBatch, epoch: int, step: int) -> float:
        loss = self._compute_loss(batch)
        loss_value = _finite_loss(loss, epoch, step)
        self.optimizer.zero_grad()
        loss.backward()
        if self.config.grad_clip > 0:
            clip_grad_norm(self.optimizer.parameters, self.config.grad_clip)
        self.optimizer.step()
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

    def _instrumented_step(
        self, batch: EncodedBatch, ins: Dict[str, object], epoch: int, step: int
    ) -> float:
        """Same update as :meth:`_step`, recording per-step metrics.

        The optimisation math is identical (clipping included), so enabling
        metrics never changes the trained parameters; the only extra work is
        the pre-clip gradient norm when ``grad_clip`` is off.
        """
        begin = time.perf_counter()
        loss = self._compute_loss(batch)
        loss_value = _finite_loss(loss, epoch, step)
        self.optimizer.zero_grad()
        loss.backward()
        max_norm = self.config.grad_clip if self.config.grad_clip > 0 else float("inf")
        grad_norm = clip_grad_norm(self.optimizer.parameters, max_norm)
        self.optimizer.step()

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
