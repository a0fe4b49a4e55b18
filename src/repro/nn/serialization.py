"""Model and training-state checkpoint serialization.

Checkpoints are ``.npz`` archives of arrays plus a JSON metadata blob, which
keeps them portable (no pickle of arbitrary objects).

Two levels of checkpoint are supported:

* **Model checkpoints** (:func:`save_checkpoint` / :func:`load_checkpoint`) —
  the parameter arrays of a :class:`~repro.nn.module.Module`, one archive
  member per qualified parameter name.
* **Training checkpoints** (:func:`save_training_checkpoint` /
  :func:`load_training_checkpoint`) — parameters *plus* the optimiser's
  moment buffers and step count and the JSON states of every random stream
  feeding the run.  Restoring one resumes an interrupted training run with a
  bit-identical continuation (same batch shuffles, same VAE noise, same
  Adam trajectory); :class:`repro.core.trainer.Trainer` exposes this through
  its ``checkpoint_path`` hooks.

A training checkpoint holds one member per role, not one per tensor: every
parameter concatenated in ``named_parameters`` order (``params``), each flat
optimiser array (``optim.m`` and ``optim.v`` for Adam) and the metadata,
which records the parameter layout (names and shapes) that slices
``params`` apart again, the run fingerprint the caller passes, and a write
sequence number.

Training checkpoints live in two slot files, the given path and a
``<stem>.1.npz`` beside it (:class:`CheckpointSlots`).  Each write
overwrites the slot holding the older checkpoint in place and truncates it;
after the first two writes no file is created, renamed or deleted.  This
replaces writing a temp file and moving it over the target with
``os.replace``, which cost a new file per write.  A run killed mid-write
leaves the slot it was writing torn — its zip directory or a member's CRC
no longer reads — and the other slot holding the previous checkpoint, intact:
:func:`load_training_checkpoint` takes the newest slot whose every member
reads with a valid CRC.  Only a kill during a run's very first write leaves
nothing to resume.
"""

from __future__ import annotations

import json
import zipfile
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.nn.module import Module
from repro.nn.optim import Optimizer

__all__ = [
    "save_checkpoint",
    "load_checkpoint",
    "save_state_dict",
    "load_state_dict",
    "save_training_checkpoint",
    "load_training_checkpoint",
]

_METADATA_KEY = "__metadata_json__"
_PARAMS_KEY = "params"
_OPTIM_PREFIX = "optim."
_OPTIMIZER_META = "__optimizer__"
_RNG_META = "__rng_states__"
_LAYOUT_META = "__layout__"
_FINGERPRINT_META = "__fingerprint__"
_SEQUENCE_META = "__sequence__"
#: What reading a damaged or foreign archive raises: a missing or cut file,
#: a zip directory or CRC that fails, an unparsable ``.npy`` header or JSON.
_UNREADABLE = (OSError, EOFError, ValueError, KeyError, TypeError, zipfile.BadZipFile)


def save_state_dict(state: Dict[str, np.ndarray], path: Union[str, Path],
                    metadata: Optional[Dict[str, Any]] = None) -> Path:
    """Write a parameter mapping (and optional metadata) to an ``.npz`` file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {key: np.asarray(value) for key, value in state.items()}
    if metadata is not None:
        payload[_METADATA_KEY] = _json_member(metadata)
    np.savez(path, **payload)
    # np.savez appends .npz when missing; normalise the returned path.
    return path if path.suffix == ".npz" else path.with_suffix(path.suffix + ".npz")


def load_state_dict(path: Union[str, Path]) -> Tuple[Dict[str, np.ndarray], Dict[str, Any]]:
    """Read a parameter mapping and its metadata from an ``.npz`` file."""
    path = Path(path)
    if not path.exists() and path.with_suffix(path.suffix + ".npz").exists():
        path = path.with_suffix(path.suffix + ".npz")
    with np.load(path, allow_pickle=False) as archive:
        state = {key: archive[key] for key in archive.files if key != _METADATA_KEY}
        metadata: Dict[str, Any] = {}
        if _METADATA_KEY in archive.files:
            metadata = json.loads(archive[_METADATA_KEY].tobytes().decode("utf-8"))
    return state, metadata


def save_checkpoint(model: Module, path: Union[str, Path],
                    metadata: Optional[Dict[str, Any]] = None) -> Path:
    """Persist a module's parameters (see :meth:`Module.state_dict`)."""
    return save_state_dict(model.state_dict(), path, metadata=metadata)


def load_checkpoint(model: Module, path: Union[str, Path], strict: bool = True) -> Dict[str, Any]:
    """Restore a module's parameters in place; returns the stored metadata."""
    state, metadata = load_state_dict(path)
    model.load_state_dict(state, strict=strict)
    return metadata


# --------------------------------------------------------------------------- #
# full training checkpoints (model + optimizer + RNG streams)
# --------------------------------------------------------------------------- #
def _json_member(payload: Dict[str, Any]) -> np.ndarray:
    return np.frombuffer(json.dumps(payload, sort_keys=True).encode("utf-8"), dtype=np.uint8)


def _slot_sequence(slot: Path) -> int:
    """The write sequence number ``slot`` holds; -1 when it holds none."""
    try:
        with np.load(slot, allow_pickle=False) as archive:
            return int(json.loads(archive[_METADATA_KEY].tobytes())[_SEQUENCE_META])
    except _UNREADABLE:
        return -1


class CheckpointSlots:
    """The two slot files of one training checkpoint, and which was written last.

    ``paths`` are the given path (``.npz`` appended when missing) and
    ``<stem>.1.npz`` beside it.  :meth:`save` overwrites the slot that does
    not hold the newest checkpoint.  The first save of an instance (when no
    :meth:`load` came before it) reads the sequence numbers both slots hold
    to find it; later saves alternate without reading anything.  A trainer
    keeps one instance per ``fit``.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        path = Path(path)
        if path.suffix != ".npz":
            path = path.with_name(path.name + ".npz")
        self.paths = (path, path.with_name(path.stem + ".1.npz"))
        # (slot index, sequence number) of the newest checkpoint known.
        self._newest: Optional[Tuple[int, int]] = None

    def save(
        self,
        model: Module,
        optimizer: Optional[Optimizer] = None,
        rng_states: Optional[List[dict]] = None,
        metadata: Optional[Dict[str, Any]] = None,
        fingerprint: Optional[Dict[str, Any]] = None,
    ) -> Path:
        """Persist everything an interrupted training run needs.

        Parameters
        ----------
        model:
            The module whose parameters are snapshotted.
        optimizer:
            Optional optimiser; its :meth:`~repro.nn.optim.Optimizer.state_dict`
            arrays are stored alongside the parameters.
        rng_states:
            Optional list of :meth:`repro.utils.rng.RandomState.get_state`
            snapshots (order matters — the loader restores them positionally).
        metadata:
            Extra JSON-serialisable metadata (e.g. epoch count, loss history).
        fingerprint:
            Optional JSON-serialisable mapping of the parts that identify the
            run (see ``fingerprint`` of :meth:`load`).

        Returns
        -------
        The slot written, overwritten in place: the one whose checkpoint is
        older, holds none or cannot be read.  The other slot keeps the
        previous checkpoint until the next save.
        """
        if self._newest is None:
            self.paths[0].parent.mkdir(parents=True, exist_ok=True)
            sequences = [_slot_sequence(slot) for slot in self.paths]
            # Write into the older slot (the first on a tie) as if the other
            # held the newest checkpoint.
            older = sequences.index(min(sequences))
            self._newest = (1 - older, max(sequences))
        index, sequence = 1 - self._newest[0], self._newest[1] + 1

        named = list(model.named_parameters())
        flat = [param.data.ravel() for _, param in named]
        payload: Dict[str, np.ndarray] = {
            _PARAMS_KEY: np.concatenate(flat) if flat else np.zeros(0)
        }
        meta: Dict[str, Any] = dict(metadata or {})
        meta[_LAYOUT_META] = [[name, list(param.data.shape)] for name, param in named]
        meta[_SEQUENCE_META] = sequence
        if fingerprint is not None:
            meta[_FINGERPRINT_META] = fingerprint
        if optimizer is not None:
            optim_state = optimizer.state_dict()
            payload.update(
                {f"{_OPTIM_PREFIX}{key}": value for key, value in optim_state["arrays"].items()}
            )
            meta[_OPTIMIZER_META] = {"type": optim_state["type"], "extra": optim_state["extra"]}
        if rng_states is not None:
            meta[_RNG_META] = rng_states
        payload[_METADATA_KEY] = _json_member(meta)

        target = self.paths[index]
        with open(target, "r+b" if target.exists() else "wb") as handle:
            np.savez(handle, **payload)
            handle.truncate()
        self._newest = (index, sequence)
        return target

    def load(
        self,
        model: Optional[Module] = None,
        optimizer: Optional[Optimizer] = None,
        strict: bool = True,
        expected_rng_streams: Optional[int] = None,
        fingerprint: Optional[Dict[str, Any]] = None,
    ) -> Tuple[Dict[str, Any], Optional[List[dict]]]:
        """Restore the newest slot whose every member reads with a valid CRC.

        Parameters
        ----------
        model / optimizer:
            Restored in place when given.  The optimiser type must match the
            one that produced the checkpoint.
        strict:
            Passed through to :meth:`Module.load_state_dict`.
        expected_rng_streams:
            When given, the checkpoint must carry exactly this many RNG state
            snapshots.
        fingerprint:
            When given, each of its parts must equal the part of that name
            the checkpoint was saved with; a ``ValueError`` names the first
            that differs.  Values are compared after a JSON round trip
            (tuples read back as lists).

        Everything is validated **before** any state is mutated: fingerprint,
        optimiser type, RNG stream count, parameter names and shapes.  A
        mismatch raises with the model and optimiser untouched, so a failed
        restore never leaves a half-restored mix of checkpoint weights and
        fresh optimiser/RNG state.  Neither slot existing raises
        ``FileNotFoundError``; neither being usable (torn, corrupt, or
        written in the per-tensor layout of an older version) raises
        ``ValueError``.

        Returns
        -------
        ``(metadata, rng_states)`` — the user metadata dict (internal
        bookkeeping keys stripped) and the list of RNG state snapshots, or
        ``None`` when the checkpoint carries none.
        """
        index, state, meta = self._newest_usable()
        slot = self.paths[index]
        optimizer_meta = meta.pop(_OPTIMIZER_META, None)
        rng_states = meta.pop(_RNG_META, None)
        stored_fingerprint = meta.pop(_FINGERPRINT_META, None) or {}
        layout = meta.pop(_LAYOUT_META)
        sequence = int(meta.pop(_SEQUENCE_META, -1))

        # -- validate everything up front (no mutation yet) --------------- #
        if fingerprint is not None:
            expected = json.loads(json.dumps(fingerprint, sort_keys=True))
            for part, value in expected.items():
                if part not in stored_fingerprint:
                    raise ValueError(f"checkpoint {slot} records no {part!r} part to compare")
                if stored_fingerprint[part] != value:
                    raise ValueError(
                        f"checkpoint {slot} belongs to another run: its {part!r} part differs"
                        + _differing_keys(stored_fingerprint[part], value)
                    )
        if optimizer is not None:
            if optimizer_meta is None:
                raise KeyError(f"checkpoint {slot} holds no optimizer state")
            if optimizer_meta["type"] != type(optimizer).__name__:
                raise ValueError(
                    f"checkpoint optimizer is {optimizer_meta['type']!r}, "
                    f"not {type(optimizer).__name__!r}"
                )
        if expected_rng_streams is not None:
            found = 0 if rng_states is None else len(rng_states)
            if found != expected_rng_streams:
                raise ValueError(
                    f"checkpoint holds {found} RNG streams but {expected_rng_streams} "
                    "were expected; was the model constructed differently?"
                )
        model_state = _unflatten(slot, state[_PARAMS_KEY], layout)
        if model is not None:
            own = dict(model.named_parameters())
            if strict:
                missing = set(own) - set(model_state)
                unexpected = set(model_state) - set(own)
                if missing or unexpected:
                    raise KeyError(
                        f"checkpoint {slot} has another 'layout': missing={sorted(missing)}, "
                        f"unexpected={sorted(unexpected)}"
                    )
            for name, param in own.items():
                if name in model_state and model_state[name].shape != param.data.shape:
                    raise ValueError(
                        f"checkpoint {slot} has another 'layout': shape of '{name}' is "
                        f"{model_state[name].shape} there and {param.data.shape} here"
                    )

        # -- restore ------------------------------------------------------- #
        # Optimiser first: its load_state_dict validates every entry before
        # mutating, so a malformed optimizer payload raises with BOTH
        # optimiser and model untouched.  The model restore after it cannot
        # fail — names and shapes were checked above.
        if optimizer is not None:
            arrays = {
                key[len(_OPTIM_PREFIX):]: value
                for key, value in state.items()
                if key.startswith(_OPTIM_PREFIX)
            }
            optimizer.load_state_dict(
                {"type": optimizer_meta["type"], "arrays": arrays, "extra": optimizer_meta["extra"]}
            )
        if model is not None:
            model.load_state_dict(model_state, strict=strict)
        self._newest = (index, sequence)
        return meta, rng_states

    def _newest_usable(self) -> Tuple[int, Dict[str, np.ndarray], Dict[str, Any]]:
        """``(slot index, arrays, metadata)`` of the newest slot that reads whole.

        Every member of a slot is read, so a CRC that fails anywhere rules
        the slot out.
        """
        usable, faults = [], []
        for index, slot in enumerate(self.paths):
            if not slot.exists():
                continue
            try:
                state, meta = load_state_dict(slot)
            except _UNREADABLE as exc:
                faults.append(f"{slot.name}: {type(exc).__name__}: {exc}")
                continue
            if _PARAMS_KEY not in state or _LAYOUT_META not in meta:
                faults.append(f"{slot.name}: per-tensor layout of an older version")
                continue
            usable.append((int(meta.get(_SEQUENCE_META, -1)), index, state, meta))
        if not usable:
            if not faults:
                raise FileNotFoundError(f"no training checkpoint at {self.paths[0]}")
            raise ValueError(
                f"no usable training checkpoint at {self.paths[0]} ({'; '.join(faults)})"
            )
        _, index, state, meta = max(usable, key=lambda entry: entry[0])
        return index, state, meta


def _unflatten(slot: Path, params: np.ndarray, layout: List[list]) -> Dict[str, np.ndarray]:
    """Slice the concatenated parameters back into ``{name: array}`` views."""
    sizes = [int(np.prod(shape)) for _, shape in layout]
    if sum(sizes) != params.size:
        raise ValueError(
            f"checkpoint {slot} is inconsistent: its layout holds {sum(sizes)} "
            f"values but it stores {params.size}"
        )
    state, offset = {}, 0
    for (name, shape), size in zip(layout, sizes):
        state[name] = params[offset : offset + size].reshape(shape)
        offset += size
    return state


def _differing_keys(stored: Any, current: Any) -> str:
    """``" (keys: a, b)"`` naming the keys two dict parts disagree on, else ``""``."""
    if not (isinstance(stored, dict) and isinstance(current, dict)):
        return ""
    keys = sorted(k for k in set(stored) | set(current) if stored.get(k) != current.get(k))
    return f" (keys: {', '.join(keys)})"


def save_training_checkpoint(
    path: Union[str, Path],
    model: Module,
    optimizer: Optional[Optimizer] = None,
    rng_states: Optional[List[dict]] = None,
    metadata: Optional[Dict[str, Any]] = None,
) -> Path:
    """:meth:`CheckpointSlots.save` into the slots of ``path``; returns the slot written."""
    return CheckpointSlots(path).save(model, optimizer, rng_states, metadata)


def load_training_checkpoint(
    path: Union[str, Path],
    model: Optional[Module] = None,
    optimizer: Optional[Optimizer] = None,
    strict: bool = True,
    expected_rng_streams: Optional[int] = None,
) -> Tuple[Dict[str, Any], Optional[List[dict]]]:
    """:meth:`CheckpointSlots.load` from the slots of ``path``."""
    return CheckpointSlots(path).load(model, optimizer, strict, expected_rng_streams)
