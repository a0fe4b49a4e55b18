"""Full-model checkpoint round-trip: interrupted training must be bit-identical.

The contract pinned here backs the experiment orchestrator's resumable
``train/<detector>`` stages: killing a training run at any epoch boundary and
re-running it from the checkpoint must reproduce the uninterrupted run's loss
trajectory and final parameters *bitwise* — same Adam moments, same RNG
streams (batch shuffling and VAE reparameterisation noise), same arithmetic.
"""

from __future__ import annotations

import dataclasses
import logging
import shutil
import zipfile

import numpy as np
import pytest

from repro.core import CausalTAD, CausalTADConfig, Trainer, TrainingConfig
from repro.nn import (
    Adam,
    Linear,
    SGD,
    Sequential,
    load_state_dict,
    load_training_checkpoint,
    save_state_dict,
    save_training_checkpoint,
)
from repro.nn.module import Parameter
from repro.nn.serialization import CheckpointSlots
from repro.trajectory import BenchmarkConfig, build_benchmark_data
from repro.roadnet import XIAN_LIKE
from repro.utils import RandomState


@pytest.fixture(scope="module")
def tiny_data():
    return build_benchmark_data(
        city_config=XIAN_LIKE, config=BenchmarkConfig.tiny(), rng=RandomState(0)
    )


def _make_trainer(data, seed: int = 1, epochs: int = 6, learning_rate: float = 0.02):
    rng = RandomState(seed)
    config = CausalTADConfig.tiny(data.num_segments)
    model = CausalTAD(config, network=data.city.network, rng=rng)
    training = TrainingConfig(epochs=epochs, batch_size=16, learning_rate=learning_rate, seed=seed)
    return model, Trainer(model, training, rng=rng)


@pytest.fixture(scope="module")
def uninterrupted(tiny_data):
    """Loss history and parameters of a 6-epoch run without checkpoints."""
    model, trainer = _make_trainer(tiny_data)
    history = trainer.fit(tiny_data.train)
    return history.train_losses, {name: p.data.copy() for name, p in model.named_parameters()}


def _assert_bitwise_uninterrupted(uninterrupted, history, model):
    losses, params = uninterrupted
    assert history.train_losses == losses
    for name, p in model.named_parameters():
        assert np.array_equal(p.data.view(np.uint64), params[name].view(np.uint64)), name


@pytest.fixture(scope="module")
def four_epoch_slots(tiny_data, tmp_path_factory):
    """The two slot files a 4-epoch run of :func:`_make_trainer` leaves behind."""
    checkpoint = tmp_path_factory.mktemp("four-epochs") / "ckpt.npz"
    _, trainer = _make_trainer(tiny_data)
    trainer.fit(tiny_data.train, epochs=4, checkpoint_path=checkpoint)
    return CheckpointSlots(checkpoint).paths


def _copy_slots(slots, directory):
    for slot in slots:
        shutil.copy(slot, directory / slot.name)
    return directory / slots[0].name


class TestOptimizerStateRoundTrip:
    def test_adam_state_dict_restores_moments_and_step(self):
        params = [Parameter(np.ones(3)), Parameter(np.zeros((2, 2)))]
        optimizer = Adam(params, lr=0.05)
        for _ in range(3):
            for p in params:
                p.grad = np.full(p.data.shape, 0.5)
            optimizer.step()
        state = optimizer.state_dict()

        twin_params = [Parameter(p.data.copy()) for p in params]
        twin = Adam(twin_params, lr=0.05)
        twin.load_state_dict(state)
        for p, q in zip(params, twin_params):
            p.grad = np.full(p.data.shape, 0.25)
            q.grad = np.full(q.data.shape, 0.25)
        optimizer.step()
        twin.step()
        for p, q in zip(params, twin_params):
            np.testing.assert_array_equal(p.data, q.data)

    def test_adam_rejects_wrong_type(self):
        param = Parameter(np.ones(2))
        sgd_state = SGD([param], lr=0.1).state_dict()
        with pytest.raises(ValueError):
            Adam([param], lr=0.1).load_state_dict(sgd_state)

    def test_malformed_state_leaves_optimizer_untouched(self):
        """Validation must complete before any mutation (restore atomicity)."""
        param = Parameter(np.zeros(3))
        optimizer = Adam([param], lr=0.1)
        param.grad = np.ones(3)
        optimizer.step()
        good = optimizer.state_dict()

        missing_t = {"type": "Adam", "arrays": dict(good["arrays"]), "extra": {}}
        with pytest.raises(KeyError):
            optimizer.load_state_dict(missing_t)
        bad_field = {"type": "Adam", "arrays": {"0.zz": np.zeros(3)}, "extra": {"t": 1}}
        with pytest.raises(ValueError):
            optimizer.load_state_dict(bad_field)
        bad_shape = {"type": "Adam", "arrays": {"0.m": np.zeros(7)}, "extra": {"t": 1}}
        with pytest.raises(ValueError):
            optimizer.load_state_dict(bad_shape)
        short_m = {"m": np.zeros(7), "v": np.zeros(3)}
        with pytest.raises(ValueError):
            optimizer.load_state_dict({"type": "Adam", "arrays": short_m, "extra": {"t": 5}})
        missing_v = {"type": "Adam", "arrays": {"m": np.zeros(3)}, "extra": {"t": 5}}
        with pytest.raises(KeyError):
            optimizer.load_state_dict(missing_v)

        after = optimizer.state_dict()
        assert after["extra"] == good["extra"]
        for field in ("m", "v"):
            np.testing.assert_array_equal(after["arrays"][field], good["arrays"][field])

    def test_sgd_velocity_round_trip(self):
        param = Parameter(np.zeros(4))
        optimizer = SGD([param], lr=0.1, momentum=0.9)
        param.grad = np.ones(4)
        optimizer.step()
        state = optimizer.state_dict()

        twin_param = Parameter(param.data.copy())
        twin = SGD([twin_param], lr=0.1, momentum=0.9)
        twin.load_state_dict(state)
        param.grad = np.ones(4)
        twin_param.grad = np.ones(4)
        optimizer.step()
        twin.step()
        np.testing.assert_array_equal(param.data, twin_param.data)


class TestTrainingCheckpointArchive:
    def test_round_trip_with_rng_states(self, tmp_path):
        rng = RandomState(3)
        model = Linear(4, 3, rng=RandomState(0))
        optimizer = Adam(model.parameters(), lr=0.1)
        model.weight.grad = np.ones_like(model.weight.data)
        model.bias.grad = np.ones_like(model.bias.data)
        optimizer.step()
        rng.normal(size=5)  # advance the stream past its seed state

        path = save_training_checkpoint(
            tmp_path / "ckpt.npz",
            model,
            optimizer=optimizer,
            rng_states=[rng.get_state()],
            metadata={"epoch": 1},
        )

        model2 = Linear(4, 3, rng=RandomState(99))
        optimizer2 = Adam(model2.parameters(), lr=0.1)
        rng2 = RandomState(3)
        metadata, rng_states = load_training_checkpoint(path, model2, optimizer2)
        assert metadata["epoch"] == 1
        assert rng_states is not None and len(rng_states) == 1
        rng2.set_state(rng_states[0])

        np.testing.assert_array_equal(model.weight.data, model2.weight.data)
        np.testing.assert_array_equal(rng.normal(size=8), rng2.normal(size=8))

    def test_atomic_write_leaves_no_temp_file(self, tmp_path):
        model = Linear(2, 2, rng=RandomState(0))
        path = save_training_checkpoint(tmp_path / "ckpt.npz", model)
        assert path.exists()
        assert not list(tmp_path.glob("*.tmp"))

    def test_missing_optimizer_state_raises(self, tmp_path):
        model = Linear(2, 2, rng=RandomState(0))
        path = save_training_checkpoint(tmp_path / "ckpt.npz", model)
        with pytest.raises(KeyError):
            load_training_checkpoint(path, model, Adam(model.parameters(), lr=0.1))

    @pytest.mark.parametrize(
        "other, error",
        [("wider", ValueError), ("renamed", KeyError)],
    )
    def test_other_layout_leaves_model_and_optimizer_untouched(self, other, error, tmp_path):
        """An archive of another parameter layout is refused before anything is restored."""
        source = Linear(4, 3, rng=RandomState(0))
        path = save_training_checkpoint(
            tmp_path / "ckpt.npz", source, optimizer=Adam(source.parameters(), lr=0.1)
        )
        if other == "wider":
            model = Linear(4, 5, rng=RandomState(1))
        else:
            model = Sequential(Linear(4, 3, rng=RandomState(1)))
        optimizer = Adam(model.parameters(), lr=0.1)
        for param in model.parameters():
            param.grad = np.ones_like(param.data)
        optimizer.step()
        params = {name: p.data.copy() for name, p in model.named_parameters()}
        moments = optimizer.state_dict()

        with pytest.raises(error, match="another 'layout'"):
            load_training_checkpoint(path, model, optimizer)
        for name, p in model.named_parameters():
            assert np.array_equal(params[name], p.data), f"{name} was mutated"
        after = optimizer.state_dict()
        assert after["extra"] == moments["extra"]
        for field in ("m", "v"):
            np.testing.assert_array_equal(after["arrays"][field], moments["arrays"][field])

    def test_layout_that_does_not_cover_the_parameters_raises(self, tmp_path):
        model = Linear(2, 3, rng=RandomState(0))
        path = save_state_dict(
            {"params": np.zeros(5)},
            tmp_path / "ckpt.npz",
            metadata={"__layout__": [["weight", [3, 2]]], "__sequence__": 0},
        )
        before = model.weight.data.copy()
        with pytest.raises(ValueError, match="layout holds 6 values but it stores 5"):
            load_training_checkpoint(path, model)
        assert np.array_equal(before, model.weight.data)


class TestBitIdenticalResume:
    def test_causal_tad_resume_matches_uninterrupted(self, tiny_data, tmp_path):
        """Save CausalTAD + Adam mid-training; the resumed loss trajectory and
        final parameters must match an uninterrupted run bitwise."""
        _, reference_trainer = _make_trainer(tiny_data)
        reference = reference_trainer.fit(tiny_data.train)

        checkpoint = tmp_path / "ckpt.npz"
        _, first_half = _make_trainer(tiny_data)
        first_half.fit(tiny_data.train, epochs=3, checkpoint_path=checkpoint)

        resumed_model, resumed_trainer = _make_trainer(tiny_data)
        resumed = resumed_trainer.fit(tiny_data.train, checkpoint_path=checkpoint)

        assert resumed.train_losses == reference.train_losses
        for (name, p), (_, q) in zip(
            reference_trainer.model.named_parameters(), resumed_model.named_parameters()
        ):
            assert np.array_equal(p.data, q.data), f"parameter {name} diverged"

    def test_resume_skips_completed_epochs(self, tiny_data, tmp_path):
        checkpoint = tmp_path / "ckpt.npz"
        _, trainer = _make_trainer(tiny_data)
        trainer.fit(tiny_data.train, epochs=4, checkpoint_path=checkpoint)

        model2, trainer2 = _make_trainer(tiny_data)
        history = trainer2.fit(tiny_data.train, epochs=4, checkpoint_path=checkpoint)
        # Nothing left to train: history restored verbatim, no new epochs run.
        assert history.num_epochs == 4

    def test_unreadable_checkpoint_is_ignored(self, tiny_data, tmp_path):
        checkpoint = tmp_path / "ckpt.npz"
        checkpoint.write_bytes(b"not a checkpoint")
        _, trainer = _make_trainer(tiny_data)
        history = trainer.fit(tiny_data.train, epochs=2, checkpoint_path=checkpoint)
        assert history.num_epochs == 2

    def test_shape_mismatched_checkpoint_leaves_model_untouched(self, tiny_data, tmp_path):
        """A checkpoint from a differently-sized model must be rejected
        before any parameter is overwritten, then ignored by fit()."""
        checkpoint = tmp_path / "ckpt.npz"
        _, trainer = _make_trainer(tiny_data)
        trainer.fit(tiny_data.train, epochs=1, checkpoint_path=checkpoint)

        rng = RandomState(1)
        wide = CausalTAD(
            CausalTADConfig(
                num_segments=tiny_data.num_segments,
                embedding_dim=24, hidden_dim=24, latent_dim=12,
            ),
            network=tiny_data.city.network,
            rng=rng,
        )
        wide_trainer = Trainer(
            wide, TrainingConfig(epochs=1, batch_size=16, learning_rate=0.02, seed=1), rng=rng
        )
        before = {name: p.data.copy() for name, p in wide.named_parameters()}
        with pytest.raises((ValueError, KeyError)):
            wide_trainer.load_checkpoint(checkpoint)
        for name, p in wide.named_parameters():
            assert np.array_equal(before[name], p.data), f"{name} was mutated"
        # fit() treats the unusable checkpoint as absent and trains fresh.
        history = wide_trainer.fit(tiny_data.train, epochs=1, checkpoint_path=checkpoint)
        assert history.num_epochs == 1

    def test_checkpoint_disabled_by_resume_false(self, tiny_data, tmp_path):
        checkpoint = tmp_path / "ckpt.npz"
        _, trainer = _make_trainer(tiny_data)
        trainer.fit(tiny_data.train, epochs=2, checkpoint_path=checkpoint)

        _, trainer2 = _make_trainer(tiny_data)
        history = trainer2.fit(
            tiny_data.train, epochs=2, checkpoint_path=checkpoint, resume=False
        )
        # resume=False retrains from scratch (2 fresh epochs, not 0).
        assert history.num_epochs == 2


class TestTornWrites:
    """Two slots overwritten in place: a damaged newest slot falls back to the other."""

    @pytest.mark.parametrize("damage", ["cut-first", "cut-middle", "cut-last", "flip-payload"])
    def test_damaged_newest_slot_resumes_from_the_previous_epoch(
        self, damage, tiny_data, four_epoch_slots, uninterrupted, tmp_path, caplog
    ):
        checkpoint = _copy_slots(four_epoch_slots, tmp_path)
        slots = CheckpointSlots(checkpoint).paths
        epochs = {slot: load_state_dict(slot)[1]["epoch"] for slot in slots}
        assert sorted(epochs.values()) == [3, 4]
        newest = max(slots, key=epochs.get)
        raw = bytearray(newest.read_bytes())
        if damage == "flip-payload":
            # A byte inside the first member's array data, past its headers.
            raw[len(raw) // 4] ^= 0xFF
            newest.write_bytes(bytes(raw))
        else:
            cut = {"cut-first": 0, "cut-middle": len(raw) // 2, "cut-last": len(raw) - 1}[damage]
            newest.write_bytes(bytes(raw[:cut]))

        model, trainer = _make_trainer(tiny_data)
        with caplog.at_level(logging.INFO, logger="repro.core.trainer"):
            history = trainer.fit(tiny_data.train, checkpoint_path=checkpoint)
        assert any("at epoch 3" in record.getMessage() for record in caplog.records)
        _assert_bitwise_uninterrupted(uninterrupted, history, model)

    def test_load_takes_the_newer_slot(self, tiny_data, four_epoch_slots, tmp_path):
        checkpoint = _copy_slots(four_epoch_slots, tmp_path)
        _, trainer = _make_trainer(tiny_data)
        assert trainer.load_checkpoint(checkpoint) == 4
        assert trainer.history.num_epochs == 4

    def test_both_slots_damaged_trains_from_scratch(
        self, tiny_data, four_epoch_slots, uninterrupted, tmp_path, caplog
    ):
        checkpoint = _copy_slots(four_epoch_slots, tmp_path)
        for slot in CheckpointSlots(checkpoint).paths:
            raw = slot.read_bytes()
            slot.write_bytes(raw[: len(raw) // 2])

        model, trainer = _make_trainer(tiny_data)
        with caplog.at_level(logging.WARNING, logger="repro.core.trainer"):
            history = trainer.fit(tiny_data.train, checkpoint_path=checkpoint)
        assert any("ignoring unusable checkpoint" in r.getMessage() for r in caplog.records)
        _assert_bitwise_uninterrupted(uninterrupted, history, model)

    def test_per_tensor_layout_is_ignored_with_a_warning(
        self, tiny_data, uninterrupted, tmp_path, caplog
    ):
        """An archive of one member per tensor, as older versions wrote, is not resumed."""
        model, trainer = _make_trainer(tiny_data)
        state = {f"model.{name}": p.data for name, p in model.named_parameters()}
        state.update({f"optim.{i}.m": np.zeros(p.shape) for i, p in enumerate(model.parameters())})
        checkpoint = save_state_dict(
            state,
            tmp_path / "ckpt.npz",
            metadata={"epoch": 2, "history": {"train_losses": [1.0, 0.5]},
                      "__optimizer__": {"type": "Adam", "extra": {"t": 4}}},
        )
        with caplog.at_level(logging.WARNING, logger="repro.core.trainer"):
            history = trainer.fit(tiny_data.train, checkpoint_path=checkpoint)
        assert any("per-tensor layout" in r.getMessage() for r in caplog.records)
        _assert_bitwise_uninterrupted(uninterrupted, history, model)

    def test_slots_are_few_members_overwritten_in_place(self, tiny_data, tmp_path, monkeypatch):
        """A 5-epoch fit writes archives of at most 5 members, and creates no
        file after its second epoch: from epoch 3 on each slot keeps its inode."""
        writes = []
        save = CheckpointSlots.save

        def recording_save(self, *args, **kwargs):
            written = save(self, *args, **kwargs)
            with zipfile.ZipFile(written) as archive:
                members = len(archive.namelist())
            writes.append((written, written.stat().st_ino, members))
            return written

        monkeypatch.setattr(CheckpointSlots, "save", recording_save)
        _, trainer = _make_trainer(tiny_data, epochs=5)
        trainer.fit(tiny_data.train, checkpoint_path=tmp_path / "ckpt.npz")

        assert len(writes) == 5
        assert all(members <= 5 for _, _, members in writes)
        first, second = writes[0], writes[1]
        assert first[0] != second[0]
        for index, (written, inode, _) in enumerate(writes[2:], start=2):
            assert (written, inode) == (writes[index % 2][0], writes[index % 2][1])
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt.1.npz", "ckpt.npz"]


class TestCheckpointBelongsToOneRun:
    """The run fingerprint: another run's checkpoint is logged and trained over."""

    def test_other_split_of_the_same_city_trains_fresh(self, tiny_data, tmp_path, caplog):
        other = build_benchmark_data(
            city=tiny_data.city, config=BenchmarkConfig.tiny(), rng=RandomState(5)
        )
        assert other.num_segments == tiny_data.num_segments
        checkpoint = tmp_path / "ckpt.npz"
        _, first = _make_trainer(tiny_data)
        first.fit(tiny_data.train, epochs=2, checkpoint_path=checkpoint)

        model, trainer = _make_trainer(tiny_data)
        with caplog.at_level(logging.WARNING, logger="repro.core.trainer"):
            history = trainer.fit(other.train, checkpoint_path=checkpoint)
        assert any("'data' part differs" in r.getMessage() for r in caplog.records)

        fresh_model, fresh = _make_trainer(tiny_data)
        expected = fresh.fit(other.train)
        _assert_bitwise_uninterrupted(
            (expected.train_losses, {n: p.data for n, p in fresh_model.named_parameters()}),
            history,
            model,
        )

    def test_longer_schedule_resumes(self, tiny_data, uninterrupted, tmp_path, caplog):
        """``epochs`` and ``log_every`` are not part of the fingerprint."""
        checkpoint = tmp_path / "ckpt.npz"
        _, first = _make_trainer(tiny_data, epochs=3)
        first.fit(tiny_data.train, checkpoint_path=checkpoint)

        model, trainer = _make_trainer(tiny_data)
        trainer.config = dataclasses.replace(trainer.config, log_every=2)
        with caplog.at_level(logging.INFO, logger="repro.core.trainer"):
            history = trainer.fit(tiny_data.train, checkpoint_path=checkpoint)
        assert any("at epoch 3" in record.getMessage() for record in caplog.records)
        _assert_bitwise_uninterrupted(uninterrupted, history, model)

    def test_changed_learning_rate_trains_fresh(self, tiny_data, tmp_path, caplog):
        checkpoint = tmp_path / "ckpt.npz"
        _, first = _make_trainer(tiny_data)
        first.fit(tiny_data.train, epochs=2, checkpoint_path=checkpoint)

        model, trainer = _make_trainer(tiny_data, learning_rate=0.01)
        with pytest.raises(ValueError, match="'training' part differs.*learning_rate"):
            trainer.load_checkpoint(checkpoint)
        with caplog.at_level(logging.WARNING, logger="repro.core.trainer"):
            history = trainer.fit(tiny_data.train, checkpoint_path=checkpoint)
        assert any("'training' part differs" in r.getMessage() for r in caplog.records)

        fresh_model, fresh = _make_trainer(tiny_data, learning_rate=0.01)
        expected = fresh.fit(tiny_data.train)
        _assert_bitwise_uninterrupted(
            (expected.train_losses, {n: p.data for n, p in fresh_model.named_parameters()}),
            history,
            model,
        )
