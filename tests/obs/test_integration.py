"""Integration: the instrumented layers publish the documented metric names.

Pins the metric catalog of ``docs/OBSERVABILITY.md`` against reality — if an
instrumentation site is renamed or dropped, this is the test that notices.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.core import CausalTAD, CausalTADConfig, TrainingConfig
from repro.core.inference import InferenceEngine
from repro.core.trainer import Trainer
from repro.experiments.cache import ArtifactCache
from repro.experiments.dag import ExperimentDAG
from repro.experiments.stage import Stage
from repro.trajectory.dataset import TrajectoryDataset
from repro.trajectory.types import MapMatchedTrajectory
from repro.utils import RandomState


@pytest.fixture(autouse=True)
def _fresh_obs():
    """Enable the global registry/tracer for the test, restore after."""
    obs.reset(enabled=True)
    yield
    obs.reset(enabled=False)


def _tiny_dataset(num_segments=12, count=10, seed=3):
    rng = np.random.default_rng(seed)
    items = []
    for i in range(count):
        length = int(rng.integers(4, 9))
        segments = [int(s) for s in rng.integers(0, num_segments, size=length)]
        items.append(MapMatchedTrajectory(trajectory_id=f"t{i}", segments=segments))
    return TrajectoryDataset.from_trajectories(items, num_segments=num_segments, name="tiny")


TRAIN_METRICS = [
    "train/steps",
    "train/epochs",
    "train/trajectories",
    "train/step_seconds",
    "train/loss",
    "train/grad_norm",
    "train/batch_fill",
    "train/epoch_seconds",
    "train/epoch_loss",
]

INFERENCE_METRICS = [
    "inference/batches",
    "inference/trajectories",
    "inference/batch_seconds",
    "inference/batch_rows",
    "inference/batch_fill",
    "inference/workspace_takes",
    "inference/workspace_allocs",
]

DAG_METRICS = [
    "dag/cache_hits",
    "dag/executed",
    "dag/failed",
    "dag/stage_seconds",
    "dag/workers_busy",
    "dag/workers",
]


class TestTrainerMetrics:
    def test_fit_publishes_train_metrics_and_spans(self):
        dataset = _tiny_dataset()
        config = CausalTADConfig.small(dataset.num_segments)
        model = CausalTAD(config, rng=RandomState(0))
        trainer = Trainer(model, TrainingConfig(epochs=2, batch_size=4, seed=0))
        trainer.fit(dataset)

        registry = obs.metrics()
        for name in TRAIN_METRICS:
            assert name in registry, f"missing metric {name}"
        steps = registry.get("train/steps").value
        assert steps > 0
        assert registry.get("train/epochs").value == 2
        assert len(registry.get("train/loss")) == steps
        assert registry.get("train/trajectories").value == 2 * len(dataset)
        fill = registry.get("train/batch_fill")
        assert 0.0 < fill.min <= fill.max <= 1.0

        tracer = obs.tracer()
        assert len(tracer.find("train/fit")) == 1
        assert len(tracer.find("train/epoch")) == 2
        epoch_spans = tracer.find("train/epoch")
        assert all(s.parent is tracer.find("train/fit")[0] for s in epoch_spans)
        assert tracer.find("train/checkpoint") == []

    def test_checkpoint_writes_are_spans_under_fit(self, tmp_path):
        dataset = _tiny_dataset()
        config = CausalTADConfig.small(dataset.num_segments)
        model = CausalTAD(config, rng=RandomState(0))
        trainer = Trainer(model, TrainingConfig(epochs=3, batch_size=4, seed=0))
        trainer.fit(dataset, checkpoint_path=tmp_path / "ckpt.npz")

        tracer = obs.tracer()
        fit = tracer.find("train/fit")[0]
        writes = tracer.find("train/checkpoint")
        assert [span.attrs["epoch"] for span in writes] == [1, 2, 3]
        assert all(span.parent is fit for span in writes)
        sizes = {p.name: p.stat().st_size for p in tmp_path.iterdir()}
        # Epochs 1 and 3 overwrite the first slot, epoch 2 the second.
        assert writes[1].attrs["bytes"] == sizes["ckpt.1.npz"]
        assert writes[2].attrs["bytes"] == sizes["ckpt.npz"]
        registry = obs.metrics()
        assert registry.get("train/checkpoints").value == 3
        assert registry.get("train/checkpoint_bytes").value == sum(
            span.attrs["bytes"] for span in writes
        )

    def test_disabled_registry_records_nothing(self):
        obs.reset(enabled=False)
        dataset = _tiny_dataset()
        config = CausalTADConfig.small(dataset.num_segments)
        model = CausalTAD(config, rng=RandomState(0))
        Trainer(model, TrainingConfig(epochs=1, batch_size=4, seed=0)).fit(dataset)
        assert len(obs.metrics()) == 0
        assert obs.tracer().spans == []

    def test_metrics_do_not_change_training(self):
        dataset = _tiny_dataset()
        config = CausalTADConfig.small(dataset.num_segments)

        obs.reset(enabled=False)
        model_off = CausalTAD(config, rng=RandomState(0))
        history_off = Trainer(model_off, TrainingConfig(epochs=2, batch_size=4, seed=0)).fit(dataset)

        obs.reset(enabled=True)
        model_on = CausalTAD(config, rng=RandomState(0))
        history_on = Trainer(model_on, TrainingConfig(epochs=2, batch_size=4, seed=0)).fit(dataset)

        assert history_on.train_losses == history_off.train_losses
        for (name, a), (_, b) in zip(
            sorted(model_on.named_parameters()), sorted(model_off.named_parameters())
        ):
            np.testing.assert_array_equal(a.data, b.data, err_msg=name)


class TestInferenceMetrics:
    def test_decompose_dataset_publishes_inference_metrics(self):
        dataset = _tiny_dataset()
        config = CausalTADConfig.small(dataset.num_segments)
        model = CausalTAD(config, rng=RandomState(0))
        engine = InferenceEngine(model)
        engine.decompose_dataset(dataset)

        registry = obs.metrics()
        for name in INFERENCE_METRICS:
            assert name in registry, f"missing metric {name}"
        assert registry.get("inference/trajectories").value == len(dataset)
        assert registry.get("inference/batches").value == len(registry.get("inference/batch_seconds"))
        takes = registry.get("inference/workspace_takes").value
        allocs = registry.get("inference/workspace_allocs").value
        assert 0 < allocs <= takes
        fill = registry.get("inference/batch_fill")
        assert 0.0 < fill.min <= fill.max <= 1.0
        assert len(obs.tracer().find("inference/decompose_dataset")) == 1


class TestDagMetrics:
    def test_dag_run_publishes_metrics_logs_and_spans(self, tmp_path, caplog):
        dag = ExperimentDAG()
        dag.add(Stage("alpha", lambda ctx: 1))
        dag.add(Stage("beta", lambda ctx: ctx.input("alpha") + 1, deps=("alpha",)))
        cache = ArtifactCache(tmp_path / "artifacts")

        with caplog.at_level("INFO", logger="repro.experiments.dag"):
            dag.run(cache, jobs=2, log=lambda _line: None)
        registry = obs.metrics()
        for name in DAG_METRICS:
            assert name in registry, f"missing metric {name}"
        assert registry.get("dag/executed").value == 2
        assert registry.get("dag/cache_hits").value == 0
        assert registry.get("dag/failed").value == 0
        assert registry.get("dag/workers").value == 2
        assert {s.name for s in obs.tracer().spans} >= {"stage/alpha", "stage/beta"}
        messages = [record.message for record in caplog.records]
        assert any("starting" in m for m in messages)
        assert any("finished" in m for m in messages)

        # Warm re-run: everything is a cache hit.
        with caplog.at_level("INFO", logger="repro.experiments.dag"):
            dag.run(cache, jobs=2, log=lambda _line: None)
        assert registry.get("dag/cache_hits").value == 2
        assert registry.get("dag/executed").value == 2  # unchanged
        assert any("cache hit" in record.message for record in caplog.records)

    def test_failed_stage_counted(self, tmp_path):
        def boom(_ctx):
            raise RuntimeError("nope")

        dag = ExperimentDAG()
        dag.add(Stage("bad", boom))
        cache = ArtifactCache(tmp_path / "artifacts")
        with pytest.raises(RuntimeError):
            dag.run(cache, log=lambda _line: None)
        assert obs.metrics().get("dag/failed").value == 1
        (span,) = obs.tracer().find("stage/bad")
        assert span.error is not None and "nope" in span.error
