"""Tests for the Trainer loop and the O(1) online detector."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    CausalTAD,
    CausalTADConfig,
    OnlineDetector,
    Trainer,
    TrainingConfig,
    TrainingHistory,
)
from repro.utils import RandomState


class TestTrainer:
    def test_loss_decreases(self, benchmark_data, tiny_model_config):
        model = CausalTAD(tiny_model_config, network=benchmark_data.city.network, rng=RandomState(0))
        trainer = Trainer(model, TrainingConfig(epochs=6, batch_size=16, learning_rate=0.02), rng=RandomState(1))
        history = trainer.fit(benchmark_data.train)
        assert history.num_epochs == 6
        assert history.train_losses[-1] < history.train_losses[0]
        assert all(np.isfinite(loss) for loss in history.train_losses)
        assert history.total_seconds > 0

    def test_validation_split(self, benchmark_data, tiny_model_config):
        model = CausalTAD(tiny_model_config, network=benchmark_data.city.network, rng=RandomState(0))
        trainer = Trainer(
            model,
            TrainingConfig(epochs=2, batch_size=16, learning_rate=0.02, validation_fraction=0.25),
            rng=RandomState(1),
        )
        history = trainer.fit(benchmark_data.train)
        assert len(history.validation_losses) == 2
        assert history.best_epoch in (0, 1)

    def test_explicit_validation_set(self, benchmark_data, tiny_model_config):
        model = CausalTAD(tiny_model_config, network=benchmark_data.city.network, rng=RandomState(0))
        trainer = Trainer(model, TrainingConfig(epochs=1, batch_size=16), rng=RandomState(1))
        history = trainer.fit(benchmark_data.train, validation=benchmark_data.id_test)
        assert len(history.validation_losses) == 1

    def test_history_as_dict(self):
        history = TrainingHistory(train_losses=[1.0, 0.5], epoch_seconds=[0.1, 0.1])
        payload = history.as_dict()
        assert payload["train_losses"] == [1.0, 0.5]

    def test_rejects_model_without_loss(self, benchmark_data):
        class Broken:
            def parameters(self):
                from repro.nn import Parameter

                return [Parameter(np.zeros(1))]

            def train(self):
                return self

            def eval(self):
                return self

            def __call__(self, batch):
                return "not a loss"

        trainer = Trainer(Broken(), TrainingConfig(epochs=1, batch_size=8))
        with pytest.raises(TypeError):
            trainer.fit(benchmark_data.train)


@pytest.fixture(scope="module")
def grid_walks():
    """A 4×4 grid city and a dataset of 24 random road walks on it."""
    from repro.roadnet import generate_grid_city
    from repro.trajectory.dataset import TrajectoryDataset
    from repro.trajectory.types import MapMatchedTrajectory

    network = generate_grid_city(4, 4)
    transition = network.transition_mask()
    rng = np.random.default_rng(3)
    walks = []
    for ride in range(24):
        segments = [int(rng.integers(network.num_segments))]
        while len(segments) < 8:
            segments.append(int(rng.choice(np.flatnonzero(transition[segments[-1]]))))
        walks.append(MapMatchedTrajectory(trajectory_id=f"w{ride}", segments=segments))
    return network, TrajectoryDataset.from_trajectories(walks, network.num_segments)


# The diverging run overflows on purpose; numpy's warnings about it are noise.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestNonFiniteLoss:
    """A diverging run stops with a named error instead of NaN parameters."""

    DIVERGING = TrainingConfig(epochs=3, batch_size=8, learning_rate=1e9, grad_clip=0.0)

    def _trainer(self, network):
        model = CausalTAD(
            CausalTADConfig.tiny(network.num_segments), network=network, rng=RandomState(0)
        )
        return model, Trainer(model, self.DIVERGING, rng=RandomState(1))

    @pytest.mark.parametrize("metrics", [False, True], ids=["plain", "instrumented"])
    def test_fit_raises_before_the_optimiser_step(self, grid_walks, metrics):
        from repro import obs

        network, dataset = grid_walks
        model, trainer = self._trainer(network)
        obs.reset(enabled=metrics)
        try:
            with pytest.raises(FloatingPointError, match=r"epoch \d+, step \d+"):
                trainer.fit(dataset)
        finally:
            obs.reset(enabled=False)
        # The failing step never reached the optimiser: every parameter is
        # still finite, and so is every loss the history recorded.
        assert all(np.isfinite(p.data).all() for p in model.parameters())
        assert np.isfinite(trainer.history.train_losses).all()


class TestOnlineDetector:
    def test_online_matches_offline_score(self, trained_causal_tad, benchmark_data):
        detector = OnlineDetector(trained_causal_tad)
        for item in benchmark_data.id_test.items[:5]:
            offline = trained_causal_tad.score_trajectory(item.trajectory)
            online = detector.final_score(item.trajectory)
            assert online == pytest.approx(offline, rel=1e-6, abs=1e-6)

    def test_prefix_scores_length(self, trained_causal_tad, benchmark_data):
        detector = OnlineDetector(trained_causal_tad)
        trajectory = benchmark_data.id_test.trajectories[0]
        prefix_scores = detector.score_prefixes(trajectory)
        assert len(prefix_scores) == len(trajectory)

    def test_session_updates_accumulate(self, trained_causal_tad, benchmark_data):
        detector = OnlineDetector(trained_causal_tad)
        trajectory = benchmark_data.id_test.trajectories[1]
        session = detector.start_session(trajectory.sd_pair, trajectory.segments[0])
        assert session.observed_length == 1
        for segment in trajectory.segments[1:]:
            update = session.update(segment)
            assert np.isfinite(update.cumulative_score)
            assert update.step_likelihood_score >= 0
        assert session.observed_length == len(trajectory)
        assert len(session.updates) == len(trajectory) - 1

    def test_session_rejects_invalid_segment(self, trained_causal_tad, benchmark_data):
        detector = OnlineDetector(trained_causal_tad)
        trajectory = benchmark_data.id_test.trajectories[0]
        session = detector.start_session(trajectory.sd_pair)
        with pytest.raises(ValueError):
            session.update(10**6)
        with pytest.raises(ValueError):
            session.update(-1)

    def test_session_rejects_invalid_first_segment(self, trained_causal_tad, benchmark_data):
        """Negative ids must not silently wrap in the embedding lookup."""
        detector = OnlineDetector(trained_causal_tad)
        trajectory = benchmark_data.id_test.trajectories[0]
        with pytest.raises(ValueError):
            detector.start_session(trajectory.sd_pair, first_segment=-3)

    def test_session_rejects_non_integer_segment_before_updating(
        self, trained_causal_tad, benchmark_data
    ):
        """A float id must raise before the hidden state advances, not after."""
        detector = OnlineDetector(trained_causal_tad)
        trajectory = benchmark_data.id_test.trajectories[0]
        session = detector.start_session(trajectory.sd_pair, trajectory.segments[0])
        session.update(trajectory.segments[1])
        before = session.current_score
        for bad in (2.5, float(trajectory.segments[2])):
            with pytest.raises(TypeError):
                session.update(bad)
        assert session.current_score == before
        assert session.segments == list(trajectory.segments[:2])
        assert len(session.updates) == 1
        # Later updates score exactly as if the bad calls never happened.
        for segment in trajectory.segments[2:]:
            session.update(np.int64(segment))
        assert session.segments == list(trajectory.segments)
        assert session.current_score == detector.final_score(trajectory)
        with pytest.raises(TypeError):
            detector.start_session(trajectory.sd_pair, first_segment=1.0)

    def test_online_update_time_independent_of_length(self, trained_causal_tad, benchmark_data):
        """The cost of update() must not grow with the number of observed segments (O(1) claim)."""
        import time

        detector = OnlineDetector(trained_causal_tad)
        trajectory = max(benchmark_data.id_test.trajectories, key=len)
        session = detector.start_session(trajectory.sd_pair, trajectory.segments[0])
        timings = []
        for segment in trajectory.segments[1:]:
            start = time.perf_counter()
            session.update(segment)
            timings.append(time.perf_counter() - start)
        # Compare the first and last thirds: no systematic growth beyond noise.
        third = max(1, len(timings) // 3)
        early = np.median(timings[:third])
        late = np.median(timings[-third:])
        assert late < early * 10

    def test_custom_lambda(self, trained_causal_tad, benchmark_data):
        trajectory = benchmark_data.ood_test.trajectories[0]
        biased = OnlineDetector(trained_causal_tad, lambda_weight=0.0).final_score(trajectory)
        debiased = OnlineDetector(trained_causal_tad, lambda_weight=0.5).final_score(trajectory)
        assert debiased <= biased + 1e-9
