"""Kernel-level parity: the online scoring kernel against the offline engine.

Every online score — per-ride :class:`OnlineSession` and fleet alike — is
built from :func:`init_session_states` and :func:`advance_sessions`.  Stepped
through a padded batch they must reproduce
:meth:`InferenceEngine.decompose_batch` position for position: the fixed score
against ``sd_nll + kl`` and each step's likelihood against
``-step_log_probs``, to 1e-12 relative.  Covered: road-constrained,
unconstrained and SD-decoder-free models, a non-unit ``kl_weight``, and one
non-successor transition (scored through ``NEG_INF`` on constrained models).
Session start is pinned bit for bit to the Tensor-module start it replaced
(``tests/reference.session_start``).  Underneath, serving, offline scoring and
training run one GRU step, which is pinned bit for bit too.  Last, no
scoring path — fleet, per-ride or offline — builds a single Tensor.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core import CausalTAD, CausalTADConfig, OnlineDetector
from repro.core.inference import InferenceEngine, Workspace, _gru_states
from repro.core.scoring_kernel import advance_sessions, init_session_states
from repro.nn import NEG_INF, Tensor, no_grad
from repro.serving import FleetEngine, replay_trajectories
from repro.trajectory.dataset import encode_batch
from repro.trajectory.types import MapMatchedTrajectory
from repro.utils import RandomState
from tests import reference

RTOL = 1e-12

#: name -> (config overrides, attach the road network)
MODELS = {
    "road_constrained": ({}, True),
    "unconstrained": ({}, False),
    "no_sd_decoder": ({"use_sd_decoder": False}, True),
    "kl_weight_half": ({"kl_weight": 0.5}, True),
}


@pytest.fixture(scope="module", params=sorted(MODELS))
def model(request, benchmark_data) -> CausalTAD:
    overrides, attach = MODELS[request.param]
    config = dataclasses.replace(CausalTADConfig.tiny(benchmark_data.num_segments), **overrides)
    network = benchmark_data.city.network if attach else None
    model = CausalTAD(config, network=network, rng=RandomState(17))
    model.eval()
    return model


def _off_road_trajectory(benchmark_data) -> MapMatchedTrajectory:
    """Three segments whose first transition is not a road-graph successor."""
    succ_idx, succ_valid = benchmark_data.city.network.compiled().successor_tables()
    start = benchmark_data.id_test.trajectories[0].segments[0]
    successors = set(succ_idx[start][succ_valid[start]].tolist())
    jump = next(
        s for s in range(benchmark_data.num_segments)
        if s != start and s not in successors and succ_valid[s].any()
    )
    return MapMatchedTrajectory(
        trajectory_id="off-road", segments=(start, jump, int(succ_idx[jump][0]))
    )


@pytest.fixture(scope="module")
def trajectories(benchmark_data):
    """Varied lengths (a padded batch), a one-step stub and one off-road jump."""
    rides = list(benchmark_data.id_test.trajectories[:10])
    stub = MapMatchedTrajectory(trajectory_id="stub", segments=tuple(rides[0].segments[:2]))
    return rides + [stub, _off_road_trajectory(benchmark_data)]


def test_kernel_steps_match_offline_decomposition(model, trajectories, benchmark_data):
    batch = encode_batch(trajectories, benchmark_data.num_segments)
    offline = InferenceEngine(model).decompose_batch(batch, include_scaling=False)

    init = init_session_states(model, batch.sources, batch.destinations)
    np.testing.assert_allclose(init.fixed_scores, offline.sd_nll + offline.kl, rtol=RTOL, atol=0)

    hidden = init.hidden.copy()
    online = np.zeros_like(offline.step_log_probs)
    for t in range(batch.inputs.shape[1]):
        rows = np.flatnonzero(batch.mask[:, t])
        hidden[rows], online[rows, t] = advance_sessions(
            model, batch.inputs[rows, t], batch.targets[rows, t], hidden[rows]
        )
    np.testing.assert_allclose(online, -offline.step_log_probs, rtol=RTOL, atol=0)

    off_road_step = online[len(trajectories) - 1, 0]
    if model.config.road_constrained and model.road_graph is not None:
        assert off_road_step >= -NEG_INF / 2  # scored through the NEG_INF sentinel
    else:
        assert off_road_step < -NEG_INF / 2


@pytest.mark.parametrize("rides", [1, 7, 1024])
def test_session_start_is_bitwise_the_tensor_start(model, benchmark_data, rides):
    """Fixed scores and hidden states equal the Tensor-module start bit for bit."""
    gen = np.random.default_rng(rides)
    sources = gen.integers(0, benchmark_data.num_segments, size=rides)
    destinations = gen.integers(0, benchmark_data.num_segments, size=rides)
    init = init_session_states(model, sources, destinations)
    fixed, hidden = reference.session_start(model, sources, destinations)
    np.testing.assert_array_equal(init.fixed_scores.view(np.uint64), fixed.view(np.uint64))
    np.testing.assert_array_equal(init.hidden.view(np.uint64), hidden.view(np.uint64))


def _count_tensors(monkeypatch) -> list:
    """Count every ``Tensor`` constructed from here on (one list entry each)."""
    built = []
    original = Tensor.__init__

    def counting_init(self, *args, **kwargs):
        built.append(None)
        original(self, *args, **kwargs)

    monkeypatch.setattr(Tensor, "__init__", counting_init)
    return built


@pytest.mark.parametrize("path", ["fleet", "session", "offline"])
def test_scoring_builds_no_tensor(benchmark_data, monkeypatch, path):
    """Serving and offline scoring run on numpy arrays only (scaling factors cached)."""
    model = CausalTAD(
        CausalTADConfig.tiny(benchmark_data.num_segments),
        network=benchmark_data.city.network,
        rng=RandomState(23),
    )
    model.eval()
    model.scaling_factors()  # precomputed once per model by every scorer
    rides = benchmark_data.id_test.trajectories[:6]
    dataset = benchmark_data.id_test.subset(range(6))
    engine = FleetEngine(model)
    detector = OnlineDetector(model)
    built = _count_tensors(monkeypatch)
    if path == "fleet":
        summary = engine.run(replay_trajectories(rides))
        assert len(summary.finished) == len(rides)
    elif path == "session":
        for trajectory in rides:
            detector.final_score(trajectory)
    else:
        model.score_trajectory(rides[0])
        model.segment_score_breakdown(rides[0])
        model.lambda_sweep_scores(dataset, (0.0, 0.1))
    assert len(built) == 0


@pytest.mark.parametrize("rows", [1, 1000])
def test_serving_offline_and_training_share_one_gru_step(benchmark_data, rows):
    """``GRUCell.step`` as serving calls it is bitwise one step of the others.

    The others: the training kernel ``gru_sequence`` with and without an
    autograd graph, and the offline engine's unroll, on the same rows.  Rows
    masked out of the sequence step must carry their state unchanged.
    """
    model = CausalTAD(
        CausalTADConfig.tiny(benchmark_data.num_segments),
        network=benchmark_data.city.network,
        rng=RandomState(19),
    )
    gru = model.tg_vae.decoder_rnn
    gen = np.random.default_rng(rows)
    gru.cell.b_ih.data[:] = gen.normal(size=gru.cell.b_ih.data.shape)
    gru.cell.b_hh.data[:] = gen.normal(size=gru.cell.b_hh.data.shape)
    # Embedding rows gathered by segment id, as advance_sessions does.
    segments = gen.integers(0, benchmark_data.num_segments, size=rows)
    x = model.tg_vae.segment_embedding.weight.data[segments]
    h = np.tanh(gen.normal(scale=2.0, size=(rows, gru.hidden_dim)))
    keep = gen.random(rows) > 0.3
    keep[0] = True
    served = np.where(keep[:, None], gru.cell.step(x, h), h)

    mask = keep[:, None]
    with no_grad():
        _, no_graph = gru(Tensor(x[:, None, :]), h0=Tensor(h), mask=mask)
    _, with_graph = gru(Tensor(x[:, None, :], requires_grad=True), h0=Tensor(h), mask=mask)
    assert with_graph.requires_grad
    engine = _gru_states(x[None], h, gru.cell, Workspace(), "dec", mask=mask)[1]
    for label, other in (
        ("gru_sequence without graph", no_graph.data),
        ("gru_sequence with graph", with_graph.data),
        ("inference engine", engine),
    ):
        np.testing.assert_array_equal(served.view(np.uint64), other.view(np.uint64), err_msg=label)
