"""Kernel-level parity: the online scoring kernel against the offline engine.

Every online score — per-ride :class:`OnlineSession` and fleet alike — is
built from :func:`init_session_states` and :func:`advance_sessions`.  Stepped
through a padded batch they must reproduce
:meth:`InferenceEngine.decompose_batch` position for position: the fixed score
against ``sd_nll + kl`` and each step's likelihood against
``-step_log_probs``, to 1e-12 relative.  Covered: road-constrained,
unconstrained and SD-decoder-free models, a non-unit ``kl_weight``, and one
non-successor transition (scored through ``NEG_INF`` on constrained models).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core import CausalTAD, CausalTADConfig
from repro.core.inference import InferenceEngine
from repro.core.scoring_kernel import advance_sessions, init_session_states
from repro.nn import NEG_INF
from repro.trajectory.dataset import encode_batch
from repro.trajectory.types import MapMatchedTrajectory
from repro.utils import RandomState

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
