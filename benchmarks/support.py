"""Shared configuration and detector-suite construction for the benchmarks.

Scale is controlled by the ``REPRO_BENCH_SCALE`` environment variable
(``quick`` — the default — or ``full``); see ``benchmarks/conftest.py`` for
the fixture wiring.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List

from repro.baselines import (
    BetaVAEDetector,
    CausalTADDetector,
    DeepTEADetector,
    DetectorConfig,
    FactorVAEDetector,
    GMVSAEDetector,
    IBOATDetector,
    SAEDetector,
    TrajectoryAnomalyDetector,
    VSAEDetector,
)
from repro.core import TrainingConfig
from repro.trajectory import BenchmarkConfig, SimulatorConfig
from repro.utils import RandomState

BENCH_SCALE = os.environ.get("REPRO_BENCH_SCALE", "quick").lower()
BENCH_SEED = int(os.environ.get("REPRO_BENCH_SEED", "7"))
#: When set, benchmarks drop their timing JSON here (CI uploads it as an artifact).
BENCH_ARTIFACTS = os.environ.get("REPRO_BENCH_ARTIFACTS", "")
#: Allowed relative regression against a committed ``BENCH_<area>.json``
#: baseline before a gate fires.  Baselines record speedup *ratios* (machine
#: speed divides out), but ratios still jitter across runs and hosts, so the
#: default is deliberately loose; ``tools/update_bench_baselines.py --check``
#: uses the same tolerance.
BENCH_BASELINE_TOLERANCE = float(os.environ.get("REPRO_BENCH_BASELINE_TOLERANCE", "0.25"))

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

__all__ = [
    "BENCH_SCALE",
    "BENCH_SEED",
    "BENCH_ARTIFACTS",
    "BENCH_BASELINE_TOLERANCE",
    "benchmark_config",
    "training_config",
    "detector_config_for",
    "build_suite",
    "write_timing_artifact",
    "load_bench_baseline",
    "baseline_floor",
]


def write_timing_artifact(name: str, payload: Dict[str, Any]) -> None:
    """Persist a benchmark's timing summary as JSON for the CI artifact.

    No-op unless the ``REPRO_BENCH_ARTIFACTS`` environment variable names a
    directory (created on demand).  ``name`` becomes ``<name>.json``.
    """
    if not BENCH_ARTIFACTS:
        return
    os.makedirs(BENCH_ARTIFACTS, exist_ok=True)
    path = os.path.join(BENCH_ARTIFACTS, f"{name}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)


def load_bench_baseline(area: str) -> Dict[str, Any]:
    """The committed ``BENCH_<area>.json`` baseline (empty dict when absent).

    Baselines live at the repository root and are refreshed by
    ``tools/update_bench_baselines.py`` from the timing artifacts the
    benchmarks write — together they form the committed perf trajectory.
    """
    path = os.path.join(_REPO_ROOT, f"BENCH_{area}.json")
    if not os.path.exists(path):
        return {}
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def baseline_floor(area: str, metric: str, fixed_floor: float) -> float:
    """The gate for ``metric``: committed baseline minus tolerance, floored.

    Returns ``max(fixed_floor, recorded * (1 - BENCH_BASELINE_TOLERANCE))`` —
    the fixed floor is the never-regress-below contract, the baseline term
    ratchets the gate up as committed performance improves.  Falls back to
    ``fixed_floor`` when no baseline (or no such metric) is committed.
    """
    recorded = load_bench_baseline(area).get("metrics", {}).get(metric)
    if recorded is None:
        return fixed_floor
    return max(fixed_floor, float(recorded) * (1.0 - BENCH_BASELINE_TOLERANCE))


def benchmark_config() -> BenchmarkConfig:
    """Dataset scale for the current benchmark mode."""
    if BENCH_SCALE == "full":
        return BenchmarkConfig(
            num_sd_pairs=40,
            trajectories_per_pair=20,
            num_ood_trajectories=300,
            simulator=SimulatorConfig(),
        )
    return BenchmarkConfig(
        num_sd_pairs=25,
        trajectories_per_pair=16,
        num_ood_trajectories=200,
        simulator=SimulatorConfig(),
    )


def training_config() -> TrainingConfig:
    """Training schedule for the current benchmark mode."""
    if BENCH_SCALE == "full":
        return TrainingConfig(epochs=40, batch_size=32, learning_rate=0.01, seed=BENCH_SEED)
    return TrainingConfig(epochs=25, batch_size=32, learning_rate=0.01, seed=BENCH_SEED)


def detector_config_for(data) -> DetectorConfig:
    """Shared learning-detector hyperparameters for a benchmark bundle."""
    return DetectorConfig(
        num_segments=data.num_segments,
        embedding_dim=48,
        hidden_dim=48,
        latent_dim=24,
        training=training_config(),
        seed=BENCH_SEED,
    )


def make_causal_tad_detector(config: DetectorConfig, rng: RandomState) -> CausalTADDetector:
    """CausalTAD configured the way the paper recommends for a new dataset.

    The paper (§VI-H) recommends grid-searching λ on a validation set because
    the scaling factor is an over-estimate (Eq. 6).  On the synthetic cities
    the grid search of the Fig. 8 benchmark selects a small λ, and the
    ``center_scaling`` correction (see "Deviations from the paper" in
    ``docs/EXPERIMENTS.md``) removes the residual
    trajectory-length bias of the raw factor, so the benchmark suite uses
    λ = 0.05 with centred factors.  ``CausalTADConfig`` defaults remain the
    paper-faithful λ = 0.1 / uncentred.
    """
    from repro.core import CausalTADConfig

    model_config = CausalTADConfig(
        num_segments=config.num_segments,
        embedding_dim=config.embedding_dim,
        hidden_dim=config.hidden_dim,
        latent_dim=config.latent_dim,
        lambda_weight=0.05,
        center_scaling=True,
    )
    return CausalTADDetector(config, model_config=model_config, rng=rng)


def build_suite(data, include_iboat: bool = True) -> List[TrajectoryAnomalyDetector]:
    """The (unfitted) detector line-up used by the table benchmarks."""
    config = detector_config_for(data)
    rng = RandomState(BENCH_SEED)
    streams = rng.spawn(10)
    detectors: List[TrajectoryAnomalyDetector] = []
    if include_iboat:
        detectors.append(IBOATDetector(data.num_segments))
    if BENCH_SCALE == "full":
        detectors.extend(
            [
                VSAEDetector(config, rng=streams[0]),
                SAEDetector(config, rng=streams[1]),
                BetaVAEDetector(config, rng=streams[2]),
                FactorVAEDetector(config, rng=streams[3]),
                GMVSAEDetector(config, rng=streams[4]),
                DeepTEADetector(config, rng=streams[5]),
            ]
        )
    else:
        detectors.extend(
            [
                VSAEDetector(config, rng=streams[0]),
                SAEDetector(config, rng=streams[1]),
                GMVSAEDetector(config, rng=streams[4]),
                DeepTEADetector(config, rng=streams[5]),
            ]
        )
    detectors.append(make_causal_tad_detector(config, rng=streams[6]))
    return detectors
