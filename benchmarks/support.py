"""Shared configuration and gate helpers for the benchmarks.

Scale is controlled by the ``REPRO_BENCH_SCALE`` environment variable
(``quick`` — the default — or ``full``); see ``benchmarks/conftest.py`` for
the fixture wiring.
"""

from __future__ import annotations

import json
import os
from typing import Any, Callable, Dict, List, Sequence

import numpy as np

from repro.experiments import get_profile
from repro.trajectory import BenchmarkConfig, SimulatorConfig
from repro.utils.timing import Timer

BENCH_SCALE = os.environ.get("REPRO_BENCH_SCALE", "quick").lower()
BENCH_SEED = int(os.environ.get("REPRO_BENCH_SEED", "7"))
#: The experiment profile whose pipeline run the table and figure files assert on.
BENCH_PROFILE = get_profile(BENCH_SCALE, seed=BENCH_SEED)
#: Rounds of each scoring pass the table and figure files time (after one warm-up).
SCORING_ROUNDS = 10
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
    "BENCH_PROFILE",
    "SCORING_ROUNDS",
    "BENCH_ARTIFACTS",
    "BENCH_BASELINE_TOLERANCE",
    "benchmark_config",
    "write_timing_artifact",
    "load_bench_baseline",
    "baseline_floor",
    "interleaved_medians",
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


def interleaved_medians(
    steps: Sequence[Callable[[], Any]], warmups: int, repeats: int
) -> List[float]:
    """Median wall time of each step, repeats interleaved so load drift hits all.

    Every step runs ``warmups`` times first; then each repeat runs every step
    once, in order.  A ratio of two medians measured this way moves only with
    what differs between the steps, not with how fast the host ran meanwhile.
    """
    for _ in range(warmups):
        for step in steps:
            step()
    samples: List[List[float]] = [[] for _ in steps]
    for _ in range(repeats):
        for times, step in zip(samples, steps):
            with Timer() as timer:
                step()
            times.append(timer.elapsed)
    return [float(np.median(times)) for times in samples]


def benchmark_config() -> BenchmarkConfig:
    """Dataset scale of ``xian_data``, the speed gates' input, for the current mode."""
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
