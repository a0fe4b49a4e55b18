"""Shared fixtures for the benchmark harness.

The table and figure benchmarks (``test_bench_table*`` and
``test_bench_fig*``) assert on the artifacts of one run of the experiment
pipeline (:func:`repro.experiments.pipeline.build_pipeline`), the stages that
also render ``docs/REPORT.md``.  The ``pipeline`` fixture runs it once per
session into a temporary artifact cache and hands out stage artifacts by
name: ``dataset``, ``train/<detector>``, ``eval/table1`` … ``eval/fig8``.

``REPRO_BENCH_SCALE`` picks the pipeline's profile, on one city:

* ``quick`` (default) — the quick profile: six detectors plus the Table III
  ablations, 25 epochs.  This is what CI runs.
* ``full`` — the full profile: the paper's complete line-up and 40 epochs.

The speed gates build their own inputs; the ones that need a benchmark
dataset use ``xian_data``, the bundle their committed ``BENCH_*.json``
baselines were measured on.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

import pytest

from benchmarks.support import BENCH_PROFILE, BENCH_SEED, benchmark_config
from repro.experiments import ArtifactCache, ExperimentProfile, build_pipeline
from repro.roadnet import XIAN_LIKE
from repro.trajectory import build_benchmark_data
from repro.utils import RandomState


class PipelineArtifacts:
    """Stage artifacts of one finished pipeline run, each loaded once."""

    def __init__(self, profile: ExperimentProfile, cache: ArtifactCache, keys: Dict[str, str]):
        self.profile = profile
        self._cache = cache
        self._keys = keys
        self._loaded: Dict[str, Any] = {}

    def __getitem__(self, stage: str) -> Any:
        if stage not in self._loaded:
            self._loaded[stage] = self._cache.load(stage, self._keys[stage])
        return self._loaded[stage]

    def detectors(self, names: Sequence[str]) -> List[Any]:
        """The fitted detectors of the ``train/<name>`` stages, in order."""
        return [self[f"train/{name}"] for name in names]


@pytest.fixture(scope="session")
def pipeline(tmp_path_factory) -> PipelineArtifacts:
    """One pipeline run of the benchmark profile, shared by the table and figure files."""
    dag = build_pipeline(BENCH_PROFILE)
    cache = ArtifactCache(tmp_path_factory.mktemp("pipeline"))
    dag.run(cache, jobs=2, log=lambda _message: None)
    return PipelineArtifacts(BENCH_PROFILE, cache, dag.compute_keys())


@pytest.fixture(scope="session")
def xian_data():
    """Benchmark bundle for the 'Xi'an-like' city, the speed gates' input."""
    return build_benchmark_data(
        city_config=XIAN_LIKE, config=benchmark_config(), rng=RandomState(BENCH_SEED)
    )
