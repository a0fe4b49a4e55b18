#!/usr/bin/env python
"""Fold benchmark timing artifacts into the committed BENCH_*.json baselines.

The benchmarks (run with ``REPRO_BENCH_ARTIFACTS=<dir>``) each drop a timing
JSON into ``<dir>``.  This tool folds the *gated metrics* of those artifacts
— speedups, throughput ratios and probe-scaled rates, which divide out
machine speed — into one committed baseline file per benchmark area at the
repository root:

========================  =====================================================
``BENCH_train.json``      ``bench_train_fused``
                          (tg_positions_per_probe_second,
                          full_positions_per_probe_second: decoder positions
                          per second of the host-speed probe, for the
                          TG-VAE and the full CausalTAD training step)
``BENCH_roadnet.json``    ``bench_roadnet_queries`` / ``_dataset_build`` /
                          ``_dijkstra`` (query points, trajectories built
                          and Dijkstra sources per second of the
                          host-speed probe, each as
                          ``<part>.<rate>_per_probe_second``)
``BENCH_scoring.json``    ``bench_score_throughput``
                          (positions_per_probe_second: decoder positions
                          scored per second of the host-speed probe;
                          score_over_sweep: one dataset pass over one λ
                          sweep)
``BENCH_fleet.json``      ``bench_fleet_throughput`` (fleet_over_offline:
                          fleet segments/s over offline scoring's on the
                          same rides)
========================  =====================================================

Together the committed files are the repo's perf trajectory:
``benchmarks/support.baseline_floor`` ratchets each bench gate up to
``baseline * (1 - tolerance)`` (never below the fixed floor), and CI's
``--check`` mode fails the build when a fresh run regresses beyond the same
tolerance.  Refreshing an area drops any recorded metric that no artifact of
the area produces any more, so a retired gate leaves no stale baseline.

Usage::

    # refresh the committed baselines from a fresh artifact directory
    python tools/update_bench_baselines.py --artifacts bench-artifacts

    # CI drift gate: compare fresh artifacts against the committed baselines
    python tools/update_bench_baselines.py --check --artifacts bench-artifacts

Absolute timings (seconds) in the artifacts are machine-bound and are
deliberately *not* folded into the baselines.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, Optional

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: area -> {artifact name -> {artifact metric -> baseline metric}}.  Multi-
#: artifact areas prefix the baseline metric with the artifact's short part
#: name so one file carries the whole area.
AREAS: Dict[str, Dict[str, Dict[str, str]]] = {
    "train": {
        "bench_train_fused": {
            "tg_positions_per_probe_second": "tg_positions_per_probe_second",
            "full_positions_per_probe_second": "full_positions_per_probe_second",
        },
    },
    "roadnet": {
        "bench_roadnet_queries": {
            "points_per_probe_second": "queries.points_per_probe_second",
        },
        "bench_roadnet_dataset_build": {
            "trajectories_per_probe_second": "dataset_build.trajectories_per_probe_second",
        },
        "bench_roadnet_dijkstra": {
            "sources_per_probe_second": "dijkstra.sources_per_probe_second",
        },
    },
    "scoring": {
        "bench_score_throughput": {
            "positions_per_probe_second": "positions_per_probe_second",
            "score_over_sweep": "score_over_sweep",
        },
    },
    "fleet": {
        "bench_fleet_throughput": {"fleet_over_offline": "fleet_over_offline"},
    },
}

DEFAULT_TOLERANCE = float(os.environ.get("REPRO_BENCH_BASELINE_TOLERANCE", "0.25"))


def _load_json(path: str) -> Optional[dict]:
    if not os.path.exists(path):
        return None
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _baseline_path(area: str, root: str) -> str:
    return os.path.join(root, f"BENCH_{area}.json")


def collect_area_metrics(area: str, artifacts_dir: str) -> Dict[str, float]:
    """Gated metrics measured by the artifacts present for ``area``."""
    measured: Dict[str, float] = {}
    for artifact, mapping in AREAS[area].items():
        payload = _load_json(os.path.join(artifacts_dir, f"{artifact}.json"))
        if payload is None:
            continue
        for source, target in mapping.items():
            if source in payload:
                measured[target] = float(payload[source])
    return measured


def update(artifacts_dir: str, root: str, log=print) -> int:
    """Fold fresh artifact metrics into the committed baselines."""
    wrote = 0
    for area in AREAS:
        measured = collect_area_metrics(area, artifacts_dir)
        if not measured:
            log(f"[{area}] no artifacts in {artifacts_dir}; baseline unchanged")
            continue
        path = _baseline_path(area, root)
        existing = _load_json(path) or {}
        gated = {target for mapping in AREAS[area].values() for target in mapping.values()}
        metrics = {
            name: value
            for name, value in existing.get("metrics", {}).items()
            if name in gated
        }
        metrics.update(measured)
        scale = os.environ.get("REPRO_BENCH_SCALE", "quick").lower()
        baseline = {
            "area": area,
            "scale": scale,
            "metrics": {name: round(value, 4) for name, value in sorted(metrics.items())},
            "sources": sorted(AREAS[area]),
            "note": "ratios and probe-scaled rates only (machine speed divides "
            "out); refreshed by tools/update_bench_baselines.py",
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(baseline, handle, indent=2, sort_keys=True)
            handle.write("\n")
        log(f"[{area}] wrote {os.path.relpath(path, root)}: "
            + ", ".join(f"{k}={v:.4g}" for k, v in sorted(measured.items())))
        wrote += 1
    if wrote == 0:
        log(f"error: no benchmark artifacts found under {artifacts_dir}")
        return 1
    return 0


def check(artifacts_dir: str, root: str, tolerance: float, log=print) -> int:
    """Fail (exit 1) when a fresh run regresses beyond ``tolerance``."""
    regressions = []
    compared = 0
    for area in AREAS:
        baseline = _load_json(_baseline_path(area, root))
        if baseline is None:
            log(f"[{area}] no committed BENCH_{area}.json; skipping")
            continue
        recorded = baseline.get("metrics", {})
        measured = collect_area_metrics(area, artifacts_dir)
        for metric, value in sorted(measured.items()):
            reference = recorded.get(metric)
            if reference is None:
                log(f"[{area}] {metric}: {value:.4g} (no recorded baseline)")
                continue
            compared += 1
            floor = float(reference) * (1.0 - tolerance)
            status = "OK" if value >= floor else "REGRESSED"
            log(
                f"[{area}] {metric}: measured {value:.4g} vs baseline "
                f"{float(reference):.4g} (floor {floor:.4g}) {status}"
            )
            if value < floor:
                regressions.append(f"{area}/{metric}")
    if compared == 0:
        log("error: nothing to compare (no artifacts or no baselines)")
        return 1
    if regressions:
        log(f"FAIL: {len(regressions)} metric(s) regressed beyond "
            f"{tolerance:.0%} tolerance: {', '.join(regressions)}")
        return 1
    log(f"all {compared} gated metrics within {tolerance:.0%} of the committed baselines")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--artifacts",
        default="bench-artifacts",
        help="directory of bench_*.json timing artifacts (default: bench-artifacts)",
    )
    parser.add_argument(
        "--root",
        default=REPO_ROOT,
        help="repository root holding the BENCH_*.json baselines",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare against the committed baselines instead of rewriting them",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="allowed relative regression in --check mode "
        f"(default: {DEFAULT_TOLERANCE}, or $REPRO_BENCH_BASELINE_TOLERANCE)",
    )
    args = parser.parse_args(argv)
    if args.check:
        return check(args.artifacts, args.root, args.tolerance)
    return update(args.artifacts, args.root)


if __name__ == "__main__":
    sys.exit(main())
