#!/usr/bin/env python
"""Out-of-distribution generalisation: why debiasing matters.

This example reproduces the paper's central argument at example scale:

* The SD-pair distribution of the training data is *confounded* by road
  preference — popular destinations sit on popular roads.
* A conventional trajectory VAE (VSAE) learns that correlation and therefore
  over-penalises normal rides toward unpopular destinations.
* CausalTAD's scaling factor (the ``P(T|do(C))`` adjustment) compensates, so
  its advantage over the baseline is largest on trajectories with unseen SD
  pairs.

The script trains both detectors on the same data, evaluates them on the ID
and OOD detour test sets, and prints the per-segment breakdown of the OOD
normal trajectory the baseline gets most wrong (the paper's Fig. 4 scenario).

Run with::

    python examples/ood_generalization.py [--seed 2]
"""

from __future__ import annotations

import argparse

import numpy as np

from repro import XIAN_LIKE, BenchmarkConfig, build_benchmark_data
from repro.baselines import CausalTADDetector, DetectorConfig, VSAEDetector
from repro.core import TrainingConfig
from repro.eval import evaluate_scores, score_breakdown
from repro.utils import RandomState


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7,
                        help="random seed (7 matches the benchmark harness / EXPERIMENTS.md)")
    parser.add_argument("--epochs", type=int, default=25, help="training epochs for both models")
    return parser.parse_args()


def main() -> None:
    args = parse_args()
    rng = RandomState(args.seed)

    print("Building the confounded benchmark (training SD pairs are popular ones) ...")
    data = build_benchmark_data(city_config=XIAN_LIKE, config=BenchmarkConfig.small(), rng=rng)

    # How confounded is the data?  Compare the ground-truth attractiveness of
    # destinations in the training set vs the OOD test set.
    attraction = data.city.preference.destination_weights
    train_attr = np.mean([attraction[t.destination] for t in data.train.trajectories])
    ood_attr = np.mean([attraction[t.destination] for t in data.ood_test.trajectories])
    print(f"  mean destination popularity   train: {train_attr:.3f}   OOD: {ood_attr:.3f}")
    print("  (training destinations are systematically more popular -> E -> C bias)\n")

    config = DetectorConfig(
        num_segments=data.num_segments,
        embedding_dim=48,
        hidden_dim=48,
        latent_dim=24,
        training=TrainingConfig(epochs=args.epochs, batch_size=32, learning_rate=0.01),
    )
    # CausalTAD with the configuration the paper recommends deriving by grid
    # search on a validation set: a small lambda, here with centred scaling
    # factors (see "Deviations from the paper" in docs/EXPERIMENTS.md) so the
    # correction is purely popular-vs-unpopular.
    from repro.core import CausalTADConfig

    causal_model_config = CausalTADConfig(
        num_segments=data.num_segments,
        embedding_dim=48,
        hidden_dim=48,
        latent_dim=24,
        lambda_weight=0.05,
        center_scaling=True,
    )
    causal = CausalTADDetector(config, model_config=causal_model_config, rng=RandomState(args.seed + 10))
    baseline = VSAEDetector(config, rng=RandomState(args.seed + 20))

    print("Training CausalTAD and the VSAE baseline on identical data ...")
    causal.fit(data.train, network=data.city.network)
    baseline.fit(data.train, network=data.city.network)

    print("\nROC-AUC / PR-AUC on the detour test combinations:")
    header = f"  {'dataset':12s} {'VSAE':>16s} {'CausalTAD':>18s}"
    print(header)
    for name in ("id_detour", "ood_detour"):
        dataset = getattr(data, name)
        base_metrics = evaluate_scores(baseline.score(dataset), dataset.labels)
        causal_metrics = evaluate_scores(causal.score(dataset), dataset.labels)
        print(
            f"  {name:12s} "
            f"{base_metrics['roc_auc']:7.3f}/{base_metrics['pr_auc']:.3f} "
            f"  {causal_metrics['roc_auc']:7.3f}/{causal_metrics['pr_auc']:.3f}"
        )
    print("  (the CausalTAD advantage typically concentrates on the OOD rows; "
          "see EXPERIMENTS.md for the benchmark-scale numbers)\n")

    # ------------------------------------------------------------------ #
    # Fig. 4 style breakdown: the OOD normal ride the baseline dislikes most.
    # ------------------------------------------------------------------ #
    comparison = score_breakdown(data, causal, baseline)
    print(f"Worst-scored OOD normal trajectory according to {comparison.baseline_name}: "
          f"{comparison.trajectory_id}")
    print(f"  {comparison.baseline_name} total score : {comparison.baseline_total:.2f}")
    print(f"  CausalTAD total score                   : {comparison.causal_total:.2f}")
    print("  per-segment debiasing (positive scaling = unpopular segment rescued):")
    order = np.argsort(-comparison.scaling_scores)[:8]
    for index in order:
        print(
            f"    segment {comparison.segments[index]:4d}   "
            f"scaling {comparison.scaling_scores[index]:6.3f}   "
            f"debiased score {comparison.causal_scores[index]:6.3f}"
        )


if __name__ == "__main__":
    main()
