"""Benchmark for **Table III** — ablation study.

Paper protocol (§VI-G): compare the full CausalTAD against its two components
in isolation — TG-VAE (likelihood only, no scaling factor) and RP-VAE
(per-segment rarity only) — on all four test combinations.  Expected shape:
the RP-VAE alone is far weaker than either model that uses the trajectory
likelihood; the full model and TG-VAE are close, with the scaling factor
mattering most out of distribution.

An additional design-choice ablation (beyond the paper's table) toggles the
road-constrained decoder and the SD decoder, the two architectural choices
§V-B motivates, and the ``center_scaling`` extension documented under
"Deviations from the paper" in ``docs/EXPERIMENTS.md``.
"""

from __future__ import annotations

import pytest

from benchmarks.support import BENCH_SEED, detector_config_for
from repro.baselines import CausalTADDetector
from repro.core import CausalTAD, CausalTADConfig, Trainer
from repro.eval import (
    evaluate_scores,
    format_results_table,
    run_ablation,
)
from repro.utils import RandomState


@pytest.fixture(scope="module")
def ablation_table(xian_data):
    return run_ablation(xian_data, detector_config_for(xian_data), rng=RandomState(BENCH_SEED + 10))


def test_bench_table3_ablation(benchmark, ablation_table, xian_data, fitted_causal_tad):
    """Time the ablated (likelihood-only) scoring path and print Table III."""
    result = benchmark(
        lambda: fitted_causal_tad.model.score_dataset(xian_data.ood_detour, use_scaling=False)
    )
    assert result.shape[0] == len(xian_data.ood_detour)

    print()
    print(format_results_table(ablation_table))


def test_table3_shape_rp_vae_alone_is_weak(ablation_table):
    """Segment rarity alone must be clearly worse than models using the likelihood."""
    for dataset in ("id-detour", "id-switch", "ood-detour", "ood-switch"):
        rp_only = ablation_table.metric("RP-VAE", dataset)
        full = ablation_table.metric("CausalTAD", dataset)
        assert full > rp_only


def test_table3_components_all_evaluated(ablation_table):
    assert {r.detector for r in ablation_table.results} == {"CausalTAD", "TG-VAE", "RP-VAE"}
    assert len(ablation_table.results) == 12


def test_bench_design_choice_ablation(benchmark, xian_data):
    """Extra ablation: road-constrained decoding, SD decoder and centred scaling.

    The paper motivates both architectural choices in §V-B; this benchmark
    quantifies them on the synthetic substrate.  Each variant trains a small
    model from the same seed and reports OOD & Detour ROC-AUC.
    """
    config = detector_config_for(xian_data)
    training = config.training
    variants = {
        "full": dict(road_constrained=True, use_sd_decoder=True, center_scaling=False),
        "no-road-constraint": dict(road_constrained=False, use_sd_decoder=True, center_scaling=False),
        "no-sd-decoder": dict(road_constrained=True, use_sd_decoder=False, center_scaling=False),
        "centered-scaling": dict(road_constrained=True, use_sd_decoder=True, center_scaling=True),
    }
    results = {}

    def run_all() -> dict:
        out = {}
        for name, flags in variants.items():
            model_config = CausalTADConfig(
                num_segments=xian_data.num_segments,
                embedding_dim=config.embedding_dim,
                hidden_dim=config.hidden_dim,
                latent_dim=config.latent_dim,
                **flags,
            )
            model = CausalTAD(model_config, network=xian_data.city.network, rng=RandomState(BENCH_SEED + 20))
            Trainer(model, training, rng=RandomState(BENCH_SEED + 21)).fit(xian_data.train)
            scores = model.score_dataset(xian_data.ood_detour)
            out[name] = evaluate_scores(scores, xian_data.ood_detour.labels)
        return out

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    print()
    print("== design-choice ablation (OOD & Detour) ==")
    for name, metrics in results.items():
        print(f"  {name:20s} ROC-AUC {metrics['roc_auc']:.4f}   PR-AUC {metrics['pr_auc']:.4f}")
