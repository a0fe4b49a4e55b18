"""Benchmark for **Table III** — ablation study.

Paper protocol (§VI-G): compare the full CausalTAD against its two components
in isolation — TG-VAE (likelihood only, no scaling factor) and RP-VAE
(per-segment rarity only) — on all four test combinations.  Expected shape:
the RP-VAE alone is far weaker than either model that uses the trajectory
likelihood; the full model and TG-VAE are close, with the scaling factor
mattering most out of distribution.  The shape claims read the pipeline's
``eval/table3``.

An additional design-choice ablation (beyond the paper's table) toggles the
road-constrained decoder and the SD decoder, the two architectural choices
§V-B motivates, and the ``center_scaling`` extension documented under
"Deviations from the paper" in ``docs/EXPERIMENTS.md``.  The pipeline has no
stage for it, so it trains its four variants here, on the pipeline's dataset
with the profile's dimensions and schedule.
"""

from __future__ import annotations

import copy
from dataclasses import replace

from benchmarks.support import BENCH_SEED, SCORING_ROUNDS
from repro.core import CausalTAD, CausalTADConfig, Trainer
from repro.eval import evaluate_scores, format_results_table
from repro.utils import RandomState


def test_bench_table3_ablation(benchmark, pipeline):
    """Time the ablated (likelihood-only) scoring path and print Table III."""
    data = pipeline["dataset"]
    model = pipeline["train/CausalTAD"].model
    result = benchmark.pedantic(
        lambda: model.score_dataset(data.ood_detour, use_scaling=False),
        rounds=SCORING_ROUNDS,
        warmup_rounds=1,
    )
    assert result.shape[0] == len(data.ood_detour)

    print()
    print(format_results_table(pipeline["eval/table3"]))


def test_table3_shape_rp_vae_alone_is_weak(pipeline):
    """Segment rarity alone must be clearly worse than models using the likelihood."""
    ablation_table = pipeline["eval/table3"]
    for dataset in ("id-detour", "id-switch", "ood-detour", "ood-switch"):
        rp_only = ablation_table.metric("RP-VAE", dataset)
        full = ablation_table.metric("CausalTAD", dataset)
        assert full > rp_only


def test_table3_components_all_evaluated(pipeline):
    ablation_table = pipeline["eval/table3"]
    assert {r.detector for r in ablation_table.results} == {"CausalTAD", "TG-VAE", "RP-VAE"}
    assert len(ablation_table.results) == 12


def test_bench_design_choice_ablation(benchmark, pipeline):
    """Extra ablation: road-constrained decoding, SD decoder and centred scaling.

    The paper motivates both architectural choices in §V-B; this benchmark
    quantifies them on the synthetic substrate.  Each variant trains a model
    from the same seed and reports OOD & Detour ROC-AUC.  Centring the
    scaling factors changes scoring only, so the centred variant scores a
    copy of the trained full model, taken before anything scored it: the
    same weights and RNG state a separate training from that seed ends with.
    """
    data = pipeline["dataset"]
    profile = pipeline.profile
    architectures = {
        "full": dict(road_constrained=True, use_sd_decoder=True),
        "no-road-constraint": dict(road_constrained=False, use_sd_decoder=True),
        "no-sd-decoder": dict(road_constrained=True, use_sd_decoder=False),
    }

    def ood_detour_metrics(model) -> dict:
        return evaluate_scores(model.score_dataset(data.ood_detour), data.ood_detour.labels)

    def run_all() -> dict:
        out = {}
        for name, flags in architectures.items():
            model_config = CausalTADConfig(
                num_segments=data.num_segments,
                embedding_dim=profile.embedding_dim,
                hidden_dim=profile.hidden_dim,
                latent_dim=profile.latent_dim,
                **flags,
            )
            model = CausalTAD(model_config, network=data.city.network, rng=RandomState(BENCH_SEED + 20))
            Trainer(model, profile.training_config(), rng=RandomState(BENCH_SEED + 21)).fit(data.train)
            if name == "full":
                centered = copy.deepcopy(model)
                centered.config = replace(model_config, center_scaling=True)
            out[name] = ood_detour_metrics(model)
        out["centered-scaling"] = ood_detour_metrics(centered)
        return out

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    print()
    print("== design-choice ablation (OOD & Detour) ==")
    for name, metrics in results.items():
        print(f"  {name:20s} ROC-AUC {metrics['roc_auc']:.4f}   PR-AUC {metrics['pr_auc']:.4f}")
