"""The paper's evaluation as an experiment DAG.

Stage graph (``E`` = one stage per entry)::

    dataset ──┬─► train/iBOAT ──────┐
              ├─► train/SAE … (E) ──┤
              ├─► train/CausalTAD ──┼─► eval/table1 ─┐
              ├─► train/TG-VAE ─────┼─► eval/table2 ─┤
              └─► train/RP-VAE ─────┼─► eval/table3 ─┤
                                    ├─► eval/fig4 ───┼─► render/report
                                    ├─► eval/fig5 ───┤
                                    ├─► eval/fig6 ───┤
                                    ├─► eval/fig7a ──┤   (trains its own
                                    ├─► eval/fig7b ──┤    scratch models)
                                    └─► eval/fig8 ───┘

Each ``train/<detector>`` stage fits one detector on the shared dataset and
writes resumable training checkpoints (parameters + Adam moments + RNG
streams) into its fingerprint-keyed checkpoint directory, so an interrupted
run continues from the last finished epoch with a bit-identical loss
trajectory.  Every evaluation stage then scores the *same* fitted detectors
— exactly the paper's protocol, where one trained model backs all tables
and figures.

Per-stage configs contain only what that stage's output depends on: a
*programmatic* profile change (a custom :class:`ExperimentProfile` passed to
:func:`build_pipeline`, or a future CLI grid flag) that only alters the λ
grid re-runs ``eval/fig8`` and ``render/report`` without retraining.  Note
that *editing library source* — including ``profiles.py`` itself — changes
the package code fingerprint and deliberately invalidates every stage.
"""

from __future__ import annotations

import inspect
from typing import Dict, List, Sequence

from repro.baselines import (
    BetaVAEDetector,
    CausalTADDetector,
    DeepTEADetector,
    DetectorConfig,
    FactorVAEDetector,
    GMVSAEDetector,
    IBOATDetector,
    RPVAEOnlyDetector,
    SAEDetector,
    TGVAEOnlyDetector,
    TrajectoryAnomalyDetector,
    VSAEDetector,
)
from repro.core.config import CausalTADConfig
from repro.eval.experiments import (
    evaluate_fitted,
    run_inference_efficiency,
    run_lambda_sweep,
    run_online_sweep,
    run_stability_sweep,
    run_training_scalability,
    score_breakdown,
)
from repro.experiments.dag import ExperimentDAG
from repro.experiments.profiles import ABLATION_DETECTORS, ExperimentProfile
from repro.experiments.report import build_report
from repro.experiments.stage import Stage, StageContext
from repro.trajectory.splits import build_benchmark_data
from repro.utils.rng import RandomState

__all__ = ["DETECTOR_REGISTRY", "build_pipeline", "make_detector", "render_report_from_cache"]

#: Stable per-detector RNG offsets (appended to the profile seed) so adding a
#: detector to a profile never shifts the streams of the existing ones.
DETECTOR_REGISTRY: Dict[str, int] = {
    "iBOAT": 0,
    "SAE": 1,
    "VSAE": 2,
    "beta-VAE": 3,
    "FactorVAE": 4,
    "GM-VSAE": 5,
    "DeepTEA": 6,
    "CausalTAD": 7,
    "TG-VAE": 8,
    "RP-VAE": 9,
}

_DETECTOR_CLASSES = {
    "SAE": SAEDetector,
    "VSAE": VSAEDetector,
    "beta-VAE": BetaVAEDetector,
    "FactorVAE": FactorVAEDetector,
    "GM-VSAE": GMVSAEDetector,
    "DeepTEA": DeepTEADetector,
    "TG-VAE": TGVAEOnlyDetector,
    "RP-VAE": RPVAEOnlyDetector,
}


def make_detector(name: str, config: DetectorConfig, seed: int) -> TrajectoryAnomalyDetector:
    """Build an unfitted detector with a deterministic per-detector RNG.

    ``CausalTAD`` is configured the way the paper recommends for a new
    dataset.  The paper (§VI-H) grid-searches λ on a validation set because
    the scaling factor is an over-estimate (Eq. 6).  On the synthetic cities
    the Fig. 8 grid selects a small λ, and ``center_scaling`` (see
    "Deviations from the paper" in ``docs/EXPERIMENTS.md``) removes the
    residual trajectory-length bias of the raw factor, so the pipeline uses
    λ = 0.05 with centred factors.  ``CausalTADConfig`` defaults remain the
    paper-faithful λ = 0.1, uncentred.
    """
    if name not in DETECTOR_REGISTRY:
        raise KeyError(f"unknown detector {name!r}; choose from {sorted(DETECTOR_REGISTRY)}")
    rng = RandomState(seed + 1000 * (DETECTOR_REGISTRY[name] + 1))
    if name == "iBOAT":
        return IBOATDetector(config.num_segments)
    if name == "CausalTAD":
        model_config = CausalTADConfig(
            num_segments=config.num_segments,
            embedding_dim=config.embedding_dim,
            hidden_dim=config.hidden_dim,
            latent_dim=config.latent_dim,
            lambda_weight=0.05,
            center_scaling=True,
        )
        return CausalTADDetector(config, model_config=model_config, rng=rng)
    return _DETECTOR_CLASSES[name](config, rng=rng)


def _fit_detector(ctx: StageContext, checkpoint_every: int = 1) -> TrajectoryAnomalyDetector:
    """``train/<detector>`` stage body: fit with resumable checkpoints.

    ``checkpoint_every`` is passed outside the stage config on purpose: it
    changes only how often the resumable checkpoint is written, never the
    trained parameters, so it must not participate in the cache key.
    """
    cfg = ctx.config
    data = ctx.input("dataset")
    detector = make_detector(cfg["detector"], _detector_config(cfg, data.num_segments), cfg["seed"])
    fit_kwargs = {}
    if "checkpoint_path" in inspect.signature(detector.fit).parameters:
        fit_kwargs = {
            "checkpoint_path": str(ctx.checkpoint_dir() / "train.npz"),
            "checkpoint_every": checkpoint_every,
        }
    ctx.log(f"fitting {detector.name} on {len(data.train)} trajectories ...")
    detector.fit(data.train, network=data.city.network, **fit_kwargs)
    # The trainer (optimizer moments keyed by object identity) is not part of
    # the artifact contract; scoring only needs the fitted model + rng.
    if hasattr(detector, "trainer"):
        detector.trainer = None
    return detector


def _detector_config(cfg: Dict, num_segments: int) -> DetectorConfig:
    from repro.core.config import TrainingConfig

    return DetectorConfig(
        num_segments=num_segments,
        embedding_dim=cfg["embedding_dim"],
        hidden_dim=cfg["hidden_dim"],
        latent_dim=cfg["latent_dim"],
        training=TrainingConfig(
            epochs=cfg["epochs"],
            batch_size=cfg["batch_size"],
            learning_rate=cfg["learning_rate"],
            seed=cfg["seed"],
        ),
        seed=cfg["seed"],
    )


def build_pipeline(profile: ExperimentProfile) -> ExperimentDAG:
    """Assemble the full table/figure DAG for one profile."""
    dag = ExperimentDAG()

    dataset_cfg = {
        "num_sd_pairs": profile.num_sd_pairs,
        "trajectories_per_pair": profile.trajectories_per_pair,
        "num_ood_trajectories": profile.num_ood_trajectories,
        "min_length": profile.min_length,
        "max_length": profile.max_length,
        "seed": profile.seed,
    }

    def _build_dataset(ctx: StageContext):
        from repro.roadnet.generators import XIAN_LIKE

        ctx.log("generating synthetic city and benchmark splits ...")
        return build_benchmark_data(
            city_config=XIAN_LIKE,
            config=profile.benchmark_config(),
            rng=RandomState(profile.seed),
        )

    dag.add(Stage("dataset", _build_dataset, config=dataset_cfg))

    train_cfg_base = {
        "embedding_dim": profile.embedding_dim,
        "hidden_dim": profile.hidden_dim,
        "latent_dim": profile.latent_dim,
        "epochs": profile.epochs,
        "batch_size": profile.batch_size,
        "learning_rate": profile.learning_rate,
        "seed": profile.seed,
    }

    def _train_stage_func(ctx: StageContext) -> TrajectoryAnomalyDetector:
        # checkpoint_every rides outside the config: it never changes the
        # trained parameters, so it must not invalidate the cache key.
        return _fit_detector(ctx, checkpoint_every=profile.checkpoint_every)

    for name in profile.all_trained_detectors():
        dag.add(
            Stage(
                f"train/{name}",
                _train_stage_func,
                deps=("dataset",),
                config={**train_cfg_base, "detector": name},
            )
        )

    def train_deps(names: Sequence[str]) -> tuple:
        return ("dataset",) + tuple(f"train/{n}" for n in names)

    def _detectors(ctx: StageContext, names: Sequence[str]) -> List[TrajectoryAnomalyDetector]:
        return [ctx.input(f"train/{n}") for n in names]

    # -- Tables I–III ---------------------------------------------------- #
    def _table1(ctx: StageContext):
        data = ctx.input("dataset")
        return evaluate_fitted(
            _detectors(ctx, profile.detectors),
            [data.id_detour, data.id_switch],
            "table1-in-distribution",
        )

    def _table2(ctx: StageContext):
        data = ctx.input("dataset")
        return evaluate_fitted(
            _detectors(ctx, profile.detectors),
            [data.ood_detour, data.ood_switch],
            "table2-out-of-distribution",
        )

    def _table3(ctx: StageContext):
        data = ctx.input("dataset")
        return evaluate_fitted(
            _detectors(ctx, ABLATION_DETECTORS),
            [data.id_detour, data.id_switch, data.ood_detour, data.ood_switch],
            "table3-ablation",
        )

    dag.add(Stage("eval/table1", _table1, deps=train_deps(profile.detectors),
                  config={"detectors": profile.detectors}))
    dag.add(Stage("eval/table2", _table2, deps=train_deps(profile.detectors),
                  config={"detectors": profile.detectors}))
    dag.add(Stage("eval/table3", _table3, deps=train_deps(ABLATION_DETECTORS),
                  config={"detectors": ABLATION_DETECTORS}))

    # -- Figures 4–8 ------------------------------------------------------ #
    # Fig. 4 contrasts CausalTAD against a *baseline* scorer; prefer VSAE
    # (the paper's comparison), otherwise any trained non-CausalTAD detector.
    trained = profile.all_trained_detectors()
    if "VSAE" in trained:
        fig4_baseline = "VSAE"
    else:
        candidates = [n for n in trained if n not in ("CausalTAD", "iBOAT")]
        if not candidates:
            raise ValueError(
                "profile trains no baseline detector to compare against in Fig. 4; "
                "include at least one learning-based non-CausalTAD detector"
            )
        fig4_baseline = candidates[-1]

    def _fig4(ctx: StageContext):
        data = ctx.input("dataset")
        causal = ctx.input("train/CausalTAD")
        baseline = ctx.input(f"train/{fig4_baseline}")
        return score_breakdown(data, causal, baseline)

    dag.add(Stage("eval/fig4", _fig4, deps=train_deps(("CausalTAD", fig4_baseline)),
                  config={"baseline": fig4_baseline}))

    def _fig5(ctx: StageContext):
        data = ctx.input("dataset")
        return run_stability_sweep(
            data,
            _detectors(ctx, profile.sweep_detectors),
            alphas=profile.alphas,
            rng=RandomState(profile.seed + 51),
        )

    dag.add(Stage("eval/fig5", _fig5, deps=train_deps(profile.sweep_detectors),
                  config={"detectors": profile.sweep_detectors, "alphas": profile.alphas,
                          "seed": profile.seed}))

    def _fig6(ctx: StageContext):
        data = ctx.input("dataset")
        return run_online_sweep(
            data,
            _detectors(ctx, profile.sweep_detectors),
            observed_ratios=profile.observed_ratios,
        )

    dag.add(Stage("eval/fig6", _fig6, deps=train_deps(profile.sweep_detectors),
                  config={"detectors": profile.sweep_detectors,
                          "observed_ratios": profile.observed_ratios}))

    def _fig8(ctx: StageContext):
        # One inference-engine pass per dataset combination; the whole λ grid
        # is composed from that decomposition (see run_lambda_sweep), so the
        # stage's cost no longer scales with len(profile.lambdas).
        data = ctx.input("dataset")
        return run_lambda_sweep(data, ctx.input("train/CausalTAD"), lambdas=profile.lambdas)

    dag.add(Stage("eval/fig8", _fig8, deps=train_deps(("CausalTAD",)),
                  config={"lambdas": profile.lambdas}))

    # -- Figure 7: wall-clock timing stages -------------------------------- #
    # These measure seconds, so they must not share the worker pool with
    # CPU-bound work: fig7a depends on every other eval stage and fig7b on
    # fig7a, which forces both to run alone at the tail of the DAG (the
    # published timings would otherwise be inflated by thread contention and
    # then cached permanently).
    quiet_stages = ("eval/table1", "eval/table2", "eval/table3", "eval/fig4",
                    "eval/fig5", "eval/fig6", "eval/fig8")

    def _fig7a(ctx: StageContext):
        data = ctx.input("dataset")
        factories = {
            name: (lambda n=name: make_detector(
                n, _detector_config({**train_cfg_base, "detector": n}, data.num_segments),
                profile.seed))
            for name in profile.scalability_detectors
        }
        return run_training_scalability(
            data,
            factories,
            fractions=profile.train_fractions,
            epochs=1,
            rng=RandomState(profile.seed + 71),
        )

    dag.add(Stage("eval/fig7a", _fig7a, deps=("dataset",) + quiet_stages,
                  config={**train_cfg_base, "detectors": profile.scalability_detectors,
                          "fractions": profile.train_fractions}))

    def _fig7b(ctx: StageContext):
        data = ctx.input("dataset")
        return run_inference_efficiency(
            data,
            _detectors(ctx, profile.sweep_detectors),
            observed_ratios=profile.observed_ratios,
            max_trajectories=profile.fig7_max_trajectories,
        )

    dag.add(Stage("eval/fig7b", _fig7b,
                  deps=train_deps(profile.sweep_detectors) + ("eval/fig7a",),
                  config={"detectors": profile.sweep_detectors,
                          "observed_ratios": profile.observed_ratios,
                          "max_trajectories": profile.fig7_max_trajectories}))

    # -- Render ----------------------------------------------------------- #
    eval_stages = (
        "eval/table1", "eval/table2", "eval/table3", "eval/fig4", "eval/fig5",
        "eval/fig6", "eval/fig7a", "eval/fig7b", "eval/fig8",
    )

    def _render(ctx: StageContext):
        data = ctx.input("dataset")
        artifacts = {name: ctx.input(name) for name in eval_stages}
        return build_report(profile, data.summary(), artifacts)

    dag.add(Stage("render/report", _render, deps=("dataset",) + eval_stages, config=profile))
    return dag


def render_report_from_cache(profile: ExperimentProfile, cache) -> str:
    """Re-render the Markdown report from cached artifacts only.

    Raises ``RuntimeError`` (via the executor) when any required stage is
    missing from the cache — ``python -m repro run`` populates it.
    """
    dag = build_pipeline(profile)
    plan = dag.plan(cache)
    missing = [
        stage.name for stage, _, cached in plan
        if not cached and stage.name != "render/report"
    ]
    if missing:
        raise RuntimeError(
            f"stages not cached: {', '.join(sorted(missing))}; "
            "run `python -m repro run` first"
        )
    keys = {stage.name: key for stage, key, _ in plan}
    if not cache.has("render/report", keys["render/report"]):
        dag.run(cache, jobs=1, log=lambda _m: None)
    return cache.load("render/report", keys["render/report"])
