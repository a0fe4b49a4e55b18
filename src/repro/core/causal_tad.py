"""CausalTAD — the full causal implicit generative model (paper §V).

Combines the two VAEs:

* :class:`~repro.core.tg_vae.TGVAE` estimates the likelihood ``P(c, t)``
  (through its ELBO), and
* :class:`~repro.core.rp_vae.RPVAE` estimates the per-segment scaling factors
  ``E_{e_i}[1 / P(t_i | e_i)]``.

Training minimises the joint loss of Eq. (9):  ``L = Σ L1(c, t) + L2(t)``.

Scoring follows Eq. (10):

    score(t, c) = −log P(c, t) − λ Σ_i log E_{e_i ~ P(E_i|t_i)}[ 1 / P(t_i|e_i) ]

The higher the score, the more anomalous the trajectory.  The per-segment
breakdown of Eq. (11) — used by the paper's Fig. 4 to visualise how the
scaling factor rescues unpopular road segments — is exposed through
:meth:`CausalTAD.segment_score_breakdown`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.core.config import CausalTADConfig
from repro.core.inference import InferenceEngine, ScoreDecomposition, resolve_engine
from repro.core.rp_vae import RPVAE
from repro.core.tg_vae import TGVAE
from repro.nn import Module, Tensor, no_grad
from repro.roadnet.csr import CompiledRoadGraph
from repro.roadnet.network import RoadNetwork
from repro.trajectory.dataset import EncodedBatch, TrajectoryDataset, encode_batch
from repro.trajectory.types import MapMatchedTrajectory
from repro.utils.rng import RandomState, get_rng

__all__ = ["CausalTAD", "CausalTADLoss", "SegmentScoreBreakdown"]


@dataclass
class CausalTADLoss:
    """The joint training loss and its components (per batch, averaged)."""

    total: Tensor
    tg_loss: float
    rp_loss: float


@dataclass
class SegmentScoreBreakdown:
    """Per-segment decomposition of the debiased anomaly score (Eq. 11).

    Attributes
    ----------
    segments:
        The scored segments ``t_2 … t_n`` (prediction targets).
    likelihood_scores:
        ``−log P(t_i | c, t_{<i})`` from TG-VAE, per segment.
    scaling_scores:
        ``log E[1 / P(t_i | e_i)]`` from RP-VAE, per segment.
    debiased_scores:
        ``likelihood − λ · scaling`` per segment; their sum (plus the SD and
        KL terms) is the trajectory's anomaly score.
    """

    segments: np.ndarray
    likelihood_scores: np.ndarray
    scaling_scores: np.ndarray
    debiased_scores: np.ndarray
    #: The trajectory's full anomaly score (Eq. 10): the per-segment debiased
    #: scores plus the SD-reconstruction and KL terms the per-step breakdown
    #: cannot attribute to individual segments.  Computed from the same
    #: forward pass as the breakdown — no extra model evaluation.
    total_score: float = 0.0


class CausalTAD(Module):
    """The complete CausalTAD model (TG-VAE + RP-VAE)."""

    def __init__(
        self,
        config: CausalTADConfig,
        network: Optional[RoadNetwork] = None,
        rng: Optional[RandomState] = None,
    ) -> None:
        super().__init__()
        rng = get_rng(rng)
        self.config = config
        self.tg_vae = TGVAE(config, rng=rng)
        self.rp_vae = RPVAE(config, rng=rng)
        self._road_graph: Optional[CompiledRoadGraph] = None
        self._engine: Optional[InferenceEngine] = None
        if network is not None:
            self.attach_network(network)

    # ------------------------------------------------------------------ #
    # road network
    # ------------------------------------------------------------------ #
    def attach_network(self, network: RoadNetwork) -> None:
        """Attach the road network supplying the road-constrained decoding structure.

        Stores the network's compiled CSR graph, the model's one road
        constraint: the decoder loss, offline scoring and the serving kernel
        all consume its O(E) successor tables.  The dense ``(V, V)``
        transition mask is never materialised.
        """
        if network.num_segments != self.config.num_segments:
            raise ValueError(
                f"network has {network.num_segments} segments but the model was "
                f"configured for {self.config.num_segments}"
            )
        self._road_graph = network.compiled()

    @property
    def road_graph(self) -> Optional[CompiledRoadGraph]:
        """The attached :class:`~repro.roadnet.csr.CompiledRoadGraph`, if any."""
        return self._road_graph

    # ------------------------------------------------------------------ #
    # training
    # ------------------------------------------------------------------ #
    def forward(self, batch: EncodedBatch) -> CausalTADLoss:
        """Joint loss of Eq. (9) for one batch."""
        tg_out = self.tg_vae(batch, self._road_graph)
        rp_out = self.rp_vae(batch)
        total = tg_out.loss + rp_out.loss
        return CausalTADLoss(total=total, tg_loss=tg_out.loss.item(), rp_loss=rp_out.loss.item())

    # ------------------------------------------------------------------ #
    # scoring (Eq. 10)
    # ------------------------------------------------------------------ #
    def inference_engine(self) -> InferenceEngine:
        """The model's graph-free batched scorer (built lazily, then reused).

        The engine reads parameters at call time, so it stays valid across
        in-place optimiser updates and ``load_state_dict``.
        """
        if self._engine is None:
            self._engine = InferenceEngine(self)
        return self._engine

    def score_batch(
        self,
        batch: EncodedBatch,
        lambda_weight: Optional[float] = None,
        use_scaling: bool = True,
    ) -> np.ndarray:
        """Debiased anomaly scores for a batch (higher = more anomalous).

        ``lambda_weight`` overrides the configured λ (the Fig. 8 sweep re-scores
        the same trained model with different λ without retraining);
        ``use_scaling=False`` drops the RP-VAE term entirely (the TG-VAE
        ablation of Table III).  Scored by the graph-free batched engine.
        """
        lam = self.config.lambda_weight if lambda_weight is None else lambda_weight
        include_scaling = use_scaling and lam != 0.0
        decomposition = self.inference_engine().decompose_batch(
            batch, include_scaling=include_scaling
        )
        return decomposition.scores(lam, use_scaling=use_scaling)

    def scaling_factors(self) -> np.ndarray:
        """Per-segment log scaling factors used by Eq. (10).

        With ``config.center_scaling`` the network-wide mean is removed so the
        correction is purely relative (see the config docstring).
        """
        scaling = self.rp_vae.precompute_scaling_factors()
        if self.config.center_scaling:
            scaling = scaling - scaling.mean()
        return scaling

    def score_dataset(
        self,
        dataset: TrajectoryDataset,
        batch_size: Optional[int] = None,
        lambda_weight: Optional[float] = None,
        use_scaling: bool = True,
        engine: Optional[str] = None,
    ) -> np.ndarray:
        """Scores for every trajectory of a dataset (in dataset order).

        The default ``"numpy"`` engine scores in length-bucketed batches
        through reusable workspaces (``batch_size=None`` lets it pack batches
        to its position budget).  ``engine="graph"`` runs the eval-mode
        autograd forward (``TGVAE.negative_elbo``) per batch of 64 by default:
        the one Tensor scoring path, kept as the reference the numpy engine
        is checked against.
        """
        lam = self.config.lambda_weight if lambda_weight is None else lambda_weight
        if resolve_engine(engine) == "numpy":
            include_scaling = use_scaling and lam != 0.0
            decomposition = self.inference_engine().decompose_dataset(
                dataset, batch_size=batch_size, include_scaling=include_scaling
            )
            return decomposition.scores(lam, use_scaling=use_scaling)
        scores = np.empty(len(dataset), dtype=np.float64)
        cursor = 0
        was_training = self.training
        self.eval()
        try:
            with no_grad():
                for batch in dataset.iter_batches(batch_size or 64, shuffle=False):
                    batch_scores = self.tg_vae.negative_elbo(batch, self._road_graph)
                    if use_scaling and lam != 0.0:
                        scaling = self.scaling_factors()
                        batch_scores = batch_scores - lam * self._sum_scaling(batch, scaling)
                    scores[cursor : cursor + len(batch_scores)] = batch_scores
                    cursor += len(batch_scores)
        finally:
            self.train(was_training)
        return scores

    def score_decomposition(
        self,
        dataset: TrajectoryDataset,
        batch_size: Optional[int] = None,
        include_scaling: bool = True,
    ) -> ScoreDecomposition:
        """One engine pass over a dataset, returned as its score decomposition.

        The decomposition carries every reusable piece of Eq. 10 — likelihood
        components, per-step log-probabilities and per-trajectory scaling sums
        — so ablations, per-segment breakdowns and λ sweeps compose from it
        without re-running the model.
        """
        return self.inference_engine().decompose_dataset(
            dataset, batch_size=batch_size, include_scaling=include_scaling
        )

    def lambda_sweep_scores(
        self,
        dataset: TrajectoryDataset,
        lambdas: Sequence[float],
        batch_size: Optional[int] = None,
    ) -> np.ndarray:
        """Scores for a whole λ grid, shape ``(len(lambdas), len(dataset))``.

        The dataset is scored **once** and the grid is evaluated as the
        vectorized ``likelihood − λ ⊗ scaling`` outer product (Fig. 8 at O(1)
        model forwards per grid point).
        """
        decomposition = self.score_decomposition(dataset, batch_size=batch_size)
        return decomposition.lambda_sweep(lambdas)

    def score_trajectory(
        self,
        trajectory: MapMatchedTrajectory,
        lambda_weight: Optional[float] = None,
        use_scaling: bool = True,
    ) -> float:
        """Score a single trajectory."""
        batch = encode_batch([trajectory], self.config.num_segments)
        return float(
            self.score_batch(batch, lambda_weight=lambda_weight, use_scaling=use_scaling)[0]
        )

    def _sum_scaling(self, batch: EncodedBatch, scaling: np.ndarray) -> np.ndarray:
        """Σ_i log E[1/P(t_i|e_i)] per trajectory, over valid segments."""
        segments = batch.full_segments
        valid = batch.full_mask
        safe = np.where(valid, segments, 0)
        values = scaling[safe] * valid
        return values.sum(axis=1)

    # ------------------------------------------------------------------ #
    # per-segment breakdown (Eq. 11 / Fig. 4)
    # ------------------------------------------------------------------ #
    def segment_score_breakdown(
        self,
        trajectory: MapMatchedTrajectory,
        lambda_weight: Optional[float] = None,
    ) -> SegmentScoreBreakdown:
        """Decompose a trajectory's score into per-segment contributions.

        One model evaluation supplies both the per-segment breakdown and the
        trajectory's ``total_score`` — consumers (Fig. 4) no longer re-score
        the trajectory to report its total.
        """
        lam = self.config.lambda_weight if lambda_weight is None else lambda_weight
        batch = encode_batch([trajectory], self.config.num_segments)
        decomposition = self.inference_engine().decompose_batch(batch)
        step_scores = decomposition.step_scores()[0]
        scaling = self.scaling_factors()
        total = float(decomposition.scores(lam)[0])
        target_segments = np.asarray(trajectory.segments[1:], dtype=np.int64)
        likelihood_scores = step_scores[: len(target_segments)]
        scaling_scores = scaling[target_segments]
        debiased = likelihood_scores - lam * scaling_scores
        return SegmentScoreBreakdown(
            segments=target_segments,
            likelihood_scores=likelihood_scores,
            scaling_scores=scaling_scores,
            debiased_scores=debiased,
            total_score=total,
        )
