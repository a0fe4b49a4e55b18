"""Configuration for CausalTAD and its trainer.

Defaults follow the paper's experiment parameters (§VI-A5): hidden dimension
128, Adam with initial learning rate 0.01, 200 training epochs, λ = 0.1 after
grid search.  The reproduction exposes smaller presets because the numpy
substrate trains on CPU: the relative behaviour (CausalTAD > baselines,
ID > OOD gap narrowing) is preserved at hidden dimension 32–64 and a few
dozen epochs on the synthetic cities.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["CausalTADConfig", "TrainingConfig"]


@dataclass(frozen=True)
class CausalTADConfig:
    """Architecture and scoring hyperparameters of CausalTAD.

    Attributes
    ----------
    num_segments:
        Number of road segments in the network (the prediction vocabulary).
        The embedding tables reserve one extra row for padding.
    embedding_dim:
        Dimension of the segment embeddings ``E_c``, ``E_r`` and ``E_s``.
    hidden_dim:
        Hidden dimension of the SD encoder MLP and the GRU trajectory decoder
        (the paper uses 128).
    latent_dim:
        Dimension of the latent variables ``R`` (TG-VAE) and ``E_i`` (RP-VAE).
    lambda_weight:
        The constant λ balancing likelihood and scaling factor in the debiased
        anomaly score (Eq. 10); the paper's grid search selects 0.1.
    kl_weight:
        Weight on the KL terms during training (1.0 reproduces the paper's
        plain ELBO; smaller values are exposed for ablations).
    num_scaling_samples:
        Monte-Carlo samples of ``e_i ~ Q2(E_i | t_i)`` used to estimate the
        per-segment scaling factor ``E[1 / P(t_i | e_i)]``.
    road_constrained:
        Whether the trajectory decoder masks the next-segment softmax to graph
        neighbours of the current segment (paper §V-B; exposed for ablation).
    use_sd_decoder:
        Whether the SD decoder (posterior-collapse prevention) is active
        (exposed for ablation).
    center_scaling:
        Extension beyond the paper: subtract the network-wide mean log scaling
        factor from every segment's factor before applying Eq. (10).  The
        paper's raw factor is strictly positive, so Σ_i log E[1/P(t_i|e_i)]
        grows with trajectory length and partially cancels the extra length
        signal of detour anomalies; centring keeps the *relative* popular-vs-
        unpopular correction while removing that length bias.  Off by default
        (faithful to Eq. 10); the ablation benchmark evaluates both settings.
    """

    num_segments: int
    embedding_dim: int = 64
    hidden_dim: int = 64
    latent_dim: int = 32
    lambda_weight: float = 0.1
    kl_weight: float = 1.0
    num_scaling_samples: int = 8
    road_constrained: bool = True
    use_sd_decoder: bool = True
    center_scaling: bool = False

    def __post_init__(self) -> None:
        if self.num_segments <= 1:
            raise ValueError("num_segments must be greater than 1")
        for name in ("embedding_dim", "hidden_dim", "latent_dim", "num_scaling_samples"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.lambda_weight < 0:
            raise ValueError("lambda_weight must be non-negative")
        if self.kl_weight < 0:
            raise ValueError("kl_weight must be non-negative")

    @property
    def vocab_size(self) -> int:
        """Embedding table size: all segments plus one padding row."""
        return self.num_segments + 1

    @property
    def pad_id(self) -> int:
        """Index of the padding row."""
        return self.num_segments

    def with_lambda(self, lambda_weight: float) -> "CausalTADConfig":
        """A copy with a different λ (used by the Fig. 8 sweep — no retraining)."""
        return replace(self, lambda_weight=lambda_weight)

    @classmethod
    def paper(cls, num_segments: int) -> "CausalTADConfig":
        """The paper's configuration (hidden dimension 128)."""
        return cls(num_segments=num_segments, embedding_dim=128, hidden_dim=128, latent_dim=64)

    @classmethod
    def small(cls, num_segments: int) -> "CausalTADConfig":
        """A CPU-friendly configuration used by the benchmark harness."""
        return cls(num_segments=num_segments, embedding_dim=48, hidden_dim=48, latent_dim=24)

    @classmethod
    def tiny(cls, num_segments: int) -> "CausalTADConfig":
        """A minimal configuration for unit tests."""
        return cls(
            num_segments=num_segments,
            embedding_dim=16,
            hidden_dim=16,
            latent_dim=8,
            num_scaling_samples=3,
        )


@dataclass(frozen=True)
class TrainingConfig:
    """Optimisation parameters for :class:`repro.core.trainer.Trainer`.

    ``bucketing`` selects the mini-batch length-bucketing strategy of
    :meth:`repro.trajectory.dataset.TrajectoryDataset.iter_batches`:
    ``"length"`` (default) builds near-homogeneous-length batches so the fused
    sequence kernels waste almost no padded timesteps; ``"chunk"`` is the
    milder chunk-local sort; ``"none"`` disables bucketing.
    """

    epochs: int = 30
    batch_size: int = 32
    learning_rate: float = 0.01
    grad_clip: float = 5.0
    weight_decay: float = 0.0
    validation_fraction: float = 0.0
    log_every: int = 0
    seed: int = 0
    bucketing: str = "length"

    def __post_init__(self) -> None:
        if self.epochs <= 0 or self.batch_size <= 0:
            raise ValueError("epochs and batch_size must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not 0.0 <= self.validation_fraction < 1.0:
            raise ValueError("validation_fraction must lie in [0, 1)")
        if self.bucketing not in ("chunk", "length", "none"):
            raise ValueError(f"unknown bucketing mode '{self.bucketing}'")

    @classmethod
    def paper(cls) -> "TrainingConfig":
        """The paper's schedule: 200 epochs, learning rate 0.01."""
        return cls(epochs=200, batch_size=64, learning_rate=0.01)

    @classmethod
    def fast(cls) -> "TrainingConfig":
        """A CPU-friendly schedule for the benchmark harness."""
        return cls(epochs=25, batch_size=32, learning_rate=0.01)

    @classmethod
    def tiny(cls) -> "TrainingConfig":
        """A minimal schedule for unit tests."""
        return cls(epochs=3, batch_size=16, learning_rate=0.02)
