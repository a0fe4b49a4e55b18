"""``repro.core`` — the paper's primary contribution.

Contains the CausalTAD model (TG-VAE + RP-VAE), its configuration, the
training loop, and the online detector with O(1) per-segment score updates.
"""

from repro.core.config import CausalTADConfig, TrainingConfig
from repro.core.inference import (
    EngineStats,
    InferenceEngine,
    ScoreDecomposition,
    Seq2SeqInferenceEngine,
    resolve_engine,
)
from repro.core.tg_vae import TGVAE, TGVAEOutput
from repro.core.rp_vae import RPVAE, RPVAEOutput
from repro.core.causal_tad import CausalTAD, CausalTADLoss, SegmentScoreBreakdown
from repro.core.trainer import Trainer, TrainingHistory
from repro.core.online import OnlineDetector, OnlineSession
from repro.core.scoring_kernel import (
    SessionInit,
    advance_sessions,
    can_advance,
    init_session_states,
    validate_segment_ids,
)

__all__ = [
    "CausalTADConfig",
    "TrainingConfig",
    "TGVAE",
    "TGVAEOutput",
    "RPVAE",
    "RPVAEOutput",
    "CausalTAD",
    "CausalTADLoss",
    "SegmentScoreBreakdown",
    "Trainer",
    "TrainingHistory",
    "OnlineDetector",
    "OnlineSession",
    "SessionInit",
    "advance_sessions",
    "can_advance",
    "init_session_states",
    "validate_segment_ids",
    "InferenceEngine",
    "Seq2SeqInferenceEngine",
    "ScoreDecomposition",
    "EngineStats",
    "resolve_engine",
]
